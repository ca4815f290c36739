//! Byte-identity goldens pinning the unified scenario/registry pipeline
//! outputs.
//!
//! The files under `tests/golden/`:
//!
//! * `sweep_smoke.json` — `bsor-sweep --quick --no-timings --threads 2`.
//!   Originally captured from the pre-refactor string-matched glue
//!   (`routes_by_name`/`workload_by_name`); re-captured when the sweep
//!   schema moved to `bsor-sweep/v2` (latency percentiles, channel
//!   load, burst/saturation knobs) after verifying field-by-field that
//!   every v1 key and value — every case, every point — was unchanged,
//!   so the underlying simulation results still match the pre-refactor
//!   engine bit-for-bit. Re-captured again when the compact-tables
//!   subsystem added the `grid.compact_tables` and per-case
//!   `table_bytes` keys, after the same structural check: stripping the
//!   two new keys from the fresh output reproduces the previous golden
//!   exactly, so every simulation number is still bit-for-bit.
//!
//! The figure goldens (`fig_6_*_quick.*`) are pinned by
//! `golden_figures.rs`. The pipeline must reproduce the sweep
//! byte-for-byte at the fixed seeds.

use bsor_bench::sweep::{run_grid, sweep_json, GridSpec};

#[test]
fn sweep_smoke_json_is_byte_identical_to_pre_refactor() {
    let mut spec = GridSpec::smoke();
    spec.record_timings = false;
    let results = run_grid(&spec, 2);
    let doc = sweep_json(&spec, &results, 2, 0.0).pretty();
    assert_eq!(
        doc,
        include_str!("golden/sweep_smoke.json"),
        "registry-driven sweep diverged from the pre-refactor BENCH_sweep.json"
    );
}
