//! Compressed routing state: interval tables over the CSR arenas.
//!
//! The dense [`NodeTables`] arena stores one entry per (node, flow,
//! visit) — exact but linear in total route hops, which is the binding
//! memory cost at 64x64+ (a 64x64 uniform-random case compiles ~700M
//! entries). [`CompactTables`] stores the same routing function as
//! *intervals*: runs of cursors at a node that share an entry collapse
//! into one record, looked up by binary search. Two keyings are built,
//! picked automatically per route set:
//!
//! * **Destination-keyed** (`dst-interval`) — when the route set is
//!   *destination-consistent* (at every node, all routes toward the
//!   same destination leave on the same `(out_link, vcs)`, and no route
//!   passes through its own destination), the packet cursor is simply
//!   the destination node id. Dimension-order families compress
//!   extremely well here: XY on a `w x h` mesh needs about `3h`
//!   intervals per node regardless of the flow count — this is the
//!   "prefix" path for grid families (a run of row-major destination
//!   ids is exactly a coordinate prefix).
//! * **Flow-keyed** (`flow-interval`) — the general fallback: the
//!   cursor is `visit * num_flows + flow`, where `visit` counts how
//!   many times the route has already left this node (so non-simple
//!   routes — Valiant through a shared waypoint, detouring walks —
//!   stay representable). Runs of adjacent flow ids sharing
//!   `(out_link, vcs, next_visit, last)` collapse.
//!
//! Both realize [`RouteTables`], so the simulator executes them with
//! byte-identical results to the dense arena at a fixed seed; the
//! differential suite in `bsor-bench` proves hop-for-hop equality
//! across topology x algorithm x VC.

use crate::route::{RouteSet, VcMask};
use crate::tables::{NodeTables, RouteTables, TableEntry};
use bsor_flow::FlowId;
use bsor_topology::{LinkId, NodeId, Topology};

/// One destination-keyed interval: destination-id cursors in
/// `[lo, next.lo)` at this node share the entry. Runs may span
/// destination ids no route queries at this node — such cursors are
/// never looked up here, so folding them into the nearest run below is
/// sound and improves compression.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct DstIval {
    lo: u32,
    out_link: LinkId,
    vcs: VcMask,
    /// Node `out_link` enters, cached so the ejection test
    /// (`link_dst == cursor`) needs no topology access per lookup.
    link_dst: u32,
}

/// One flow-keyed interval over `visit * num_flows + flow` cursors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct FlowIval {
    lo: u32,
    out_link: LinkId,
    vcs: VcMask,
    /// Visit ordinal the route has at the next node (0 for simple
    /// paths; >0 only when the route re-crosses a node).
    next_visit: u16,
    /// Last hop: the packet ejects at `out_link`'s destination.
    last: bool,
}

#[derive(Clone, Debug, PartialEq)]
enum Body {
    Dst(Vec<DstIval>),
    Flow {
        ivals: Vec<FlowIval>,
        num_flows: u32,
    },
}

/// Interval-compressed routing tables (see the module docs).
///
/// Like [`NodeTables`], storage is one flat arena in CSR layout — node
/// `n` owns `ivals[offsets[n] .. offsets[n + 1]]` — so a lookup is one
/// binary search over that node's (usually short) interval list.
#[derive(Clone, Debug, PartialEq)]
pub struct CompactTables {
    /// CSR offsets into the interval arena, one per node plus sentinel.
    offsets: Vec<u32>,
    body: Body,
    /// Per-flow initial cursor (destination ids; empty in flow keying,
    /// where the initial cursor is the flow id itself).
    initial: Vec<u32>,
}

/// Scratch record for the destination-keyed build.
#[derive(Clone, Copy)]
struct DstScratch {
    dst: u32,
    out_link: LinkId,
    vcs: VcMask,
    link_dst: u32,
}

/// Scratch record for the flow-keyed build.
#[derive(Clone, Copy)]
struct FlowScratch {
    key: u32,
    out_link: LinkId,
    vcs: VcMask,
    next_visit: u16,
    last: bool,
}

impl CompactTables {
    /// Compresses a route set, choosing destination keying when the set
    /// is destination-consistent and falling back to flow keying
    /// otherwise. Either way the resulting tables route every flow
    /// hop-for-hop identically to [`NodeTables::build`] on `routes`.
    pub fn build(topo: &Topology, routes: &RouteSet) -> CompactTables {
        CompactTables::try_build_dst(topo, routes)
            .unwrap_or_else(|| CompactTables::build_flow(topo, routes))
    }

    /// The representation actually chosen.
    pub fn mode(&self) -> &'static str {
        match self.body {
            Body::Dst(_) => "dst-interval",
            Body::Flow { .. } => "flow-interval",
        }
    }

    /// Total interval records across all nodes.
    pub fn num_intervals(&self) -> usize {
        match &self.body {
            Body::Dst(ivals) => ivals.len(),
            Body::Flow { ivals, .. } => ivals.len(),
        }
    }

    /// Destination-keyed build; `None` when the route set is not
    /// destination-consistent (conflicting exits for one destination at
    /// a node, or a route crossing its own destination mid-way).
    fn try_build_dst(topo: &Topology, routes: &RouteSet) -> Option<CompactTables> {
        let nn = topo.num_nodes();
        // Pass 1: size each node's scratch bucket.
        let mut counts = vec![0u32; nn];
        for route in routes.iter() {
            for hop in &route.hops {
                counts[topo.link(hop.link).src.index()] += 1;
            }
        }
        let mut starts = Vec::with_capacity(nn + 1);
        starts.push(0u32);
        for &c in &counts {
            starts.push(starts.last().expect("nonempty") + c);
        }
        let total = *starts.last().expect("nonempty") as usize;
        let mut scratch = vec![
            DstScratch {
                dst: 0,
                out_link: LinkId(0),
                vcs: VcMask(0),
                link_dst: 0,
            };
            total
        ];
        // Pass 2: fill, rejecting routes that cross their destination.
        let mut filled = vec![0u32; nn];
        let mut initial = Vec::with_capacity(routes.len());
        for route in routes.iter() {
            let last = route.hops.last().expect("routes are nonempty");
            let dst = topo.link(last.link).dst;
            initial.push(dst.0);
            for (i, hop) in route.hops.iter().enumerate() {
                let link = topo.link(hop.link);
                if link.dst == dst && i + 1 != route.hops.len() {
                    // Passing through the destination: the cursor would
                    // eject early. Not destination-consistent.
                    return None;
                }
                let node = link.src.index();
                scratch[(starts[node] + filled[node]) as usize] = DstScratch {
                    dst: dst.0,
                    out_link: hop.link,
                    vcs: hop.vcs,
                    link_dst: link.dst.0,
                };
                filled[node] += 1;
            }
        }
        // Per node: order by destination, detect conflicts, collapse
        // runs (gaps between queried destinations merge freely).
        let mut offsets = Vec::with_capacity(nn + 1);
        offsets.push(0u32);
        let mut ivals: Vec<DstIval> = Vec::new();
        for n in 0..nn {
            let bucket = &mut scratch[starts[n] as usize..starts[n + 1] as usize];
            bucket.sort_unstable_by_key(|s| s.dst);
            let mut prev: Option<DstScratch> = None;
            for s in bucket.iter() {
                match prev {
                    Some(p) if p.dst == s.dst => {
                        if p.out_link != s.out_link || p.vcs != s.vcs {
                            return None; // two exits for one destination
                        }
                    }
                    Some(p) if p.out_link == s.out_link && p.vcs == s.vcs => {
                        prev = Some(*s); // extend the run across the gap
                    }
                    _ => {
                        ivals.push(DstIval {
                            lo: s.dst,
                            out_link: s.out_link,
                            vcs: s.vcs,
                            link_dst: s.link_dst,
                        });
                        prev = Some(*s);
                    }
                }
            }
            offsets.push(ivals.len() as u32);
        }
        ivals.shrink_to_fit();
        Some(CompactTables {
            offsets,
            body: Body::Dst(ivals),
            initial,
        })
    }

    /// Flow-keyed build: always succeeds (cursor space `visit *
    /// num_flows + flow` distinguishes node re-crossings).
    ///
    /// # Panics
    ///
    /// Panics if the cursor space overflows `u32` (`(max_visits + 1) *
    /// num_flows` beyond 4 billion).
    fn build_flow(topo: &Topology, routes: &RouteSet) -> CompactTables {
        let nn = topo.num_nodes();
        let num_flows = u32::try_from(routes.len()).expect("flow count fits u32");
        let mut counts = vec![0u32; nn];
        for route in routes.iter() {
            for hop in &route.hops {
                counts[topo.link(hop.link).src.index()] += 1;
            }
        }
        let mut starts = Vec::with_capacity(nn + 1);
        starts.push(0u32);
        for &c in &counts {
            starts.push(starts.last().expect("nonempty") + c);
        }
        let total = *starts.last().expect("nonempty") as usize;
        let mut scratch = vec![
            FlowScratch {
                key: 0,
                out_link: LinkId(0),
                vcs: VcMask(0),
                next_visit: 0,
                last: false,
            };
            total
        ];
        let mut filled = vec![0u32; nn];
        // Per-node visit counters, touched only on a route's own nodes
        // and reset by re-walking it (keeps the build O(total hops)).
        let mut visit_ctr = vec![0u16; nn];
        let mut visits: Vec<u16> = Vec::new();
        for (fi, route) in routes.iter().enumerate() {
            visits.clear();
            for hop in &route.hops {
                let node = topo.link(hop.link).src.index();
                visits.push(visit_ctr[node]);
                visit_ctr[node] += 1;
            }
            for (i, hop) in route.hops.iter().enumerate() {
                let link = topo.link(hop.link);
                let node = link.src.index();
                let visit = visits[i];
                let key_wide = u64::from(visit) * u64::from(num_flows) + fi as u64;
                let key = u32::try_from(key_wide).expect("flow-interval cursor fits u32");
                scratch[(starts[node] + filled[node]) as usize] = FlowScratch {
                    key,
                    out_link: hop.link,
                    vcs: hop.vcs,
                    next_visit: if i + 1 < route.hops.len() {
                        visits[i + 1]
                    } else {
                        0
                    },
                    last: i + 1 == route.hops.len(),
                };
                filled[node] += 1;
            }
            for hop in &route.hops {
                visit_ctr[topo.link(hop.link).src.index()] = 0;
            }
        }
        let mut offsets = Vec::with_capacity(nn + 1);
        offsets.push(0u32);
        let mut ivals: Vec<FlowIval> = Vec::new();
        for n in 0..nn {
            let bucket = &mut scratch[starts[n] as usize..starts[n + 1] as usize];
            bucket.sort_unstable_by_key(|s| s.key);
            let mut prev: Option<FlowScratch> = None;
            for s in bucket.iter() {
                debug_assert!(
                    prev.is_none_or(|p| p.key != s.key),
                    "(node, flow, visit) keys are unique"
                );
                let mergeable = prev.is_some_and(|p| {
                    p.out_link == s.out_link
                        && p.vcs == s.vcs
                        && p.next_visit == s.next_visit
                        && p.last == s.last
                });
                if !mergeable {
                    ivals.push(FlowIval {
                        lo: s.key,
                        out_link: s.out_link,
                        vcs: s.vcs,
                        next_visit: s.next_visit,
                        last: s.last,
                    });
                }
                prev = Some(*s);
            }
            offsets.push(ivals.len() as u32);
        }
        ivals.shrink_to_fit();
        CompactTables {
            offsets,
            body: Body::Flow { ivals, num_flows },
            initial: Vec::new(),
        }
    }
}

impl RouteTables for CompactTables {
    fn initial_cursor(&self, flow: FlowId) -> u32 {
        match self.body {
            // Cursor = destination id.
            Body::Dst(_) => self.initial[flow.index()],
            // Cursor = visit * num_flows + flow; the first hop leaves
            // the source on visit 0.
            Body::Flow { .. } => flow.0,
        }
    }

    fn entry(&self, node: NodeId, cursor: u32) -> TableEntry {
        let n = node.index();
        let lo = self.offsets[n] as usize;
        let hi = self.offsets[n + 1] as usize;
        match &self.body {
            Body::Dst(ivals) => {
                let s = &ivals[lo..hi];
                let i = s.partition_point(|iv| iv.lo <= cursor);
                debug_assert!(i > 0, "cursor below node's first interval");
                let iv = s[i - 1];
                TableEntry {
                    out_link: iv.out_link,
                    vcs: iv.vcs,
                    next_index: (iv.link_dst != cursor).then_some(cursor),
                }
            }
            Body::Flow { ivals, num_flows } => {
                let s = &ivals[lo..hi];
                let i = s.partition_point(|iv| iv.lo <= cursor);
                debug_assert!(i > 0, "cursor below node's first interval");
                let iv = s[i - 1];
                let flow = cursor % num_flows;
                TableEntry {
                    out_link: iv.out_link,
                    vcs: iv.vcs,
                    next_index: (!iv.last).then_some(u32::from(iv.next_visit) * num_flows + flow),
                }
            }
        }
    }

    fn table_bytes(&self) -> usize {
        let body = match &self.body {
            Body::Dst(ivals) => ivals.len() * std::mem::size_of::<DstIval>(),
            Body::Flow { ivals, .. } => ivals.len() * std::mem::size_of::<FlowIval>(),
        };
        self.offsets.len() * std::mem::size_of::<u32>()
            + body
            + self.initial.len() * std::mem::size_of::<u32>()
    }
}

/// A routing table in either representation, chosen at plan-build time.
///
/// This is what `bsor_sim`-level plans store: the planner decides
/// dense vs compact once and everything downstream (simulator, cache
/// byte accounting, serve responses) goes through [`RouteTables`].
#[derive(Clone, Debug, PartialEq)]
pub enum AnyTables {
    /// The dense per-(node, flow) CSR arena.
    Dense(NodeTables),
    /// The interval-compressed representation.
    Compact(CompactTables),
}

impl AnyTables {
    /// Builds the requested representation from a route set.
    pub fn build(topo: &Topology, routes: &RouteSet, compact: bool) -> AnyTables {
        if compact {
            AnyTables::Compact(CompactTables::build(topo, routes))
        } else {
            AnyTables::Dense(NodeTables::build(topo, routes))
        }
    }

    /// True for the compressed representation.
    pub fn is_compact(&self) -> bool {
        matches!(self, AnyTables::Compact(_))
    }

    /// Representation name: `dense`, `dst-interval` or `flow-interval`.
    pub fn mode(&self) -> &'static str {
        match self {
            AnyTables::Dense(_) => "dense",
            AnyTables::Compact(t) => t.mode(),
        }
    }

    /// The dense tables, when that representation was built.
    pub fn as_dense(&self) -> Option<&NodeTables> {
        match self {
            AnyTables::Dense(t) => Some(t),
            AnyTables::Compact(_) => None,
        }
    }
}

impl RouteTables for AnyTables {
    #[inline]
    fn initial_cursor(&self, flow: FlowId) -> u32 {
        match self {
            AnyTables::Dense(t) => t.initial_cursor(flow),
            AnyTables::Compact(t) => t.initial_cursor(flow),
        }
    }

    #[inline]
    fn entry(&self, node: NodeId, cursor: u32) -> TableEntry {
        match self {
            AnyTables::Dense(t) => t.entry(node, cursor),
            AnyTables::Compact(t) => t.entry(node, cursor),
        }
    }

    fn table_bytes(&self) -> usize {
        match self {
            AnyTables::Dense(t) => t.table_bytes(),
            AnyTables::Compact(t) => t.table_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::Baseline;
    use crate::route::{Route, RouteHop};
    use bsor_flow::FlowSet;

    fn all_pairs_flows(topo: &Topology) -> FlowSet {
        let mut flows = FlowSet::new();
        for s in topo.node_ids() {
            for d in topo.node_ids() {
                if s != d {
                    flows.push(s, d, 10.0);
                }
            }
        }
        flows
    }

    /// Every flow's compact walk equals the dense walk.
    fn assert_walks_match(topo: &Topology, flows: &FlowSet, routes: &RouteSet) {
        let dense = NodeTables::build(topo, routes);
        let compact = CompactTables::build(topo, routes);
        for f in flows.iter() {
            assert_eq!(
                compact.walk_route(topo, f.id, f.src),
                dense.walk(topo, f.id, f.src),
                "walk mismatch for flow {} under {}",
                f.id,
                compact.mode()
            );
        }
    }

    #[test]
    fn xy_compresses_to_destination_intervals() {
        let topo = Topology::mesh2d(8, 8);
        let flows = all_pairs_flows(&topo);
        let routes = Baseline::XY.select(&topo, &flows, 2).expect("xy");
        let compact = CompactTables::build(&topo, &routes);
        assert_eq!(compact.mode(), "dst-interval");
        assert_walks_match(&topo, &flows, &routes);
        let dense = NodeTables::build(&topo, &routes);
        assert!(
            compact.table_bytes() * 4 <= dense.table_bytes(),
            "XY all-pairs must compress at least 4x: {} vs {}",
            compact.table_bytes(),
            dense.table_bytes()
        );
        // XY at a node changes exit only at column boundaries: the
        // interval count stays around 3 per destination row.
        assert!(compact.num_intervals() < topo.num_nodes() * 4 * topo.height() as usize);
    }

    #[test]
    fn per_hop_entries_project_identically() {
        // Beyond walks: the (out_link, vcs) of every chained entry must
        // match between representations at every step.
        let topo = Topology::mesh2d(6, 6);
        let flows = all_pairs_flows(&topo);
        let routes = Baseline::YX.select(&topo, &flows, 2).expect("yx");
        let dense = NodeTables::build(&topo, &routes);
        let compact = CompactTables::build(&topo, &routes);
        for f in flows.iter() {
            let mut node = f.src;
            let mut dc = Some(dense.initial_cursor(f.id));
            let mut cc = Some(compact.initial_cursor(f.id));
            while let (Some(d), Some(c)) = (dc, cc) {
                let de = dense.entry(node, d);
                let ce = compact.entry(node, c);
                assert_eq!((de.out_link, de.vcs), (ce.out_link, ce.vcs));
                assert_eq!(de.next_index.is_none(), ce.next_index.is_none());
                node = topo.link(de.out_link).dst;
                dc = de.next_index;
                cc = ce.next_index;
            }
            assert_eq!(dc, None);
            assert_eq!(cc, None);
        }
    }

    #[test]
    fn randomized_baselines_fall_back_and_stay_exact() {
        // ROMM/Valiant route per flow (not per destination), so the
        // destination keying usually conflicts; whatever mode is chosen
        // must stay hop-exact.
        let topo = Topology::mesh2d(5, 5);
        let flows = all_pairs_flows(&topo);
        for routes in [
            Baseline::Romm { seed: 3 }
                .select(&topo, &flows, 4)
                .expect("romm"),
            Baseline::Valiant { seed: 3 }
                .select(&topo, &flows, 4)
                .expect("valiant"),
        ] {
            assert_walks_match(&topo, &flows, &routes);
        }
    }

    #[test]
    fn route_crossing_its_destination_uses_flow_keying() {
        // 0 -> 1 -> 2 -> 5 -> 4 -> 1 on a 3x3 mesh: enters its
        // destination (node 1) mid-route, which destination keying
        // cannot express.
        let topo = Topology::mesh2d(3, 3);
        let n = |i: u32| NodeId(i);
        let hop = |a: u32, b: u32| RouteHop {
            link: topo.find_link(n(a), n(b)).expect("adjacent"),
            vcs: VcMask::all(2),
        };
        let mut flows = FlowSet::new();
        flows.push(n(0), n(1), 1.0);
        let routes = RouteSet::from_routes(vec![Route {
            flow: FlowId(0),
            hops: vec![hop(0, 1), hop(1, 2), hop(2, 5), hop(5, 4), hop(4, 1)],
        }]);
        let compact = CompactTables::build(&topo, &routes);
        assert_eq!(compact.mode(), "flow-interval");
        assert_walks_match(&topo, &flows, &routes);
    }

    #[test]
    fn node_revisits_are_distinguished_by_visit_ordinal() {
        // 0 -> 1 -> 0 -> 2: node 0 issues two different hops for the
        // same flow, exercising the visit-keyed cursor.
        let topo = Topology::mesh2d(2, 2);
        let n = |i: u32| NodeId(i);
        let hop = |a: u32, b: u32| RouteHop {
            link: topo.find_link(n(a), n(b)).expect("adjacent"),
            vcs: VcMask::all(2),
        };
        let mut flows = FlowSet::new();
        flows.push(n(0), n(2), 1.0);
        let routes = RouteSet::from_routes(vec![Route {
            flow: FlowId(0),
            hops: vec![hop(0, 1), hop(1, 0), hop(0, 2)],
        }]);
        let compact = CompactTables::build(&topo, &routes);
        assert_eq!(compact.mode(), "flow-interval");
        assert_walks_match(&topo, &flows, &routes);
    }

    #[test]
    fn any_tables_dispatch_matches_either_representation() {
        let topo = Topology::mesh2d(4, 4);
        let flows = all_pairs_flows(&topo);
        let routes = Baseline::XY.select(&topo, &flows, 2).expect("xy");
        let dense = AnyTables::build(&topo, &routes, false);
        let compact = AnyTables::build(&topo, &routes, true);
        assert!(!dense.is_compact());
        assert!(compact.is_compact());
        assert_eq!(dense.mode(), "dense");
        assert!(dense.as_dense().is_some());
        assert!(compact.as_dense().is_none());
        for f in flows.iter() {
            assert_eq!(
                dense.walk_route(&topo, f.id, f.src),
                compact.walk_route(&topo, f.id, f.src)
            );
        }
        assert!(compact.table_bytes() < dense.table_bytes());
    }
}
