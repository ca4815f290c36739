//! The cycle-accurate simulation engine.
//!
//! Router model (per cycle, single-cycle per hop as in paper §6.1):
//!
//! 1. **Generation** — Bernoulli or on/off bursty packet arrivals per
//!    flow (optionally Markov-modulated, optionally phase-scheduled)
//!    into per-node source queues. A flow at rate `p` fires `trunc(p)`
//!    packets and then one more with probability `fract(p)`, decided by
//!    one 53-bit draw against an integer threshold. Plain Bernoulli
//!    traffic (phase schedules allowed) computes every flow's
//!    thresholds once per phase scale, so each flow costs one RNG draw
//!    and one integer compare per cycle, and none at rate 0 or at an
//!    integer rate. Packet creation runs out of line, off the per-flow
//!    loop.
//! 2. **RC + VA** — head flits at buffer fronts look up the node table
//!    (packets carry a table index, paper §4.2.1) and request an output
//!    VC within the hop's VC mask. VC allocation is *atomic*: a VC buffer
//!    holds at most one packet at a time, and a new packet acquires it
//!    only after the previous tail has departed.
//! 3. **SA + ST** — each output channel moves at most one flit per cycle
//!    and each input port forwards at most one flit per cycle (rotating
//!    arbiters); the ejection "channel" moves up to `local_bandwidth`
//!    flits per cycle (the paper's 4× resource links). Arrivals land in
//!    the downstream buffer at the end of the cycle.
//! 4. **Injection** — up to `local_bandwidth` flits move from the source
//!    queue into the injection port's VC buffers.
//!
//! Credits are modelled as direct downstream-occupancy checks (an ideal
//! zero-latency credit loop). A progress watchdog aborts the run and
//! flags `deadlocked` when in-network flits stop moving entirely, which
//! is how the deadlock tests in this crate observe cyclic routings
//! actually jam.
//!
//! # Execution
//!
//! The engine runs one serial router schedule: one pass over the nodes
//! per phase in node-id order, skipping nodes with no occupied input
//! buffer (an exact optimization — arbiter state only advances when a
//! candidate exists).
//!
//! **Fast-forward.** Cycles where the network is provably empty — no
//! flit buffered in any VC, no backlog in any source queue, nothing in
//! the hop pipeline — skip the router phases entirely. Packet
//! generation still runs every cycle (one draw per flow with a
//! fractional rate, plus the on/off and variation dwell draws), so the
//! RNG stream is consumed identically and delivery timing is provably
//! unchanged: a flit sent on resume cycle `t` still lands at the end of
//! `t + pipeline_latency - 1` regardless of how many pipeline slots
//! were skipped. The unit tests hold fast-forward to byte-identical
//! reports against a test-only run that sends every cycle through the
//! router phases.
//!
//! Before the first cycle, [`Simulator::new`] refuses a run the
//! generator could not finish ([`SimError::RunTooLarge`]): a cycle
//! count that overflows `u64`, or a peak packet count (Σ of each
//! flow's peak per-cycle rate × cycles) beyond the `u32` packet-slot
//! ids. The bound also keeps every per-cycle rate below 2^53, where the
//! threshold sampler is exact.

use crate::config::{SimConfig, SimError};
use crate::stats::{FlowStats, RunTiming, SimReport};
use crate::traffic::{BurstState, InjectionProcess, TrafficSpec, VariationState};
use bsor_flow::{FlowId, FlowSet};
use bsor_routing::tables::{NodeTables, RouteTables};
use bsor_routing::RouteSet;
use bsor_topology::{LinkId, NodeId, TopoIndex, Topology};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
struct Flit {
    /// Slot in the simulator's packet arena (unique while the packet is
    /// alive; recycled after the tail ejects).
    packet: u32,
    flow: FlowId,
    is_head: bool,
    is_tail: bool,
    /// Routing-table cursor for the next lookup; `None` on a head means
    /// "eject at the next router". Only meaningful on head flits.
    cursor: Option<u32>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OutKind {
    Forward(LinkId),
    Eject,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PortState {
    /// No packet is being forwarded from this VC buffer.
    Idle,
    /// The head was routed but no output VC is allocated yet.
    Routed {
        out: LinkId,
        mask: u8,
        next_cursor: Option<u32>,
    },
    /// Output VC allocated; body flits follow the head.
    Active {
        out: OutKind,
        out_vc: u8,
        next_cursor: Option<u32>,
    },
}

/// Streaming state of a source queue into the injection port.
#[derive(Clone, Copy, Debug)]
struct InjectionProgress {
    vc: u8,
    remaining: usize,
}

/// Per-packet bookkeeping, indexed by the arena slot the packet's flits
/// carry. Slots are recycled when the tail ejects, so the arena stays as
/// small as the peak number of live packets — no hashing, no growth.
#[derive(Clone, Copy, Debug, Default)]
struct PacketSlot {
    /// Cycle the head flit entered the network (injection-port write).
    entry_cycle: u64,
    /// Whether the packet was generated during measurement (latency and
    /// delivery statistics follow only tracked packets).
    tracked: bool,
}

/// Per-cycle facts every phase needs.
#[derive(Clone, Copy, Debug)]
struct CycleCtx {
    cycle: u64,
    measuring: bool,
}

/// Scratch buffers reused across cycles so the per-cycle loop never
/// allocates. Taken out of the [`Network`] while `switch_node` iterates
/// (so the move/eject calls can borrow the network mutably) and put
/// back when the node finishes.
#[derive(Clone, Debug, Default)]
struct SwitchScratch {
    /// `port_forwarded` flags, sized to the widest router.
    port_forwarded: Vec<bool>,
    /// Per output-link candidate buckets `(input port, buffer index)`,
    /// indexed by the link's position in its node's out-link list and
    /// filled in input-buffer order (the arbitration order).
    forward: Vec<Vec<(u32, u32)>>,
    /// Eject candidates in input-buffer order.
    eject: Vec<(u32, u32)>,
    /// A bucket filtered down to this instant's eligible candidates.
    eligible: Vec<(u32, u32)>,
    /// The current node's output links.
    outs: Vec<LinkId>,
}

// ---------------------------------------------------------------------------
// Cross-case arena reuse
// ---------------------------------------------------------------------------

/// Flit-queue allocations kept alive between simulator instances on the
/// same thread. A sweep worker churning through hundreds of cases reuses
/// the previous case's `VecDeque` heap buffers instead of reallocating
/// `(links + nodes) * vcs` of them per case.
#[derive(Default)]
struct EngineArena {
    bufs: Vec<VecDeque<Flit>>,
    srcs: Vec<VecDeque<Flit>>,
}

thread_local! {
    static ARENA: RefCell<EngineArena> = RefCell::new(EngineArena::default());
}

// ---------------------------------------------------------------------------
// Network state
// ---------------------------------------------------------------------------

/// All router and run state the cycle loop mutates, stored as
/// structure-of-arrays over the dense indices of a [`TopoIndex`].
/// Generation state lives in the [`Injector`].
///
/// Buffer indexing: the buffer downstream of link `l` on VC `v` is
/// index `l * vcs + v`; node `n`'s injection-port buffer on VC `v` is
/// `inj_base + n * vcs + v`.
struct Network {
    /// Flit queues per VC buffer (link buffers, then injection buffers).
    flits: Vec<VecDeque<Flit>>,
    /// Packet currently allowed to occupy each buffer (atomic VCs).
    owner: Vec<Option<u32>>,
    /// RC/VA control state per buffer.
    state: Vec<PortState>,
    /// Undelivered flits already bound for each link buffer (claims
    /// buffer slots ahead of arrival). Link buffers only; at most
    /// `pipeline_latency` per buffer, since a link moves one flit per
    /// cycle.
    transit_counts: Vec<u8>,
    /// Number of non-empty input buffers per node. Nodes at zero are
    /// skipped by the route and switch phases — an exact optimization,
    /// since arbiters only advance when a candidate exists.
    node_occ: Vec<u32>,
    /// Per-node source queues (whole packets, flit by flit).
    src_queues: Vec<VecDeque<Flit>>,
    inj_progress: Vec<Option<InjectionProgress>>,
    rr_out: Vec<usize>,
    rr_eject: Vec<usize>,
    link_flits: Vec<u64>,
    stats: Vec<FlowStats>,
    slots: Vec<PacketSlot>,
    /// Recycled packet-slot ids.
    free_slots: Vec<u32>,

    /// CSR of each node's input buffers in arbitration order (every
    /// in-link's VCs, then the injection VCs): node `n` reads
    /// `node_inputs[node_input_off[n] .. node_input_off[n + 1]]`.
    node_inputs: Vec<u32>,
    node_input_off: Vec<u32>,
    /// Each link's position within its source node's out-link list.
    link_out_pos: Vec<u32>,
    /// Owning (downstream) node of every buffer.
    buf_node: Vec<u32>,
    /// Offset of the first injection-port buffer.
    inj_base: u32,
    scratch: SwitchScratch,

    vcs: usize,
    buffer_depth: usize,
    local_bandwidth: usize,
    packet_len: usize,

    /// Flits sent this cycle: (flat destination buffer, flit), in
    /// switch order.
    sends: Vec<(u32, Flit)>,
    /// Arrivals in flight through the router pipeline: the back slot is
    /// the latest cycle's sends, the front slot delivers after
    /// `pipeline_latency` cycles.
    in_transit: VecDeque<Vec<(u32, Flit)>>,
    /// Emptied send vectors kept for reuse (zero steady-state allocs).
    spare_sends: Vec<Vec<(u32, Flit)>>,
    /// Whether any flit moved this cycle.
    progress: bool,
    in_network_flits: u64,
    /// Flits sitting in source queues, waiting to be injected.
    backlog_flits: u64,
    cycle: u64,
    last_progress: u64,
    generated_total: u64,
    delivered_total: u64,
    delivered_flits: u64,
}

impl Network {
    fn measuring(&self, config: &SimConfig) -> bool {
        self.cycle >= config.warmup && self.cycle < config.warmup + config.measurement
    }

    /// True when the network is provably empty and the router phases can
    /// be skipped outright (the fast-forward condition). `in_network`
    /// covers VC buffers *and* the hop pipeline (flits in transit were
    /// injected but not yet ejected); `backlog` covers source queues.
    fn network_empty(&self) -> bool {
        self.in_network_flits == 0 && self.backlog_flits == 0
    }

    /// Queues `count` new packets of flow `i` at its source node.
    ///
    /// Out of line and cold on purpose: a flow fires on few of the
    /// cycles the generation loop visits it, and keeping the slot, flit
    /// and counter work out of that loop lets it hold its RNG and
    /// per-flow arrays in registers.
    #[cold]
    #[inline(never)]
    fn emit<T: RouteTables>(
        &mut self,
        flows: &FlowSet,
        i: usize,
        count: u32,
        tables: &T,
        measuring: bool,
    ) {
        let flow = flows.flow(FlowId(i as u32));
        let cursor = Some(tables.initial_cursor(flow.id));
        let len = self.packet_len;
        for _ in 0..count {
            let slot = PacketSlot {
                entry_cycle: 0,
                tracked: measuring,
            };
            let packet = match self.free_slots.pop() {
                Some(id) => {
                    self.slots[id as usize] = slot;
                    id
                }
                None => {
                    let id =
                        u32::try_from(self.slots.len()).expect("live packets exceed u32 slots");
                    self.slots.push(slot);
                    id
                }
            };
            let queue = &mut self.src_queues[flow.src.index()];
            for k in 0..len {
                queue.push_back(Flit {
                    packet,
                    flow: flow.id,
                    is_head: k == 0,
                    is_tail: k == len - 1,
                    cursor: if k == 0 { cursor } else { None },
                });
            }
        }
        self.backlog_flits += u64::from(count) * len as u64;
        if measuring {
            self.stats[i].generated += u64::from(count);
            self.generated_total += u64::from(count);
        }
    }

    /// RC + VA for every input buffer of node `n`.
    fn route_node<T: RouteTables>(&mut self, n: usize, tables: &T) {
        let node = NodeId(n as u32);
        let start = self.node_input_off[n] as usize;
        let end = self.node_input_off[n + 1] as usize;
        for &r in &self.node_inputs[start..end] {
            let r = r as usize;
            let Some(front) = self.flits[r].front().copied() else {
                continue;
            };
            let state = &mut self.state[r];
            // RC: a head flit at the front of an Idle buffer gets routed.
            if *state == PortState::Idle {
                debug_assert!(front.is_head, "body flit at front of idle buffer");
                *state = match front.cursor {
                    None => PortState::Active {
                        out: OutKind::Eject,
                        out_vc: 0,
                        next_cursor: None,
                    },
                    Some(idx) => {
                        let entry = tables.entry(node, idx);
                        PortState::Routed {
                            out: entry.out_link,
                            mask: entry.vcs.0,
                            next_cursor: entry.next_index,
                        }
                    }
                };
            }
            // VA: try to claim a downstream VC within the mask.
            if let PortState::Routed {
                out,
                mask,
                next_cursor,
            } = *state
            {
                let out_base = out.index() * self.vcs;
                let chosen = (0..self.vcs as u8)
                    .filter(|v| mask & (1 << v) != 0)
                    .find(|&v| self.owner[out_base + v as usize].is_none());
                if let Some(v) = chosen {
                    self.owner[out_base + v as usize] = Some(front.packet);
                    *state = PortState::Active {
                        out: OutKind::Forward(out),
                        out_vc: v,
                        next_cursor,
                    };
                }
            }
        }
    }

    /// SA + ST for node `n`.
    ///
    /// One pass over the node's input buffers buckets forward candidates
    /// per output link and collects eject candidates; the per-output and
    /// per-eject arbitration then works off the buckets. This visits each
    /// buffer once instead of once per output channel, and is exactly
    /// equivalent to rescanning: within a node, a move on output `X` can
    /// only change `X`'s own downstream occupancy (checked before any
    /// move) and the mover's port flag (filtered at pick time), and
    /// ejections only mutate the ejecting buffer itself.
    fn switch_node(&mut self, n: usize, index: &TopoIndex, ctx: CycleCtx) {
        let node = NodeId(n as u32);
        let vcs = self.vcs;
        let ports_start = self.node_input_off[n] as usize;
        let ports_end = self.node_input_off[n + 1] as usize;
        let num_ports = (ports_end - ports_start) / vcs;
        // Detach the scratch so the arbitration loops can call
        // `move_flit`/`eject_flit` on `self`.
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.port_forwarded[..num_ports].fill(false);
        scratch.outs.clear();
        scratch.outs.extend_from_slice(index.out_links(node));
        for bucket in &mut scratch.forward[..scratch.outs.len()] {
            bucket.clear();
        }
        scratch.eject.clear();

        // Single scan: sort every occupied, allocated buffer front into
        // its output's bucket (space permitting) or the eject list, in
        // input order.
        for bi in 0..ports_end - ports_start {
            let r = self.node_inputs[ports_start + bi];
            if self.flits[r as usize].is_empty() {
                continue;
            }
            match self.state[r as usize] {
                PortState::Active {
                    out: OutKind::Forward(l),
                    out_vc,
                    ..
                } => {
                    let dst = l.index() * vcs + out_vc as usize;
                    let occupied = self.flits[dst].len() + self.transit_counts[dst] as usize;
                    if occupied < self.buffer_depth {
                        scratch.forward[self.link_out_pos[l.index()] as usize]
                            .push(((bi / vcs) as u32, r));
                    }
                }
                PortState::Active {
                    out: OutKind::Eject,
                    ..
                } => scratch.eject.push(((bi / vcs) as u32, r)),
                _ => {}
            }
        }

        // Forward outputs: one flit per output channel and per input
        // port per cycle.
        for (oi, &out) in scratch.outs.iter().enumerate() {
            scratch.eligible.clear();
            scratch.eligible.extend(
                scratch.forward[oi]
                    .iter()
                    .copied()
                    .filter(|&(port, _)| !scratch.port_forwarded[port as usize]),
            );
            if scratch.eligible.is_empty() {
                continue;
            }
            let rr = &mut self.rr_out[out.index()];
            let pick = *rr % scratch.eligible.len();
            *rr = rr.wrapping_add(1);
            let (port, r) = scratch.eligible[pick];
            scratch.port_forwarded[port as usize] = true;
            self.move_flit(r as usize, out, ctx);
        }

        // Ejection: up to local_bandwidth flits per cycle (the 4×
        // resource channel); independent of the forward crossbar.
        // After each ejection only the picked buffer can drop out of
        // the candidate list, so the list shrinks in place.
        let mut budget = self.local_bandwidth;
        while budget > 0 && !scratch.eject.is_empty() {
            let rr = &mut self.rr_eject[n];
            let pick = *rr % scratch.eject.len();
            *rr = rr.wrapping_add(1);
            let (_, r) = scratch.eject[pick];
            self.eject_flit(r as usize, ctx);
            budget -= 1;
            let still_candidate = !self.flits[r as usize].is_empty()
                && matches!(
                    self.state[r as usize],
                    PortState::Active {
                        out: OutKind::Eject,
                        ..
                    }
                );
            if !still_candidate {
                scratch.eject.remove(pick);
            }
        }
        self.scratch = scratch;
    }

    fn move_flit(&mut self, r: usize, out: LinkId, ctx: CycleCtx) {
        let (out_vc, next_cursor) = match self.state[r] {
            PortState::Active {
                out_vc,
                next_cursor,
                ..
            } => (out_vc, next_cursor),
            _ => unreachable!("move_flit on non-active buffer"),
        };
        let queue = &mut self.flits[r];
        let mut flit = queue.pop_front().expect("candidate had a front flit");
        if flit.is_head {
            flit.cursor = next_cursor;
        }
        if flit.is_tail {
            // The vacated buffer frees its ownership and control state.
            self.owner[r] = None;
            self.state[r] = PortState::Idle;
        }
        if queue.is_empty() {
            self.node_occ[self.buf_node[r] as usize] -= 1;
        }
        let dst = out.index() * self.vcs + out_vc as usize;
        self.transit_counts[dst] += 1;
        self.sends.push((dst as u32, flit));
        if ctx.measuring {
            self.link_flits[out.index()] += 1;
        }
        self.progress = true;
    }

    /// Ejects the front flit of buffer `r`. A flow ejects only at its
    /// route's endpoint, so its latency statistics close here.
    fn eject_flit(&mut self, r: usize, ctx: CycleCtx) {
        let queue = &mut self.flits[r];
        let flit = queue.pop_front().expect("candidate had a front flit");
        if flit.is_tail {
            self.owner[r] = None;
            self.state[r] = PortState::Idle;
        }
        if queue.is_empty() {
            self.node_occ[self.buf_node[r] as usize] -= 1;
        }
        self.in_network_flits -= 1;
        if ctx.measuring {
            self.delivered_flits += 1;
        }
        if flit.is_tail {
            if ctx.measuring {
                self.stats[flit.flow.index()].delivered += 1;
                self.delivered_total += 1;
            }
            let slot = self.slots[flit.packet as usize];
            self.free_slots.push(flit.packet);
            if slot.tracked {
                let latency = ctx.cycle - slot.entry_cycle;
                let fs = &mut self.stats[flit.flow.index()];
                fs.latency_sum += latency;
                fs.latency_count += 1;
                fs.latency_max = fs.latency_max.max(latency);
                fs.histogram.record(latency);
            }
        }
        self.progress = true;
    }

    /// Moves flits from node `n`'s source queue into its injection-port
    /// buffers.
    fn inject_node(&mut self, n: usize, ctx: CycleCtx) {
        let vcs = self.vcs;
        let inj_base = self.inj_base as usize;
        let src = &mut self.src_queues[n];
        let progress_slot = &mut self.inj_progress[n];
        let mut budget = self.local_bandwidth;
        while budget > 0 && !src.is_empty() {
            match *progress_slot {
                Some(InjectionProgress { vc, remaining }) => {
                    let b = inj_base + n * vcs + vc as usize;
                    let queue = &mut self.flits[b];
                    if queue.len() >= self.buffer_depth {
                        break;
                    }
                    let flit = src.pop_front().expect("nonempty");
                    if queue.is_empty() {
                        self.node_occ[n] += 1;
                    }
                    queue.push_back(flit);
                    *progress_slot = (remaining > 1).then_some(InjectionProgress {
                        vc,
                        remaining: remaining - 1,
                    });
                }
                None => {
                    let head = *src.front().expect("nonempty");
                    debug_assert!(head.is_head, "packet streams are contiguous");
                    let chosen = (0..vcs as u8).find(|&v| {
                        let b = inj_base + n * vcs + v as usize;
                        self.owner[b].is_none() && self.flits[b].len() < self.buffer_depth
                    });
                    let Some(v) = chosen else { break };
                    let flit = src.pop_front().expect("nonempty");
                    let b = inj_base + n * vcs + v as usize;
                    self.owner[b] = Some(head.packet);
                    let queue = &mut self.flits[b];
                    if queue.is_empty() {
                        self.node_occ[n] += 1;
                    }
                    queue.push_back(flit);
                    self.slots[head.packet as usize].entry_cycle = ctx.cycle;
                    if self.packet_len > 1 {
                        *progress_slot = Some(InjectionProgress {
                            vc: v,
                            remaining: self.packet_len - 1,
                        });
                    }
                }
            }
            self.in_network_flits += 1;
            self.backlog_flits -= 1;
            self.progress = true;
            budget -= 1;
        }
    }

    /// End-of-cycle bookkeeping: advance the hop pipeline and deliver
    /// arrivals. Returns whether any flit moved this cycle.
    fn finish_cycle(&mut self, pipeline_latency: usize) -> bool {
        // This cycle's sends enter the pipeline; the oldest slot lands.
        let next = self.spare_sends.pop().unwrap_or_default();
        self.in_transit
            .push_back(std::mem::replace(&mut self.sends, next));
        if self.in_transit.len() >= pipeline_latency {
            let mut arrivals = self
                .in_transit
                .pop_front()
                .expect("nonempty by length check");
            for (buf, flit) in arrivals.drain(..) {
                let b = buf as usize;
                self.transit_counts[b] -= 1;
                let queue = &mut self.flits[b];
                if queue.is_empty() {
                    self.node_occ[self.buf_node[b] as usize] += 1;
                }
                queue.push_back(flit);
            }
            // Hand the emptied Vec back as a future send buffer so the
            // pipeline churns zero allocations at steady state.
            self.spare_sends.push(arrivals);
        }
        std::mem::take(&mut self.progress)
    }
}

// ---------------------------------------------------------------------------
// Packet generation
// ---------------------------------------------------------------------------

/// 2^53: `gen_bool` compares the top 53 bits of a draw, `0..2^53`.
const DRAW_UNIT: f64 = 9_007_199_254_740_992.0;

/// One flow's arrivals in a cycle at a rate `p < 2^53`: `sure` packets
/// always fire, then one more when a 53-bit draw `m` is below
/// `threshold`. No draw is made when `threshold` is 0.
///
/// This is exactly the `while p > 0 { fire if p >= 1 or gen_bool(p);
/// p -= 1 }` loop the engine used to run. Below 2^53 every subtraction
/// is exact, so that loop fires `trunc(p)` times and then draws once on
/// `fract(p)` when it is non-zero. `gen_bool(f)` fires when
/// `m * 2^-53 < f` for `m = x >> 11`; both `m * 2^-53` and `f * 2^53`
/// are exact, and an integer `m` is below `f * 2^53` exactly when it is
/// below `ceil(f * 2^53)`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Arrivals {
    sure: u32,
    threshold: u64,
}

impl Arrivals {
    /// The arrivals at rate `p` (finite, non-negative; the run-size
    /// check in [`Simulator::new`] keeps it below 2^53).
    fn at(p: f64) -> Arrivals {
        let whole = p.trunc();
        Arrivals {
            sure: whole as u32,
            threshold: ((p - whole) * DRAW_UNIT).ceil() as u64,
        }
    }

    /// Packets fired this cycle.
    #[inline]
    fn sample(self, rng: &mut impl RngCore) -> u32 {
        let extra = self.threshold != 0 && (rng.next_u64() >> 11) < self.threshold;
        self.sure + u32::from(extra)
    }
}

/// Packet-generation state: the RNG, each flow's modulation stages, and
/// each flow's arrivals at the current phase scale. It lives apart from
/// the [`Network`] the packets go into, so the per-flow loop reads its
/// arrays outside the network that [`Network::emit`] mutates.
struct Injector {
    rng: StdRng,
    /// Each flow's arrivals at `scale`; plain Bernoulli traffic only.
    arrivals: Vec<Arrivals>,
    /// The phase scale `arrivals` holds (NaN until the first cycle).
    scale: f64,
    var_states: Vec<VariationState>,
    burst_states: Vec<BurstState>,
}

impl Injector {
    fn new(seed: u64, flows: usize) -> Injector {
        Injector {
            rng: StdRng::seed_from_u64(seed),
            arrivals: Vec::with_capacity(flows),
            scale: f64::NAN,
            var_states: (0..flows).map(|_| VariationState::new()).collect(),
            burst_states: (0..flows).map(|_| BurstState::new()).collect(),
        }
    }

    /// Packet generation for one cycle. Consumes the RNG stream
    /// identically whether or not the cycle is fast-forwarded, which is
    /// what keeps reports byte-identical.
    fn generate<T: RouteTables>(
        &mut self,
        net: &mut Network,
        flows: &FlowSet,
        traffic: &TrafficSpec,
        tables: &T,
        ctx: CycleCtx,
    ) {
        // Phase scaling is deterministic (no RNG), so the default
        // schedule-free path multiplies by exactly 1.0 and the seeded
        // packet stream is bit-identical to the pre-schedule engine.
        let scale = traffic
            .phases
            .as_ref()
            .map_or(1.0, |s| s.scale_at(ctx.cycle));
        // Each loop draws from its own local copy of the RNG; keep them
        // apart. The plain loop's copy never escapes (`sample` inlines),
        // so its state stays in registers across the out-of-line packet
        // path. A copy shared with the modulated loop, which passes it
        // to the stage `step`s, would live on the stack.
        if traffic.variation.is_none() && traffic.injection == InjectionProcess::Bernoulli {
            if scale != self.scale {
                self.scale = scale;
                self.arrivals.clear();
                self.arrivals
                    .extend(traffic.rates.iter().map(|&r| Arrivals::at(r * scale)));
            }
            let mut rng = self.rng.clone();
            for (i, arrivals) in self.arrivals.iter().enumerate() {
                let count = arrivals.sample(&mut rng);
                if count != 0 {
                    net.emit(flows, i, count, tables, ctx.measuring);
                }
            }
            self.rng = rng;
        } else {
            // Per flow: the variation stage steps, then the on/off stage,
            // then the arrival draw — the order the RNG stream is pinned
            // to.
            let mut rng = self.rng.clone();
            for (i, &rate) in traffic.rates.iter().enumerate() {
                let mut p = rate * scale;
                if let Some(var) = &traffic.variation {
                    p *= self.var_states[i].step(var, &mut rng);
                }
                if let InjectionProcess::OnOff(burst) = &traffic.injection {
                    p = if self.burst_states[i].step(burst, &mut rng) {
                        p * burst.on_multiplier()
                    } else {
                        0.0
                    };
                }
                let count = Arrivals::at(p).sample(&mut rng);
                if count != 0 {
                    net.emit(flows, i, count, tables, ctx.measuring);
                }
            }
            self.rng = rng;
        }
    }
}

/// Refuses a run the generator could not finish: a cycle count that
/// overflows `u64`, or a peak packet count beyond the `u32` packet-slot
/// ids. A flow's peak per-cycle rate is its base rate × the largest
/// phase scale × (1 + the variation fraction) × the on/off multiplier,
/// in the order the generator multiplies them, so no cycle's rate can
/// exceed it. The bound also keeps every rate below 2^53, where
/// [`Arrivals`] is exact.
fn check_run_size(traffic: &TrafficSpec, config: &SimConfig) -> Result<(), SimError> {
    let cycles = config
        .warmup
        .checked_add(config.measurement)
        .and_then(|c| c.checked_add(config.drain));
    let Some(cycles) = cycles else {
        return Err(SimError::RunTooLarge {
            figure: "cycles (warmup + measurement + drain)",
            value: config.warmup as f64 + config.measurement as f64 + config.drain as f64,
            bound: u64::MAX,
        });
    };
    let scale = traffic.phases.as_ref().map_or(1.0, |s| {
        s.phases().iter().map(|p| p.scale).fold(0.0, f64::max)
    });
    let variation = traffic.variation.map_or(1.0, |v| 1.0 + v.fraction);
    let burst = match traffic.injection {
        InjectionProcess::OnOff(b) => b.on_multiplier(),
        InjectionProcess::Bernoulli => 1.0,
    };
    let peak: f64 = traffic
        .rates
        .iter()
        .map(|&r| r * scale * variation * burst)
        .sum();
    let packets = peak * cycles as f64;
    // An infinite peak over zero cycles gives NaN, refused too.
    if packets.is_nan() || packets > f64::from(u32::MAX) {
        return Err(SimError::RunTooLarge {
            figure: "peak packets (sum of per-flow peak rates x cycles)",
            value: packets,
            bound: u64::from(u32::MAX),
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The simulator
// ---------------------------------------------------------------------------

/// The simulator. Construct with [`Simulator::new`], execute with
/// [`Simulator::run`].
///
/// All per-cycle state lives in flat arenas keyed by the dense
/// `NodeId`/`LinkId`/VC indices of a [`TopoIndex`] snapshot: VC buffers
/// as structure-of-arrays (`link * vcs + vc`, then injection ports),
/// per-packet bookkeeping in a recycled slot arena, and per-node
/// input-port lists in a precomputed CSR. The cycle loop performs no
/// hashing and no allocation, skips routers with no occupied input
/// buffer, and fast-forwards provably idle cycles — with byte-identical
/// reports for a fixed seed (see the module docs).
pub struct Simulator<'a, T: RouteTables + Clone = NodeTables> {
    topo: &'a Topology,
    flows: &'a FlowSet,
    config: SimConfig,
    /// Borrowed when a caller (a `RoutePlan` evaluation) already holds
    /// compiled tables; owned when built here. The hot path reads
    /// through `Deref` either way.
    tables: std::borrow::Cow<'a, T>,
    traffic: TrafficSpec,
    index: TopoIndex,
    net: Network,
    injector: Injector,
}

impl<'a> Simulator<'a> {
    /// Builds a simulator for `flows` routed by `routes` under `traffic`.
    ///
    /// # Errors
    ///
    /// [`SimError`] when routes, flows, traffic and VC configuration are
    /// inconsistent.
    pub fn new(
        topo: &'a Topology,
        flows: &'a FlowSet,
        routes: &RouteSet,
        traffic: TrafficSpec,
        config: SimConfig,
    ) -> Result<Simulator<'a>, SimError> {
        let tables = NodeTables::build(topo, routes);
        Simulator::assemble(
            topo,
            flows,
            routes,
            std::borrow::Cow::Owned(tables),
            traffic,
            config,
        )
    }
}

impl<'a, T: RouteTables + Clone> Simulator<'a, T> {
    /// Like [`Simulator::new`], but borrows `tables` already compiled
    /// from `routes` (e.g. the ones a `RoutePlan` carries, in either the
    /// dense or the compact representation) instead of rebuilding them —
    /// no per-run recompilation *or* copy.
    ///
    /// The caller is responsible for `tables` matching `routes`; table
    /// builds are deterministic and every [`RouteTables`] realization
    /// resolves the same `(out_link, vcs)` per hop, so a plan's compiled
    /// tables reproduce `Simulator::new` behavior bit for bit.
    ///
    /// # Errors
    ///
    /// [`SimError`] when routes, flows, traffic and VC configuration are
    /// inconsistent.
    pub fn with_tables(
        topo: &'a Topology,
        flows: &'a FlowSet,
        routes: &RouteSet,
        tables: &'a T,
        traffic: TrafficSpec,
        config: SimConfig,
    ) -> Result<Simulator<'a, T>, SimError> {
        Simulator::assemble(
            topo,
            flows,
            routes,
            std::borrow::Cow::Borrowed(tables),
            traffic,
            config,
        )
    }

    fn assemble(
        topo: &'a Topology,
        flows: &'a FlowSet,
        routes: &RouteSet,
        tables: std::borrow::Cow<'a, T>,
        traffic: TrafficSpec,
        config: SimConfig,
    ) -> Result<Simulator<'a, T>, SimError> {
        if routes.len() != flows.len() {
            return Err(SimError::RouteCountMismatch {
                flows: flows.len(),
                routes: routes.len(),
            });
        }
        if traffic.rates.len() != flows.len() {
            return Err(SimError::TrafficCountMismatch {
                flows: flows.len(),
                rates: traffic.rates.len(),
            });
        }
        for (i, &r) in traffic.rates.iter().enumerate() {
            if !(r.is_finite() && r >= 0.0) {
                return Err(SimError::BadRate { flow: i, rate: r });
            }
        }
        check_run_size(&traffic, &config)?;
        for route in routes.iter() {
            if !route.hops.iter().all(|hop| hop.vcs.fits(config.vcs)) {
                return Err(SimError::VcOutOfRange { vcs: config.vcs });
            }
        }
        let index = TopoIndex::new(topo);
        let nl = topo.num_links();
        let nn = topo.num_nodes();
        let vcs = config.vcs as usize;
        let inj_base = (nl * vcs) as u32;
        let nbufs = (nl + nn) * vcs;
        // Per-node input buffers in arbitration order: each in-link's
        // VCs, then the injection VCs — the order round-robin picks see.
        // In-links are recorded in link-id order, which makes the
        // per-node route pass identical to the old global link scan.
        let mut node_inputs = Vec::with_capacity(nbufs);
        let mut node_input_off = Vec::with_capacity(nn + 1);
        node_input_off.push(0u32);
        for n in topo.node_ids() {
            debug_assert!(
                index
                    .in_links(n)
                    .windows(2)
                    .all(|w| w[0].index() < w[1].index()),
                "in-link order must ascend for route-order equivalence"
            );
            for &l in index.in_links(n) {
                let base = l.index() * vcs;
                node_inputs.extend((base..base + vcs).map(|i| i as u32));
            }
            let base = inj_base as usize + n.index() * vcs;
            node_inputs.extend((base..base + vcs).map(|i| i as u32));
            node_input_off.push(node_inputs.len() as u32);
        }
        let max_ports = index.max_in_degree() + 1;
        let mut link_out_pos = vec![0u32; nl];
        let mut max_out_degree = 0usize;
        for n in topo.node_ids() {
            let outs = index.out_links(n);
            max_out_degree = max_out_degree.max(outs.len());
            for (i, &l) in outs.iter().enumerate() {
                link_out_pos[l.index()] = i as u32;
            }
        }
        let mut buf_node = vec![0u32; nbufs];
        for l in 0..nl {
            let dst = index.link_dst(LinkId(l as u32)).0;
            for v in 0..vcs {
                buf_node[l * vcs + v] = dst;
            }
        }
        for n in 0..nn {
            for v in 0..vcs {
                buf_node[inj_base as usize + n * vcs + v] = n as u32;
            }
        }
        let (mut flits, mut src_queues) = ARENA
            .try_with(|a| {
                let mut arena = a.borrow_mut();
                (
                    std::mem::take(&mut arena.bufs),
                    std::mem::take(&mut arena.srcs),
                )
            })
            .unwrap_or_default();
        resize_queues(&mut flits, nbufs, config.buffer_depth);
        resize_queues(&mut src_queues, nn, 0);
        let net = Network {
            flits,
            owner: vec![None; nbufs],
            state: vec![PortState::Idle; nbufs],
            transit_counts: vec![0; nl * vcs],
            node_occ: vec![0; nn],
            src_queues,
            inj_progress: vec![None; nn],
            rr_out: vec![0; nl],
            rr_eject: vec![0; nn],
            link_flits: vec![0; nl],
            stats: vec![FlowStats::default(); flows.len()],
            slots: Vec::new(),
            free_slots: Vec::new(),
            node_inputs,
            node_input_off,
            link_out_pos,
            buf_node,
            inj_base,
            scratch: SwitchScratch {
                port_forwarded: vec![false; max_ports],
                forward: vec![Vec::with_capacity(max_ports * vcs); max_out_degree],
                eject: Vec::with_capacity(max_ports * vcs),
                eligible: Vec::with_capacity(max_ports * vcs),
                outs: Vec::with_capacity(max_out_degree),
            },
            vcs,
            buffer_depth: config.buffer_depth,
            local_bandwidth: config.local_bandwidth,
            packet_len: config.packet_len,
            sends: Vec::new(),
            in_transit: VecDeque::new(),
            spare_sends: Vec::new(),
            progress: false,
            in_network_flits: 0,
            backlog_flits: 0,
            cycle: 0,
            last_progress: 0,
            generated_total: 0,
            delivered_total: 0,
            delivered_flits: 0,
        };
        let injector = Injector::new(config.seed, flows.len());
        Ok(Simulator {
            topo,
            flows,
            config,
            tables,
            traffic,
            index,
            net,
            injector,
        })
    }

    /// Runs warmup + measurement (+ drain) and returns the report.
    pub fn run(&mut self) -> SimReport {
        self.run_timed().0
    }

    /// Like [`Simulator::run`], additionally measuring wall-clock time.
    ///
    /// The report itself stays fully deterministic for a fixed seed —
    /// independent of wall-clock jitter; the timing travels separately
    /// so callers (the sweep harness, CI) can record cycles/sec without
    /// perturbing reproducibility checks.
    pub fn run_timed(&mut self) -> (SimReport, RunTiming) {
        self.run_with(true)
    }

    /// Like [`Simulator::run`], but with fast-forward off: every cycle
    /// runs the router phases. The reference the fast-forward tests
    /// compare against.
    #[cfg(test)]
    fn run_every_cycle(&mut self) -> SimReport {
        self.run_with(false).0
    }

    fn run_with(&mut self, fast_forward: bool) -> (SimReport, RunTiming) {
        let started = Instant::now();
        let deadlocked = self.run_cycles(fast_forward);
        let net = &self.net;
        let report = SimReport {
            cycles: net.cycle,
            measured_cycles: self.config.measurement,
            generated_packets: net.generated_total,
            delivered_packets: net.delivered_total,
            delivered_flits: net.delivered_flits,
            per_flow: net.stats.clone(),
            link_flits: net.link_flits.clone(),
            deadlocked,
        };
        let timing = RunTiming::new(net.cycle, started.elapsed());
        (report, timing)
    }

    /// The cycle loop: one pass per phase in node order, skipping the
    /// router phases of idle cycles when `fast_forward` is set. Returns
    /// whether the watchdog declared a deadlock.
    fn run_cycles(&mut self, fast_forward: bool) -> bool {
        let total = self.config.total_cycles();
        let nn = self.topo.num_nodes();
        let config = &self.config;
        let tables: &T = self.tables.as_ref();
        let net = &mut self.net;
        while net.cycle < total {
            let ctx = CycleCtx {
                cycle: net.cycle,
                measuring: net.measuring(config),
            };
            self.injector
                .generate(net, self.flows, &self.traffic, tables, ctx);
            if fast_forward && net.network_empty() {
                net.cycle += 1;
                continue;
            }
            for n in 0..nn {
                if net.node_occ[n] > 0 {
                    net.route_node(n, tables);
                }
            }
            for n in 0..nn {
                if net.node_occ[n] > 0 {
                    net.switch_node(n, &self.index, ctx);
                }
            }
            for n in 0..nn {
                if !net.src_queues[n].is_empty() {
                    net.inject_node(n, ctx);
                }
            }
            if net.finish_cycle(config.pipeline_latency as usize) {
                net.last_progress = net.cycle;
            } else if net.in_network_flits > 0 && net.cycle - net.last_progress > config.watchdog {
                return true;
            }
            net.cycle += 1;
        }
        false
    }
}

impl<T: RouteTables + Clone> Drop for Simulator<'_, T> {
    /// Returns the flit-queue allocations to the thread-local arena so
    /// the next simulator on this thread (the common sweep-worker case)
    /// skips reallocating them.
    fn drop(&mut self) {
        let mut bufs = std::mem::take(&mut self.net.flits);
        bufs.iter_mut().for_each(VecDeque::clear);
        let mut srcs = std::mem::take(&mut self.net.src_queues);
        srcs.iter_mut().for_each(VecDeque::clear);
        let _ = ARENA.try_with(move |a| {
            let mut arena = a.borrow_mut();
            arena.bufs = bufs;
            arena.srcs = srcs;
        });
    }
}

/// Resizes an arena allocation to `n` cleared deques, reusing retained
/// heap capacity where available.
fn resize_queues(queues: &mut Vec<VecDeque<Flit>>, n: usize, capacity: usize) {
    queues.truncate(n);
    queues.iter_mut().for_each(VecDeque::clear);
    while queues.len() < n {
        queues.push(VecDeque::with_capacity(capacity));
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use bsor_routing::Baseline;

    fn mesh_and_flows() -> (Topology, FlowSet) {
        let topo = Topology::mesh2d(4, 4);
        let mut flows = FlowSet::new();
        for n in topo.node_ids() {
            let c = topo.coord(n);
            let d = topo.node_at(3 - c.x, 3 - c.y).expect("in range");
            if n != d {
                flows.push(n, d, 25.0);
            }
        }
        (topo, flows)
    }

    fn quick_config() -> SimConfig {
        SimConfig::new(2)
            .with_warmup(500)
            .with_measurement(4_000)
            .with_packet_len(4)
    }

    #[test]
    fn light_load_delivers_everything_generated() {
        let (topo, flows) = mesh_and_flows();
        let routes = Baseline::XY.select(&topo, &flows, 2).expect("xy");
        let traffic = TrafficSpec::proportional(&flows, 0.05);
        let mut sim =
            Simulator::new(&topo, &flows, &routes, traffic, quick_config()).expect("valid");
        let report = sim.run();
        assert!(!report.deadlocked);
        assert!(report.generated_packets > 0);
        // At 0.05 packets/cycle across 16 flows the network is nearly
        // idle: throughput tracks offered load closely.
        let ratio = report.throughput() / report.offered();
        assert!(
            (0.9..=1.1).contains(&ratio),
            "delivery ratio {ratio} at light load"
        );
    }

    #[test]
    fn latency_at_least_hop_count() {
        let (topo, flows) = mesh_and_flows();
        let routes = Baseline::XY.select(&topo, &flows, 2).expect("xy");
        let traffic = TrafficSpec::proportional(&flows, 0.02);
        let mut sim =
            Simulator::new(&topo, &flows, &routes, traffic, quick_config()).expect("valid");
        let report = sim.run();
        let min_hops = flows
            .iter()
            .map(|f| topo.min_hops(f.src, f.dst))
            .min()
            .expect("flows");
        // A packet takes at least one cycle per hop plus serialization.
        assert!(
            report.mean_latency().expect("packets delivered") >= min_hops as f64,
            "latency below physical minimum"
        );
    }

    #[test]
    fn zero_rate_generates_nothing() {
        let (topo, flows) = mesh_and_flows();
        let routes = Baseline::XY.select(&topo, &flows, 2).expect("xy");
        let traffic = TrafficSpec::proportional(&flows, 0.0);
        let mut sim =
            Simulator::new(&topo, &flows, &routes, traffic, quick_config()).expect("valid");
        let report = sim.run();
        assert_eq!(report.generated_packets, 0);
        assert_eq!(report.delivered_packets, 0);
        assert!(!report.deadlocked);
    }

    #[test]
    fn saturation_caps_throughput() {
        let (topo, flows) = mesh_and_flows();
        let routes = Baseline::XY.select(&topo, &flows, 2).expect("xy");
        let light = TrafficSpec::proportional(&flows, 0.05);
        let heavy = TrafficSpec::proportional(&flows, 5.0);
        let light_tp = Simulator::new(&topo, &flows, &routes, light, quick_config())
            .expect("valid")
            .run()
            .throughput();
        let heavy_report = Simulator::new(&topo, &flows, &routes, heavy, quick_config())
            .expect("valid")
            .run();
        assert!(!heavy_report.deadlocked, "XY cannot deadlock");
        assert!(
            heavy_report.throughput() > light_tp,
            "more load, more delivered"
        );
        assert!(
            heavy_report.throughput() < heavy_report.offered() * 0.9,
            "saturated network cannot deliver everything offered"
        );
    }

    #[test]
    fn cyclic_routing_deadlocks_and_watchdog_fires() {
        // Hand-built cyclic routes (the canonical 2x2 turning ring) must
        // jam the wormhole network; the watchdog reports it.
        use bsor_flow::FlowId;
        use bsor_routing::{Route, RouteHop, RouteSet, VcMask};
        let topo = Topology::mesh2d(2, 2);
        let n = |x, y| topo.node_at(x, y).expect("in range");
        let hop = |a, b| RouteHop {
            link: topo.find_link(a, b).expect("adjacent"),
            vcs: VcMask::all(1),
        };
        // Each flow travels 3/4 of the way around the square, so packets
        // block while holding intermediate channels.
        let mut flows = FlowSet::new();
        flows.push(n(0, 0), n(1, 0), 1.0);
        flows.push(n(0, 1), n(0, 0), 1.0);
        flows.push(n(1, 1), n(0, 1), 1.0);
        flows.push(n(1, 0), n(1, 1), 1.0);
        let routes = RouteSet::from_routes(vec![
            Route {
                flow: FlowId(0),
                hops: vec![
                    hop(n(0, 0), n(0, 1)),
                    hop(n(0, 1), n(1, 1)),
                    hop(n(1, 1), n(1, 0)),
                ],
            },
            Route {
                flow: FlowId(1),
                hops: vec![
                    hop(n(0, 1), n(1, 1)),
                    hop(n(1, 1), n(1, 0)),
                    hop(n(1, 0), n(0, 0)),
                ],
            },
            Route {
                flow: FlowId(2),
                hops: vec![
                    hop(n(1, 1), n(1, 0)),
                    hop(n(1, 0), n(0, 0)),
                    hop(n(0, 0), n(0, 1)),
                ],
            },
            Route {
                flow: FlowId(3),
                hops: vec![
                    hop(n(1, 0), n(0, 0)),
                    hop(n(0, 0), n(0, 1)),
                    hop(n(0, 1), n(1, 1)),
                ],
            },
        ]);
        assert!(!bsor_routing::deadlock::is_deadlock_free(&topo, &routes, 1));
        let config = SimConfig::new(1)
            .with_warmup(0)
            .with_measurement(10_000)
            .with_watchdog(1_000)
            .with_buffer_depth(4)
            .with_packet_len(64); // spans the whole route: hold-and-wait
        let traffic = TrafficSpec::uniform(&flows, 1.0); // all inject at cycle 0
        let mut sim = Simulator::new(&topo, &flows, &routes, traffic, config).expect("valid");
        let report = sim.run();
        assert!(report.deadlocked, "the turning ring must deadlock");
    }

    #[test]
    fn static_vc_routes_simulate() {
        use bsor_cdg::{AcyclicCdg, TurnModel};
        use bsor_flow::FlowNetwork;
        use bsor_routing::selectors::DijkstraSelector;
        let (topo, flows) = mesh_and_flows();
        let acyclic = AcyclicCdg::turn_model(&topo, 2, &TurnModel::west_first()).expect("valid");
        let net = FlowNetwork::new(&topo, &acyclic);
        let routes = DijkstraSelector::new()
            .select(&net, &flows)
            .expect("routable");
        let traffic = TrafficSpec::proportional(&flows, 0.1);
        let mut sim =
            Simulator::new(&topo, &flows, &routes, traffic, quick_config()).expect("valid");
        let report = sim.run();
        assert!(!report.deadlocked);
        assert!(report.delivered_packets > 0);
    }

    #[test]
    fn vc_count_must_cover_routes() {
        let (topo, flows) = mesh_and_flows();
        let routes = Baseline::Romm { seed: 1 }
            .select(&topo, &flows, 4)
            .expect("romm");
        let traffic = TrafficSpec::proportional(&flows, 0.1);
        let err = Simulator::new(&topo, &flows, &routes, traffic, SimConfig::new(2))
            .err()
            .expect("4-VC routes cannot run on 2 VCs");
        assert_eq!(err, SimError::VcOutOfRange { vcs: 2 });
    }

    #[test]
    fn reports_are_reproducible_for_a_seed() {
        let (topo, flows) = mesh_and_flows();
        let routes = Baseline::XY.select(&topo, &flows, 2).expect("xy");
        let run = |seed: u64| {
            let traffic = TrafficSpec::proportional(&flows, 0.2);
            let config = quick_config().with_seed(seed);
            Simulator::new(&topo, &flows, &routes, traffic, config)
                .expect("valid")
                .run()
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a.delivered_packets, b.delivered_packets);
        assert_eq!(a.generated_packets, b.generated_packets);
        assert_eq!(a.mean_latency(), b.mean_latency());
        let c = run(43);
        assert_ne!(
            (a.generated_packets, a.delivered_flits),
            (c.generated_packets, c.delivered_flits),
            "different seeds should differ somewhere"
        );
    }

    #[test]
    fn pipeline_latency_scales_packet_latency() {
        // The Chapter 4 four-stage pipeline costs ~4x the single-cycle
        // router's per-hop latency at light load.
        let (topo, flows) = mesh_and_flows();
        let routes = Baseline::XY.select(&topo, &flows, 2).expect("xy");
        let run = |pipe: u8| {
            let traffic = TrafficSpec::proportional(&flows, 0.02);
            let config = quick_config().with_pipeline_latency(pipe);
            Simulator::new(&topo, &flows, &routes, traffic, config)
                .expect("valid")
                .run()
                .mean_latency()
                .expect("light load delivers")
        };
        let l1 = run(1);
        let l4 = run(4);
        assert!(
            l4 > l1 * 2.0,
            "4-stage pipeline latency {l4:.1} should far exceed single-cycle {l1:.1}"
        );
    }

    #[test]
    fn bursty_injection_preserves_mean_load_but_clusters_arrivals() {
        use crate::traffic::BurstyOnOff;
        let (topo, flows) = mesh_and_flows();
        let routes = Baseline::XY.select(&topo, &flows, 2).expect("xy");
        let config = quick_config().with_measurement(20_000);
        let flat = Simulator::new(
            &topo,
            &flows,
            &routes,
            TrafficSpec::proportional(&flows, 0.3),
            config.clone(),
        )
        .expect("valid")
        .run();
        let bursty = Simulator::new(
            &topo,
            &flows,
            &routes,
            TrafficSpec::proportional(&flows, 0.3).with_burst(BurstyOnOff::new(50.0, 150.0)),
            config,
        )
        .expect("valid")
        .run();
        // Same long-run offered load (within sampling noise)...
        let ratio = bursty.offered() / flat.offered();
        assert!(
            (0.85..=1.15).contains(&ratio),
            "bursty offered load drifted: {ratio}"
        );
        // ...but clustered arrivals queue longer.
        let flat_p95 = flat.p95_latency().expect("delivers") as f64;
        let bursty_p95 = bursty.p95_latency().expect("delivers") as f64;
        assert!(
            bursty_p95 > flat_p95,
            "bursts must stretch the latency tail: flat p95 {flat_p95}, bursty p95 {bursty_p95}"
        );
    }

    #[test]
    fn phase_schedule_gates_generation_at_cycle_boundaries() {
        use crate::traffic::PhaseSchedule;
        let (topo, flows) = mesh_and_flows();
        let routes = Baseline::XY.select(&topo, &flows, 2).expect("xy");
        // Phase 1 covers exactly the warmup, phase 2 (silent) the rest:
        // nothing may be generated inside the measurement window.
        let config = SimConfig::new(2).with_warmup(500).with_measurement(2_000);
        let traffic = TrafficSpec::proportional(&flows, 0.5)
            .with_phases(PhaseSchedule::from_pairs([(500, 1.0), (2_000, 0.0)]));
        let report = Simulator::new(&topo, &flows, &routes, traffic, config)
            .expect("valid")
            .run();
        assert_eq!(
            report.generated_packets, 0,
            "the zero-scale phase must silence measurement-window generation"
        );
        // Flip the phases: generation only happens during measurement.
        let config = SimConfig::new(2).with_warmup(500).with_measurement(2_000);
        let traffic = TrafficSpec::proportional(&flows, 0.5)
            .with_phases(PhaseSchedule::from_pairs([(500, 0.0), (2_000, 1.0)]));
        let report = Simulator::new(&topo, &flows, &routes, traffic, config)
            .expect("valid")
            .run();
        assert!(report.generated_packets > 0);
    }

    #[test]
    fn default_injection_is_bit_identical_with_traffic_extensions_compiled_in() {
        // The no-burst/no-phase path must not consume any extra RNG
        // draws: a spec with an explicit one-phase schedule of scale 1.0
        // produces the same packet stream as the plain spec.
        let (topo, flows) = mesh_and_flows();
        let routes = Baseline::XY.select(&topo, &flows, 2).expect("xy");
        use crate::traffic::PhaseSchedule;
        let plain = Simulator::new(
            &topo,
            &flows,
            &routes,
            TrafficSpec::proportional(&flows, 0.4),
            quick_config(),
        )
        .expect("valid")
        .run();
        let scaled = Simulator::new(
            &topo,
            &flows,
            &routes,
            TrafficSpec::proportional(&flows, 0.4)
                .with_phases(PhaseSchedule::from_pairs([(7, 1.0)])),
            quick_config(),
        )
        .expect("valid")
        .run();
        assert_eq!(plain, scaled);
    }

    #[test]
    fn histograms_agree_with_scalar_latency_stats() {
        let (topo, flows) = mesh_and_flows();
        let routes = Baseline::XY.select(&topo, &flows, 2).expect("xy");
        let traffic = TrafficSpec::proportional(&flows, 0.2);
        let report = Simulator::new(&topo, &flows, &routes, traffic, quick_config())
            .expect("valid")
            .run();
        let hist = report.latency_histogram();
        let tracked: u64 = report.per_flow.iter().map(|f| f.latency_count).sum();
        assert_eq!(hist.count(), tracked, "every tracked packet is recorded");
        let p50 = report.p50_latency().expect("delivers") as f64;
        let p99 = report.p99_latency().expect("delivers");
        let mean = report.mean_latency().expect("delivers");
        assert!(p50 <= p99 as f64);
        assert!(report.max_latency() >= p99);
        // The histogram's quantiles bracket the mean at light load.
        assert!(p50 <= mean * 1.5 && mean <= report.max_latency() as f64);
    }

    #[test]
    fn link_flit_counts_reflect_routes() {
        let (topo, flows) = mesh_and_flows();
        let routes = Baseline::XY.select(&topo, &flows, 2).expect("xy");
        let traffic = TrafficSpec::proportional(&flows, 0.1);
        let mut sim =
            Simulator::new(&topo, &flows, &routes, traffic, quick_config()).expect("valid");
        let report = sim.run();
        // Links not on any route carry nothing.
        let mut used = vec![false; topo.num_links()];
        for r in routes.iter() {
            for h in &r.hops {
                used[h.link.index()] = true;
            }
        }
        for (li, &flits) in report.link_flits.iter().enumerate() {
            if !used[li] {
                assert_eq!(flits, 0, "unused link {li} carried flits");
            }
        }
        assert!(report.max_link_flits() > 0);
    }

    // --- fast-forward -------------------------------------------------------

    /// Runs `sim` with fast-forward on, or every cycle through the
    /// router phases.
    fn run_ff(mut sim: Simulator<'_>, fast_forward: bool) -> SimReport {
        if fast_forward {
            sim.run()
        } else {
            sim.run_every_cycle()
        }
    }

    /// Reference report for `mesh_and_flows` under `spec` with
    /// fast-forward on or off.
    fn run_mesh(
        topo: &Topology,
        flows: &FlowSet,
        traffic: &TrafficSpec,
        fast_forward: bool,
    ) -> SimReport {
        let routes = Baseline::XY.select(topo, flows, 2).expect("xy");
        let config = SimConfig::new(2)
            .with_warmup(300)
            .with_measurement(2_000)
            .with_packet_len(4);
        let sim = Simulator::new(topo, flows, &routes, traffic.clone(), config).expect("valid");
        run_ff(sim, fast_forward)
    }

    #[test]
    fn parallel_and_fast_forward_reports_are_byte_identical() {
        use crate::traffic::{BurstyOnOff, PhaseSchedule};
        let (topo, flows) = mesh_and_flows();
        let specs = [
            TrafficSpec::proportional(&flows, 0.2),
            TrafficSpec::proportional(&flows, 0.15).with_burst(BurstyOnOff::new(50.0, 150.0)),
            // Long silent phases drain the network completely, which is
            // what actually exercises the fast-forward skip path.
            TrafficSpec::proportional(&flows, 0.3)
                .with_phases(PhaseSchedule::from_pairs([(150, 1.0), (450, 0.0)])),
        ];
        let reference: Vec<SimReport> = specs
            .iter()
            .map(|spec| run_mesh(&topo, &flows, spec, true))
            .collect();
        for (si, report) in reference.iter().enumerate() {
            assert!(report.delivered_packets > 0, "spec {si} delivers");
        }
        // Sweeps run cases side by side on scoped threads, each thread
        // recycling its flit-queue arena from case to case: neither the
        // thread nor the arena's previous case may leak into a report.
        std::thread::scope(|scope| {
            for ff in [true, false] {
                let (topo, flows, specs, reference) = (&topo, &flows, &specs, &reference);
                scope.spawn(move || {
                    for (si, spec) in specs.iter().enumerate() {
                        assert_eq!(
                            run_mesh(topo, flows, spec, ff),
                            reference[si],
                            "spec {si}: fast_forward={ff} must be byte-identical"
                        );
                    }
                });
            }
        });
    }

    #[test]
    fn fast_forward_skips_idle_prefixes_without_changing_counts() {
        use crate::traffic::PhaseSchedule;
        let (topo, flows) = mesh_and_flows();
        let routes = Baseline::XY.select(&topo, &flows, 2).expect("xy");
        // A long silent phase then a burst of work: most cycles skip.
        let spec = TrafficSpec::proportional(&flows, 0.4)
            .with_phases(PhaseSchedule::from_pairs([(4_000, 0.0), (500, 1.0)]));
        let run = |ff: bool| {
            let config = SimConfig::new(2)
                .with_warmup(4_000)
                .with_measurement(500)
                .with_packet_len(4);
            let sim = Simulator::new(&topo, &flows, &routes, spec.clone(), config).expect("valid");
            run_ff(sim, ff)
        };
        let (with_skip, without_skip) = (run(true), run(false));
        assert_eq!(with_skip, without_skip);
        assert_eq!(with_skip.cycles, 4_500, "skipped cycles still count");
        assert!(with_skip.generated_packets > 0);
    }

    /// Workload `which` of the fast-forward proptest: transpose, which
    /// needs a power-of-two square side (odd grids fall back to
    /// uniform-random so the case space stays dense), neighbor, or
    /// uniform-random.
    fn proptest_flows(topo: &Topology, which: u8) -> FlowSet {
        use bsor_workloads::{neighbor, transpose, uniform_random};
        let workload = match which {
            0 => transpose(topo).unwrap_or_else(|_| uniform_random(topo).expect("n >= 2")),
            1 => neighbor(topo).expect("side >= 2"),
            _ => uniform_random(topo).expect("n >= 2"),
        };
        workload.flows
    }

    /// Flat, on/off bursty or phase-scheduled traffic at `rate`.
    fn proptest_traffic(flows: &FlowSet, rate: f64, shape: u8) -> TrafficSpec {
        use crate::traffic::{BurstyOnOff, PhaseSchedule};
        let base = TrafficSpec::proportional(flows, rate);
        match shape {
            0 => base,
            1 => base.with_burst(BurstyOnOff::new(40.0, 120.0)),
            _ => base.with_phases(PhaseSchedule::from_pairs([(100, 1.5), (150, 0.5)])),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(10))]

        /// topology x workload x traffic-shape x rate x seed: at pipeline
        /// latency 1 and 4, the every-cycle report must be byte-identical
        /// to the fast-forwarding one. At latency 4 flits sit in the hop
        /// pipeline across cycle boundaries, which the skip condition has
        /// to see.
        #[test]
        fn fast_forward_keeps_reports_identical_at_pipeline_latency_1_and_4(
            side in 3u16..=5,
            torus_sel in 0u8..2,
            which_workload in 0u8..3,
            shape in 0u8..3,
            rate_step in 1u32..=6,
            seed in 0u64..1_000,
        ) {
            let torus = torus_sel == 1;
            let topo = if torus {
                Topology::torus2d(side, side)
            } else {
                Topology::mesh2d(side, side)
            };
            let flows = proptest_flows(&topo, which_workload);
            let rate = f64::from(rate_step) * 0.05; // 0.05 .. 0.30
            let algo = if torus { Baseline::XY } else { Baseline::YX };
            let routes = algo.select(&topo, &flows, 2).expect("baseline routes");
            for pipeline in [1u8, 4] {
                let run = |ff: bool| {
                    let config = SimConfig::new(2)
                        .with_warmup(200)
                        .with_measurement(800)
                        .with_packet_len(4)
                        .with_seed(seed)
                        .with_pipeline_latency(pipeline);
                    let traffic = proptest_traffic(&flows, rate, shape);
                    let sim = Simulator::new(&topo, &flows, &routes, traffic, config)
                        .expect("valid");
                    run_ff(sim, ff)
                };
                let reference = run(true);
                proptest::prop_assert!(reference.generated_packets > 0);
                proptest::prop_assert_eq!(
                    &run(false),
                    &reference,
                    "pipeline={} diverged without fast-forward (side={}, torus={}, workload={}, shape={}, rate={}, seed={})",
                    pipeline,
                    side,
                    torus,
                    which_workload,
                    shape,
                    rate,
                    seed
                );
            }
        }
    }

    #[test]
    fn routers_with_more_than_256_out_links_simulate() {
        use bsor_routing::{Route, RouteHop, VcMask};
        // A 300-leaf star: the hub's out-link positions run past 255,
        // and the switch buckets forward candidates by that position.
        let leaves = 300u32;
        let mut text = String::from("node hub\n");
        for i in 0..leaves {
            text.push_str(&format!("link hub leaf{i}\n"));
        }
        let topo = bsor_topology::parse_topology_file("star.topo", &text).expect("valid star");
        let hub = NodeId(0);
        let leaf = |i: u32| NodeId(1 + i % leaves);
        let hop = |a, b| RouteHop {
            link: topo.find_link(a, b).expect("star edge"),
            vcs: VcMask::all(1),
        };
        let mut flows = FlowSet::new();
        let mut routes = Vec::new();
        for i in 0..leaves {
            let id = flows.push(leaf(i), leaf(i + 1), 1.0);
            routes.push(Route {
                flow: id,
                hops: vec![hop(leaf(i), hub), hop(hub, leaf(i + 1))],
            });
        }
        let routes = RouteSet::from_routes(routes);
        let config = SimConfig::new(1)
            .with_warmup(200)
            .with_measurement(2_000)
            .with_packet_len(4);
        let report = Simulator::new(
            &topo,
            &flows,
            &routes,
            TrafficSpec::uniform(&flows, 0.02),
            config,
        )
        .expect("valid")
        .run();
        assert!(!report.deadlocked);
        // Every flow leaves the hub on its own out-link; a truncated
        // position would send it down another leaf's link.
        for i in 0..leaves {
            assert!(report.per_flow[i as usize].delivered > 0, "flow {i}");
            let out = topo.find_link(hub, leaf(i + 1)).expect("star edge");
            assert!(report.link_flits[out.index()] > 0, "hub -> leaf{}", i + 1);
        }
    }

    // --- generation sampler and run-size refusal ---------------------------

    /// Returns one fixed draw and counts how often it is asked for one.
    struct FixedDraw {
        x: u64,
        draws: u32,
    }

    impl RngCore for FixedDraw {
        fn next_u64(&mut self) -> u64 {
            self.draws += 1;
            self.x
        }
    }

    /// The generation loop [`Arrivals`] replaced, kept as its reference.
    fn reference_count(mut p: f64, rng: &mut FixedDraw) -> u32 {
        use rand::Rng;
        let mut count = 0;
        while p > 0.0 {
            if p >= 1.0 || rng.gen_bool(p) {
                count += 1;
            }
            p -= 1.0;
        }
        count
    }

    /// Checks [`Arrivals`] against the reference loop at rate `p` for
    /// the draw `x` and for draws whose top 53 bits sit just below and
    /// at the threshold: same packet count, same number of draws.
    fn check_arrivals(p: f64, x: u64) -> Result<(), proptest::test_runner::TestCaseError> {
        let threshold = Arrivals::at(p).threshold;
        let low_bits = x & 0x7ff;
        for m in [
            x >> 11,
            threshold.saturating_sub(1),
            threshold.min((1 << 53) - 1),
        ] {
            let x = (m << 11) | low_bits;
            let mut reference = FixedDraw { x, draws: 0 };
            let mut sampled = FixedDraw { x, draws: 0 };
            let expected = reference_count(p, &mut reference);
            proptest::prop_assert_eq!(
                Arrivals::at(p).sample(&mut sampled),
                expected,
                "p = {:e}, x = {:#x}",
                p,
                x
            );
            proptest::prop_assert_eq!(sampled.draws, reference.draws, "p = {:e}", p);
        }
        Ok(())
    }

    #[test]
    fn threshold_compare_equals_gen_bool_at_the_edges() {
        let third = 1.0 / 3.0;
        for p in [
            0.0,
            f64::from_bits(1), // 2^-1074, the smallest positive double
            1e-9,
            0.1,
            third,
            0.5,
            1.0 - f64::EPSILON / 2.0, // 1 - 2^-53, the largest double below 1
            1.0,
            1.0 + f64::EPSILON,
            2.0,
            2.5,
            2.0 + third,
            1e6 + 0.25,
        ] {
            for x in [0, 1 << 11, u64::MAX, 0x9e37_79b9_7f4a_7c15] {
                check_arrivals(p, x).unwrap_or_else(|e| panic!("{e}"));
            }
        }
        // Zero and integer rates fire without drawing.
        assert_eq!(Arrivals::at(0.0), Arrivals::default());
        assert_eq!(
            Arrivals::at(3.0),
            Arrivals {
                sure: 3,
                threshold: 0
            }
        );
        assert_eq!(Arrivals::at(0.5).threshold, 1 << 52);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4096))]

        /// Every positive double below 1 (drawn by bit pattern, so tiny
        /// and subnormal rates are as likely as large ones), plus 0-3
        /// whole packets, against random draws.
        #[test]
        fn threshold_compare_equals_gen_bool(
            bits in 1u64..0x3ff0_0000_0000_0000,
            whole in 0u32..4,
            x in ..,
        ) {
            check_arrivals(f64::from_bits(bits) + f64::from(whole), x)?;
        }
    }

    /// The figure a refused run names.
    fn refused(traffic: TrafficSpec, config: SimConfig) -> Option<&'static str> {
        let (topo, flows) = mesh_and_flows();
        let routes = Baseline::XY.select(&topo, &flows, 2).expect("xy");
        let result = Simulator::new(&topo, &flows, &routes, traffic, config);
        match result {
            Ok(_) => None,
            Err(SimError::RunTooLarge { figure, .. }) => Some(figure),
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    // `mesh_and_flows` has 16 flows and `quick_config` runs 4,500
    // cycles, so a uniform per-flow rate r offers 72,000 r peak packets
    // against the 4,294,967,295 slot ids. Accepted runs are only
    // assembled, never run.
    const PACKETS: &str = "peak packets (sum of per-flow peak rates x cycles)";

    #[test]
    fn plain_runs_over_the_packet_bound_are_refused() {
        let (_, flows) = mesh_and_flows();
        let spec = |rate| TrafficSpec::uniform(&flows, rate);
        assert_eq!(refused(spec(1e300), quick_config()), Some(PACKETS));
        assert_eq!(refused(spec(60_000.0), quick_config()), Some(PACKETS));
        assert_eq!(refused(spec(59_000.0), quick_config()), None);
    }

    #[test]
    fn the_packet_bound_applies_after_the_burst_multiplier() {
        use crate::traffic::BurstyOnOff;
        let (_, flows) = mesh_and_flows();
        let spec = |rate, burst| TrafficSpec::uniform(&flows, rate).with_burst(burst);
        // The on-stage multiplier of a 1e300-cycle off stage is ~1e300.
        let endless = BurstyOnOff::new(1.0, 1e300);
        assert_eq!(refused(spec(0.1, endless), quick_config()), Some(PACKETS));
        // 10,000 per flow fits plain, not at ten times that while on.
        let tenth = BurstyOnOff::new(1.0, 9.0);
        assert_eq!(
            refused(spec(10_000.0, tenth), quick_config()),
            Some(PACKETS)
        );
        assert_eq!(refused(spec(1_000.0, tenth), quick_config()), None);
    }

    #[test]
    fn the_packet_bound_uses_the_largest_phase_scale() {
        use crate::traffic::PhaseSchedule;
        let (_, flows) = mesh_and_flows();
        let spec = |pairs: [(u64, f64); 2]| {
            TrafficSpec::uniform(&flows, 10_000.0).with_phases(PhaseSchedule::from_pairs(pairs))
        };
        let peak_late = [(4_000, 0.5), (500, 10.0)];
        assert_eq!(refused(spec(peak_late), quick_config()), Some(PACKETS));
        assert_eq!(refused(spec([(10, 1.0), (10, 0.5)]), quick_config()), None);
    }

    #[test]
    fn the_packet_bound_includes_the_variation_fraction() {
        use crate::traffic::MarkovVariation;
        let (_, flows) = mesh_and_flows();
        let spec = TrafficSpec::uniform(&flows, 40_000.0);
        assert_eq!(refused(spec.clone(), quick_config()), None);
        let varied = spec.with_variation(MarkovVariation::new(0.9, 10.0));
        assert_eq!(refused(varied, quick_config()), Some(PACKETS));
    }

    #[test]
    fn cycle_counts_that_overflow_are_refused_at_any_rate() {
        let (_, flows) = mesh_and_flows();
        let wrapped = quick_config().with_warmup(u64::MAX).with_measurement(1);
        for rate in [0.0, 0.1] {
            assert_eq!(
                refused(TrafficSpec::uniform(&flows, rate), wrapped.clone()),
                Some("cycles (warmup + measurement + drain)")
            );
        }
        let mut drained = quick_config().with_measurement(u64::MAX - 500);
        drained.drain = 1;
        assert!(refused(TrafficSpec::uniform(&flows, 0.0), drained).is_some());
    }
}
