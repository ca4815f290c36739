//! Table-based routing state for programmable routers (paper §4.2.1).
//!
//! [`NodeTables`] is the node-table realization of Figure 4-2(b): each
//! router stores `(output port, VC mask, next index)` entries, and
//! packets carry only a table index that is rewritten at every hop.
//! [`RouteTables`] abstracts over it and the interval-compressed
//! [`crate::compact::CompactTables`].

use crate::route::{RouteSet, VcMask};
use bsor_flow::FlowId;
use bsor_topology::{LinkId, NodeId, Topology};

/// The interface the simulator's per-hop lookup needs from a routing
/// table, abstracting over the dense [`NodeTables`] arena and the
/// compressed [`crate::compact::CompactTables`] representation.
///
/// A packet carries an opaque `u32` *cursor*. What the cursor means is
/// representation-private (a chained per-node index for `NodeTables`, a
/// destination or flow key for compact tables); the contract is only
/// that starting from [`RouteTables::initial_cursor`] and following
/// each [`TableEntry::next_index`] yields the flow's hop sequence with
/// identical `(out_link, vcs)` at every hop, ending on `None` at the
/// ejection hop.
pub trait RouteTables {
    /// The cursor a packet of `flow` carries when injected.
    fn initial_cursor(&self, flow: FlowId) -> u32;

    /// Resolves the cursor at `node` into the hop's table entry (output
    /// link, VC mask, and the cursor for the next router).
    fn entry(&self, node: NodeId, cursor: u32) -> TableEntry;

    /// Measured heap footprint of the representation in bytes (arena
    /// payloads, offsets and initial cursors — the figure reported as
    /// `table_bytes` in plans, sweeps and `bsor-serve`).
    fn table_bytes(&self) -> usize;

    /// Follows the tables from a flow's source, reconstructing the hop
    /// list (used to verify table programming round-trips).
    fn walk_route(&self, topo: &Topology, flow: FlowId, src: NodeId) -> Vec<LinkId> {
        let mut hops = Vec::new();
        let mut node = src;
        let mut cursor = Some(self.initial_cursor(flow));
        while let Some(c) = cursor {
            let entry = self.entry(node, c);
            hops.push(entry.out_link);
            node = topo.link(entry.out_link).dst;
            cursor = entry.next_index;
        }
        hops
    }
}

/// One node-table entry: output channel, permitted VCs on it, and the
/// index the packet will carry into the next router's table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TableEntry {
    /// Channel to forward on.
    pub out_link: LinkId,
    /// Virtual channels allowed on that channel.
    pub vcs: VcMask,
    /// Cursor the packet carries into the next router's table (`None`
    /// at the last hop: the packet ejects at the destination).
    pub next_index: Option<u32>,
}

/// Per-node routing tables with index chaining (paper Figure 4-2(b)).
///
/// Stored as one flat entry arena in CSR layout — node `n` owns
/// `entries[offsets[n] .. offsets[n + 1]]` — so the simulator's per-hop
/// lookup is two array reads with no nested indirection.
///
/// Equality is structural (same offsets, entries and initial indices),
/// which is what the plan-cache tests use to prove a cached
/// `RoutePlan`'s compiled tables are identical to freshly built ones.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeTables {
    /// CSR offsets into `entries`, one slot per node plus a sentinel.
    offsets: Vec<u32>,
    entries: Vec<TableEntry>,
    initial: Vec<u32>,
}

impl NodeTables {
    /// Programs node tables from a computed route set.
    ///
    /// # Panics
    ///
    /// Panics if any table would exceed `u32` indices (4 billion flows
    /// through one node — far beyond the paper's 256-entry discussion).
    pub fn build(topo: &Topology, routes: &RouteSet) -> NodeTables {
        // Pass 1: size each node's table so entries can live in one arena.
        let mut counts = vec![0u32; topo.num_nodes()];
        for route in routes.iter() {
            for hop in &route.hops {
                counts[topo.link(hop.link).src.index()] += 1;
            }
        }
        let mut offsets = Vec::with_capacity(topo.num_nodes() + 1);
        offsets.push(0u32);
        for &c in &counts {
            offsets.push(offsets.last().expect("nonempty") + c);
        }
        let placeholder = TableEntry {
            out_link: LinkId(0),
            vcs: VcMask(0),
            next_index: None,
        };
        let mut entries = vec![placeholder; *offsets.last().expect("nonempty") as usize];
        // Pass 2: fill, assigning per-node indices in route order (the
        // same order the nested-Vec representation produced).
        let mut filled = vec![0u32; topo.num_nodes()];
        let mut initial = Vec::with_capacity(routes.len());
        for route in routes.iter() {
            // Walk hops backwards so each entry knows its successor index.
            let mut next_index: Option<u32> = None;
            for hop in route.hops.iter().rev() {
                let node = topo.link(hop.link).src.index();
                let idx = filled[node];
                entries[(offsets[node] + filled[node]) as usize] = TableEntry {
                    out_link: hop.link,
                    vcs: hop.vcs,
                    next_index,
                };
                filled[node] += 1;
                next_index = Some(idx);
            }
            initial.push(next_index.expect("routes are nonempty"));
        }
        NodeTables {
            offsets,
            entries,
            initial,
        }
    }

    /// The table index a packet of `flow` carries when injected.
    ///
    /// # Panics
    ///
    /// Panics if `flow` is out of range.
    pub fn initial_index(&self, flow: FlowId) -> u32 {
        self.initial[flow.index()]
    }

    /// Looks up an entry.
    ///
    /// # Panics
    ///
    /// Panics if the node or index is out of range.
    pub fn lookup(&self, node: NodeId, index: u32) -> &TableEntry {
        let n = node.index();
        let slot = self.offsets[n] as usize + index as usize;
        debug_assert!(slot < self.offsets[n + 1] as usize, "index past node table");
        &self.entries[slot]
    }

    /// Size of the largest node table (the hardware-resource figure the
    /// paper discusses: 256 entries ≈ a couple of KB).
    pub fn max_entries(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// Bits per entry for this network: 2 bits of output port on a 2-D
    /// mesh (up to 4 candidate ports), plus index bits for the largest
    /// table.
    pub fn entry_bits(&self) -> u32 {
        let idx_bits = (self.max_entries().max(2) as f64).log2().ceil() as u32;
        2 + idx_bits
    }
}

impl RouteTables for NodeTables {
    fn initial_cursor(&self, flow: FlowId) -> u32 {
        self.initial_index(flow)
    }

    fn entry(&self, node: NodeId, cursor: u32) -> TableEntry {
        *self.lookup(node, cursor)
    }

    fn table_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u32>()
            + self.entries.len() * std::mem::size_of::<TableEntry>()
            + self.initial.len() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::Baseline;
    use bsor_flow::FlowSet;

    fn sample() -> (Topology, FlowSet, RouteSet) {
        let topo = Topology::mesh2d(4, 4);
        let mut flows = FlowSet::new();
        for s in topo.node_ids() {
            for d in topo.node_ids() {
                if s != d && (s.0 + d.0) % 3 == 0 {
                    flows.push(s, d, 10.0);
                }
            }
        }
        let routes = Baseline::XY.select(&topo, &flows, 2).expect("xy");
        (topo, flows, routes)
    }

    #[test]
    fn node_tables_walk_reproduces_routes() {
        let (topo, flows, routes) = sample();
        let tables = NodeTables::build(&topo, &routes);
        for f in flows.iter() {
            let walked = tables.walk_route(&topo, f.id, f.src);
            let expected: Vec<LinkId> = routes.route(f.id).hops.iter().map(|h| h.link).collect();
            assert_eq!(walked, expected, "table walk must reproduce flow {}", f.id);
        }
    }

    #[test]
    fn node_table_sizes_are_modest() {
        let (_, _, routes) = sample();
        let topo = Topology::mesh2d(4, 4);
        let tables = NodeTables::build(&topo, &routes);
        // Every route of length L contributes L entries spread over L nodes.
        let total_entries: usize = routes.iter().map(|r| r.len()).sum();
        assert!(tables.max_entries() <= total_entries);
        assert!(tables.max_entries() > 0);
        // Paper: 2 bits out-port + 8 bits index for 256 entries.
        assert!(tables.entry_bits() >= 3);
    }

    #[test]
    fn last_hop_has_no_next_index() {
        let (topo, flows, routes) = sample();
        let tables = NodeTables::build(&topo, &routes);
        for f in flows.iter() {
            let mut node = f.src;
            let mut index = Some(tables.initial_index(f.id));
            let mut last_entry = None;
            while let Some(idx) = index {
                let e = tables.lookup(node, idx);
                node = topo.link(e.out_link).dst;
                index = e.next_index;
                last_entry = Some(*e);
            }
            assert_eq!(last_entry.expect("route nonempty").next_index, None);
            assert_eq!(node, f.dst);
        }
    }
}
