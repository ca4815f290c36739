//! Routes, virtual-channel masks, and route sets with channel-load
//! accounting.

use bsor_flow::{FlowId, FlowSet};
use bsor_topology::{LinkId, NodeId, Topology};
use std::error::Error;
use std::fmt;

/// A set of virtual channels a packet may occupy on one channel, as a
/// bitmask (bit `i` = VC `i`; at most 8 VCs, matching the paper's
/// evaluation range of 1–8).
///
/// Static VC allocation uses single-bit masks; dynamic allocation uses
/// all-ones; the two-phase baselines (ROMM, Valiant) use half masks.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct VcMask(pub u8);

impl VcMask {
    /// Mask allowing exactly one VC.
    pub fn single(vc: u8) -> VcMask {
        assert!(vc < 8, "at most 8 virtual channels");
        VcMask(1 << vc)
    }

    /// Mask allowing all of `vcs` virtual channels.
    pub fn all(vcs: u8) -> VcMask {
        assert!((1..=8).contains(&vcs), "1..=8 virtual channels");
        if vcs == 8 {
            VcMask(0xff)
        } else {
            VcMask((1u8 << vcs) - 1)
        }
    }

    /// The lower half of `vcs` channels (phase-1 mask); with `vcs == 1`
    /// this is the single channel.
    pub fn low_half(vcs: u8) -> VcMask {
        let half = (vcs / 2).max(1);
        VcMask::all(half)
    }

    /// The upper half of `vcs` channels (phase-2 mask).
    ///
    /// # Panics
    ///
    /// Panics if `vcs < 2` (no distinct upper half exists).
    pub fn high_half(vcs: u8) -> VcMask {
        assert!(vcs >= 2, "phase splitting needs at least 2 VCs");
        let half = vcs / 2;
        VcMask(VcMask::all(vcs).0 & !VcMask::all(half).0)
    }

    /// Whether VC `vc` is allowed.
    pub fn contains(self, vc: u8) -> bool {
        vc < 8 && self.0 & (1 << vc) != 0
    }

    /// Number of allowed VCs.
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// True if no VC is allowed (an invalid mask for a route hop).
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Whether every allowed VC is below `vcs`: the mask is valid on a
    /// router with `vcs` virtual channels.
    pub fn fits(self, vcs: u8) -> bool {
        // Widened, because `u8 >> 8` overflows; every mask fits 8 VCs.
        u16::from(self.0) >> vcs.min(8) == 0
    }

    /// Iterates over allowed VC indices in ascending order.
    pub fn iter(self) -> impl Iterator<Item = u8> {
        let mut rest = self.0;
        std::iter::from_fn(move || {
            let vc = rest.trailing_zeros() as u8;
            rest &= rest.wrapping_sub(1);
            (vc < 8).then_some(vc)
        })
    }

    /// Lowest allowed VC.
    ///
    /// # Panics
    ///
    /// Panics if the mask is empty.
    pub fn first(self) -> u8 {
        self.iter().next().expect("mask must be nonempty")
    }
}

impl fmt::Debug for VcMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VcMask({:#010b})", self.0)
    }
}

/// One hop of a route: a physical channel plus the VCs the packet may use
/// on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RouteHop {
    /// The channel traversed.
    pub link: LinkId,
    /// Permitted virtual channels on that channel.
    pub vcs: VcMask,
}

/// The path taken by all packets of one flow (paper Definition 1: a
/// single path `pi` from `si` to `ti`).
#[derive(Clone, Debug, PartialEq)]
pub struct Route {
    /// The flow this route carries.
    pub flow: FlowId,
    /// Channels from source to sink, in order.
    pub hops: Vec<RouteHop>,
}

impl Route {
    /// Number of channels traversed.
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// True for degenerate empty routes (never produced by selectors).
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }

    /// The node sequence visited, derived from the hop list.
    pub fn node_path(&self, topo: &Topology) -> Vec<NodeId> {
        let mut nodes = Vec::with_capacity(self.hops.len() + 1);
        if let Some(first) = self.hops.first() {
            nodes.push(topo.link(first.link).src);
        }
        for h in &self.hops {
            nodes.push(topo.link(h.link).dst);
        }
        nodes
    }
}

/// Problems detected by [`RouteSet::validate`].
#[derive(Clone, Debug, PartialEq)]
pub enum RouteError {
    /// The set has no route for a flow.
    MissingRoute(FlowId),
    /// A route's first channel does not leave the flow's source.
    WrongSource(FlowId),
    /// A route's last channel does not enter the flow's sink.
    WrongSink(FlowId),
    /// Two consecutive channels do not share a node.
    Discontinuous(FlowId, usize),
    /// A hop allows no virtual channel at all.
    EmptyVcMask(FlowId, usize),
    /// A hop references a VC index `>= vcs`.
    VcOutOfRange(FlowId, usize),
    /// A route is empty.
    EmptyRoute(FlowId),
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::MissingRoute(id) => write!(f, "no route for flow {id}"),
            RouteError::WrongSource(id) => write!(f, "route for {id} does not start at its source"),
            RouteError::WrongSink(id) => write!(f, "route for {id} does not end at its sink"),
            RouteError::Discontinuous(id, i) => {
                write!(f, "route for {id} breaks continuity at hop {i}")
            }
            RouteError::EmptyVcMask(id, i) => write!(f, "route for {id} hop {i} allows no VC"),
            RouteError::VcOutOfRange(id, i) => {
                write!(f, "route for {id} hop {i} references an out-of-range VC")
            }
            RouteError::EmptyRoute(id) => write!(f, "route for {id} is empty"),
        }
    }
}

impl Error for RouteError {}

/// Distribution of channel loads over the channels a routing uses.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BalanceStats {
    /// Channels carrying any traffic.
    pub used_links: usize,
    /// Mean load over used channels, MB/s.
    pub mean_load: f64,
    /// Standard deviation of the load over used channels.
    pub std_dev: f64,
    /// Peak load (the MCL), MB/s.
    pub max_load: f64,
}

impl BalanceStats {
    /// Peak-to-mean ratio: 1.0 is perfectly balanced; large values mean
    /// a hot spot.
    pub fn peak_to_mean(&self) -> f64 {
        if self.mean_load == 0.0 {
            0.0
        } else {
            self.max_load / self.mean_load
        }
    }
}

/// One route per flow, indexed by [`FlowId`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RouteSet {
    routes: Vec<Route>,
}

impl RouteSet {
    /// Builds a route set from routes listed in flow-id order.
    ///
    /// # Panics
    ///
    /// Panics if ids are not `0..n` in order.
    pub fn from_routes(routes: Vec<Route>) -> RouteSet {
        for (i, r) in routes.iter().enumerate() {
            assert_eq!(r.flow.index(), i, "routes must be listed in flow-id order");
        }
        RouteSet { routes }
    }

    /// Number of routes.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// True when the set holds no routes.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// The route for `flow`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn route(&self, flow: FlowId) -> &Route {
        &self.routes[flow.index()]
    }

    /// Iterates over routes in flow-id order.
    pub fn iter(&self) -> impl Iterator<Item = &Route> + '_ {
        self.routes.iter()
    }

    /// Per-channel bandwidth loads given the flows' demands.
    pub fn link_loads(&self, topo: &Topology, flows: &FlowSet) -> Vec<f64> {
        let mut loads = vec![0.0; topo.num_links()];
        for r in &self.routes {
            let d = flows.flow(r.flow).demand;
            for h in &r.hops {
                loads[h.link.index()] += d;
            }
        }
        loads
    }

    /// The maximum channel load (MCL) of this routing (paper
    /// Definition 3).
    pub fn mcl(&self, topo: &Topology, flows: &FlowSet) -> f64 {
        self.link_loads(topo, flows).into_iter().fold(0.0, f64::max)
    }

    /// The maximum number of flows sharing any channel (the alternative
    /// objective of paper §7.2).
    pub fn max_flows_per_link(&self, topo: &Topology) -> usize {
        let mut counts = vec![0usize; topo.num_links()];
        for r in &self.routes {
            for h in &r.hops {
                counts[h.link.index()] += 1;
            }
        }
        counts.into_iter().max().unwrap_or(0)
    }

    /// Mean route length in hops (channels), unweighted across flows.
    pub fn mean_hops(&self) -> f64 {
        if self.routes.is_empty() {
            return 0.0;
        }
        self.routes.iter().map(|r| r.len() as f64).sum::<f64>() / self.routes.len() as f64
    }

    /// Load-balance statistics over the channels that carry any traffic
    /// (the paper defines load balancing as "the degree to which
    /// resources … are uniformly utilized across the different links").
    pub fn balance(&self, topo: &Topology, flows: &FlowSet) -> BalanceStats {
        let loads = self.link_loads(topo, flows);
        let used: Vec<f64> = loads.iter().copied().filter(|&l| l > 0.0).collect();
        if used.is_empty() {
            return BalanceStats::default();
        }
        let n = used.len() as f64;
        let mean = used.iter().sum::<f64>() / n;
        let var = used.iter().map(|l| (l - mean).powi(2)).sum::<f64>() / n;
        let max = used.iter().copied().fold(0.0, f64::max);
        BalanceStats {
            used_links: used.len(),
            mean_load: mean,
            std_dev: var.sqrt(),
            max_load: max,
        }
    }

    /// Checks structural validity of every route against `flows` and the
    /// topology: continuity, endpoints, VC masks within `vcs`.
    ///
    /// # Errors
    ///
    /// The first [`RouteError`] found.
    pub fn validate(&self, topo: &Topology, flows: &FlowSet, vcs: u8) -> Result<(), RouteError> {
        if self.routes.len() != flows.len() {
            let missing = FlowId(self.routes.len() as u32);
            return Err(RouteError::MissingRoute(missing));
        }
        for r in &self.routes {
            let f = flows.flow(r.flow);
            let Some(first) = r.hops.first() else {
                return Err(RouteError::EmptyRoute(r.flow));
            };
            if topo.link(first.link).src != f.src {
                return Err(RouteError::WrongSource(r.flow));
            }
            let last = r.hops.last().expect("nonempty");
            if topo.link(last.link).dst != f.dst {
                return Err(RouteError::WrongSink(r.flow));
            }
            for (i, pair) in r.hops.windows(2).enumerate() {
                if topo.link(pair[0].link).dst != topo.link(pair[1].link).src {
                    return Err(RouteError::Discontinuous(r.flow, i + 1));
                }
            }
            for (i, h) in r.hops.iter().enumerate() {
                if h.vcs.is_empty() {
                    return Err(RouteError::EmptyVcMask(r.flow, i));
                }
                if !h.vcs.fits(vcs) {
                    return Err(RouteError::VcOutOfRange(r.flow, i));
                }
            }
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a RouteSet {
    type Item = &'a Route;
    type IntoIter = std::slice::Iter<'a, Route>;

    fn into_iter(self) -> Self::IntoIter {
        self.routes.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsor_flow::FlowSet;

    #[test]
    fn vc_mask_basics() {
        let m = VcMask::all(4);
        assert_eq!(m.count(), 4);
        assert!(m.contains(0) && m.contains(3) && !m.contains(4));
        let s = VcMask::single(2);
        assert_eq!(s.count(), 1);
        assert_eq!(s.first(), 2);
        assert_eq!(VcMask::all(8).0, 0xff);
        for vcs in 1..=8u8 {
            let all = VcMask::all(vcs);
            assert_eq!(all.iter().collect::<Vec<_>>(), (0..vcs).collect::<Vec<_>>());
            assert!(all.fits(vcs) && all.fits(8) && all.fits(u8::MAX));
            assert!(!all.fits(vcs - 1), "all({vcs}) needs VC {}", vcs - 1);
            let top = VcMask::single(vcs - 1);
            assert!(top.fits(vcs) && !top.fits(vcs - 1));
            assert_eq!(top.iter().collect::<Vec<_>>(), vec![vcs - 1]);
        }
        assert!(VcMask(0).fits(0) && !VcMask::single(0).fits(0));
        assert_eq!(VcMask(0b1010_0101).iter().collect::<Vec<_>>(), [0, 2, 5, 7]);
        assert_eq!(VcMask(0).iter().count(), 0);
    }

    #[test]
    fn vc_mask_halves_partition() {
        for vcs in [2u8, 4, 8] {
            let low = VcMask::low_half(vcs);
            let high = VcMask::high_half(vcs);
            assert_eq!(low.0 & high.0, 0, "halves are disjoint");
            assert_eq!(low.0 | high.0, VcMask::all(vcs).0, "halves cover all VCs");
        }
        assert_eq!(VcMask::low_half(1), VcMask::single(0));
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn high_half_needs_two_vcs() {
        VcMask::high_half(1);
    }

    fn xy_route(topo: &Topology, flow: FlowId, src: NodeId, dst: NodeId) -> Route {
        // Straight-line helper for tests: assumes same row or column.
        let mut hops = Vec::new();
        let mut cur = src;
        while cur != dst {
            let cc = topo.coord(cur);
            let dc = topo.coord(dst);
            let next = if cc.x < dc.x {
                topo.node_at(cc.x + 1, cc.y)
            } else if cc.x > dc.x {
                topo.node_at(cc.x - 1, cc.y)
            } else if cc.y < dc.y {
                topo.node_at(cc.x, cc.y + 1)
            } else {
                topo.node_at(cc.x, cc.y - 1)
            }
            .expect("in range");
            hops.push(RouteHop {
                link: topo.find_link(cur, next).expect("adjacent"),
                vcs: VcMask::all(2),
            });
            cur = next;
        }
        Route { flow, hops }
    }

    #[test]
    fn mcl_accumulates_demands() {
        let topo = Topology::mesh2d(3, 1);
        let mut flows = FlowSet::new();
        let a = flows.push(NodeId(0), NodeId(2), 10.0);
        let b = flows.push(NodeId(1), NodeId(2), 5.0);
        let routes = RouteSet::from_routes(vec![
            xy_route(&topo, a, NodeId(0), NodeId(2)),
            xy_route(&topo, b, NodeId(1), NodeId(2)),
        ]);
        // Link 1->2 carries both flows: 15.
        assert_eq!(routes.mcl(&topo, &flows), 15.0);
        assert_eq!(routes.max_flows_per_link(&topo), 2);
        assert_eq!(routes.mean_hops(), 1.5);
        routes.validate(&topo, &flows, 2).expect("valid routes");
    }

    #[test]
    fn balance_stats_summarize_loads() {
        let topo = Topology::mesh2d(3, 1);
        let mut flows = FlowSet::new();
        let a = flows.push(NodeId(0), NodeId(2), 10.0);
        let b = flows.push(NodeId(1), NodeId(2), 5.0);
        let routes = RouteSet::from_routes(vec![
            xy_route(&topo, a, NodeId(0), NodeId(2)),
            xy_route(&topo, b, NodeId(1), NodeId(2)),
        ]);
        let stats = routes.balance(&topo, &flows);
        // Loads: link 0->1 = 10, link 1->2 = 15.
        assert_eq!(stats.used_links, 2);
        assert!((stats.mean_load - 12.5).abs() < 1e-9);
        assert!((stats.max_load - 15.0).abs() < 1e-9);
        assert!((stats.std_dev - 2.5).abs() < 1e-9);
        assert!((stats.peak_to_mean() - 1.2).abs() < 1e-9);
    }

    #[test]
    fn empty_route_set_balance_is_zero() {
        let topo = Topology::mesh2d(2, 2);
        let flows = FlowSet::new();
        let routes = RouteSet::from_routes(vec![]);
        let stats = routes.balance(&topo, &flows);
        assert_eq!(stats, BalanceStats::default());
        assert_eq!(stats.peak_to_mean(), 0.0);
    }

    #[test]
    fn node_path_reconstruction() {
        let topo = Topology::mesh2d(3, 3);
        let r = xy_route(&topo, FlowId(0), NodeId(0), NodeId(2));
        assert_eq!(r.node_path(&topo), vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn validate_rejects_discontinuity() {
        let topo = Topology::mesh2d(3, 1);
        let mut flows = FlowSet::new();
        let id = flows.push(NodeId(0), NodeId(1), 1.0);
        // Two hops that don't connect: 0->1 then 0->1 again (endpoints of
        // the whole route are fine, so continuity is what trips).
        let l01 = topo.find_link(NodeId(0), NodeId(1)).expect("adjacent");
        let bad = Route {
            flow: id,
            hops: vec![
                RouteHop {
                    link: l01,
                    vcs: VcMask::all(1),
                },
                RouteHop {
                    link: l01,
                    vcs: VcMask::all(1),
                },
            ],
        };
        let rs = RouteSet::from_routes(vec![bad]);
        assert!(matches!(
            rs.validate(&topo, &flows, 1),
            Err(RouteError::Discontinuous(_, 1))
        ));
    }

    #[test]
    fn validate_rejects_vc_out_of_range() {
        let topo = Topology::mesh2d(2, 1);
        let mut flows = FlowSet::new();
        let id = flows.push(NodeId(0), NodeId(1), 1.0);
        let l = topo.find_link(NodeId(0), NodeId(1)).expect("adjacent");
        let r = Route {
            flow: id,
            hops: vec![RouteHop {
                link: l,
                vcs: VcMask::single(3),
            }],
        };
        let rs = RouteSet::from_routes(vec![r]);
        assert!(matches!(
            rs.validate(&topo, &flows, 2),
            Err(RouteError::VcOutOfRange(_, 0))
        ));
        assert!(rs.validate(&topo, &flows, 4).is_ok());
    }

    #[test]
    fn validate_rejects_wrong_endpoints() {
        let topo = Topology::mesh2d(3, 1);
        let mut flows = FlowSet::new();
        let id = flows.push(NodeId(0), NodeId(2), 1.0);
        let l12 = topo.find_link(NodeId(1), NodeId(2)).expect("adjacent");
        let r = Route {
            flow: id,
            hops: vec![RouteHop {
                link: l12,
                vcs: VcMask::all(1),
            }],
        };
        let rs = RouteSet::from_routes(vec![r]);
        assert!(matches!(
            rs.validate(&topo, &flows, 1),
            Err(RouteError::WrongSource(_))
        ));
    }
}
