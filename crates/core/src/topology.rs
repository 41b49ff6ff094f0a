//! The network topology model: links with capacities, routes as
//! link-id paths, and the [`PathAdmission`] composition layer that
//! lifts the paper's single-link admission criteria to multi-hop
//! routes.
//!
//! A [`Topology`] is deliberately minimal — bufferless links identified
//! by [`LinkId`], each with a capacity, and routes ([`RouteId`]) that
//! are ordered hop lists. Flows are pinned to routes: admitting one
//! flow on a route consumes one unit of occupancy on *every* hop.
//!
//! # Path admission semantics
//!
//! [`PathAdmission::decide`] admits a flow only if every hop's
//! controller accepts ([`hop_admits`]: measured admissible count `m̂`
//! versus occupancy-plus-one, the same test the single-link plane
//! applies). Occupancy commits are **all-or-nothing**: hops are
//! reserved in route order, and a rejection at hop `k` rolls back the
//! reservations at hops `< k`, so a rejected request never leaks
//! provisional load into upstream links. Because the per-hop acceptance
//! test reads only estimator state (whose decision memo is bit-stable —
//! see `crates/sim/tests/decision_memo.rs`) and the rollback restores
//! the exact pre-ask occupancy, a rejected path attempt is
//! indistinguishable, bit for bit, from never having asked.

use std::fmt;

// ---------------------------------------------------------------------
// Identifiers
// ---------------------------------------------------------------------

/// Identifier of one bufferless link. A newtype rather than a bare
/// index: shard indices, flow ids and link ids all look like integers,
/// and the routed two-phase commit makes confusing them dangerous.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

impl LinkId {
    /// The link id as a container index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The link id widened for hashing (shard placement).
    #[inline]
    pub fn as_u64(self) -> u64 {
        u64::from(self.0)
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "link{}", self.0)
    }
}

/// Identifier of one route (an ordered hop list) within a
/// [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RouteId(pub u32);

impl RouteId {
    /// The route id as a container index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RouteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "route{}", self.0)
    }
}

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// A rejected topology description.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TopologyError {
    /// A topology needs at least one link.
    NoLinks,
    /// A topology needs at least one route.
    NoRoutes,
    /// A link capacity was zero, negative or NaN.
    BadCapacity {
        /// The offending link.
        link: LinkId,
        /// The rejected value.
        value: f64,
    },
    /// A route with no hops admits nothing and controls nothing.
    EmptyRoute {
        /// The offending route.
        route: RouteId,
    },
    /// A route referenced a link id outside the topology.
    UnknownLink {
        /// The offending route.
        route: RouteId,
        /// The out-of-range link id.
        link: LinkId,
    },
    /// A route visited the same link twice; occupancy accounting
    /// assumes each hop is a distinct link.
    DuplicateHop {
        /// The offending route.
        route: RouteId,
        /// The repeated link id.
        link: LinkId,
    },
    /// A route had more than [`MAX_ROUTE_HOPS`] hops; decision records
    /// carry hop indices and vote counts as `u8`.
    RouteTooLong {
        /// The offending route.
        route: RouteId,
        /// Its hop count.
        hops: usize,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::NoLinks => write!(f, "topology must have at least one link"),
            TopologyError::NoRoutes => write!(f, "topology must have at least one route"),
            TopologyError::BadCapacity { link, value } => {
                write!(f, "{link} capacity must be positive, got {value}")
            }
            TopologyError::EmptyRoute { route } => write!(f, "{route} has no hops"),
            TopologyError::UnknownLink { route, link } => {
                write!(f, "{route} references unknown {link}")
            }
            TopologyError::DuplicateHop { route, link } => {
                write!(f, "{route} visits {link} more than once")
            }
            TopologyError::RouteTooLong { route, hops } => {
                write!(
                    f,
                    "{route} has {hops} hops, at most {MAX_ROUTE_HOPS} are supported"
                )
            }
        }
    }
}

impl std::error::Error for TopologyError {}

// ---------------------------------------------------------------------
// Topology
// ---------------------------------------------------------------------

/// The longest route a [`Topology`] accepts: hop indices and per-request
/// hop counts travel as `u8` through the decision records and the routed
/// plane's vote table.
pub const MAX_ROUTE_HOPS: usize = u8::MAX as usize;

/// Narrows a hop index or hop count of a validated [`Topology`] to the
/// `u8` the decision records carry.
#[inline]
pub fn hop_u8(k: usize) -> u8 {
    u8::try_from(k).expect("Topology::validate bounds every route by MAX_ROUTE_HOPS")
}

/// A network of bufferless links and the routes flows may take across
/// them. Immutable once built; validation happens at construction.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    capacities: Vec<f64>,
    routes: Vec<Box<[LinkId]>>,
}

impl Topology {
    /// Builds and validates a topology from per-link capacities and
    /// routes given as hop lists.
    pub fn new(capacities: Vec<f64>, routes: Vec<Vec<LinkId>>) -> Result<Self, TopologyError> {
        let topo = Topology {
            capacities,
            routes: routes.into_iter().map(Vec::into_boxed_slice).collect(),
        };
        topo.validate()?;
        Ok(topo)
    }

    /// The one-link convenience: a single link of `capacity` with one
    /// single-hop route — the exact shape every pre-topology layer
    /// assumed. Panics if `capacity` is not strictly positive.
    pub fn single_link(capacity: f64) -> Self {
        Topology::new(vec![capacity], vec![vec![LinkId(0)]])
            .expect("single_link: capacity must be positive")
    }

    /// The parking-lot topology: `hops` links in a row, one long route
    /// traversing all of them, plus one single-hop cross-traffic route
    /// per link. The classic multi-hop fairness/composition shape.
    /// Panics if `hops` is zero or exceeds [`MAX_ROUTE_HOPS`], or if
    /// `capacity` is not strictly positive.
    pub fn parking_lot(hops: usize, capacity: f64) -> Self {
        assert!(hops > 0, "parking_lot: need at least one hop");
        let long: Vec<LinkId> = (0..hops).map(|i| LinkId(i as u32)).collect();
        let mut routes = vec![long];
        routes.extend((0..hops).map(|i| vec![LinkId(i as u32)]));
        Topology::new(vec![capacity; hops], routes)
            .expect("parking_lot: invalid hop count or capacity")
    }

    /// The star topology: `legs` spoke links feeding one shared hub
    /// link (link 0). Route `i` crosses spoke `i+1` then the hub, so
    /// every route contends on the hub — maximal load correlation.
    /// Panics if `legs` is zero or `capacity` is not strictly positive.
    pub fn star(legs: usize, capacity: f64) -> Self {
        assert!(legs > 0, "star: need at least one leg");
        let routes = (0..legs)
            .map(|i| vec![LinkId(i as u32 + 1), LinkId(0)])
            .collect();
        Topology::new(vec![capacity; legs + 1], routes)
            .expect("star: invalid leg count or capacity")
    }

    /// Checks the invariants [`Topology::new`] enforces.
    pub fn validate(&self) -> Result<(), TopologyError> {
        if self.capacities.is_empty() {
            return Err(TopologyError::NoLinks);
        }
        if self.routes.is_empty() {
            return Err(TopologyError::NoRoutes);
        }
        for (i, &c) in self.capacities.iter().enumerate() {
            if c <= 0.0 || c.is_nan() {
                return Err(TopologyError::BadCapacity {
                    link: LinkId(i as u32),
                    value: c,
                });
            }
        }
        for (r, hops) in self.routes.iter().enumerate() {
            let route = RouteId(r as u32);
            if hops.is_empty() {
                return Err(TopologyError::EmptyRoute { route });
            }
            if hops.len() > MAX_ROUTE_HOPS {
                return Err(TopologyError::RouteTooLong {
                    route,
                    hops: hops.len(),
                });
            }
            for (k, &link) in hops.iter().enumerate() {
                if link.index() >= self.capacities.len() {
                    return Err(TopologyError::UnknownLink { route, link });
                }
                if hops[..k].contains(&link) {
                    return Err(TopologyError::DuplicateHop { route, link });
                }
            }
        }
        Ok(())
    }

    /// Number of links.
    pub fn links(&self) -> usize {
        self.capacities.len()
    }

    /// Number of routes.
    pub fn routes(&self) -> usize {
        self.routes.len()
    }

    /// Capacity of `link`.
    #[inline]
    pub fn capacity(&self, link: LinkId) -> f64 {
        self.capacities[link.index()]
    }

    /// The hop list of `route`, in traversal order.
    #[inline]
    pub fn route(&self, route: RouteId) -> &[LinkId] {
        &self.routes[route.index()]
    }

    /// All link ids, in index order.
    pub fn link_ids(&self) -> impl Iterator<Item = LinkId> + '_ {
        (0..self.capacities.len()).map(|i| LinkId(i as u32))
    }

    /// All route ids, in index order.
    pub fn route_ids(&self) -> impl Iterator<Item = RouteId> + '_ {
        (0..self.routes.len()).map(|r| RouteId(r as u32))
    }

    /// The routes whose hop list contains `link`, in route order —
    /// the flows sharing `link`'s capacity.
    pub fn routes_crossing(&self, link: LinkId) -> impl Iterator<Item = RouteId> + '_ {
        self.routes
            .iter()
            .enumerate()
            .filter(move |(_, hops)| hops.contains(&link))
            .map(|(r, _)| RouteId(r as u32))
    }

    /// The position of `link` within `route`'s hop list (unique —
    /// duplicate hops are rejected at construction).
    pub fn hop_index(&self, route: RouteId, link: LinkId) -> Option<usize> {
        self.route(route).iter().position(|&l| l == link)
    }
}

// ---------------------------------------------------------------------
// Path admission
// ---------------------------------------------------------------------

/// The single-hop acceptance test every layer shares: a measured
/// admissible count `m̂` accepts one more flow iff `occupancy + 1 ≤ m̂`.
/// `None` (no measurement yet — cold start) fails safe to reject.
#[inline]
pub fn hop_admits(admissible: Option<f64>, occupancy: u32) -> bool {
    admissible.is_some_and(|m| f64::from(occupancy + 1) <= m)
}

/// What [`PathAdmission`] consults per hop: the measured admissible
/// flow count of one link at its capacity. Implemented over whatever
/// holds the per-link estimators (e.g. a slice of
/// `mbac_sim::MbacController`).
pub trait HopOracle {
    /// The admissible count for `link` at `capacity`, or `None` when
    /// the link has no measurement yet.
    fn admissible(&mut self, link: LinkId, capacity: f64) -> Option<f64>;
}

impl<F> HopOracle for F
where
    F: FnMut(LinkId, f64) -> Option<f64>,
{
    fn admissible(&mut self, link: LinkId, capacity: f64) -> Option<f64> {
        self(link, capacity)
    }
}

/// One hop's view of a path decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HopReport {
    /// The hop's link.
    pub link: LinkId,
    /// The admissible count the hop's controller reported (`None` on a
    /// cold start).
    pub admissible: Option<f64>,
    /// The link's occupancy *after* the decision settled (committed on
    /// admit, rolled back on reject).
    pub occupancy: u32,
}

/// The outcome of one path admission attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct PathDecision {
    /// The route the request addressed.
    pub route: RouteId,
    /// Admit (`true`) only if every hop accepted.
    pub admit: bool,
    /// The first rejecting hop's index within the route, when rejected.
    /// Hops past it were never consulted (serial short-circuit).
    pub reject_hop: Option<u8>,
    /// Per-hop reports, in route order, up to and including the
    /// rejecting hop.
    pub hops: Vec<HopReport>,
}

/// Per-link occupancy accounting with all-or-nothing multi-hop
/// commit/rollback — the composition layer lifting single-link
/// admission to routes.
#[derive(Debug, Clone, PartialEq)]
pub struct PathAdmission {
    occupancy: Vec<u32>,
}

impl PathAdmission {
    /// Zeroed occupancy for `links` links.
    pub fn new(links: usize) -> Self {
        PathAdmission {
            occupancy: vec![0; links],
        }
    }

    /// Zeroed occupancy sized for `topology`.
    pub fn for_topology(topology: &Topology) -> Self {
        PathAdmission::new(topology.links())
    }

    /// The current occupancy of `link`.
    #[inline]
    pub fn occupancy(&self, link: LinkId) -> u32 {
        self.occupancy[link.index()]
    }

    /// Resynchronizes `link`'s occupancy to a measured flow count (the
    /// plane's convention: measurements are ground truth, admits are
    /// provisional increments between them).
    pub fn sync(&mut self, link: LinkId, measured: u32) {
        self.occupancy[link.index()] = measured;
    }

    /// Releases `departed` flows from every hop of `route` (flow
    /// departures free capacity along the whole path). Saturates at
    /// zero: a measurement resync may already have absorbed the
    /// departure.
    pub fn release(&mut self, topology: &Topology, route: RouteId, departed: u32) {
        for &hop in topology.route(route) {
            let occ = &mut self.occupancy[hop.index()];
            *occ = occ.saturating_sub(departed);
        }
    }

    /// Decides one admission request on `route`: consults `oracle` hop
    /// by hop in route order, reserving occupancy as it goes; on the
    /// first rejecting hop, rolls every reservation back. The returned
    /// occupancies are post-settlement (committed or restored) — a
    /// rejected attempt leaves `self` bit-identical to never asking.
    pub fn decide(
        &mut self,
        topology: &Topology,
        route: RouteId,
        oracle: &mut impl HopOracle,
    ) -> PathDecision {
        let hops = topology.route(route);
        let mut reports = Vec::with_capacity(hops.len());
        for (k, &link) in hops.iter().enumerate() {
            let admissible = oracle.admissible(link, topology.capacity(link));
            let occ = self.occupancy[link.index()];
            if hop_admits(admissible, occ) {
                // Reserve: provisional until the whole path accepts.
                self.occupancy[link.index()] = occ + 1;
                reports.push(HopReport {
                    link,
                    admissible,
                    occupancy: occ + 1,
                });
            } else {
                // All-or-nothing: roll back every reservation made at
                // hops < k and report pre-ask occupancies.
                for r in &mut reports {
                    let slot = &mut self.occupancy[r.link.index()];
                    *slot -= 1;
                    r.occupancy -= 1;
                }
                reports.push(HopReport {
                    link,
                    admissible,
                    occupancy: occ,
                });
                return PathDecision {
                    route,
                    admit: false,
                    reject_hop: Some(hop_u8(k)),
                    hops: reports,
                };
            }
        }
        PathDecision {
            route,
            admit: true,
            reject_hop: None,
            hops: reports,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn convenience_shapes() {
        let single = Topology::single_link(10.0);
        assert_eq!(single.links(), 1);
        assert_eq!(single.routes(), 1);
        assert_eq!(single.route(RouteId(0)), &[LinkId(0)]);

        let pl = Topology::parking_lot(3, 8.0);
        assert_eq!(pl.links(), 3);
        assert_eq!(pl.routes(), 4);
        assert_eq!(pl.route(RouteId(0)), &[LinkId(0), LinkId(1), LinkId(2)]);
        assert_eq!(pl.route(RouteId(2)), &[LinkId(1)]);
        // Every link carries the long route plus its own cross traffic.
        for link in pl.link_ids() {
            let crossing: Vec<RouteId> = pl.routes_crossing(link).collect();
            assert_eq!(crossing.len(), 2);
            assert_eq!(crossing[0], RouteId(0));
        }

        let star = Topology::star(4, 8.0);
        assert_eq!(star.links(), 5);
        assert_eq!(star.routes(), 4);
        // Every route contends on the hub.
        assert_eq!(star.routes_crossing(LinkId(0)).count(), 4);
        for r in star.route_ids() {
            assert_eq!(star.route(r).len(), 2);
            assert_eq!(star.route(r)[1], LinkId(0));
        }
    }

    #[test]
    fn validation_rejects_malformed_topologies() {
        assert_eq!(
            Topology::new(vec![], vec![vec![LinkId(0)]]).unwrap_err(),
            TopologyError::NoLinks
        );
        assert_eq!(
            Topology::new(vec![1.0], vec![]).unwrap_err(),
            TopologyError::NoRoutes
        );
        assert!(matches!(
            Topology::new(vec![1.0, -2.0], vec![vec![LinkId(0)]]).unwrap_err(),
            TopologyError::BadCapacity {
                link: LinkId(1),
                ..
            }
        ));
        assert_eq!(
            Topology::new(vec![1.0], vec![vec![]]).unwrap_err(),
            TopologyError::EmptyRoute { route: RouteId(0) }
        );
        assert_eq!(
            Topology::new(vec![1.0], vec![vec![LinkId(3)]]).unwrap_err(),
            TopologyError::UnknownLink {
                route: RouteId(0),
                link: LinkId(3)
            }
        );
        assert_eq!(
            Topology::new(vec![1.0, 1.0], vec![vec![LinkId(1), LinkId(1)]]).unwrap_err(),
            TopologyError::DuplicateHop {
                route: RouteId(0),
                link: LinkId(1)
            }
        );
        let long: Vec<LinkId> = (0..256).map(LinkId).collect();
        assert_eq!(
            Topology::new(vec![1.0; 256], vec![vec![LinkId(0)], long]).unwrap_err(),
            TopologyError::RouteTooLong {
                route: RouteId(1),
                hops: 256
            }
        );
    }

    /// The longest legal route: hop index 254 must survive the `u8`
    /// narrowing in the decision record, not wrap.
    #[test]
    fn longest_route_reports_a_rejecting_last_hop() {
        let topo = Topology::parking_lot(MAX_ROUTE_HOPS, 10.0);
        let mut path = PathAdmission::for_topology(&topo);
        let last = LinkId(MAX_ROUTE_HOPS as u32 - 1);
        let mut oracle = |link: LinkId, capacity: f64| (link != last).then_some(capacity);
        let d = path.decide(&topo, RouteId(0), &mut oracle);
        assert!(!d.admit);
        assert_eq!(d.reject_hop, Some(254));
        assert_eq!(d.hops.len(), MAX_ROUTE_HOPS);
        assert!(topo.link_ids().all(|l| path.occupancy(l) == 0));
    }

    #[test]
    fn hop_admits_matches_the_single_link_rule() {
        assert!(!hop_admits(None, 0), "cold start fails safe");
        assert!(hop_admits(Some(5.0), 4));
        assert!(!hop_admits(Some(5.0), 5));
        assert!(hop_admits(Some(5.0), 3));
    }

    /// A three-hop route where every hop accepts: all three occupancies
    /// commit together.
    #[test]
    fn decide_commits_every_hop_on_admit() {
        let topo = Topology::new(
            vec![10.0, 10.0, 10.0],
            vec![vec![LinkId(0), LinkId(1), LinkId(2)]],
        )
        .unwrap();
        let mut path = PathAdmission::for_topology(&topo);
        let mut oracle = |_: LinkId, capacity: f64| Some(capacity);
        let d = path.decide(&topo, RouteId(0), &mut oracle);
        assert!(d.admit);
        assert_eq!(d.reject_hop, None);
        assert_eq!(d.hops.len(), 3);
        for (r, link) in d.hops.iter().zip(topo.link_ids()) {
            assert_eq!(r.link, link);
            assert_eq!(r.occupancy, 1);
            assert_eq!(path.occupancy(link), 1);
        }
    }

    /// Rejection at hop 2 rolls hops 0..1 back: no provisional load
    /// leaks upstream, and the reported occupancies are the pre-ask
    /// values.
    #[test]
    fn decide_rolls_back_on_mid_path_reject() {
        let topo = Topology::new(
            vec![10.0, 10.0, 1.0],
            vec![vec![LinkId(0), LinkId(1), LinkId(2)]],
        )
        .unwrap();
        let mut path = PathAdmission::for_topology(&topo);
        path.sync(LinkId(0), 3);
        path.sync(LinkId(2), 1);
        // Capacity-as-admissible: link 2 (capacity 1, occupancy 1)
        // rejects the second flow.
        let mut oracle = |_: LinkId, capacity: f64| Some(capacity);
        let d = path.decide(&topo, RouteId(0), &mut oracle);
        assert!(!d.admit);
        assert_eq!(d.reject_hop, Some(2));
        assert_eq!(d.hops.len(), 3);
        assert_eq!(d.hops[0].occupancy, 3);
        assert_eq!(d.hops[1].occupancy, 0);
        assert_eq!(d.hops[2].occupancy, 1);
        assert_eq!(path.occupancy(LinkId(0)), 3, "rollback must restore");
        assert_eq!(path.occupancy(LinkId(1)), 0);
        assert_eq!(path.occupancy(LinkId(2)), 1);
    }

    /// A cold hop (no measurement) fails safe and never consults later
    /// hops.
    #[test]
    fn cold_hop_short_circuits() {
        let topo = Topology::parking_lot(3, 10.0);
        let mut path = PathAdmission::for_topology(&topo);
        let mut asked = Vec::new();
        let mut oracle = |link: LinkId, _: f64| {
            asked.push(link);
            None
        };
        let d = path.decide(&topo, RouteId(0), &mut oracle);
        assert!(!d.admit);
        assert_eq!(d.reject_hop, Some(0));
        assert_eq!(asked, vec![LinkId(0)]);
    }

    #[test]
    fn release_frees_the_whole_path() {
        let topo = Topology::parking_lot(2, 10.0);
        let mut path = PathAdmission::for_topology(&topo);
        let mut oracle = |_: LinkId, capacity: f64| Some(capacity);
        assert!(path.decide(&topo, RouteId(0), &mut oracle).admit);
        assert!(path.decide(&topo, RouteId(0), &mut oracle).admit);
        path.release(&topo, RouteId(0), 1);
        assert_eq!(path.occupancy(LinkId(0)), 1);
        assert_eq!(path.occupancy(LinkId(1)), 1);
        // Saturating: a resync may already have absorbed the departure.
        path.release(&topo, RouteId(0), 5);
        assert_eq!(path.occupancy(LinkId(0)), 0);
    }
}
