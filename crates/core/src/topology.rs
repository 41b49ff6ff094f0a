//! The network topology model: links with capacities and routes as
//! link-id paths.
//!
//! A [`Topology`] is deliberately minimal — bufferless links identified
//! by [`LinkId`], each with a capacity, and routes ([`RouteId`]) that
//! are ordered hop lists. Flows are pinned to routes: admitting one
//! flow on a route consumes one unit of occupancy on *every* hop. The
//! per-link admission rule, and the route rule built from it (admit iff
//! every hop accepts; only an admit moves occupancy), live with the
//! controllers in `mbac-sim` (`LinkAdmission`).

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
    /// Each link's crossing routes in route order, with the link's hop
    /// index on each: indexed once here, read by every tick that
    /// measures a link.
    crossings: Vec<Box<[(RouteId, u8)]>>,
}

impl Topology {
    /// Builds and validates a topology from per-link capacities and
    /// routes given as hop lists.
    pub fn new(capacities: Vec<f64>, routes: Vec<Vec<LinkId>>) -> Result<Self, TopologyError> {
        let mut topo = Topology {
            capacities,
            routes: routes.into_iter().map(Vec::into_boxed_slice).collect(),
            crossings: Vec::new(),
        };
        topo.validate()?;
        let mut crossings = vec![Vec::new(); topo.links()];
        for (r, hops) in topo.routes.iter().enumerate() {
            for (k, link) in hops.iter().enumerate() {
                crossings[link.index()].push((RouteId(r as u32), hop_u8(k)));
            }
        }
        topo.crossings = crossings.into_iter().map(Vec::into_boxed_slice).collect();
        Ok(topo)
    }

    /// `links` links of `capacity`, route `r` the one hop over link
    /// `r`: the paper's single link, `links` times over, sharing
    /// nothing (one link is the shape every pre-topology layer assumed).
    /// Panics if `links` is zero or `capacity` is not strictly
    /// positive.
    pub fn one_hop_links(links: usize, capacity: f64) -> Self {
        let routes = (0..links).map(|l| vec![LinkId(l as u32)]).collect();
        Topology::new(vec![capacity; links], routes)
            .expect("one_hop_links: invalid link count or capacity")
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

    /// The routes whose hop list contains `link`, in route order — the
    /// flows sharing `link`'s capacity — each with `link`'s hop index on
    /// it.
    #[inline]
    pub fn crossings(&self, link: LinkId) -> &[(RouteId, u8)] {
        &self.crossings[link.index()]
    }

    /// The position of `link` within `route`'s hop list (unique —
    /// duplicate hops are rejected at construction).
    pub fn hop_index(&self, route: RouteId, link: LinkId) -> Option<usize> {
        self.route(route).iter().position(|&l| l == link)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn convenience_shapes() {
        let single = Topology::one_hop_links(1, 10.0);
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
            let crossing = pl.crossings(link);
            assert_eq!(crossing.len(), 2);
            assert_eq!(crossing[0], (RouteId(0), link.0 as u8));
        }

        let star = Topology::star(4, 8.0);
        assert_eq!(star.links(), 5);
        assert_eq!(star.routes(), 4);
        // Every route contends on the hub, its second hop.
        assert_eq!(star.crossings(LinkId(0)).len(), 4);
        assert!(star.crossings(LinkId(0)).iter().all(|&(_, hop)| hop == 1));
        assert_eq!(star.crossings(LinkId(2)), &[(RouteId(1), 0)]);
        // The parking lot's last link is the long route's third hop.
        assert_eq!(pl.crossings(LinkId(2)), &[(RouteId(0), 2), (RouteId(3), 0)]);

        let links = Topology::one_hop_links(3, 8.0);
        assert_eq!((links.links(), links.routes()), (3, 3));
        for link in links.link_ids() {
            assert_eq!(links.crossings(link), &[(RouteId(link.0), 0)]);
        }
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
}
