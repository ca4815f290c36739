//! # bsor-topology
//!
//! Network-on-chip topologies for the BSOR reproduction: nodes, directed
//! channels (links) with bandwidth capacities, and the grid geometry
//! (coordinates, port directions) that the turn-model cycle breaking in
//! `bsor-cdg` relies on.
//!
//! The paper illustrates BSOR on a two-dimensional mesh but stresses that
//! the technique is topology independent; accordingly [`Topology`] is a
//! concrete description that several constructors produce: [`Topology::mesh2d`]
//! (the paper's substrate), [`Topology::torus2d`] and [`Topology::ring`].
//!
//! ```
//! use bsor_topology::{Topology, Direction};
//!
//! let mesh = Topology::mesh2d(3, 3);
//! assert_eq!(mesh.num_nodes(), 9);
//! // 2 directed links per adjacent pair: 2 * (3*2 + 3*2) = 24.
//! assert_eq!(mesh.num_links(), 24);
//! let a = mesh.node_at(0, 0).unwrap();
//! let b = mesh.node_at(1, 0).unwrap();
//! let l = mesh.find_link(a, b).unwrap();
//! assert_eq!(mesh.link(l).direction, Some(Direction::East));
//! ```

pub mod geometry;
pub mod graph;
pub mod net;
pub mod registry;

pub use geometry::{Coord, Direction};
pub use graph::{
    directed_graph, dragonfly, fat_tree, full_mesh, load_topology_file, parse_topology_file,
    TopologyFileError,
};
pub use net::{Link, LinkId, NodeId, Topology, TopologyKind};
pub use registry::{TopologyError, TopologyFactory, TopologyFamilyFactory, TopologyRegistry};
