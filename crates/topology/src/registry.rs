//! Name-keyed topology construction.
//!
//! The paper stresses that BSOR is topology independent; this registry
//! makes that independence operational: drivers (the sweep CLI, tests,
//! examples) enumerate and build topologies by name instead of
//! hard-wiring constructor calls, so adding a topology family is a
//! one-file plug-in rather than an edit to every binary.
//!
//! All factories take `(width, height)` grid dimensions; families that
//! are not grids reinterpret them (`ring` uses `width × height` nodes,
//! `hypercube` needs `width × height` to be a power of two and uses its
//! log2 as the dimension), so one CLI syntax — `name:WxH` — covers every
//! family.
//!
//! # Spec strings
//!
//! Parameterized families that do not fit the `WxH` shape are addressed
//! through [`TopologyRegistry::build_spec`] with a `prefix:<arg>` spec
//! string, mirroring the workload registry's grammar:
//!
//! ```text
//! spec      := "WxH"                     (bare dims: a mesh)
//!            | name ":" "WxH"            (grid-dimension families)
//!            | family ":" arg            (parameterized families)
//! family    := "dragonfly" (arg = "a,g,h")
//!            | "fattree"   (arg = k)
//!            | "fullmesh"  (arg = n)
//!            | "file"      (arg = path to an edge-list topology file)
//! ```
//!
//! Family prefixes win over `name:WxH` parsing (none of the standard
//! families take `WxH` arguments, so there is no ambiguity in
//! practice). Unknown names return
//! [`TopologyError::UnknownTopology`]; a known family with a malformed
//! argument returns [`TopologyError::BadSpec`]. The parser never
//! panics, whatever the spec text.

use crate::graph;
use crate::net::Topology;
use std::error::Error;
use std::fmt;

/// The most nodes a registry mesh or torus may have: 256x256, the
/// largest mesh any committed artifact uses. Larger grids are refused
/// before anything is allocated.
const MAX_GRID_NODES: usize = 1 << 16;

/// Why a registry lookup or build failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TopologyError {
    /// No factory is registered under the requested name.
    UnknownTopology {
        /// The name that failed to resolve.
        name: String,
    },
    /// The dimensions are invalid for the requested family.
    BadDimensions {
        /// Topology family name.
        name: String,
        /// Requested width.
        width: u16,
        /// Requested height.
        height: u16,
        /// Human-readable constraint that was violated.
        reason: String,
    },
    /// A known family was addressed with a malformed or rejected
    /// argument (e.g. `dragonfly:nope`, or an unreadable `file:` path).
    BadSpec {
        /// The full offending spec string.
        spec: String,
        /// Human-readable constraint that was violated.
        reason: String,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::UnknownTopology { name } => write!(f, "unknown topology '{name}'"),
            TopologyError::BadDimensions {
                name,
                width,
                height,
                reason,
            } => write!(f, "topology '{name}' rejects {width}x{height}: {reason}"),
            TopologyError::BadSpec { spec, reason } => {
                write!(f, "bad topology spec '{spec}': {reason}")
            }
        }
    }
}

impl Error for TopologyError {}

/// A topology constructor: `(width, height)` in, topology out.
pub type TopologyFactory = Box<dyn Fn(u16, u16) -> Result<Topology, TopologyError> + Send + Sync>;

/// A parameterized topology family: build from the argument text after
/// the `prefix:` of a spec string.
pub type TopologyFamilyFactory = Box<dyn Fn(&str) -> Result<Topology, TopologyError> + Send + Sync>;

struct Family {
    prefix: String,
    /// Display form shown in listings, e.g. `dragonfly:<a,g,h>`.
    placeholder: String,
    factory: TopologyFamilyFactory,
}

/// Name-keyed registry of topology factories.
///
/// ```
/// use bsor_topology::{TopologyKind, TopologyRegistry};
///
/// let registry = TopologyRegistry::standard();
/// assert_eq!(registry.names(), vec!["mesh", "torus", "ring", "hypercube"]);
/// assert_eq!(
///     registry.family_specs(),
///     vec!["dragonfly:<a,g,h>", "fattree:<k>", "fullmesh:<n>", "file:<path>"],
/// );
/// let torus = registry.build("torus", 4, 4).expect("valid dims");
/// assert_eq!(torus.kind(), TopologyKind::Torus2D);
/// // 8 nodes in a 4x2 footprint fold into a dimension-3 hypercube.
/// let cube = registry.build("hypercube", 4, 2).expect("power of two");
/// assert_eq!(cube.num_nodes(), 8);
/// // Parameterized families resolve through spec strings.
/// let df = registry.build_spec("dragonfly:2,3,2").expect("valid spec");
/// assert_eq!(df.kind(), TopologyKind::Dragonfly);
/// assert_eq!(df.num_nodes(), 6);
/// ```
#[derive(Default)]
pub struct TopologyRegistry {
    entries: Vec<(String, TopologyFactory)>,
    families: Vec<Family>,
}

impl TopologyRegistry {
    /// An empty registry.
    pub fn new() -> TopologyRegistry {
        TopologyRegistry::default()
    }

    /// The four built-in grid families (`mesh`, `torus`, `ring`,
    /// `hypercube`) plus the parameterized spec families
    /// (`dragonfly:<a,g,h>`, `fattree:<k>`, `fullmesh:<n>`,
    /// `file:<path>`).
    pub fn standard() -> TopologyRegistry {
        let mut r = TopologyRegistry::new();
        r.register("mesh", |w, h| {
            if w == 0 || h == 0 || (w as usize * h as usize) < 2 {
                return Err(bad("mesh", w, h, "needs positive dims and >= 2 nodes"));
            }
            check_grid_nodes("mesh", w, h)?;
            Ok(Topology::mesh2d(w, h))
        });
        r.register("torus", |w, h| {
            if w < 3 || h < 3 {
                return Err(bad("torus", w, h, "both dimensions must be >= 3"));
            }
            check_grid_nodes("torus", w, h)?;
            Ok(Topology::torus2d(w, h))
        });
        r.register("ring", |w, h| {
            let n = w as usize * h as usize;
            if n < 3 || n > u16::MAX as usize {
                return Err(bad("ring", w, h, "needs 3..=65535 nodes (width x height)"));
            }
            Ok(Topology::ring(n as u16))
        });
        r.register("hypercube", |w, h| {
            let n = w as usize * h as usize;
            if n < 2 || !n.is_power_of_two() || n > 1 << 10 {
                return Err(bad(
                    "hypercube",
                    w,
                    h,
                    "width x height must be a power of two in 2..=1024",
                ));
            }
            Ok(Topology::hypercube(n.trailing_zeros() as u8))
        });
        r.register_family("dragonfly", "dragonfly:<a,g,h>", |arg: &str| {
            let spec = || format!("dragonfly:{arg}");
            let parts: Vec<&str> = arg.split(',').collect();
            if parts.len() != 3 {
                return Err(TopologyError::BadSpec {
                    spec: spec(),
                    reason: "expected three comma-separated integers a,g,h".to_owned(),
                });
            }
            let mut nums = [0u16; 3];
            for (slot, raw) in nums.iter_mut().zip(&parts) {
                *slot = raw.trim().parse().map_err(|_| TopologyError::BadSpec {
                    spec: spec(),
                    reason: format!("'{raw}' is not an unsigned 16-bit integer"),
                })?;
            }
            graph::dragonfly(nums[0], nums[1], nums[2])
        });
        r.register_family("fattree", "fattree:<k>", |arg: &str| {
            let k = arg.trim().parse().map_err(|_| TopologyError::BadSpec {
                spec: format!("fattree:{arg}"),
                reason: "k must be an unsigned 16-bit integer".to_owned(),
            })?;
            graph::fat_tree(k)
        });
        r.register_family("fullmesh", "fullmesh:<n>", |arg: &str| {
            let n = arg.trim().parse().map_err(|_| TopologyError::BadSpec {
                spec: format!("fullmesh:{arg}"),
                reason: "n must be an unsigned 16-bit integer".to_owned(),
            })?;
            graph::full_mesh(n)
        });
        r.register_family("file", "file:<path>", |arg: &str| {
            graph::load_topology_file(arg).map_err(|e| TopologyError::BadSpec {
                spec: format!("file:{arg}"),
                reason: e.to_string(),
            })
        });
        r
    }

    /// Registers (or replaces) a factory under `name`.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        factory: impl Fn(u16, u16) -> Result<Topology, TopologyError> + Send + Sync + 'static,
    ) {
        let name = name.into();
        self.entries.retain(|(n, _)| *n != name);
        self.entries.push((name, Box::new(factory)));
    }

    /// The factory registered under `name`, if any.
    pub fn get(&self, name: &str) -> Option<&TopologyFactory> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, f)| f)
    }

    /// Registered names, in registration order (family placeholders are
    /// listed by [`TopologyRegistry::family_specs`]).
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Registers (or replaces) a parameterized family addressed as
    /// `prefix:<arg>` spec strings. `placeholder` is the display form
    /// listings show (e.g. `dragonfly:<a,g,h>`).
    pub fn register_family(
        &mut self,
        prefix: impl Into<String>,
        placeholder: impl Into<String>,
        factory: impl Fn(&str) -> Result<Topology, TopologyError> + Send + Sync + 'static,
    ) {
        let prefix = prefix.into();
        self.families.retain(|f| f.prefix != prefix);
        self.families.push(Family {
            prefix,
            placeholder: placeholder.into(),
            factory: Box::new(factory),
        });
    }

    /// Display specs of the registered parameterized families, in
    /// registration order (e.g. `["dragonfly:<a,g,h>", …]`).
    pub fn family_specs(&self) -> Vec<&str> {
        self.families
            .iter()
            .map(|f| f.placeholder.as_str())
            .collect()
    }

    /// Builds the topology `name` with the given grid dimensions.
    ///
    /// # Errors
    ///
    /// [`TopologyError::UnknownTopology`] for unregistered names,
    /// [`TopologyError::BadDimensions`] when the family rejects the
    /// dimensions.
    pub fn build(&self, name: &str, width: u16, height: u16) -> Result<Topology, TopologyError> {
        let factory = self
            .get(name)
            .ok_or_else(|| TopologyError::UnknownTopology {
                name: name.to_owned(),
            })?;
        factory(width, height)
    }

    /// Builds a topology from a spec string: bare `WxH` dims (a mesh),
    /// `name:WxH` for the grid-dimension families, or `family:<arg>`
    /// for the parameterized families (see the [module docs](self) for
    /// the grammar).
    ///
    /// # Errors
    ///
    /// [`TopologyError::UnknownTopology`] for unregistered names and
    /// families (carrying the full offending spec),
    /// [`TopologyError::BadSpec`] for malformed family arguments or
    /// specs that fit no grammar production, and
    /// [`TopologyError::BadDimensions`] when a grid family rejects its
    /// dimensions. Never panics, whatever the spec text.
    pub fn build_spec(&self, spec: &str) -> Result<Topology, TopologyError> {
        if let Some((w, h)) = parse_dims(spec) {
            return self.build("mesh", w, h);
        }
        if let Some((prefix, arg)) = spec.split_once(':') {
            if let Some(family) = self.families.iter().find(|f| f.prefix == prefix) {
                return (family.factory)(arg);
            }
            if let Some((w, h)) = parse_dims(arg) {
                return self.build(prefix, w, h);
            }
            return Err(TopologyError::BadSpec {
                spec: spec.to_owned(),
                reason: "expected WxH dimensions or a registered family argument".to_owned(),
            });
        }
        if let Some(family) = self.families.iter().find(|f| f.prefix == spec) {
            return Err(TopologyError::BadSpec {
                spec: spec.to_owned(),
                reason: format!("family needs a parameter: {}", family.placeholder),
            });
        }
        Err(TopologyError::UnknownTopology {
            name: spec.to_owned(),
        })
    }
}

/// `WxH` with both dimensions nonzero, or `None`.
fn parse_dims(s: &str) -> Option<(u16, u16)> {
    let (w, h) = s.split_once('x')?;
    let (w, h) = (w.parse().ok()?, h.parse().ok()?);
    if w == 0 || h == 0 {
        return None;
    }
    Some((w, h))
}

/// Refuses a `width x height` grid over [`MAX_GRID_NODES`].
fn check_grid_nodes(name: &str, width: u16, height: u16) -> Result<(), TopologyError> {
    let nodes = width as usize * height as usize;
    if nodes > MAX_GRID_NODES {
        let reason = format!("{nodes} nodes is over the bound of {MAX_GRID_NODES}");
        return Err(bad(name, width, height, &reason));
    }
    Ok(())
}

fn bad(name: &str, width: u16, height: u16, reason: &str) -> TopologyError {
    TopologyError::BadDimensions {
        name: name.to_owned(),
        width,
        height,
        reason: reason.to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::TopologyKind;

    #[test]
    fn standard_names_round_trip() {
        let r = TopologyRegistry::standard();
        for name in r.names() {
            assert!(r.get(name).is_some());
        }
        assert!(r.get("klein-bottle").is_none());
    }

    #[test]
    fn builds_every_family() {
        let r = TopologyRegistry::standard();
        assert_eq!(r.build("mesh", 4, 4).unwrap().kind(), TopologyKind::Mesh2D);
        assert_eq!(
            r.build("torus", 4, 4).unwrap().kind(),
            TopologyKind::Torus2D
        );
        let ring = r.build("ring", 6, 1).unwrap();
        assert_eq!(ring.kind(), TopologyKind::Ring);
        assert_eq!(ring.num_nodes(), 6);
        let cube = r.build("hypercube", 8, 2).unwrap();
        assert_eq!(cube.kind(), TopologyKind::Hypercube);
        assert_eq!(cube.num_nodes(), 16);
    }

    #[test]
    fn bad_dimensions_are_typed_errors_not_panics() {
        let r = TopologyRegistry::standard();
        assert!(matches!(
            r.build("torus", 2, 4),
            Err(TopologyError::BadDimensions { .. })
        ));
        assert!(matches!(
            r.build("hypercube", 3, 1),
            Err(TopologyError::BadDimensions { .. })
        ));
        assert!(matches!(
            r.build("ring", 2, 1),
            Err(TopologyError::BadDimensions { .. })
        ));
        assert!(matches!(
            r.build("mesh", 0, 5),
            Err(TopologyError::BadDimensions { .. })
        ));
        let err = r.build("nope", 4, 4).unwrap_err();
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn grids_over_65536_nodes_are_refused_before_they_are_built() {
        let r = TopologyRegistry::standard();
        for (name, w, h, nodes) in [
            ("mesh", 65535, 65535, "4294836225"),
            ("mesh", 257, 256, "65792"),
            ("torus", 65535, 65535, "4294836225"),
            ("torus", 257, 256, "65792"),
        ] {
            let err = r.build(name, w, h).unwrap_err();
            assert!(matches!(err, TopologyError::BadDimensions { .. }), "{err}");
            let text = err.to_string();
            assert!(text.contains(nodes) && text.contains("65536"), "{text}");
        }
        assert_eq!(r.build("mesh", 256, 256).unwrap().num_nodes(), 65536);
    }

    #[test]
    fn build_spec_covers_every_grammar_production() {
        let r = TopologyRegistry::standard();
        // Bare dims are a mesh.
        assert_eq!(r.build_spec("4x4").unwrap().kind(), TopologyKind::Mesh2D);
        // name:WxH routes through the grid factories.
        assert_eq!(
            r.build_spec("torus:4x4").unwrap().kind(),
            TopologyKind::Torus2D
        );
        assert_eq!(r.build_spec("ring:6x1").unwrap().num_nodes(), 6);
        // family:<arg> routes through the family factories.
        assert_eq!(
            r.build_spec("fattree:4").unwrap().kind(),
            TopologyKind::FatTree
        );
        assert_eq!(r.build_spec("fullmesh:8").unwrap().num_links(), 56);
    }

    #[test]
    fn build_spec_is_typed_on_every_failure_mode() {
        let r = TopologyRegistry::standard();
        // Unknown name / unknown family.
        assert!(matches!(
            r.build_spec("klein-bottle"),
            Err(TopologyError::UnknownTopology { .. })
        ));
        assert!(matches!(
            r.build_spec("nowhere:4x4"),
            Err(TopologyError::UnknownTopology { .. })
        ));
        // Known family, malformed argument.
        for spec in [
            "dragonfly:",
            "dragonfly:2,3",
            "dragonfly:a,b,c",
            "fattree:nope",
            "fattree:3",
            "fullmesh:1",
            "file:/nonexistent/nowhere.topo",
        ] {
            assert!(
                matches!(r.build_spec(spec), Err(TopologyError::BadSpec { .. })),
                "spec {spec:?}"
            );
        }
        // Bare family prefix points at the placeholder.
        let err = r.build_spec("dragonfly").unwrap_err();
        assert!(err.to_string().contains("dragonfly:<a,g,h>"), "{err}");
        // Unknown prefix with a non-WxH argument.
        assert!(matches!(
            r.build_spec("nope:not-dims"),
            Err(TopologyError::BadSpec { .. })
        ));
        // Grid family rejecting its dims still surfaces BadDimensions.
        assert!(matches!(
            r.build_spec("torus:2x2"),
            Err(TopologyError::BadDimensions { .. })
        ));
    }

    #[test]
    fn custom_registration_replaces() {
        let mut r = TopologyRegistry::new();
        r.register("line", |w, _| Ok(Topology::mesh2d(w, 1)));
        assert_eq!(r.names(), vec!["line"]);
        r.register("line", |w, _| Ok(Topology::mesh2d(w.max(2), 1)));
        assert_eq!(r.names().len(), 1);
        assert_eq!(r.build("line", 1, 1).unwrap().num_nodes(), 2);
    }
}
