//! The workload registry: one place that turns *(family × size ×
//! weight model × seed)* into a ready-to-run [`Session`] builder.
//!
//! Before this module every `exp_e*` binary hand-rolled its own
//! `gnp(n, 8.0 / n as f64, seed)` line, which is exactly why the
//! experiments never left the Erdős–Rényi neighborhood. A
//! [`ScenarioSpec`] names a point of the sweep space and [`Workload`]
//! is its materialization (graph + optional bipartition + label). The
//! E18 and E21 sweeps build their specs directly, and the conformance
//! matrix instantiates each [`Family`].
//!
//! ```
//! use bench_harness::workloads::{Family, ScenarioSpec};
//! use dgraph::generators::weights::WeightModel;
//! use dmatch::Algorithm;
//!
//! let spec = ScenarioSpec::new(Family::ChungLu, 200, WeightModel::Unit, 1);
//! let w = spec.build();
//! let report = w
//!     .session(Algorithm::IsraeliItai, 7)
//!     .build()
//!     .run_to_completion();
//! assert!(report.matching.validate(&w.graph).is_ok());
//! ```

use dgraph::generators::random::{barabasi_albert, gnp};
use dgraph::generators::weights::{apply_weights, WeightModel};
use dgraph::generators::zoo::{chung_lu, d_regular, random_geometric, zipf_bipartite};
use dgraph::Graph;
use dmatch::session::SessionBuilder;
use dmatch::{Algorithm, Session};

/// A topology family of the zoo, instantiable at any size. Each
/// family fixes its shape knobs to paper-style defaults scaled to
/// `n` (average degree ≈ 8 where the notion applies) so that sweeps
/// vary *structure*, not density.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Erdős–Rényi `G(n, 8/n)` — the legacy baseline.
    Gnp,
    /// Barabási–Albert preferential attachment (`m = 4`).
    BarabasiAlbert,
    /// Chung–Lu power law (`β = 2.5`, nominal mean degree 8).
    ChungLu,
    /// Random geometric in the unit square (radius for mean degree ≈ 8).
    Geometric,
    /// Random 8-regular (configuration model).
    DRegular,
    /// Zipf-skewed bipartite (`2n/5 + 3n/5` sides, `m = 4n`, skew 1.1).
    ZipfBipartite,
}

impl Family {
    /// The five new zoo families (everything but the `Gnp` baseline).
    pub const ZOO: [Family; 5] = [
        Family::BarabasiAlbert,
        Family::ChungLu,
        Family::Geometric,
        Family::DRegular,
        Family::ZipfBipartite,
    ];

    /// All families, baseline included.
    pub const ALL: [Family; 6] = [
        Family::Gnp,
        Family::BarabasiAlbert,
        Family::ChungLu,
        Family::Geometric,
        Family::DRegular,
        Family::ZipfBipartite,
    ];

    /// Stable lowercase label (also the accepted [`Family::parse`]
    /// spelling and the JSON/env name).
    pub fn label(&self) -> &'static str {
        match self {
            Family::Gnp => "gnp",
            Family::BarabasiAlbert => "ba",
            Family::ChungLu => "chung-lu",
            Family::Geometric => "geometric",
            Family::DRegular => "regular",
            Family::ZipfBipartite => "zipf-bipartite",
        }
    }

    /// Parse a [`Family::label`] string (used by the `*_FAMILY` env
    /// knobs of the experiment binaries).
    pub fn parse(s: &str) -> Option<Family> {
        Family::ALL.into_iter().find(|f| f.label() == s)
    }

    /// Does the family come with a bipartition (required by
    /// [`Algorithm::Bipartite`])?
    pub fn is_bipartite(&self) -> bool {
        matches!(self, Family::ZipfBipartite)
    }

    /// Materialize the family at `n` total nodes with unit weights.
    pub fn instantiate(&self, n: usize, seed: u64) -> Workload {
        let (graph, sides) = match self {
            Family::Gnp => (gnp(n, (8.0 / n as f64).min(1.0), seed), None),
            Family::BarabasiAlbert => {
                let m = 4.min(n.saturating_sub(1)).max(1);
                (barabasi_albert(n, m, seed), None)
            }
            Family::ChungLu => (chung_lu(n, 2.5, 8.0, seed), None),
            Family::Geometric => {
                // n·π·r² ≈ 8 away from the boundary.
                let r = (8.0 / (std::f64::consts::PI * n as f64)).sqrt().min(1.5);
                (random_geometric(n, r, seed), None)
            }
            Family::DRegular => {
                // d = 8 or n-1; in the latter case n is even (n-1 < 8
                // odd forces it), so n·d is always even.
                let d = 8.min(n.saturating_sub(1));
                (d_regular(n, d, seed), None)
            }
            Family::ZipfBipartite => {
                let nx = (2 * n / 5).max(1);
                let ny = (n - nx).max(1);
                let m = (4 * n).min(nx * ny);
                let (g, sides) = zipf_bipartite(nx, ny, m, 1.1, seed);
                (g, Some(sides))
            }
        };
        Workload {
            label: format!("{}(n={n}, seed={seed})", self.label()),
            graph,
            sides,
        }
    }

    /// Like [`Family::instantiate`], but `Gnp` draws `G(n, deg/n)`
    /// with the given average degree instead of the registry default
    /// of 8. The zoo families keep their registry shapes — their
    /// density is part of the family definition. This is the single
    /// home of the churn experiments' `CHURN_DEG` semantics.
    pub fn instantiate_with_deg(&self, n: usize, deg: f64, seed: u64) -> Workload {
        match self {
            Family::Gnp => Workload {
                label: format!("gnp(n={n}, d\u{304}={deg}, seed={seed})"),
                graph: gnp(n, (deg / n as f64).min(1.0), seed),
                sides: None,
            },
            other => other.instantiate(n, seed),
        }
    }
}

impl std::fmt::Display for Family {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One point of the sweep space: family × size × weight model × seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioSpec {
    /// The topology family.
    pub family: Family,
    /// Total node count (bipartite families split it across sides).
    pub n: usize,
    /// Edge-weight model applied on top of the topology.
    pub weights: WeightModel,
    /// Generation seed (topology and weights derive from it).
    pub seed: u64,
}

impl ScenarioSpec {
    /// Bundle the four coordinates.
    pub fn new(family: Family, n: usize, weights: WeightModel, seed: u64) -> Self {
        ScenarioSpec {
            family,
            n,
            weights,
            seed,
        }
    }

    /// Human/JSON label, e.g. `chung-lu(n=2000, seed=3)+uniform`.
    pub fn label(&self) -> String {
        let w = match self.weights {
            WeightModel::Unit => String::new(),
            other => format!("+{other:?}"),
        };
        format!(
            "{}(n={}, seed={}){w}",
            self.family.label(),
            self.n,
            self.seed
        )
    }

    /// Generate the graph (and weights; the weight seed is derived so
    /// topology and weights stay independent streams).
    pub fn build(&self) -> Workload {
        let mut w = self.family.instantiate(self.n, self.seed);
        if self.weights != WeightModel::Unit {
            w.graph = apply_weights(&w.graph, self.weights, self.seed ^ 0x5EED_0001);
            w.label = self.label();
        }
        w
    }
}

/// A materialized scenario: the graph, its bipartition when the
/// family has one, and a display label.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Display label (family, size, seed, weight model).
    pub label: String,
    /// The communication graph.
    pub graph: Graph,
    /// Bipartition, for families that carry one (`false` = X side).
    pub sides: Option<Vec<bool>>,
}

impl Workload {
    /// A ready-to-configure [`Session`] builder over this workload:
    /// graph, algorithm, seed, and — when the family carries one —
    /// the bipartition are pre-wired; chain further knobs
    /// (`.exec(..)`, `.termination(..)`, `.observe(..)`) as needed.
    ///
    /// # Panics
    ///
    /// Via `build()` later if `alg` is [`Algorithm::Bipartite`] and
    /// the family carries no bipartition.
    pub fn session(&self, alg: Algorithm, seed: u64) -> SessionBuilder<'_> {
        let mut b = Session::on(&self.graph).algorithm(alg).seed(seed);
        if let Some(sides) = &self.sides {
            b = b.sides(sides);
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_round_trips_through_parse() {
        for f in Family::ALL {
            assert_eq!(Family::parse(f.label()), Some(f), "{f}");
        }
        assert_eq!(Family::parse("nonesuch"), None);
    }

    #[test]
    fn instantiation_is_deterministic_and_sized() {
        for f in Family::ALL {
            let a = f.instantiate(200, 3);
            let b = f.instantiate(200, 3);
            assert_eq!(a.graph.edge_list(), b.graph.edge_list(), "{f}");
            assert_eq!(a.graph.n(), 200, "{f}: node budget respected");
            assert!(a.graph.m() > 0, "{f}: non-trivial");
            assert_eq!(f.is_bipartite(), a.sides.is_some(), "{f}");
        }
    }

    #[test]
    fn weighted_specs_build_non_unit_weights() {
        for f in Family::ZOO {
            let unit = ScenarioSpec::new(f, 50, WeightModel::Unit, 1).build();
            assert!(unit.graph.weight_list().iter().all(|&w| w == 1.0), "{f}");
            let spec = ScenarioSpec::new(f, 50, WeightModel::Exponential(2.0), 1);
            let weighted = spec.build();
            assert_eq!(weighted.label, spec.label());
            assert_eq!(weighted.graph.edge_list(), unit.graph.edge_list(), "{f}");
            assert!(
                weighted.graph.weight_list().iter().any(|&w| w != 1.0),
                "{f}"
            );
        }
    }

    #[test]
    fn workload_sessions_run_on_every_family() {
        for f in Family::ALL {
            let w = f.instantiate(60, 5);
            let alg = if f.is_bipartite() {
                Algorithm::Bipartite { k: 2 }
            } else {
                Algorithm::IsraeliItai
            };
            let r = w.session(alg, 9).build().run_to_completion();
            assert!(r.matching.validate(&w.graph).is_ok(), "{f}");
        }
    }
}
