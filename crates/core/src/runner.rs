//! The vocabulary of a run: which [`Algorithm`] to run, how
//! [`TerminationMode`] charges global checks, and the [`RunReport`] a
//! [`crate::session::Session`] returns — the matching, the network
//! statistics, and quality metrics against exact or certified bounds.

use crate::weighted;
use dgraph::{Graph, Matching};
use simnet::NetStats;
use std::cell::OnceCell;
use std::fmt;

/// Which algorithm to run.
///
/// `Eq`/`Hash` are deliberately **not** implemented: the `Weighted`
/// variant carries an `f64` slack, for which bitwise equality and
/// hashing are unsound (`NaN`, `-0.0`). Use [`Algorithm::name`] (or the
/// `Display` impl) when a hashable label is needed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Algorithm {
    /// Israeli–Itai maximal matching (½-MCM baseline).
    IsraeliItai,
    /// Algorithm 1 (Theorem 3.1): generic `(1-1/(k+1))`-MCM.
    Generic { k: usize },
    /// Theorem 3.8: bipartite `(1-1/k)`-MCM with small messages.
    /// Requires `sides`.
    Bipartite { k: usize },
    /// Algorithm 4 (Theorem 3.11): general `(1-1/k)`-MCM whp.
    General { k: usize, early_stop: Option<u64> },
    /// Algorithm 5 (Theorem 4.5): `(½-ε)`-MWM.
    Weighted {
        epsilon: f64,
        mwm_box: weighted::MwmBox,
    },
    /// δ-MWM black box alone (the \[18\] substitute) — baseline for E5.
    DeltaMwm { mwm_box: weighted::MwmBox },
}

impl Algorithm {
    /// Canonical human-readable label — the single source of the names
    /// that used to be formatted ad hoc by `RunReport` construction and
    /// the `exp_e*` binaries.
    pub fn name(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Algorithm::IsraeliItai => write!(f, "israeli-itai"),
            Algorithm::Generic { k } => write!(f, "generic(k={k})"),
            Algorithm::Bipartite { k } => write!(f, "bipartite(k={k})"),
            Algorithm::General { k, .. } => write!(f, "general(k={k})"),
            Algorithm::Weighted { epsilon, mwm_box } => {
                write!(f, "weighted(\u{3b5}={epsilon}, box={mwm_box:?})")
            }
            Algorithm::DeltaMwm { mwm_box } => write!(f, "delta-mwm({mwm_box:?})"),
        }
    }
}

/// How global termination checks are charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TerminationMode {
    /// The simulator inspects global state for free (the paper's
    /// convention — termination detection is never charged).
    #[default]
    Oracle,
    /// Each oracle consultation is charged the measured cost of one
    /// BFS-tree convergecast + broadcast over the topology (requires a
    /// connected graph).
    Honest,
}

impl fmt::Display for TerminationMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TerminationMode::Oracle => write!(f, "oracle"),
            TerminationMode::Honest => write!(f, "honest"),
        }
    }
}

/// Result of a run.
#[derive(Debug)]
pub struct RunReport {
    /// Human-readable algorithm label ([`Algorithm::name`]).
    pub name: String,
    /// The computed matching.
    pub matching: Matching,
    /// Accumulated network statistics.
    pub stats: NetStats,
    /// Number of "global check" consultations (counting/token loop
    /// iterations, sampling iterations, maximality consultations, …) —
    /// what Honest mode charges.
    pub oracle_checks: u64,
    /// Lazily computed exact maximum-matching size (blossom), cached so
    /// the E-experiment loops can call [`RunReport::mcm_ratio`] per
    /// data point without re-running the quadratic solver every time.
    /// Tagged with a fingerprint of the graph it was computed on.
    opt_cache: OnceCell<(GraphKey, usize)>,
}

/// Cheap structural fingerprint: `(n, m, edge-list hash)`. `(n, m)`
/// alone is not enough — degree-preserving rewiring keeps both — so
/// the tag also hashes the endpoint list (`O(m)` per check, orders of
/// magnitude below re-running blossom).
type GraphKey = (usize, usize, u64);

fn graph_key(g: &Graph) -> GraphKey {
    let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a over the endpoints
    for &(u, v) in g.edge_list() {
        h = (h ^ ((u as u64) << 32 | v as u64)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    (g.n(), g.m(), h)
}

impl RunReport {
    /// Assemble a report (the optimum cache starts empty).
    pub fn new(name: String, matching: Matching, stats: NetStats, oracle_checks: u64) -> Self {
        RunReport {
            name,
            matching,
            stats,
            oracle_checks,
            opt_cache: OnceCell::new(),
        }
    }

    /// Exact maximum-matching size of `g` (Edmonds blossom), computed
    /// on first use and cached for every later call on the same graph.
    pub fn mcm_opt(&self, g: &Graph) -> usize {
        let &(key, opt) = self
            .opt_cache
            .get_or_init(|| (graph_key(g), dgraph::blossom::max_matching(g).size()));
        assert!(
            key == graph_key(g),
            "mcm_opt/mcm_ratio called with a different graph than the cached optimum's"
        );
        opt
    }

    /// Cardinality ratio vs. the exact maximum (blossom; cached after
    /// the first call — see [`RunReport::mcm_opt`]).
    pub fn mcm_ratio(&self, g: &Graph) -> f64 {
        let opt = self.mcm_opt(g);
        if opt == 0 {
            1.0
        } else {
            self.matching.size() as f64 / opt as f64
        }
    }

    /// Weight ratio vs. the best available exact bound: Hungarian on
    /// bipartite inputs, bitmask DP on tiny general graphs, otherwise
    /// the certified upper bound of [`mwm_upper_bound`] (a ratio
    /// against an upper bound understates quality, never overstates).
    pub fn mwm_ratio(&self, g: &Graph, sides: Option<&[bool]>) -> f64 {
        let opt = mwm_reference(g, sides);
        if opt <= 0.0 {
            1.0
        } else {
            self.matching.weight(g) / opt
        }
    }
}

/// Exact MWM when feasible, else a certified upper bound.
pub fn mwm_reference(g: &Graph, sides: Option<&[bool]>) -> f64 {
    if let Some(sides) = sides {
        dgraph::hungarian::max_weight_matching(g, sides).weight(g)
    } else if g.n() <= dgraph::mwm_exact::MAX_EXACT_NODES {
        dgraph::mwm_exact::max_weight_exact(g)
    } else if let Some(sides) = dgraph::bipartite::two_color(g) {
        dgraph::hungarian::max_weight_matching(g, &sides).weight(g)
    } else {
        mwm_upper_bound(g)
    }
}

/// Certified upper bound on the maximum matching weight: each matched
/// edge is charged to both endpoints, so
/// `w(M*) ≤ ½ Σ_v max_{e ∋ v} w(e)`.
pub fn mwm_upper_bound(g: &Graph) -> f64 {
    let per_vertex: f64 = (0..g.n() as u32)
        .map(|v| {
            g.incident(v)
                .iter()
                .map(|&(_, e)| g.weight(e))
                .fold(0.0f64, f64::max)
        })
        .sum();
    per_vertex / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgraph::generators::random::{bipartite_gnp, gnp};
    use dgraph::generators::weights::{apply_weights, WeightModel};

    #[test]
    fn upper_bound_dominates_exact() {
        for seed in 0..5 {
            let g = apply_weights(&gnp(12, 0.3, seed), WeightModel::Uniform(0.1, 3.0), seed);
            let ub = mwm_upper_bound(&g);
            let exact = dgraph::mwm_exact::max_weight_exact(&g);
            assert!(ub >= exact - 1e-9, "seed {seed}: ub {ub} < exact {exact}");
        }
    }

    #[test]
    fn mwm_reference_picks_exact_for_bipartite() {
        let (g0, sides) = bipartite_gnp(20, 20, 0.2, 4);
        let g = apply_weights(&g0, WeightModel::Integer(1, 9), 5);
        // n = 40 > DP limit, but the graph is bipartite: reference must
        // be the Hungarian optimum even without explicit sides.
        let w1 = mwm_reference(&g, Some(&sides));
        let w2 = mwm_reference(&g, None);
        assert!((w1 - w2).abs() < 1e-9);
    }
}
