//! Algorithm 4 / Theorem 3.11: `(1-1/k)`-MCM in **general** graphs by
//! randomized reduction to the bipartite machinery.
//!
//! Each iteration: every node colors itself red or blue with equal
//! probability; the bipartite subgraph `Ĝ` (free nodes plus
//! bichromatically matched pairs, bichromatic edges) is formed, and
//! `Aug(Ĝ, M, 2k-1)` applies a maximal set of disjoint augmenting
//! paths of length ≤ 2k-1 (Observation 3.1 makes them valid in `G`).
//! After `2^{2k+1}(k+1) ln k` iterations the matching is a
//! `(1-1/k)`-MCM with high probability (Lemmas 3.9, 3.10).
//!
//! Each coloring draws every node's bit, in node order, from one session
//! stream (`color_rng`), and one single-bit exchange round is charged
//! to the stats for it; everything else runs through [`crate::bipartite`].
//!
//! ```
//! use dgraph::generators::structured::cycle;
//! use dmatch::{Algorithm, Session};
//! // Odd cycles are non-bipartite: this is Algorithm 4's territory.
//! let g = cycle(15);
//! let r = Session::on(&g)
//!     .algorithm(Algorithm::General { k: 2, early_stop: None })
//!     .seed(3)
//!     .build()
//!     .run_to_completion();
//! assert!(2 * r.matching.size() >= dgraph::blossom::max_matching(&g).size());
//! ```

use crate::bipartite::{AugNets, SubgraphSpec};
use dgraph::{Graph, Matching};
use simnet::rng::streams;
use simnet::{ExecCfg, NetStats, SplitMix64};

/// The paper's iteration count `⌈2^{2k+1} (k+1) ln k⌉` (Line 2 of
/// Algorithm 4). The analysis assumes `k > 2`; for `k ≤ 2` we
/// substitute `ln 2` to keep the formula total.
pub fn iteration_bound(k: usize) -> u64 {
    let lnk = (k as f64).ln().max(std::f64::consts::LN_2);
    (2f64.powi(2 * k as i32 + 1) * (k as f64 + 1.0) * lnk).ceil() as u64
}

/// The RNG stream drawing the red/blue colorings (one per session, at
/// the frozen [`streams::GENERAL_COLOR`] id).
pub(crate) fn color_rng(seed: u64) -> SplitMix64 {
    SplitMix64::for_node(seed, streams::GENERAL_COLOR)
}

/// One sampling iteration of Algorithm 4 (Lines 3–6): color, build `Ĝ`,
/// `Aug` on the session's `nets`, apply — the unit the `dmatch::session`
/// General driver steps. Returns the number of augmenting paths applied.
#[allow(clippy::too_many_arguments)] // the phase contract: graph, state, schedule, knobs
pub(crate) fn sample_iteration(
    g: &Graph,
    m: &mut Matching,
    ell: usize,
    it: u64,
    seed: u64,
    cfg: ExecCfg,
    rng: &mut SplitMix64,
    stats: &mut NetStats,
    nets: &mut AugNets,
) -> usize {
    // Line 3: random red/blue coloring. Each node draws one bit and
    // tells its neighbors — one round of 1-bit messages.
    let colors: Vec<bool> = (0..g.n()).map(|_| rng.bernoulli(0.5)).collect();
    stats.record_messages(2 * g.m() as u64, 1);
    stats.record_round(2 * g.m() as u64);

    // Line 4: Ĝ. Line 5: Aug(Ĝ, M, 2k-1). Line 6: M ← M ⊕ P.
    let spec = SubgraphSpec::from_coloring(g, m, &colors);
    let out = nets.aug_until_maximal(g, m, &spec, ell, seed ^ (it.wrapping_mul(0x9E37)), cfg);
    stats.absorb(&out.stats);
    *m = out.matching;
    out.applied
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Algorithm, RunReport, Session};
    use dgraph::generators::random::gnp;
    use dgraph::generators::structured::{cycle, p4_chain};

    /// Algorithm 4 with the paper's budget, stopping after `stop` idle
    /// iterations; `oracle_checks` counts the sampling iterations run.
    fn run_early(g: &Graph, k: usize, seed: u64, stop: u64) -> RunReport {
        let alg = Algorithm::General {
            k,
            early_stop: Some(stop),
        };
        Session::on(g)
            .algorithm(alg)
            .seed(seed)
            .build()
            .run_to_completion()
    }

    #[test]
    fn iteration_bound_matches_formula() {
        // k = 3: 2^7 · 4 · ln 3 = 512 · 1.0986… ≈ 562.5 → 563.
        assert_eq!(iteration_bound(3), 563);
        assert!(iteration_bound(4) > iteration_bound(3));
    }

    #[test]
    fn ratio_on_random_graphs() {
        for seed in 0..4 {
            let g = gnp(24, 0.15, seed);
            let k = 3;
            let r = run_early(&g, k, seed * 31, 40);
            assert!(r.matching.validate(&g).is_ok());
            let opt = dgraph::blossom::max_matching(&g).size();
            let bound = 1.0 - 1.0 / k as f64;
            let got = if opt == 0 {
                1.0
            } else {
                r.matching.size() as f64 / opt as f64
            };
            assert!(got >= bound - 1e-9, "seed {seed}: ratio {got} < {bound}");
        }
    }

    #[test]
    fn handles_odd_cycles() {
        // C9 is non-bipartite; optimum 4. With k = 3 we need ≥ 2/3·4 ≥ 3.
        let g = cycle(9);
        let r = run_early(&g, 3, 5, 40);
        assert!(r.matching.size() >= 3, "got {}", r.matching.size());
    }

    #[test]
    fn p4_chains_reach_optimum() {
        let g = p4_chain(6);
        let r = run_early(&g, 2, 9, 30);
        // Optimum 12; (1-1/2) guarantee is weak, but the sampler should
        // reach optimality quickly on disjoint P4s with length-3 phases.
        assert!(r.matching.size() >= 9);
    }

    #[test]
    fn no_short_augmenting_path_survives_whp() {
        use dgraph::augmenting::has_augmenting_path_within;
        let g = gnp(20, 0.2, 77);
        let k = 2;
        let r = run_early(&g, k, 3, 60);
        // After enough productive iterations the matching should admit
        // no augmenting path of length ≤ 2k-1 (this is what drives
        // Lemma 3.9 to its fixed point).
        assert!(
            !has_augmenting_path_within(&g, &r.matching, 2 * k - 1),
            "short augmenting path survived"
        );
    }

    #[test]
    fn early_stop_limits_iterations() {
        let g = gnp(16, 0.2, 2);
        let r = run_early(&g, 3, 1, 5);
        assert!(r.oracle_checks < iteration_bound(3));
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new(0, vec![]);
        let r = run_early(&g, 3, 0, 1);
        assert_eq!(r.matching.size(), 0);
    }

    #[test]
    fn stats_accumulate_across_iterations() {
        let g = gnp(18, 0.2, 4);
        let r = run_early(&g, 2, 6, 10);
        assert!(
            r.stats.rounds > r.oracle_checks,
            "each iteration costs rounds"
        );
    }
}
