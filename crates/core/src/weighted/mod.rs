//! Section 4: the `(½-ε)`-MWM reduction — Algorithm 5, Theorem 4.5.
//!
//! Given any black-box `δ`-MWM with constant `δ > 0`, each iteration
//!
//! 1. builds the *derived* weight function
//!    `w_M(u,v) = g(wrap(u,v))` — the gain of augmenting along the
//!    length-≤3 path `(M(u),u), (u,v), (v,M(v))` (Figure 2); edges of
//!    `M` and non-positive gains are dropped;
//! 2. runs the black box on `G' = (V, E, w_M)` to get `M'`;
//! 3. applies all wraps: `M ← M ⊕ ⋃_{e∈M'} wrap(e)` — Lemma 4.1
//!    guarantees the result is a matching of weight at least
//!    `w(M) + w_M(M')`.
//!
//! After `(3/2δ)·ln(2/ε)` iterations, `w(M) ≥ (½-ε)·w(M*)` (Lemmas
//! 4.2–4.3). The paper instantiates the box with the `(¼-ε)`-MWM of
//! \[18\] at `δ = 1/5`; we provide three substitutes, each module's
//! docs giving its round cost: the sequential and parallel class
//! algorithms ([`classes`], which compares itself with \[18\]) and the
//! deterministic local-dominant ½-MWM ([`local_dominant`]).
//!
//! Per-iteration distributed cost: one round in which every matched
//! node announces its matched weight (so both endpoints of every edge
//! can evaluate `w_M` locally), the black box itself, and two rounds to
//! apply the wraps; all charged.
//!
//! ```
//! use dgraph::generators::{random::gnp, weights::{apply_weights, WeightModel}};
//! use dmatch::weighted::MwmBox;
//! use dmatch::{Algorithm, Session};
//! let g = apply_weights(&gnp(14, 0.3, 1), WeightModel::Integer(1, 9), 2);
//! let r = Session::on(&g)
//!     .algorithm(Algorithm::Weighted { epsilon: 0.1, mwm_box: MwmBox::SeqClass })
//!     .seed(3)
//!     .build()
//!     .run_to_completion();
//! let opt = dgraph::mwm_exact::max_weight_exact(&g);
//! assert!(r.matching.weight(&g) >= (0.5 - 0.1) * opt);
//! ```

pub mod classes;
pub mod full_approx;
pub mod local_dominant;

use dgraph::{EdgeId, Graph, Matching};
use simnet::{ExecCfg, NetStats};
use std::collections::BTreeSet;

/// The δ-MWM black box plugged into Algorithm 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MwmBox {
    /// Sequential weight classes (δ = ¼): our \[18\] substitute.
    SeqClass,
    /// Concurrent weight classes: fewer rounds, bigger messages.
    ParClass,
    /// Deterministic local-dominant (δ = ½, but `O(n)` worst-case
    /// rounds) — the "slow but strong" ablation point.
    LocalDominant,
}

impl MwmBox {
    /// Nominal approximation factor δ used to size the iteration count.
    pub fn nominal_delta(self) -> f64 {
        match self {
            MwmBox::SeqClass => 0.25,
            MwmBox::ParClass => 0.125,
            MwmBox::LocalDominant => 0.5,
        }
    }

    /// Run the box on `g` (weights already derived) under `cfg`.
    pub fn run_cfg(self, g: &Graph, seed: u64, cfg: ExecCfg) -> (Matching, NetStats) {
        match self {
            MwmBox::SeqClass => classes::run_cfg(g, seed, cfg),
            MwmBox::ParClass => classes::run_parallel_inner(g, seed, cfg),
            MwmBox::LocalDominant => local_dominant::run_cfg(g, seed, cfg),
        }
    }
}

/// `wrap(e)` for `e = (r,s) ∉ M`: the edges `(M(r),r), (r,s), (s,M(s))`
/// that exist (Section 4, Preliminaries).
pub fn wrap(g: &Graph, m: &Matching, e: EdgeId) -> Vec<EdgeId> {
    let (r, s) = g.endpoints(e);
    debug_assert!(!m.contains(g, e), "wrap is defined for non-matching edges");
    let mut p = vec![e];
    if let Some(mr) = m.mate(r) {
        p.push(g.edge_between(r, mr).expect("matched pair is an edge"));
    }
    if let Some(ms) = m.mate(s) {
        p.push(g.edge_between(s, ms).expect("matched pair is an edge"));
    }
    p
}

/// The derived gain `w_M(u,v) = g(wrap(u,v))` for a non-matching edge,
/// `0` for matching edges (the paper's definition).
pub fn derived_weight(g: &Graph, m: &Matching, e: EdgeId) -> f64 {
    if m.contains(g, e) {
        return 0.0;
    }
    let (r, s) = g.endpoints(e);
    let mut gain = g.weight(e);
    if let Some(mr) = m.mate(r) {
        gain -= g.weight(g.edge_between(r, mr).expect("edge"));
    }
    if let Some(ms) = m.mate(s) {
        gain -= g.weight(g.edge_between(s, ms).expect("edge"));
    }
    gain
}

/// `G' = (V, E⁺, w_M)` restricted to strictly positive gains, plus the
/// back-map to original edge ids.
pub fn derived_graph(g: &Graph, m: &Matching) -> (Graph, Vec<EdgeId>) {
    let mut edges = Vec::new();
    let mut weights = Vec::new();
    let mut back = Vec::new();
    for e in 0..g.m() as EdgeId {
        let w = derived_weight(g, m, e);
        if w > 0.0 {
            edges.push(g.endpoints(e));
            weights.push(w);
            back.push(e);
        }
    }
    (Graph::with_weights(g.n(), edges, weights), back)
}

/// Apply `M ← M ⊕ ⋃_{e∈M'} wrap(e)` (Lemma 4.1). `mprime` is given as
/// original-graph edge ids. Returns the new matching and the realized
/// gain (which Lemma 4.1 lower-bounds by `w_M(M')`).
pub fn apply_wraps(g: &Graph, m: &Matching, mprime: &[EdgeId]) -> (Matching, f64) {
    // Ordered set: `pv` feeds symmetric_difference, so its order must
    // come from edge ids, not hash state.
    let mut p: BTreeSet<EdgeId> = BTreeSet::new();
    for &e in mprime {
        for x in wrap(g, m, e) {
            p.insert(x);
        }
    }
    let pv: Vec<EdgeId> = p.into_iter().collect();
    let next = m.symmetric_difference(g, &pv);
    let gain = next.weight(g) - m.weight(g);
    (next, gain)
}

/// Paper iteration count `⌈(3/2δ)·ln(2/ε)⌉` (Line 2 of Algorithm 5).
pub fn iteration_bound(delta: f64, epsilon: f64) -> u64 {
    assert!(delta > 0.0 && epsilon > 0.0 && epsilon < 1.0);
    ((3.0 / (2.0 * delta)) * (2.0 / epsilon).ln()).ceil() as u64
}

/// One iteration of Algorithm 5 (Lines 3–5): announce matched weights,
/// run the black box on the derived graph (seeded `seed + it·0x5EED`),
/// apply the wraps — the unit the `dmatch::session` Weighted driver
/// steps.
pub(crate) fn iteration(
    g: &Graph,
    m: &mut Matching,
    mwm_box: MwmBox,
    it: u64,
    seed: u64,
    cfg: ExecCfg,
    stats: &mut NetStats,
) {
    let id_bits = simnet::id_bits(g.n());
    // Matched nodes announce their matched weight so both endpoints
    // of every edge can evaluate w_M locally: one round, one
    // weight-sized message per edge endpoint.
    stats.record_messages(2 * g.m() as u64, 64);
    stats.record_round(2 * g.m() as u64);

    let (gp, back) = derived_graph(g, m);
    let (mp, box_stats) = mwm_box.run_cfg(&gp, seed.wrapping_add(it * 0x5EED), cfg);
    stats.absorb(&box_stats);

    let mprime: Vec<EdgeId> = mp.edge_ids(&gp).iter().map(|&e| back[e as usize]).collect();
    let wm_gain: f64 = mprime.iter().map(|&e| derived_weight(g, m, e)).sum();
    let (next, realized) = apply_wraps(g, m, &mprime);
    assert!(
        realized >= wm_gain - 1e-9,
        "Lemma 4.1 violated: realized {realized} < w_M(M') = {wm_gain}"
    );
    *m = next;
    // Wrap application: each M' endpoint tells its (old) mate to
    // release; two rounds of id-sized messages.
    stats.record_messages(2 * mprime.len() as u64, id_bits);
    stats.record_round(2 * mprime.len() as u64);
    stats.record_round(0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Algorithm, ConvergenceCurve, RunReport, Session};
    use dgraph::generators::random::{bipartite_gnp, gnp};
    use dgraph::generators::weights::{apply_weights, WeightModel};
    use dgraph::mwm_exact::max_weight_exact;

    fn run(g: &Graph, epsilon: f64, mwm_box: MwmBox, seed: u64) -> RunReport {
        let alg = Algorithm::Weighted { epsilon, mwm_box };
        Session::on(g)
            .algorithm(alg)
            .seed(seed)
            .build()
            .run_to_completion()
    }

    /// The worked example of Figure 2 (middle panel): verify that
    /// `w(M'') ≥ w(M) + w_M(M')` on a concrete instance.
    #[test]
    fn lemma_4_1_on_random_instances() {
        for seed in 0..8 {
            let g = apply_weights(&gnp(12, 0.3, seed), WeightModel::Integer(1, 9), seed + 5);
            // Some non-trivial starting matching (id order: weight-greedy
            // would leave no positive gains by construction).
            let m = dgraph::greedy::greedy_maximal(&g);
            let (gp, back) = derived_graph(&g, &m);
            if gp.m() == 0 {
                continue;
            }
            let mp = dgraph::greedy::greedy_by_weight(&gp);
            let mprime: Vec<EdgeId> = mp.edge_ids(&gp).iter().map(|&e| back[e as usize]).collect();
            let wm: f64 = mprime.iter().map(|&e| derived_weight(&g, &m, e)).sum();
            let (m2, realized) = apply_wraps(&g, &m, &mprime);
            assert!(
                m2.validate(&g).is_ok(),
                "seed {seed}: M'' is not a matching"
            );
            assert!(realized >= wm - 1e-9, "seed {seed}: {realized} < {wm}");
        }
    }

    #[test]
    fn derived_weights_match_definition() {
        // Path 0-1-2-3, weights 3,5,4, M = {(1,2)}.
        let g = Graph::with_weights(4, vec![(0, 1), (1, 2), (2, 3)], vec![3.0, 5.0, 4.0]);
        let m = Matching::from_edges(&g, &[1]);
        assert_eq!(derived_weight(&g, &m, 0), 3.0 - 5.0); // loses (1,2)
        assert_eq!(derived_weight(&g, &m, 1), 0.0); // in M
        assert_eq!(derived_weight(&g, &m, 2), 4.0 - 5.0);
        let (gp, _) = derived_graph(&g, &m);
        assert_eq!(gp.m(), 0, "no positive gains here");
    }

    #[test]
    fn wrap_contains_the_incident_matching_edges() {
        let g = Graph::with_weights(4, vec![(0, 1), (1, 2), (2, 3)], vec![1.0, 1.0, 1.0]);
        let m = Matching::from_edges(&g, &[0, 2]);
        let p = wrap(&g, &m, 1);
        assert_eq!(p.len(), 3);
        assert!(p.contains(&0) && p.contains(&1) && p.contains(&2));
    }

    #[test]
    fn half_minus_eps_on_small_general_graphs() {
        let eps = 0.1;
        for seed in 0..6 {
            let g = apply_weights(
                &gnp(14, 0.3, seed),
                WeightModel::Uniform(0.5, 4.0),
                seed + 1,
            );
            let r = run(&g, eps, MwmBox::SeqClass, seed);
            assert!(r.matching.validate(&g).is_ok());
            let opt = max_weight_exact(&g);
            assert!(
                r.matching.weight(&g) >= (0.5 - eps) * opt - 1e-9,
                "seed {seed}: {} < (½-ε)·{opt}",
                r.matching.weight(&g)
            );
        }
    }

    #[test]
    fn half_minus_eps_on_bipartite_with_all_boxes() {
        let eps = 0.15;
        for &mwm_box in &[MwmBox::SeqClass, MwmBox::ParClass, MwmBox::LocalDominant] {
            for seed in 0..4 {
                let (g0, sides) = bipartite_gnp(10, 10, 0.3, seed);
                let g = apply_weights(&g0, WeightModel::Exponential(2.0), seed + 7);
                let r = run(&g, eps, mwm_box, seed);
                let opt = dgraph::hungarian::max_weight_matching(&g, &sides).weight(&g);
                assert!(
                    r.matching.weight(&g) >= (0.5 - eps) * opt - 1e-9,
                    "{mwm_box:?} seed {seed}: {} < (½-ε)·{opt}",
                    r.matching.weight(&g)
                );
            }
        }
    }

    #[test]
    fn weight_trajectory_is_monotone() {
        let g = apply_weights(&gnp(20, 0.2, 3), WeightModel::Integer(1, 20), 4);
        let curve = ConvergenceCurve::new();
        Session::on(&g)
            .algorithm(Algorithm::Weighted {
                epsilon: 0.1,
                mwm_box: MwmBox::SeqClass,
            })
            .seed(8)
            .observe(curve.clone())
            .build()
            .run_to_completion();
        for w in curve.points().windows(2) {
            assert!(
                w[1].weight >= w[0].weight - 1e-9,
                "weight decreased: {} -> {}",
                w[0].weight,
                w[1].weight
            );
        }
    }

    #[test]
    fn iteration_bound_matches_formula() {
        // δ = 1/5, ε = 0.1: (3/0.4)·ln 20 = 7.5 · 2.9957 ≈ 22.47 → 23.
        assert_eq!(iteration_bound(0.2, 0.1), 23);
        assert!(iteration_bound(0.25, 0.05) > iteration_bound(0.25, 0.2));
    }

    #[test]
    fn empty_graph_and_single_edge() {
        let g = Graph::new(2, vec![]);
        let r = run(&g, 0.1, MwmBox::SeqClass, 0);
        assert_eq!(r.matching.size(), 0);
        let g = Graph::with_weights(2, vec![(0, 1)], vec![7.0]);
        let r = run(&g, 0.1, MwmBox::SeqClass, 0);
        assert_eq!(r.matching.weight(&g), 7.0);
    }
}
