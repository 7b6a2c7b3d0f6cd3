//! Class-based constant-factor MWM — our stand-in for the
//! Lotker–Patt-Shamir–Rosén `(¼-ε)`-MWM black box \[18\] that Algorithm 5
//! plugs in (the paper only needs *some* `δ`-MWM with constant
//! `δ > 0`).
//!
//! Edges are bucketed into geometric weight classes
//! `C_j = {e : w(e) ∈ (W/2^{j+1}, W/2^j]}` (`W` = max weight; classes
//! lighter than `W/n³` are dropped — they total at most `W/(2n) ≤
//! OPT/(2n)`). Classes are processed from heaviest to lightest; within
//! a class an Israeli–Itai maximal matching runs on the still-unmatched
//! endpoints.
//!
//! **Guarantee (δ = ¼ - o(1)):** every OPT edge `e` not taken is
//! blocked at an endpoint by a chosen edge `c` from an equal-or-heavier
//! class, so `w(c) ≥ w(e)/2`; each chosen edge blocks at most two OPT
//! edges, hence `w(OPT) ≤ 4·w(M) + W/(2n)`.
//!
//! **Cost:** `O(log n)` classes × `O(log n)` rounds per maximal
//! matching = `O(log² n)` rounds with `O(1)`-bit messages. The real
//! \[18\] achieves `O(log n)` by running classes concurrently; the
//! parallel variant here ([`MwmBox::ParClass`](super::MwmBox::ParClass))
//! does the same by batching per-class messages (message size grows to
//! `O(log n)` tags), which is the ablation of experiment E5b.
//!
//! Each class instance is one [`israeli_itai::run`], so under an active
//! fault plan it keeps only agreed pairs.

use crate::israeli_itai;
use dgraph::{EdgeId, Graph, Matching};
use simnet::{ExecCfg, NetStats};

/// Number of retained classes for a graph on `n` nodes: weights below
/// `W/n³` cannot matter (see module docs).
pub fn class_count(n: usize) -> u32 {
    (3 * simnet::id_bits(n.max(2)) as u32).max(1)
}

/// Class index of weight `w` relative to the maximum `wmax`, or `None`
/// if the edge is dropped (zero weight or below the floor).
pub fn class_of(w: f64, wmax: f64, classes: u32) -> Option<u32> {
    if w <= 0.0 || wmax <= 0.0 {
        return None;
    }
    let j = (wmax / w).log2().floor();
    if j < 0.0 {
        Some(0) // w == wmax up to rounding
    } else if (j as u32) < classes {
        Some(j as u32)
    } else {
        None
    }
}

/// Sequential-class δ-MWM (δ = ¼ up to the dropped tail): heaviest
/// class first, Israeli–Itai maximal matching per class.
pub fn run_cfg(g: &Graph, seed: u64, cfg: ExecCfg) -> (Matching, NetStats) {
    let mut stats = NetStats::default();
    let mut m = Matching::new(g.n());
    if g.m() == 0 {
        return (m, stats);
    }
    let wmax = g.weight_list().iter().cloned().fold(0.0f64, f64::max);
    let classes = class_count(g.n());
    let of = |&w: &f64| class_of(w, wmax, classes);
    let class: Vec<_> = g.weight_list().iter().map(of).collect();
    for j in 0..classes {
        // Edges of class j whose endpoints are still free.
        let candidate = |e: EdgeId| {
            class[e as usize] == Some(j) && {
                let (u, v) = g.endpoints(e);
                m.is_free(u) && m.is_free(v)
            }
        };
        if !(0..g.m() as EdgeId).any(candidate) {
            continue;
        }
        let (sub, back) = g.edge_subgraph(candidate);
        let seed_j = seed.wrapping_add(j as u64);
        let (cm, cstats) = israeli_itai::run(&sub, seed_j, cfg, None);
        stats.absorb(&cstats);
        for e in cm.edge_ids(&sub) {
            m.add(g, back[e as usize]);
        }
    }
    (m, stats)
}

/// Parallel-class variant — the
/// [`MwmBox::ParClass`](super::MwmBox::ParClass) box: all classes run
/// their Israeli–Itai instances concurrently; conflicts between
/// classes are resolved by keeping, at every vertex, only the
/// heaviest-class matched edge (both endpoints must agree). Fewer
/// rounds, larger (batched) messages; the measured δ is compared
/// against the sequential variant in E5b.
///
/// Every per-class Israeli–Itai network runs under the *caller's*
/// [`ExecCfg`] (worker threads, fault injection) — no thread choice is
/// hard-coded here, and results are bit-identical across `cfg.threads`
/// like every other entry point (asserted by `tests/prop_session.rs`).
pub(crate) fn run_parallel_inner(g: &Graph, seed: u64, cfg: ExecCfg) -> (Matching, NetStats) {
    let mut stats = NetStats::default();
    if g.m() == 0 {
        return (Matching::new(g.n()), stats);
    }
    let wmax = g.weight_list().iter().cloned().fold(0.0f64, f64::max);
    let classes = class_count(g.n());
    let of = |&w: &f64| class_of(w, wmax, classes);
    let class: Vec<_> = g.weight_list().iter().map(of).collect();
    // Run the per-class matchings on disjoint edge sets. We execute the
    // class networks one after another *in the simulator* but charge
    // rounds as if concurrent (the max round count across classes) and
    // messages in full; per-message size gains a class tag.
    let mut per_class: Vec<Matching> = Vec::new();
    let mut max_rounds = 0u64;
    for j in 0..classes {
        let in_class = |e: EdgeId| class[e as usize] == Some(j);
        if !(0..g.m() as EdgeId).any(in_class) {
            continue;
        }
        let (sub, _back) = g.edge_subgraph(in_class);
        let seed_j = seed.wrapping_add(999 + j as u64);
        let (cm, cstats) = israeli_itai::run(&sub, seed_j, cfg, None);
        max_rounds = max_rounds.max(cstats.rounds);
        let tag_bits = simnet::id_bits(classes as usize);
        stats.record_messages(cstats.messages, 2 + tag_bits);
        per_class.push(cm);
    }
    for _ in 0..max_rounds + 2 {
        stats.record_round(0);
    }
    // Conflict resolution: per vertex keep the heaviest-class candidate
    // edge (per_class is ordered heaviest class first; node ids are
    // preserved by edge_subgraph, so mates translate directly).
    let mut keep: Vec<Option<EdgeId>> = vec![None; g.n()];
    for cm in &per_class {
        for v in 0..g.n() as u32 {
            if let Some(w) = cm.mate(v) {
                if v < w {
                    let orig = g.edge_between(v, w).expect("subgraph edge exists in g");
                    if keep[v as usize].is_none() {
                        keep[v as usize] = Some(orig);
                    }
                    if keep[w as usize].is_none() {
                        keep[w as usize] = Some(orig);
                    }
                }
            }
        }
    }
    let mut m = Matching::new(g.n());
    for v in 0..g.n() {
        if let Some(e) = keep[v] {
            let (a, b) = g.endpoints(e);
            if keep[a as usize] == Some(e) && keep[b as usize] == Some(e) && !m.contains(g, e) {
                m.add(g, e);
            }
        }
    }
    (m, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgraph::generators::random::gnp;
    use dgraph::generators::weights::{apply_weights, WeightModel};
    use dgraph::mwm_exact::max_weight_exact;

    #[test]
    fn class_of_boundaries() {
        // w = wmax → class 0; w slightly above wmax/2 → class 0;
        // w = wmax/2 → class 1 boundary (log2(2) = 1).
        assert_eq!(class_of(8.0, 8.0, 10), Some(0));
        assert_eq!(class_of(5.0, 8.0, 10), Some(0));
        assert_eq!(class_of(4.0, 8.0, 10), Some(1));
        assert_eq!(class_of(2.1, 8.0, 10), Some(1));
        assert_eq!(class_of(0.0, 8.0, 10), None);
        // Below the floor: dropped.
        assert_eq!(class_of(1e-12, 8.0, 4), None);
    }

    #[test]
    fn quarter_approximation_sequential() {
        for seed in 0..8 {
            let g = apply_weights(&gnp(14, 0.3, seed), WeightModel::Exponential(2.0), seed + 3);
            let (m, _) = run_cfg(&g, seed, ExecCfg::default());
            assert!(m.validate(&g).is_ok());
            let opt = max_weight_exact(&g);
            assert!(
                m.weight(&g) >= 0.25 * opt - 1e-9,
                "seed {seed}: {} < {}/4",
                m.weight(&g),
                opt
            );
        }
    }

    #[test]
    fn parallel_variant_is_constant_factor() {
        for seed in 0..8 {
            let g = apply_weights(
                &gnp(14, 0.3, 40 + seed),
                WeightModel::PowerLaw {
                    lo: 1.0,
                    alpha: 1.2,
                },
                seed,
            );
            let (m, _) = run_parallel_inner(&g, seed, ExecCfg::default());
            assert!(m.validate(&g).is_ok());
            let opt = max_weight_exact(&g);
            // The prune step can lose another factor ~2 vs sequential.
            assert!(
                m.weight(&g) >= 0.125 * opt - 1e-9,
                "seed {seed}: {} < {}/8",
                m.weight(&g),
                opt
            );
        }
    }

    #[test]
    fn heavy_tail_prefers_heavy_edges() {
        // One huge edge must always be matched (class 0 goes first).
        let g = Graph::with_weights(4, vec![(0, 1), (1, 2), (2, 3)], vec![1.0, 1000.0, 1.0]);
        let (m, _) = run_cfg(&g, 0, ExecCfg::default());
        assert!(m.contains(&g, 1));
    }

    #[test]
    fn unit_weights_collapse_to_single_class() {
        let g = gnp(20, 0.2, 5);
        let (m, _) = run_cfg(&g, 1, ExecCfg::default());
        assert!(m.is_maximal(&g), "single class ⇒ plain maximal matching");
    }

    #[test]
    fn sequential_rounds_exceed_parallel_charged_rounds() {
        let g = apply_weights(
            &gnp(40, 0.15, 9),
            WeightModel::PowerLaw {
                lo: 1.0,
                alpha: 0.8,
            },
            2,
        );
        let (_, s_seq) = run_cfg(&g, 3, ExecCfg::default());
        let (_, s_par) = run_parallel_inner(&g, 3, ExecCfg::default());
        assert!(
            s_par.rounds <= s_seq.rounds,
            "parallel {} vs sequential {}",
            s_par.rounds,
            s_seq.rounds
        );
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new(3, vec![]);
        assert_eq!(run_cfg(&g, 0, ExecCfg::default()).0.size(), 0);
        assert_eq!(run_parallel_inner(&g, 0, ExecCfg::default()).0.size(), 0);
    }
}
