//! Randomized property tests for the distributed algorithms themselves:
//! guarantee, validity, determinism, and CONGEST message discipline on
//! randomized inputs.
//!
//! Dependency-free: cases are enumerated from seeded `SplitMix64`
//! streams, so every run explores the same (deterministic) case set.

use distributed_matching::dgraph::generators::random::{bipartite_gnp, gnp};
use distributed_matching::dgraph::generators::weights::{apply_weights, WeightModel};
use distributed_matching::dgraph::{blossom, hopcroft_karp};
use distributed_matching::dmatch::{weighted, Algorithm, ConvergenceCurve, Session};
use distributed_matching::simnet::SplitMix64;

/// Deterministic parameter stream: (n, edge probability, seed).
fn cases(tag: u64, count: usize, n_lo: usize, n_hi: usize) -> Vec<(usize, f64, u64)> {
    let mut rng = SplitMix64::new(0xD157 ^ tag);
    (0..count)
        .map(|_| {
            let n = n_lo + rng.below((n_hi - n_lo) as u64) as usize;
            let p = (5 + rng.below(45)) as f64 / 100.0;
            (n, p, rng.next())
        })
        .collect()
}

/// Israeli–Itai is always a valid maximal matching with 2-bit
/// messages, regardless of input or seed.
#[test]
fn ii_maximal_valid_and_tiny_messages() {
    for (n, p, seed) in cases(1, 32, 2, 40) {
        let g = gnp(n, p, seed);
        let r = Session::on(&g)
            .algorithm(Algorithm::IsraeliItai)
            .seed(seed ^ 0xABCD)
            .build()
            .run_to_completion();
        assert!(r.matching.validate(&g).is_ok());
        assert!(r.matching.is_maximal(&g));
        assert!(r.stats.max_msg_bits <= 2);
    }
}

/// Theorem 3.8's guarantee holds for every bipartite input: ratio
/// ≥ 1-1/k, no augmenting path of length ≤ 2k-1 survives, and
/// messages stay under 100 bits.
#[test]
fn bipartite_guarantee_and_congest() {
    let mut rng = SplitMix64::new(0xD157 ^ 3);
    for _ in 0..32 {
        let a = 2 + rng.below(10) as usize;
        let b = 2 + rng.below(10) as usize;
        let p = (10 + rng.below(45)) as f64 / 100.0;
        let k = 1 + rng.below(3) as usize;
        let seed = rng.next();
        let (g, sides) = bipartite_gnp(a, b, p, seed);
        let out = Session::on(&g)
            .algorithm(Algorithm::Bipartite { k })
            .sides(&sides)
            .seed(seed)
            .build()
            .run_to_completion();
        assert!(out.matching.validate(&g).is_ok());
        let opt = hopcroft_karp::max_matching(&g, &sides).size();
        assert!(
            out.matching.size() as f64 >= (1.0 - 1.0 / k as f64) * opt as f64 - 1e-9,
            "k={} |M|={} opt={}",
            k,
            out.matching.size(),
            opt
        );
        assert!(out.stats.max_msg_bits <= 98 + 30);
    }
}

/// Algorithm 4 with the full paper budget never dips below the
/// whp bound on small inputs (k = 2 keeps the budget tractable).
#[test]
fn general_holds_with_paper_budget() {
    for (n, p, seed) in cases(4, 16, 4, 16) {
        let p = p.max(0.15);
        let g = gnp(n, p, seed);
        // Full paper budget: 2^5·3·ln2 ≈ 67 iterations.
        let r = Session::on(&g)
            .algorithm(Algorithm::General {
                k: 2,
                early_stop: None,
            })
            .seed(seed)
            .build()
            .run_to_completion();
        assert!(r.matching.validate(&g).is_ok());
        let opt = blossom::max_matching(&g).size();
        assert!(2 * r.matching.size() >= opt);
    }
}

/// Algorithm 5's weight trajectory is monotone and the final
/// matching is valid for every box.
#[test]
fn weighted_monotone_and_valid() {
    let boxes = [
        weighted::MwmBox::SeqClass,
        weighted::MwmBox::ParClass,
        weighted::MwmBox::LocalDominant,
    ];
    for (i, (n, p, seed)) in cases(5, 18, 4, 18).into_iter().enumerate() {
        let mwm_box = boxes[i % 3];
        let p = p.max(0.15);
        let g = apply_weights(&gnp(n, p, seed), WeightModel::Exponential(1.0), seed + 2);
        // The weight trajectory comes from the per-phase observer.
        let curve = ConvergenceCurve::new();
        let r = Session::on(&g)
            .algorithm(Algorithm::Weighted {
                epsilon: 0.2,
                mwm_box,
            })
            .seed(seed)
            .observe(curve.clone())
            .build()
            .run_to_completion();
        assert!(r.matching.validate(&g).is_ok());
        for w in curve.points().windows(2) {
            assert!(w[1].weight >= w[0].weight - 1e-9);
        }
    }
}

/// Determinism: identical (graph, seed) inputs give identical
/// results and statistics for the randomized algorithms.
#[test]
fn runs_are_reproducible() {
    for (n, p, seed) in cases(6, 16, 4, 25) {
        let g = gnp(n, p, seed);
        let ii = |(): ()| {
            Session::on(&g)
                .algorithm(Algorithm::IsraeliItai)
                .seed(seed)
                .build()
                .run_to_completion()
        };
        let (r1, r2) = (ii(()), ii(()));
        assert_eq!(r1.matching, r2.matching);
        assert_eq!(r1.stats.rounds, r2.stats.rounds);
        assert_eq!(r1.stats.bits, r2.stats.bits);

        let gen = |(): ()| {
            Session::on(&g)
                .algorithm(Algorithm::General {
                    k: 2,
                    early_stop: Some(6),
                })
                .seed(seed)
                .build()
                .run_to_completion()
        };
        let (r1, r2) = (gen(()), gen(()));
        assert_eq!(r1.matching, r2.matching);
        assert_eq!(r1.stats.messages, r2.stats.messages);
    }
}

/// The derived-gain graph never contains matching edges, and
/// applying any matching of it through wraps keeps validity
/// (Lemma 4.1, randomized).
#[test]
fn derived_graph_and_wraps_sound() {
    for (n, p, seed) in cases(7, 24, 4, 16) {
        let p = p.max(0.2);
        let g = apply_weights(&gnp(n, p, seed), WeightModel::Integer(1, 12), seed + 3);
        let m = distributed_matching::dgraph::greedy::greedy_maximal(&g);
        let (gp, back) = weighted::derived_graph(&g, &m);
        for e in 0..gp.m() as u32 {
            assert!(!m.contains(&g, back[e as usize]));
            assert!(gp.weight(e) > 0.0);
        }
        let mp = distributed_matching::dgraph::greedy::greedy_by_weight(&gp);
        let mprime: Vec<u32> = mp.edge_ids(&gp).iter().map(|&e| back[e as usize]).collect();
        let wm: f64 = mprime
            .iter()
            .map(|&e| weighted::derived_weight(&g, &m, e))
            .sum();
        let (m2, realized) = weighted::apply_wraps(&g, &m, &mprime);
        assert!(m2.validate(&g).is_ok());
        assert!(realized >= wm - 1e-9);
    }
}
