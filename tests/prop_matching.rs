//! Randomized property tests for the matching substrate: the
//! Hopcroft–Karp lemmas the paper builds on, solver cross-checks, and
//! structural invariants of `Matching` operations.
//!
//! Dependency-free: cases are enumerated from seeded `SplitMix64`
//! streams, so every run explores the same (deterministic) case set.

use distributed_matching::dgraph::augmenting::{
    apply_paths, enumerate_augmenting_paths, greedy_disjoint_paths, is_maximal_disjoint,
    shortest_augmenting_path_len_bipartite,
};
use distributed_matching::dgraph::generators::random::{bipartite_gnp, gnp};
use distributed_matching::dgraph::generators::weights::{apply_weights, WeightModel};
use distributed_matching::dgraph::{
    bipartite, blossom, greedy, hopcroft_karp, hungarian, mwm_exact, Matching,
};
use distributed_matching::simnet::{ExecCfg, SplitMix64};

/// Deterministic bipartite case stream: (a, b, p, seed).
fn bip_cases(tag: u64, count: usize, lo: usize, hi: usize) -> Vec<(usize, usize, f64, u64)> {
    let mut rng = SplitMix64::new(0x3A7C ^ tag);
    (0..count)
        .map(|_| {
            let a = lo + rng.below((hi - lo) as u64) as usize;
            let b = lo + rng.below((hi - lo) as u64) as usize;
            let p = (10 + rng.below(50)) as f64 / 100.0;
            (a, b, p, rng.next())
        })
        .collect()
}

/// Deterministic general case stream: (n, p, seed).
fn gen_cases(tag: u64, count: usize, lo: usize, hi: usize) -> Vec<(usize, f64, u64)> {
    let mut rng = SplitMix64::new(0x3A7C ^ tag);
    (0..count)
        .map(|_| {
            let n = lo + rng.below((hi - lo) as u64) as usize;
            let p = (5 + rng.below(45)) as f64 / 100.0;
            (n, p, rng.next())
        })
        .collect()
}

/// Berge's theorem, constructively: blossom's result admits no
/// augmenting path of any length.
#[test]
fn blossom_is_maximum_by_berge() {
    for (n, p, seed) in gen_cases(1, 48, 4, 14) {
        let g = gnp(n, p, seed);
        let m = blossom::max_matching(&g);
        assert!(m.validate(&g).is_ok());
        assert!(enumerate_augmenting_paths(&g, &m, n).is_empty());
    }
}

/// Hopcroft–Karp agrees with blossom on bipartite graphs.
#[test]
fn hk_equals_blossom_on_bipartite() {
    for (a, b, p, seed) in bip_cases(2, 48, 2, 9) {
        let (g, sides) = bipartite_gnp(a, b, p, seed);
        assert_eq!(
            hopcroft_karp::max_matching(&g, &sides).size(),
            blossom::max_matching(&g).size()
        );
    }
}

/// Hungarian equals the bitmask DP on small weighted bipartite graphs.
#[test]
fn hungarian_equals_dp() {
    for (a, b, _p, seed) in bip_cases(3, 48, 2, 7) {
        let (g0, sides) = bipartite_gnp(a, b, 0.5, seed);
        let g = apply_weights(&g0, WeightModel::Integer(1, 30), seed + 1);
        let h = hungarian::max_weight_matching(&g, &sides).weight(&g);
        let dp = mwm_exact::max_weight_exact(&g);
        assert!((h - dp).abs() < 1e-9, "hungarian {} vs dp {}", h, dp);
    }
}

/// Lemma 3.4: augmenting along a maximal set of shortest paths
/// strictly increases the shortest augmenting-path length.
#[test]
fn lemma_3_4_shortest_length_grows() {
    for (a, b, p, seed) in bip_cases(4, 48, 3, 8) {
        let p = p.max(0.15);
        let (g, sides) = bipartite_gnp(a, b, p, seed);
        let mut m = Matching::new(g.n());
        // Drive a few phases and check monotonicity at each.
        for _ in 0..4 {
            let Some(l) = shortest_augmenting_path_len_bipartite(&g, &sides, &m) else {
                break;
            };
            let all = enumerate_augmenting_paths(&g, &m, l);
            let shortest: Vec<_> = all.into_iter().filter(|q| q.len() == l + 1).collect();
            assert!(
                !shortest.is_empty(),
                "BFS found length {} but enumeration did not",
                l
            );
            let chosen = greedy_disjoint_paths(&g, &shortest);
            assert!(is_maximal_disjoint(&g, &shortest, &chosen));
            let sel: Vec<_> = chosen.iter().map(|&i| shortest[i].clone()).collect();
            apply_paths(&g, &mut m, &sel);
            let l2 = shortest_augmenting_path_len_bipartite(&g, &sides, &m);
            assert!(l2.is_none_or(|x| x > l), "Lemma 3.4: {:?} ≤ {}", l2, l);
        }
    }
}

/// Lemma 3.5: if the shortest augmenting path has length 2k-1,
/// then |M| ≥ (1 - 1/k)|M*|.
#[test]
fn lemma_3_5_quality_from_path_length() {
    for (a, b, p, seed) in bip_cases(5, 48, 3, 8) {
        let p = p.max(0.15);
        let (g, sides) = bipartite_gnp(a, b, p, seed);
        // Any maximal matching serves as M.
        let m = greedy::greedy_maximal(&g);
        let opt = hopcroft_karp::max_matching(&g, &sides).size();
        if let Some(l) = shortest_augmenting_path_len_bipartite(&g, &sides, &m) {
            assert!(l % 2 == 1);
            let k = l.div_ceil(2); // l = 2k-1
            assert!(
                m.size() as f64 >= (1.0 - 1.0 / k as f64) * opt as f64 - 1e-9,
                "|M|={} opt={} l={}",
                m.size(),
                opt,
                l
            );
        } else {
            assert_eq!(m.size(), opt);
        }
    }
}

/// The counting BFS distance equals the true shortest augmenting
/// path length at every reached free Y node.
#[test]
fn counting_distance_is_exact() {
    for (a, b, p, seed) in bip_cases(6, 48, 3, 8) {
        let p = p.max(0.2);
        let (g, sides) = bipartite_gnp(a, b, p, seed);
        let m = greedy::greedy_maximal(&g);
        let ell = 7;
        let spec =
            distributed_matching::dmatch::bipartite::SubgraphSpec::full_bipartite(&g, &sides);
        let pass = distributed_matching::dmatch::bipartite::count::run_cfg(
            &g,
            &m,
            &spec,
            ell,
            seed,
            ExecCfg::default(),
        );
        let paths = enumerate_augmenting_paths(&g, &m, ell);
        for y in 0..g.n() as u32 {
            if !sides[y as usize] || !m.is_free(y) {
                continue;
            }
            let best = paths
                .iter()
                .filter(|q| q[0] == y || *q.last().unwrap() == y)
                .map(|q| q.len() - 1)
                .min();
            match (pass.dist[y as usize], best) {
                (Some(d), Some(b)) => assert_eq!(d as usize, b, "node {}", y),
                (None, None) => {}
                (d, b) => panic!("node {}: counted {:?} enumerated {:?}", y, d, b),
            }
        }
    }
}

/// Matching symmetric difference with a set of disjoint augmenting
/// paths grows the matching by exactly the number of paths.
#[test]
fn symmetric_difference_grows_by_path_count() {
    for (n, p, seed) in gen_cases(7, 48, 4, 14) {
        let g = gnp(n, p, seed);
        let mut m = greedy::greedy_maximal(&g);
        let before = m.size();
        let paths = enumerate_augmenting_paths(&g, &m, 3);
        let chosen = greedy_disjoint_paths(&g, &paths);
        let sel: Vec<_> = chosen.iter().map(|&i| paths[i].clone()).collect();
        apply_paths(&g, &mut m, &sel);
        assert!(m.validate(&g).is_ok());
        assert_eq!(m.size(), before + sel.len());
    }
}

/// Greedy-by-weight is a ½-MWM (the paper's opening observation).
#[test]
fn greedy_half_mwm() {
    for (n, p, seed) in gen_cases(8, 48, 4, 13) {
        let p = p.max(0.15);
        let g = apply_weights(&gnp(n, p, seed), WeightModel::Uniform(0.1, 4.0), seed + 9);
        let gw = greedy::greedy_by_weight(&g).weight(&g);
        let opt = mwm_exact::max_weight_exact(&g);
        assert!(gw >= 0.5 * opt - 1e-9, "{} < half of {}", gw, opt);
    }
}

/// Two-coloring is correct whenever it exists, and bipartite
/// generators always admit one.
#[test]
fn two_coloring_correctness() {
    for (a, b, p, seed) in bip_cases(9, 48, 2, 10) {
        let (g, sides) = bipartite_gnp(a, b, p, seed);
        assert!(bipartite::is_valid_bipartition(&g, &sides));
        let computed = bipartite::two_color(&g).expect("generated graph is bipartite");
        assert!(bipartite::is_valid_bipartition(&g, &computed));
    }
}

/// An odd cycle plus anything is never 2-colorable.
#[test]
fn odd_cycles_rejected() {
    for extra in 0..8usize {
        let mut edges = vec![(0u32, 1u32), (1, 2), (2, 0)];
        let n = 3 + extra;
        // Attach a path of `extra` nodes.
        for i in 0..extra {
            edges.push((2 + i as u32, 3 + i as u32));
        }
        let g = distributed_matching::dgraph::Graph::new(n, edges);
        assert!(bipartite::two_color(&g).is_none());
    }
}
