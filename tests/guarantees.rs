//! Integration tests: every algorithm of the paper meets its stated
//! guarantee on a zoo of graph families, measured against the exact
//! solvers. These span all workspace crates.

use distributed_matching::dgraph::generators::random::{
    barabasi_albert, bipartite_gnp, bipartite_regular, gnp, random_tree,
};
use distributed_matching::dgraph::generators::structured::{
    complete, complete_bipartite, cycle, grid, hypercube, p4_chain, path, star,
};
use distributed_matching::dgraph::generators::weights::{apply_weights, WeightModel};
use distributed_matching::dgraph::{blossom, hopcroft_karp, hungarian, Graph};
use distributed_matching::dmatch::{weighted, Algorithm, RunReport, Session};

/// One unified-driver run with default (oracle) termination.
fn run_alg(g: &Graph, alg: Algorithm, seed: u64) -> RunReport {
    Session::on(g)
        .algorithm(alg)
        .seed(seed)
        .build()
        .run_to_completion()
}

fn general_zoo() -> Vec<(&'static str, Graph)> {
    vec![
        ("gnp_sparse", gnp(48, 0.07, 1)),
        ("gnp_dense", gnp(30, 0.3, 2)),
        ("cycle_even", cycle(24)),
        ("cycle_odd", cycle(25)),
        ("path", path(31)),
        ("star", star(16)),
        ("grid", grid(6, 5)),
        ("p4_chain", p4_chain(6)),
        ("complete", complete(12)),
        ("tree", random_tree(40, 3)),
        ("scale_free", barabasi_albert(50, 2, 4)),
        ("hypercube", hypercube(5)),
    ]
}

#[test]
fn israeli_itai_is_maximal_everywhere() {
    for (name, g) in general_zoo() {
        let m = run_alg(&g, Algorithm::IsraeliItai, 7).matching;
        assert!(m.validate(&g).is_ok(), "{name}");
        assert!(m.is_maximal(&g), "{name}: not maximal");
        let opt = blossom::max_matching(&g).size();
        assert!(2 * m.size() >= opt, "{name}: below ½");
    }
}

#[test]
fn generic_algorithm_meets_bound_everywhere() {
    for (name, g) in general_zoo() {
        for k in [1usize, 2] {
            let r = run_alg(&g, Algorithm::Generic { k }, 11);
            assert!(r.matching.validate(&g).is_ok(), "{name}");
            let opt = blossom::max_matching(&g).size();
            let bound = 1.0 - 1.0 / (k as f64 + 1.0);
            assert!(
                r.matching.size() as f64 >= bound * opt as f64 - 1e-9,
                "{name}, k={k}: {} < {bound}·{opt}",
                r.matching.size()
            );
        }
    }
}

#[test]
fn general_algorithm_meets_bound_on_the_zoo() {
    for (name, g) in general_zoo() {
        let k = 2;
        let r = run_alg(
            &g,
            Algorithm::General {
                k,
                early_stop: Some(30),
            },
            5,
        );
        assert!(r.matching.validate(&g).is_ok(), "{name}");
        let opt = blossom::max_matching(&g).size();
        assert!(
            2 * r.matching.size() >= opt,
            "{name}: {} below ½·{opt}",
            r.matching.size()
        );
    }
}

#[test]
fn bipartite_algorithm_meets_bound_on_bipartite_zoo() {
    let zoo: Vec<(&str, Graph, Vec<bool>)> = vec![
        {
            let (g, s) = bipartite_gnp(18, 22, 0.15, 5);
            ("bgnp", g, s)
        },
        {
            let (g, s) = bipartite_regular(20, 3, 6);
            ("bregular", g, s)
        },
        {
            let (g, s) = complete_bipartite(9, 11);
            ("kab", g, s)
        },
        {
            let g = path(20);
            let s = distributed_matching::dgraph::bipartite::two_color(&g).unwrap();
            ("path", g, s)
        },
        {
            let g = hypercube(4);
            let s = distributed_matching::dgraph::bipartite::two_color(&g).unwrap();
            ("hypercube", g, s)
        },
    ];
    for (name, g, sides) in zoo {
        for k in [1usize, 2, 4] {
            let out = Session::on(&g)
                .algorithm(Algorithm::Bipartite { k })
                .sides(&sides)
                .seed(3)
                .build()
                .run_to_completion();
            assert!(out.matching.validate(&g).is_ok(), "{name}");
            let opt = hopcroft_karp::max_matching(&g, &sides).size();
            let bound = 1.0 - 1.0 / k as f64;
            assert!(
                out.matching.size() as f64 >= bound * opt as f64 - 1e-9,
                "{name}, k={k}: {} < {bound}·{opt}",
                out.matching.size()
            );
            // Theorem 3.8 postcondition.
            let sl =
                distributed_matching::dgraph::augmenting::shortest_augmenting_path_len_bipartite(
                    &g,
                    &sides,
                    &out.matching,
                );
            assert!(
                sl.is_none_or(|l| l > 2 * k - 1),
                "{name}, k={k}: short path left"
            );
        }
    }
}

#[test]
fn weighted_algorithm_meets_bound_across_weight_models() {
    let eps = 0.1;
    for (wname, model) in [
        ("uniform", WeightModel::Uniform(0.5, 3.0)),
        ("exponential", WeightModel::Exponential(1.5)),
        ("integer", WeightModel::Integer(1, 9)),
        (
            "powerlaw",
            WeightModel::PowerLaw {
                lo: 1.0,
                alpha: 1.3,
            },
        ),
    ] {
        for seed in 0..3u64 {
            let (g0, sides) = bipartite_gnp(12, 12, 0.25, seed);
            let g = apply_weights(&g0, model, seed + 40);
            let r = run_alg(
                &g,
                Algorithm::Weighted {
                    epsilon: eps,
                    mwm_box: weighted::MwmBox::SeqClass,
                },
                seed,
            );
            let opt = hungarian::max_weight_matching(&g, &sides).weight(&g);
            assert!(
                r.matching.weight(&g) >= (0.5 - eps) * opt - 1e-9,
                "{wname} seed {seed}: {} < (½-ε)·{opt}",
                r.matching.weight(&g)
            );
        }
    }
}

#[test]
fn quality_ordering_holds_in_expectation() {
    // Averaged over seeds, the paper's algorithms dominate the ½
    // baseline: II ≤ generic(k=2) ≈ general(k=3) ≤ OPT.
    let mut ii_total = 0usize;
    let mut gen2_total = 0usize;
    let mut opt_total = 0usize;
    for seed in 0..5u64 {
        let g = gnp(40, 0.1, 100 + seed);
        ii_total += run_alg(&g, Algorithm::IsraeliItai, seed).matching.size();
        gen2_total += run_alg(&g, Algorithm::Generic { k: 2 }, seed)
            .matching
            .size();
        opt_total += blossom::max_matching(&g).size();
    }
    assert!(
        ii_total <= gen2_total,
        "II {ii_total} > generic {gen2_total}"
    );
    assert!(gen2_total <= opt_total);
}

#[test]
fn empty_and_tiny_graphs_are_handled_by_everyone() {
    for g in [
        Graph::new(0, vec![]),
        Graph::new(1, vec![]),
        Graph::new(2, vec![(0, 1)]),
    ] {
        let m = run_alg(&g, Algorithm::IsraeliItai, 0).matching;
        assert!(m.validate(&g).is_ok());
        let r = run_alg(&g, Algorithm::Generic { k: 2 }, 0);
        assert!(r.matching.validate(&g).is_ok());
        let r = Session::on(&g)
            .algorithm(Algorithm::General {
                k: 2,
                early_stop: Some(4),
            })
            .seed(0)
            .build()
            .run_to_completion();
        assert!(r.matching.validate(&g).is_ok());
        let r = run_alg(
            &g,
            Algorithm::Weighted {
                epsilon: 0.2,
                mwm_box: weighted::MwmBox::SeqClass,
            },
            0,
        );
        assert!(r.matching.validate(&g).is_ok());
        if g.m() == 1 {
            assert_eq!(r.matching.size(), 1, "a single edge must always be matched");
        }
    }
}
