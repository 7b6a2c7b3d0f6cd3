//! In-crate integration tests for dmatch: phase-level invariants that
//! span the bipartite machinery, the general reduction, and the
//! weighted reduction.

use dgraph::generators::random::{bipartite_gnp, gnp};
use dgraph::generators::weights::{apply_weights, WeightModel};
use dgraph::Matching;
use dmatch::bipartite::{count, AugNets, SubgraphSpec};
use dmatch::weighted::MwmBox;
use dmatch::{Algorithm, Session};
use simnet::ExecCfg;

#[test]
fn aug_applies_exactly_the_shortfall_on_simple_instances() {
    // On a perfect-matching-friendly instance, running phases to k
    // leaves exactly opt - |M| ≤ opt/k unmatched headroom.
    for seed in 0..5 {
        let (g, sides) = bipartite_gnp(16, 16, 0.25, seed);
        let opt = dgraph::hopcroft_karp::max_matching(&g, &sides).size();
        let out = Session::on(&g)
            .algorithm(Algorithm::Bipartite { k: 4 })
            .sides(&sides)
            .seed(seed)
            .build()
            .run_to_completion();
        assert!(opt - out.matching.size() <= opt / 4 + 1, "seed {seed}");
    }
}

#[test]
fn counting_pass_is_idempotent_and_side_effect_free() {
    let (g, sides) = bipartite_gnp(10, 10, 0.3, 3);
    let spec = SubgraphSpec::full_bipartite(&g, &sides);
    let m = dgraph::greedy::greedy_maximal(&g);
    let a = count::run_cfg(&g, &m, &spec, 5, 1, ExecCfg::default());
    let b = count::run_cfg(&g, &m, &spec, 5, 1, ExecCfg::default());
    assert_eq!(a.dist, b.dist);
    assert_eq!(a.total, b.total);
    assert_eq!(a.leaders, b.leaders);
    // The matching itself is untouched by counting.
    assert!(m.validate(&g).is_ok());
}

#[test]
fn aug_until_maximal_monotone_in_ell() {
    // Larger ℓ can only (weakly) increase the matching achieved from
    // the same start.
    for seed in 0..5 {
        let (g, sides) = bipartite_gnp(14, 14, 0.2, 40 + seed);
        let spec = SubgraphSpec::full_bipartite(&g, &sides);
        let m0 = Matching::new(g.n());
        let mut last = 0usize;
        for ell in [1usize, 3, 5, 7] {
            let out =
                AugNets::default().aug_until_maximal(&g, &m0, &spec, ell, seed, ExecCfg::default());
            assert!(out.matching.size() >= last, "seed {seed}, ℓ={ell}");
            last = out.matching.size();
        }
    }
}

#[test]
fn subgraph_augmentations_never_touch_out_nodes() {
    // Algorithm 4 safety: monochromatic matched pairs are outside V̂
    // and must be preserved verbatim by the Aug call.
    for seed in 0..10 {
        let g = gnp(24, 0.2, 70 + seed);
        let m = dgraph::greedy::greedy_maximal(&g);
        let colors: Vec<bool> = (0..g.n())
            .map(|v| (v * 7 + seed as usize).is_multiple_of(3))
            .collect();
        let spec = SubgraphSpec::from_coloring(&g, &m, &colors);
        let out = AugNets::default().aug_until_maximal(&g, &m, &spec, 3, seed, ExecCfg::default());
        for v in 0..g.n() as u32 {
            if let Some(w) = m.mate(v) {
                if colors[v as usize] == colors[w as usize] {
                    assert_eq!(
                        out.matching.mate(v),
                        Some(w),
                        "seed {seed}: monochromatic pair ({v},{w}) was disturbed"
                    );
                }
            }
        }
    }
}

#[test]
fn weighted_iterations_respect_black_box_contract() {
    // Algorithm 5 must work with *any* δ-MWM box, including an
    // intentionally weak one — here the parallel-class box under a
    // pathological power-law weight distribution.
    for seed in 0..4 {
        let g = apply_weights(
            &gnp(16, 0.3, 90 + seed),
            WeightModel::PowerLaw {
                lo: 1.0,
                alpha: 0.7,
            },
            seed,
        );
        let r = Session::on(&g)
            .algorithm(Algorithm::Weighted {
                epsilon: 0.2,
                mwm_box: MwmBox::ParClass,
            })
            .seed(seed)
            .build()
            .run_to_completion();
        assert!(r.matching.validate(&g).is_ok());
        let opt = dgraph::mwm_exact::max_weight_exact(&g);
        assert!(
            r.matching.weight(&g) >= 0.3 * opt - 1e-9,
            "seed {seed}: {} < 0.3·{opt}",
            r.matching.weight(&g)
        );
    }
}
