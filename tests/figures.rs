//! Regression tests for the paper's two figures (the worked examples
//! of experiments E2 and E6).

use distributed_matching::dgraph::{Graph, Matching};
use distributed_matching::dmatch::bipartite::{count, SubgraphSpec};
use distributed_matching::dmatch::weighted::{apply_wraps, derived_weight};
use distributed_matching::simnet::ExecCfg;

/// E2 / Figure 1: the counting BFS layer values on the fixed instance
/// used by `exp_e2_figure1` must never change.
#[test]
fn figure1_layer_counts() {
    let edges = vec![
        (0u32, 5u32),
        (0, 6),
        (0, 7),
        (1, 6),
        (1, 7),
        (2, 6),
        (3, 7),
        (4, 8),
        (2, 9),
        (3, 9),
        (2, 8),
        (4, 9),
    ];
    let g = Graph::new(10, edges);
    let sides: Vec<bool> = (0..10).map(|v| v >= 5).collect();
    let m = Matching::from_edges(
        &g,
        &[
            g.edge_between(2, 6).unwrap(),
            g.edge_between(3, 7).unwrap(),
            g.edge_between(4, 8).unwrap(),
        ],
    );
    let spec = SubgraphSpec::full_bipartite(&g, &sides);
    let pass = count::run_cfg(&g, &m, &spec, 5, 0, ExecCfg::default());

    // Layers: free X {0,1} at d=0; Y {5,6,7} at d=1 with counts 1,2,2;
    // X {2,3} at d=2 with 2,2; Y {8,9} at d=3 with 2,4; X {4} at d=4.
    assert_eq!(pass.dist[0], Some(0));
    assert_eq!(pass.dist[1], Some(0));
    assert_eq!(pass.total[5], 1);
    assert_eq!(pass.total[6], 2);
    assert_eq!(pass.total[7], 2);
    assert_eq!(pass.dist[6], Some(1));
    assert_eq!(pass.total[2], 2);
    assert_eq!(pass.total[3], 2);
    assert_eq!(pass.dist[2], Some(2));
    assert_eq!(pass.total[8], 2);
    assert_eq!(pass.total[9], 4);
    assert_eq!(pass.dist[9], Some(3));
    assert_eq!(pass.dist[4], Some(4));
    assert_eq!(pass.leaders, 2, "free Y nodes 5 and 9 are reached");
}

/// E6 / Figure 2: the exact headline numbers 14 → 10 → 26, with the
/// strict inequality coming from wraps overlapping at an M edge.
#[test]
fn figure2_numbers() {
    let g = Graph::with_weights(
        6,
        vec![(1, 2), (4, 5), (0, 1), (2, 3)],
        vec![2.0, 12.0, 6.0, 8.0],
    );
    let m = Matching::from_edges(&g, &[0, 1]);
    assert_eq!(m.weight(&g), 14.0, "top panel: w(M) = 14");

    let wm1 = derived_weight(&g, &m, 2);
    let wm2 = derived_weight(&g, &m, 3);
    assert_eq!(wm1 + wm2, 10.0, "middle panel: w_M(M') = 10");

    let (m2, realized) = apply_wraps(&g, &m, &[2, 3]);
    assert_eq!(m2.weight(&g), 26.0, "bottom panel: w(M'') = 26");
    assert!(m2.validate(&g).is_ok());
    assert!(
        realized > wm1 + wm2,
        "strict: overlapping wraps double-count the shared M edge"
    );
    assert_eq!(realized, 12.0);
}

/// Figure 2's inequality direction can never flip: w(M'') ≥ w(M) + w_M(M').
#[test]
fn figure2_inequality_is_lemma_4_1() {
    let g = Graph::with_weights(
        6,
        vec![(1, 2), (4, 5), (0, 1), (2, 3)],
        vec![2.0, 12.0, 6.0, 8.0],
    );
    let m = Matching::from_edges(&g, &[0, 1]);
    for subset in [vec![2u32], vec![3u32], vec![2, 3]] {
        let wm: f64 = subset.iter().map(|&e| derived_weight(&g, &m, e)).sum();
        let (m2, realized) = apply_wraps(&g, &m, &subset);
        assert!(m2.validate(&g).is_ok());
        assert!(realized >= wm - 1e-9, "subset {subset:?}");
    }
}
