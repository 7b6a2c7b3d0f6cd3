//! Property suite for the dynamic-network engine (`dchurn`): after
//! every epoch the repaired matching is valid and meets its
//! algorithm's stated bound on the *current* graph, repair is
//! bit-identical between one-chunk and forced k-chunk rounds (the
//! repair protocol sleeps through quiet rounds — churn rewires and
//! message arrivals are its only wake-ups, so this suite exercises
//! every wake path: rewire dirty sets, mail, and re-asserted sleep,
//! under the judge that switches the frontier representation), and
//! repair beats full recompute at low churn (the E15 claim, asserted
//! at test scale).

use distributed_matching::dchurn::{ChurnModel, DynEngine, MutationBatch, RepairAlgo};
use distributed_matching::dgraph::generators::random::gnp;
use distributed_matching::dgraph::{blossom, Graph};
use simnet::ExecCfg;

#[test]
fn maximal_repair_holds_after_every_epoch_for_all_models() {
    for (seed, model) in [
        (1u64, ChurnModel::EdgeChurn { rate: 0.05 }),
        (2, ChurnModel::EdgeChurn { rate: 0.15 }),
        (
            3,
            ChurnModel::NodeChurn {
                rate: 0.06,
                degree: 5,
            },
        ),
        (4, ChurnModel::Rewire { rate: 0.1 }),
    ] {
        let g = gnp(220, 6.0 / 220.0, seed);
        let mut eng = DynEngine::new(g, model, RepairAlgo::IncrementalMaximal, seed + 50);
        let boot = eng.bootstrap().clone();
        assert!(boot.maximal);
        for epoch in 0..10 {
            let rep = eng.step_epoch().clone();
            assert!(rep.maximal, "model {model:?}, epoch {epoch}: not maximal");
            // Valid + maximal ⇒ the ½-MCM bound on the *current* graph.
            assert!(eng.matching().validate(eng.graph()).is_ok());
            assert!(eng.matching().is_maximal(eng.graph()));
            let opt = blossom::max_matching(eng.graph()).size();
            assert!(
                2 * eng.matching().size() >= opt,
                "model {model:?}, epoch {epoch}: below ½-MCM"
            );
            // The protocol's distributed liveness knowledge matches
            // ground truth at every epoch boundary.
            assert!(
                eng.check_liveness_invariant(),
                "model {model:?}, epoch {epoch}: stale liveness flags"
            );
        }
    }
}

#[test]
fn generic_repair_meets_its_bound_on_the_current_graph() {
    for k in [2usize, 3] {
        let g = gnp(70, 0.07, 9);
        let mut eng = DynEngine::new(
            g,
            ChurnModel::EdgeChurn { rate: 0.08 },
            RepairAlgo::IncrementalGeneric { k },
            33,
        );
        eng.bootstrap();
        let bound = 1.0 - 1.0 / (k as f64 + 1.0);
        for epoch in 0..6 {
            eng.step_epoch();
            assert!(eng.matching().validate(eng.graph()).is_ok());
            let opt = blossom::max_matching(eng.graph()).size();
            assert!(
                opt == 0 || eng.matching().size() as f64 >= bound * opt as f64 - 1e-9,
                "k={k}, epoch {epoch}: ratio {} < {bound}",
                eng.matching().size() as f64 / opt as f64
            );
        }
    }
}

#[test]
fn repair_is_bit_identical_across_executors() {
    let run = |cfg: ExecCfg| {
        let g = gnp(260, 7.0 / 260.0, 12);
        let mut eng = DynEngine::with_cfg(
            g,
            ChurnModel::EdgeChurn { rate: 0.06 },
            RepairAlgo::IncrementalMaximal,
            77,
            cfg,
        );
        eng.bootstrap();
        for _ in 0..8 {
            eng.step_epoch();
        }
        let mates = eng.matching().mates().to_vec();
        let costs: Vec<(u64, u64, u64, u64, usize)> = eng
            .reports
            .iter()
            .map(|r| (r.epoch, r.rounds, r.messages, r.bits, r.woken))
            .collect();
        (mates, costs)
    };
    // Forced: repair rounds are damage-local, so the fan-out floor
    // would run every one of them as a single chunk.
    let (m1, c1) = run(ExecCfg::sequential());
    for threads in [2, 8] {
        let (m, c) = run(ExecCfg::parallel(threads).forced());
        assert_eq!(m1, m, "matchings diverged at {threads} threads");
        assert_eq!(c1, c, "per-epoch costs diverged at {threads} threads");
    }
}

#[test]
fn sparse_repair_steps_few_nodes_for_local_damage() {
    // The activity-driven scheduler's core claim at the engine level:
    // repairing one churned edge on a large cycle must *step* O(damage
    // ball) nodes per round after the sync round, not O(n). (Messages
    // were always local; node steps are what the sparse plane makes
    // local too.)
    let n = 400u32;
    let mut edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
    edges.push((n - 1, 0));
    let g = Graph::new(n as usize, edges);
    let mut eng = DynEngine::new(g, ChurnModel::Trace, RepairAlgo::IncrementalMaximal, 5);
    eng.bootstrap();
    let steps_before = eng.net_stats().expect("maximal variant").node_steps;
    let (u, v) = (0..n)
        .find_map(|v| {
            eng.matching()
                .mate(v)
                .filter(|&m| m == v + 1)
                .map(|m| (v, m))
        })
        .expect("some consecutive matched pair");
    let rep = eng
        .step_with(MutationBatch {
            added: vec![],
            removed: vec![(u, v)],
        })
        .clone();
    assert!(rep.maximal);
    let stats = eng.net_stats().expect("maximal variant");
    let epoch_steps = stats.node_steps - steps_before;
    assert!(
        epoch_steps <= 12 * rep.rounds,
        "{epoch_steps} node steps over {} rounds to repair one edge — \
         the sparse plane should keep the per-round active set near the damage",
        rep.rounds
    );
}

#[test]
fn repair_beats_full_recompute_at_low_churn() {
    // The E15 claim at test scale: at ≤5% churn per epoch, repairing
    // costs asymptotically fewer rounds + messages than recomputing.
    let g = gnp(600, 6.0 / 600.0, 21);
    let mut eng = DynEngine::new(
        g,
        ChurnModel::EdgeChurn { rate: 0.05 },
        RepairAlgo::IncrementalMaximal,
        99,
    );
    eng.bootstrap();
    let (mut repair_rounds, mut repair_msgs) = (0u64, 0u64);
    let (mut recompute_rounds, mut recompute_msgs) = (0u64, 0u64);
    for _ in 0..8 {
        let rep = eng.step_epoch().clone();
        repair_rounds += rep.rounds;
        repair_msgs += rep.messages;
        let (fresh, stats) = eng.recompute_baseline();
        assert!(fresh.is_maximal(eng.graph()));
        recompute_rounds += stats.rounds;
        recompute_msgs += stats.messages;
    }
    assert!(
        2 * repair_msgs < recompute_msgs,
        "repair sent {repair_msgs} messages vs {recompute_msgs} for recompute"
    );
    assert!(
        repair_rounds < recompute_rounds,
        "repair used {repair_rounds} rounds vs {recompute_rounds} for recompute"
    );
}

#[test]
fn repair_stays_local_and_trace_replay_is_exact() {
    // Deterministic trace on a long cycle: churn one matched edge far
    // from everything else; repair must stay in a small ball and the
    // rest of the matching must be untouched.
    let n = 300u32;
    let mut edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
    edges.push((n - 1, 0));
    let g = Graph::new(n as usize, edges);
    let mut eng = DynEngine::new(g, ChurnModel::Trace, RepairAlgo::IncrementalMaximal, 5);
    eng.bootstrap();
    let before = eng.matching().clone();
    let (u, v) = (0..n)
        .find_map(|v| {
            eng.matching()
                .mate(v)
                .filter(|&m| m == v + 1)
                .map(|m| (v, m))
        })
        .expect("some consecutive matched pair");
    let rep = eng
        .step_with(MutationBatch {
            added: vec![],
            removed: vec![(u, v)],
        })
        .clone();
    assert!(rep.maximal);
    assert_eq!(rep.invalidated, 1);
    if let Some(r) = rep.locality_radius {
        assert!(r <= 8, "repair wandered {r} hops from one lost edge");
    }
    assert!(
        rep.woken <= 24,
        "{} nodes spoke to repair one lost edge on a cycle",
        rep.woken
    );
    // Far from the damage the matching is bitwise untouched.
    let far = |x: u32| {
        let d = x.abs_diff(u).min(n - x.abs_diff(u));
        d > 20
    };
    for x in (0..n).filter(|&x| far(x)) {
        assert_eq!(
            eng.matching().mate(x),
            before.mate(x),
            "node {x} far from damage changed its mate"
        );
    }
    // Replaying the identical trace reproduces the identical run.
    let mut eng2 = DynEngine::new(
        Graph::new(n as usize, {
            let mut e: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
            e.push((n - 1, 0));
            e
        }),
        ChurnModel::Trace,
        RepairAlgo::IncrementalMaximal,
        5,
    );
    eng2.bootstrap();
    eng2.step_with(MutationBatch {
        added: vec![],
        removed: vec![(u, v)],
    });
    assert_eq!(eng.matching().mates(), eng2.matching().mates());
}

#[test]
fn empty_and_degenerate_graphs_survive_epochs() {
    for g in [Graph::new(0, vec![]), Graph::new(5, vec![])] {
        let n = g.n();
        let mut eng = DynEngine::new(
            g,
            ChurnModel::EdgeChurn { rate: 0.5 },
            RepairAlgo::IncrementalMaximal,
            1,
        );
        let boot = eng.bootstrap().clone();
        assert_eq!(boot.matching_size, 0);
        for _ in 0..3 {
            let rep = eng.step_epoch().clone();
            assert!(rep.maximal);
            assert_eq!(eng.graph().n(), n);
        }
    }
}
