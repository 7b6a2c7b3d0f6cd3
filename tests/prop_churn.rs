//! Property suite for the dynamic-network engine (`dchurn`): after
//! every epoch the repaired matching is valid and meets its
//! algorithm's stated bound on the *current* graph, repair is
//! bit-identical between one-chunk rounds and forced k-chunk dense
//! rounds (the repair protocol sleeps through quiet rounds — churn rewires and
//! message arrivals are its only wake-ups, so this suite exercises
//! every wake path: rewire dirty sets, mail, and re-asserted sleep,
//! under the judge that switches the frontier representation), and
//! repair beats full recompute at low churn (the E15 claim, asserted
//! at test scale). A golden table pins every epoch's cost, damage,
//! locality and matching size, and the final matching, under every
//! churn model.

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

/// The engine's repair node and the session's node wrap one Israeli–Itai
/// iteration, so from the empty matching they are one process: the
/// bootstrap from seed `s` sends a session run's messages from seed `s`
/// round for round, one sync round later, falls silent where the
/// session ends, and leaves the same matching.
#[test]
fn bootstrap_replays_the_session_israeli_itai_run() {
    use distributed_matching::dgraph::generators::random::barabasi_albert;
    use distributed_matching::dgraph::generators::zoo::{chung_lu, d_regular, random_geometric};
    use distributed_matching::Session;
    let n = 300;
    let sent =
        |s: &simnet::NetStats| -> Vec<u64> { s.per_round.iter().map(|t| t.messages).collect() };
    for seed in 0..5u64 {
        let zoo = [
            ("gnp", gnp(n, 0.02, seed)),
            ("ba", barabasi_albert(n, 2, seed)),
            ("chung-lu", chung_lu(n, 2.5, 4.0, seed)),
            ("geometric", random_geometric(n, 0.09, seed)),
            ("3-regular", d_regular(n, 3, seed)),
        ];
        for (family, g) in zoo {
            let run = Session::on(&g).seed(seed).build().run_to_completion();
            let mut eng =
                DynEngine::new(g, ChurnModel::Trace, RepairAlgo::IncrementalMaximal, seed);
            let boot = eng.bootstrap().clone();
            let case = format!("{family}, seed {seed}");
            assert_eq!(*eng.matching(), run.matching, "{case}: matchings differ");
            assert_eq!(
                (boot.messages, boot.bits),
                (run.stats.messages, run.stats.bits),
                "{case}: traffic differs"
            );
            let (boot_sent, run_sent) = (
                sent(eng.net_stats().expect("maximal arm")),
                sent(&run.stats),
            );
            let tail = 1 + run_sent.len();
            assert!(
                boot_sent.len() >= tail,
                "{case}: the bootstrap stopped early"
            );
            assert_eq!(boot_sent[0], 0, "{case}: the bootstrap's sync round spoke");
            assert_eq!(
                boot_sent[1..tail],
                run_sent[..],
                "{case}: per-round traffic differs"
            );
            assert!(
                boot_sent[tail..].iter().all(|&m| m == 0),
                "{case}: the bootstrap spoke after the session ended"
            );
        }
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

/// One epoch of the golden table: rounds, messages, bits, iterations,
/// damage (`None` where the table does not pin it), woken nodes,
/// locality radius, matching size.
type GoldenRow = (
    u64,
    u64,
    u64,
    u64,
    Option<usize>,
    usize,
    Option<usize>,
    usize,
);

/// FNV-1a over the mate array: pins the final matching itself, not
/// just its size.
fn mate_hash(mates: &[u32]) -> u64 {
    mates.iter().fold(0xcbf2_9ce4_8422_2325, |h, &m| {
        (h ^ u64::from(m)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Run one golden case for 6 churn epochs after the bootstrap.
fn golden_run(
    g: Graph,
    model: ChurnModel,
    algo: RepairAlgo,
    seed: u64,
    cfg: ExecCfg,
) -> (Vec<GoldenRow>, u64) {
    let pin_damage = algo == RepairAlgo::IncrementalMaximal;
    let mut eng = DynEngine::with_cfg(g, model, algo, seed, cfg);
    eng.bootstrap();
    for _ in 0..6 {
        eng.step_epoch();
    }
    let rows = eng
        .reports
        .iter()
        .map(|r| {
            (
                r.rounds,
                r.messages,
                r.bits,
                r.iterations,
                pin_damage.then_some(r.damage),
                r.woken,
                r.locality_radius,
                r.matching_size,
            )
        })
        .collect();
    (rows, mate_hash(eng.matching().mates()))
}

/// The golden table: every case's per-epoch rows (bootstrap first) and
/// the hash of its final mate array. The host-side epoch bookkeeping
/// (graph and topology patches, slab migration, termination test,
/// matching update, radius search, the generic arm's session rewire)
/// must leave it unchanged under both executors.
#[rustfmt::skip]
const GOLDEN: &[(&str, u64, &[GoldenRow])] = &[
    ("gnp/edge", 0x14a248c33b03acad, &[(26, 895, 1790, 8, Some(150), 148, None, 66), (2, 38, 76, 0, Some(39), 35, Some(0), 66), (11, 65, 130, 3, Some(43), 37, Some(1), 65), (8, 196, 392, 2, Some(47), 49, Some(1), 64), (17, 78, 156, 5, Some(42), 39, Some(1), 64), (8, 124, 248, 2, Some(41), 43, Some(1), 64), (14, 79, 158, 4, Some(43), 39, Some(1), 63)]),
    ("ba/edge", 0x57eb3d7f73306767, &[(29, 868, 1736, 9, Some(150), 142, None, 61), (17, 149, 298, 5, Some(44), 43, Some(1), 63), (5, 94, 188, 1, Some(42), 37, Some(0), 64), (8, 152, 304, 2, Some(46), 48, Some(1), 63), (8, 155, 310, 2, Some(48), 46, Some(1), 62), (17, 126, 252, 5, Some(42), 44, Some(1), 65), (11, 166, 332, 3, Some(45), 48, Some(1), 65)]),
    ("gnp/node", 0x2c50f243d0ef5f80, &[(17, 864, 1728, 5, Some(150), 144, None, 65), (14, 39, 78, 4, Some(12), 7, Some(1), 61), (8, 121, 242, 2, Some(46), 36, Some(1), 59), (29, 139, 278, 9, Some(44), 41, Some(1), 61), (17, 142, 284, 5, Some(47), 42, Some(1), 62), (20, 140, 280, 6, Some(47), 39, Some(1), 62), (20, 138, 276, 6, Some(47), 41, Some(1), 62)]),
    ("ba/node", 0x90c2ca167d0d9c00, &[(23, 902, 1804, 7, Some(150), 138, None, 61), (5, 62, 124, 1, Some(10), 9, Some(1), 60), (11, 265, 530, 3, Some(46), 42, Some(1), 61), (26, 157, 314, 8, Some(45), 40, Some(1), 63), (8, 66, 132, 2, Some(45), 35, Some(1), 60), (20, 102, 204, 6, Some(43), 38, Some(1), 61), (17, 105, 210, 5, Some(44), 37, Some(1), 62)]),
    ("gnp/hub", 0x9a3900022d7d02b5, &[(23, 887, 1774, 7, Some(150), 148, None, 66), (5, 19, 38, 1, Some(6), 4, Some(1), 64), (26, 37, 74, 8, Some(21), 16, Some(0), 62), (8, 55, 110, 2, Some(21), 18, Some(1), 62), (14, 55, 110, 4, Some(20), 16, Some(1), 61), (11, 49, 98, 3, Some(21), 18, Some(1), 61), (14, 52, 104, 4, Some(20), 19, Some(1), 61)]),
    ("ba/hub", 0x168063ef959d5d0, &[(20, 865, 1730, 6, Some(150), 140, None, 58), (17, 39, 78, 5, Some(6), 6, Some(1), 58), (20, 64, 128, 6, Some(21), 21, Some(1), 61), (8, 44, 88, 2, Some(20), 16, Some(0), 60), (5, 33, 66, 1, Some(20), 16, Some(0), 60), (17, 36, 72, 5, Some(21), 17, Some(0), 59), (8, 48, 96, 2, Some(21), 19, Some(1), 60)]),
    ("gnp/rewire", 0x6714bccdd16025bb, &[(23, 902, 1804, 7, Some(150), 148, None, 69), (14, 305, 610, 4, Some(58), 63, Some(1), 69), (8, 120, 240, 2, Some(56), 55, Some(1), 68), (17, 160, 320, 5, Some(57), 57, Some(1), 69), (11, 184, 368, 3, Some(53), 54, Some(1), 67), (26, 188, 376, 8, Some(49), 50, Some(1), 69), (11, 153, 306, 3, Some(58), 56, Some(0), 69)]),
    ("ba/rewire", 0x8438c038e09b9b76, &[(29, 874, 1748, 9, Some(150), 140, None, 58), (8, 147, 294, 2, Some(55), 49, Some(1), 59), (14, 209, 418, 4, Some(57), 57, Some(1), 61), (11, 128, 256, 3, Some(51), 46, Some(1), 60), (23, 143, 286, 7, Some(59), 55, Some(1), 63), (8, 154, 308, 2, Some(58), 60, Some(1), 64), (11, 124, 248, 3, Some(58), 52, Some(1), 64)]),
    ("gnp/crash", 0x8389c5bf008f1c2c, &[(20, 855, 1710, 6, Some(150), 143, None, 64), (17, 101, 202, 5, Some(24), 15, Some(1), 57), (8, 109, 218, 2, Some(53), 43, Some(1), 55), (20, 191, 382, 6, Some(79), 61, Some(0), 57), (14, 158, 316, 4, Some(68), 54, Some(1), 55), (17, 150, 300, 5, Some(52), 45, Some(1), 57), (14, 234, 468, 4, Some(69), 59, Some(0), 59)]),
    ("ba/crash", 0xe926edfc71149ac7, &[(26, 859, 1718, 8, Some(150), 142, None, 57), (8, 138, 276, 2, Some(18), 19, Some(1), 56), (29, 233, 466, 9, Some(74), 60, Some(1), 53), (11, 162, 324, 3, Some(76), 58, Some(1), 50), (17, 275, 550, 5, Some(82), 67, Some(1), 51), (14, 242, 484, 4, Some(73), 67, Some(1), 55), (8, 118, 236, 2, Some(62), 53, Some(0), 57)]),
    ("gnp/edge/generic", 0xd60ee6c3089defef, &[(23, 2125, 3081859, 2, None, 0, None, 28), (15, 1902, 2940264, 2, None, 0, None, 28), (17, 1897, 2996791, 2, None, 0, None, 29), (15, 1819, 2986708, 2, None, 0, None, 27), (15, 1809, 2980908, 2, None, 0, None, 27), (20, 1893, 3032931, 2, None, 0, None, 28), (18, 1861, 2990725, 2, None, 0, None, 28)]),
    ("gnp/node/generic", 0x66d0b353ed9fc153, &[(20, 2089, 3058225, 2, None, 0, None, 28), (17, 1668, 2580342, 2, None, 0, None, 26), (21, 1621, 2249293, 2, None, 0, None, 27), (14, 1575, 2153037, 2, None, 0, None, 24), (18, 1606, 2248672, 2, None, 0, None, 25), (15, 1666, 2336260, 2, None, 0, None, 27), (17, 1713, 2281752, 2, None, 0, None, 26)]),
    ("gnp/hub/generic", 0x8705b170bbe48adb, &[(24, 2167, 3081994, 2, None, 0, None, 29), (17, 1766, 2460092, 2, None, 0, None, 29), (14, 1674, 2189601, 2, None, 0, None, 28), (17, 1628, 2046284, 2, None, 0, None, 28), (17, 1575, 1898196, 2, None, 0, None, 28), (17, 1562, 1739252, 2, None, 0, None, 28), (14, 1567, 1672573, 2, None, 0, None, 27)]),
    ("gnp/rewire/generic", 0x5f4e1241be588ca7, &[(23, 2151, 3119829, 2, None, 0, None, 27), (17, 1915, 2985709, 2, None, 0, None, 27), (18, 1921, 2986279, 2, None, 0, None, 27), (18, 1906, 2956576, 2, None, 0, None, 29), (18, 1819, 2940475, 2, None, 0, None, 29), (15, 1770, 2925612, 2, None, 0, None, 29), (14, 1778, 2922059, 2, None, 0, None, 29)]),
    ("gnp/crash/generic", 0x835d545e33f7632, &[(24, 2056, 3056983, 2, None, 0, None, 28), (18, 1270, 1279939, 2, None, 0, None, 23), (18, 1326, 1317984, 2, None, 0, None, 22), (17, 1567, 2090539, 2, None, 0, None, 24), (15, 1669, 2345626, 2, None, 0, None, 26), (18, 1576, 2085571, 2, None, 0, None, 26), (17, 1500, 1781700, 2, None, 0, None, 25)]),
];

#[test]
fn churn_golden_table() {
    use distributed_matching::dgraph::generators::random::barabasi_albert;
    use simnet::FaultPlan;
    let crash = ChurnModel::Crash {
        plan: FaultPlan::NONE.with_crash(0.05, 3),
        rounds_per_epoch: 2,
    };
    let models = [
        ("edge", ChurnModel::EdgeChurn { rate: 0.05 }),
        (
            "node",
            ChurnModel::NodeChurn {
                rate: 0.05,
                degree: 4,
            },
        ),
        (
            "hub",
            ChurnModel::HubChurn {
                rate: 0.02,
                degree: 4,
            },
        ),
        ("rewire", ChurnModel::Rewire { rate: 0.08 }),
        ("crash", crash),
    ];
    let mut cases: Vec<(String, Graph, ChurnModel, RepairAlgo)> = Vec::new();
    for (name, model) in models {
        let maximal = RepairAlgo::IncrementalMaximal;
        cases.push((
            format!("gnp/{name}"),
            gnp(150, 6.0 / 150.0, 3),
            model,
            maximal,
        ));
        cases.push((
            format!("ba/{name}"),
            barabasi_albert(150, 3, 4),
            model,
            maximal,
        ));
    }
    cases.push((
        "gnp/edge/generic".into(),
        gnp(60, 0.08, 5),
        ChurnModel::EdgeChurn { rate: 0.06 },
        RepairAlgo::IncrementalGeneric { k: 2 },
    ));
    // The generic arm under the other churn models: batches that only
    // remove edges (a node leaving, a hub or a node crashing) leave a
    // damage set made of destroyed matched edges alone.
    for (name, model) in &models[1..] {
        cases.push((
            format!("gnp/{name}/generic"),
            gnp(60, 0.08, 5),
            *model,
            RepairAlgo::IncrementalGeneric { k: 2 },
        ));
    }
    assert_eq!(cases.len(), GOLDEN.len());
    for (i, ((name, g, model, algo), &(want_name, want_hash, want_rows))) in
        cases.into_iter().zip(GOLDEN).enumerate()
    {
        assert_eq!(name, want_name);
        let seed = 40 + i as u64;
        for cfg in [ExecCfg::sequential(), ExecCfg::parallel(3).forced()] {
            let (rows, hash) = golden_run(g.clone(), model, algo, seed, cfg);
            assert_eq!(
                rows, want_rows,
                "{name} under {cfg:?}: per-epoch rows moved"
            );
            assert_eq!(
                hash, want_hash,
                "{name} under {cfg:?}: final matching moved"
            );
        }
    }
}
