//! The `Session` contract suite: a golden table pinning every
//! `Algorithm` variant's outputs in both termination modes, the
//! observer plane (mid-run snapshots), Honest termination across all
//! variants, executor independence of the ParClass box, and the
//! `RunReport` optimum cache.

use distributed_matching::dgraph::generators::random::{bipartite_gnp, gnp};
use distributed_matching::dgraph::generators::weights::{apply_weights, WeightModel};
use distributed_matching::dgraph::Graph;
use distributed_matching::dmatch::weighted::MwmBox;
use distributed_matching::dmatch::TerminationMode::{Honest, Oracle};
use distributed_matching::dmatch::{Algorithm, Phase, Session, TerminationMode};
use distributed_matching::simnet::ExecCfg;

/// Every `Algorithm` variant (both termination-relevant `Weighted`
/// boxes included; `Bipartite` needs the sides of `bipartite_case`).
fn all_algorithms() -> Vec<Algorithm> {
    vec![
        Algorithm::IsraeliItai,
        Algorithm::Generic { k: 2 },
        Algorithm::Generic { k: 3 },
        Algorithm::Bipartite { k: 2 },
        Algorithm::General {
            k: 2,
            early_stop: Some(8),
        },
        Algorithm::Weighted {
            epsilon: 0.25,
            mwm_box: MwmBox::SeqClass,
        },
        Algorithm::Weighted {
            epsilon: 0.25,
            mwm_box: MwmBox::ParClass,
        },
        Algorithm::DeltaMwm {
            mwm_box: MwmBox::LocalDominant,
        },
    ]
}

fn needs_weights(alg: &Algorithm) -> bool {
    matches!(alg, Algorithm::Weighted { .. } | Algorithm::DeltaMwm { .. })
}

/// (graph, sides) for one test case; weighted algorithms get weights.
/// Graphs are *connected* (Honest mode runs a convergecast over the
/// whole topology).
fn case(alg: &Algorithm, seed: u64) -> (Graph, Option<Vec<bool>>) {
    if matches!(alg, Algorithm::Bipartite { .. }) {
        let (g, sides) = (0..)
            .map(|i| bipartite_gnp(10, 11, 0.4, seed + 1000 * i))
            .find(|(g, _)| g.components() == 1)
            .expect("a connected bipartite sample exists");
        (g, Some(sides))
    } else {
        let g = (0..)
            .map(|i| gnp(22, 0.22, seed + 1000 * i))
            .find(|g| g.components() == 1)
            .expect("a connected sample exists");
        if needs_weights(alg) {
            (
                apply_weights(&g, WeightModel::Uniform(0.5, 4.0), seed + 9),
                None,
            )
        } else {
            (g, None)
        }
    }
}

fn session_run(
    g: &Graph,
    sides: Option<&[bool]>,
    alg: Algorithm,
    seed: u64,
    termination: TerminationMode,
    cfg: ExecCfg,
) -> distributed_matching::dmatch::RunReport {
    let mut b = Session::on(g)
        .algorithm(alg)
        .seed(seed)
        .termination(termination)
        .exec(cfg);
    if let Some(sides) = sides {
        b = b.sides(sides);
    }
    b.build().run_to_completion()
}

/// One golden row: `(algorithm label, termination, matched edge ids,
/// rounds, messages, bits, max_msg_bits, oracle_checks)`.
type Golden = (
    &'static str,
    TerminationMode,
    &'static [u32],
    u64,
    u64,
    u64,
    u64,
    u64,
);

/// `Session` outputs at seed 3 on `case(alg, 3)`: one row per
/// `all_algorithms()` variant × {Oracle, Honest}, in that order. Each
/// driver arm is the only implementation of its algorithm's phase loop,
/// so these recorded values are what catches a silent change to its
/// matching, its accounting, or its seed derivations.
#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    ("israeli-itai", Oracle, &[0, 13, 31, 8, 27, 25, 53, 18, 46, 51], 13, 118, 236, 2, 5),
    ("israeli-itai", Honest, &[0, 13, 31, 8, 27, 25, 53, 18, 46, 51], 68, 1048, 16466, 67, 5),
    ("generic(k=2)", Oracle, &[7, 36, 22, 31, 26, 15, 25, 53, 18, 46, 50], 19, 729, 729040, 2803, 3),
    ("generic(k=2)", Honest, &[7, 36, 22, 31, 26, 15, 25, 53, 18, 46, 50], 52, 1287, 738778, 2803, 3),
    ("generic(k=3)", Oracle, &[7, 36, 22, 31, 26, 15, 25, 53, 18, 46, 50], 35, 1156, 1185236, 2803, 3),
    ("generic(k=3)", Honest, &[7, 36, 22, 31, 26, 15, 25, 53, 18, 46, 50], 68, 1714, 1194974, 2803, 3),
    ("bipartite(k=2)", Oracle, &[0, 6, 11, 13, 18, 20, 22, 25, 28, 30], 16, 60, 1386, 98, 4),
    ("bipartite(k=2)", Honest, &[0, 6, 11, 13, 18, 20, 22, 25, 28, 30], 84, 500, 12946, 98, 4),
    ("general(k=2)", Oracle, &[3, 23, 22, 31, 8, 49, 21, 29, 40, 55], 88, 1377, 3609, 98, 11),
    ("general(k=2)", Honest, &[3, 23, 22, 31, 8, 49, 21, 29, 40, 55], 209, 3423, 39315, 98, 11),
    ("weighted(\u{3b5}=0.25, box=SeqClass)", Oracle, &[20, 4, 13, 44, 8, 25, 28, 32, 54, 52], 73, 1615, 95198, 64, 13),
    ("weighted(\u{3b5}=0.25, box=SeqClass)", Honest, &[20, 4, 13, 44, 8, 25, 28, 32, 54, 52], 216, 4033, 137396, 67, 13),
    ("weighted(\u{3b5}=0.25, box=ParClass)", Oracle, &[35, 4, 13, 44, 8, 25, 28, 32, 54, 50], 122, 3019, 183386, 64, 25),
    ("weighted(\u{3b5}=0.25, box=ParClass)", Honest, &[35, 4, 13, 44, 8, 25, 28, 32, 54, 50], 397, 7669, 264536, 67, 25),
    ("delta-mwm(LocalDominant)", Oracle, &[35, 4, 13, 44, 8, 25, 28, 32, 54, 50], 9, 121, 121, 1, 1),
    ("delta-mwm(LocalDominant)", Honest, &[35, 4, 13, 44, 8, 25, 28, 32, 54, 50], 20, 307, 3367, 67, 1),
];

/// Every driver arm against the golden table: the matching, rounds,
/// messages, bits, largest message, and oracle checks, in both
/// termination modes.
#[test]
fn session_outputs_match_golden_table() {
    let mut golden = GOLDEN.iter();
    for alg in all_algorithms() {
        let (g, sides) = case(&alg, 3);
        for termination in [Oracle, Honest] {
            let r = session_run(
                &g,
                sides.as_deref(),
                alg,
                3,
                termination,
                ExecCfg::default(),
            );
            let edges = r.matching.edge_ids(&g);
            let got = (
                r.name.as_str(),
                termination,
                &edges[..],
                r.stats.rounds,
                r.stats.messages,
                r.stats.bits,
                r.stats.max_msg_bits,
                r.oracle_checks,
            );
            let want = *golden.next().expect("one golden row per variant and mode");
            assert_eq!(got, want, "{alg}/{termination}: Session output drifted");
        }
    }
    assert!(golden.next().is_none(), "golden rows without a variant");
}

/// Acceptance test: observer-driven mid-run snapshots show the
/// matching ratio monotonically improving for `Generic { k }` without
/// consuming the run — and the final result is unchanged by observing.
#[test]
fn midrun_snapshots_show_monotone_ratio_without_consuming() {
    let k = 4;
    let g = gnp(40, 0.12, 21);
    let opt = distributed_matching::dgraph::blossom::max_matching(&g)
        .size()
        .max(1);
    let mut sess = Session::on(&g)
        .algorithm(Algorithm::Generic { k })
        .seed(2)
        .build();
    let mut ratios = Vec::new();
    loop {
        match sess.step() {
            Phase::Ran(info) => {
                let snap = sess.snapshot();
                assert_eq!(snap.matching.size(), info.matching_size);
                assert!(snap.matching.validate(&g).is_ok());
                ratios.push(snap.matching.size() as f64 / opt as f64);
            }
            Phase::Done => break,
            Phase::Aborted => unreachable!("no aborting observer attached"),
        }
    }
    assert_eq!(ratios.len(), k, "one snapshot per phase");
    assert!(
        ratios.windows(2).all(|w| w[1] >= w[0]),
        "ratio must improve monotonically: {ratios:?}"
    );
    assert!(*ratios.last().unwrap() >= 1.0 - 1.0 / (k as f64 + 1.0) - 1e-9);
    // Snapshots consumed nothing: the run equals an unobserved one.
    let oneshot = Session::on(&g)
        .algorithm(Algorithm::Generic { k })
        .seed(2)
        .build()
        .run_to_completion();
    assert_eq!(&oneshot.matching, sess.matching());
    assert_eq!(&oneshot.stats, sess.stats());
}

/// Satellite: `TerminationMode::Honest` across *all* algorithm
/// variants — every run performs oracle checks, and honest charging
/// can only add rounds (strictly, on these connected-enough graphs).
#[test]
fn honest_mode_charges_every_algorithm() {
    for alg in all_algorithms() {
        let (g, sides) = case(&alg, 9);
        let sides_ref = sides.as_deref();
        let oracle = session_run(
            &g,
            sides_ref,
            alg,
            4,
            TerminationMode::Oracle,
            ExecCfg::default(),
        );
        let honest = session_run(
            &g,
            sides_ref,
            alg,
            4,
            TerminationMode::Honest,
            ExecCfg::default(),
        );
        assert!(honest.oracle_checks > 0, "{alg}: no oracle checks counted");
        assert_eq!(honest.oracle_checks, oracle.oracle_checks);
        assert!(
            honest.stats.rounds >= oracle.stats.rounds,
            "{alg}: honest {} < oracle {}",
            honest.stats.rounds,
            oracle.stats.rounds
        );
        assert!(
            honest.stats.rounds > oracle.stats.rounds || g.n() == 0,
            "{alg}: honest mode must charge convergecasts"
        );
        assert_eq!(
            honest.matching, oracle.matching,
            "{alg}: termination charging must not change the result"
        );
    }
}

/// Satellite: the ParClass box routes the caller's `ExecCfg` into every
/// per-class network — results are bit-identical across worker-thread
/// counts (forced, so the per-class networks really run in k chunks).
#[test]
fn parclass_box_threads_exec_cfg() {
    let g = apply_weights(&gnp(24, 0.2, 13), WeightModel::Exponential(1.5), 14);
    let alg = Algorithm::DeltaMwm {
        mwm_box: MwmBox::ParClass,
    };
    let base = session_run(
        &g,
        None,
        alg,
        6,
        TerminationMode::Oracle,
        ExecCfg::sequential(),
    );
    for threads in [2, 8] {
        let cfg = ExecCfg::parallel(threads).forced();
        let other = session_run(&g, None, alg, 6, TerminationMode::Oracle, cfg);
        assert_eq!(base.matching, other.matching);
        assert_eq!(base.stats, other.stats);
    }
}

/// The cached blossom optimum: repeated ratio queries agree, and the
/// underlying solver runs only once (observable as stable identity of
/// the result; the panic-on-different-graph guard has its own test).
#[test]
fn run_report_caches_the_optimum() {
    let g = gnp(30, 0.15, 44);
    let r = session_run(
        &g,
        None,
        Algorithm::IsraeliItai,
        1,
        TerminationMode::Oracle,
        ExecCfg::default(),
    );
    let first = r.mcm_ratio(&g);
    for _ in 0..100 {
        assert_eq!(r.mcm_ratio(&g), first);
    }
    assert_eq!(
        r.mcm_opt(&g),
        distributed_matching::dgraph::blossom::max_matching(&g).size()
    );
}

#[test]
#[should_panic(expected = "different graph")]
fn run_report_cache_rejects_equal_sized_rewired_graph() {
    // Degree-preserving rewiring keeps (n, m); the cache tag must
    // still notice the edge list changed.
    let g = Graph::new(4, vec![(0, 1), (2, 3)]);
    let r = session_run(
        &g,
        None,
        Algorithm::IsraeliItai,
        1,
        TerminationMode::Oracle,
        ExecCfg::default(),
    );
    let _ = r.mcm_opt(&g);
    let rewired = Graph::new(4, vec![(0, 2), (1, 3)]);
    let _ = r.mcm_opt(&rewired);
}

#[test]
#[should_panic(expected = "different graph")]
fn run_report_cache_rejects_a_different_graph() {
    let g = gnp(30, 0.15, 44);
    let r = session_run(
        &g,
        None,
        Algorithm::IsraeliItai,
        1,
        TerminationMode::Oracle,
        ExecCfg::default(),
    );
    let _ = r.mcm_ratio(&g);
    let other = gnp(31, 0.15, 45);
    let _ = r.mcm_ratio(&other);
}
