//! Fault injection: the paper's model is synchronous and fault-free,
//! so liveness under faults is out of scope — but *safety* must
//! survive: no protocol may ever output conflicting matched pairs.
//!
//! These tests drive every `Algorithm` variant through the unified
//! adversary plane (a `FaultPlan` in the session's `ExecCfg`) and check
//! that
//!
//! * the output is a valid matching under message drop, bounded delay,
//!   partial delivery, and crash-stop node faults;
//! * fixed-window lossy Israeli–Itai (`round_limit` under
//!   `FaultPlan::drop`) reproduces the pre-adversary implementation
//!   bit-for-bit (golden values);
//! * strict CONGEST enforcement catches real over-budget algorithms,
//!   while degrade mode completes the same configuration and accounts
//!   the overflow in `NetStats::deferred_bits`.

use distributed_matching::dgraph::generators::random::{bipartite_gnp, gnp};
use distributed_matching::dgraph::generators::structured::complete;
use distributed_matching::dgraph::generators::weights::{apply_weights, WeightModel};
use distributed_matching::dgraph::{Graph, Matching};
use distributed_matching::dmatch::weighted::MwmBox;
use distributed_matching::dmatch::{Algorithm, RunReport, Session};
use distributed_matching::simnet::{Budget, ExecCfg, FaultPlan};

// ---------------------------------------------------------------------
// Fixed-window lossy Israeli–Itai.
// ---------------------------------------------------------------------

/// Israeli–Itai cut off after `rounds` rounds under uniform message
/// `loss`, keeping the agreed pairs: the matching and the drop count.
fn lossy_matching(g: &Graph, seed: u64, rounds: u64, loss: f64) -> (Matching, u64) {
    let report = Session::on(g)
        .exec(ExecCfg::default().with_faults(FaultPlan::drop(loss)))
        .round_limit(rounds)
        .seed(seed)
        .build()
        .run_to_completion();
    (report.matching, report.stats.dropped)
}

#[test]
fn agreed_matching_is_valid_at_every_loss_rate() {
    for &loss in &[0.0, 0.05, 0.2, 0.5, 0.9] {
        for seed in 0..5u64 {
            let g = gnp(40, 0.12, seed);
            let (m, dropped) = lossy_matching(&g, seed, 60, loss);
            assert!(m.validate(&g).is_ok(), "loss {loss} seed {seed}");
            if loss == 0.0 {
                assert_eq!(dropped, 0);
            }
        }
    }
}

#[test]
fn zero_loss_agrees_with_reliable_truncation() {
    let g = gnp(30, 0.15, 7);
    let run = |cfg: ExecCfg| {
        Session::on(&g)
            .exec(cfg)
            .round_limit(30)
            .seed(3)
            .build()
            .run_to_completion()
    };
    let lossless = run(ExecCfg::default().with_faults(FaultPlan::drop(0.0)));
    let reliable = run(ExecCfg::default());
    assert_eq!(lossless.matching, reliable.matching);
    assert_eq!(lossless.stats, reliable.stats);
}

#[test]
fn heavy_loss_still_matches_something_on_dense_graphs() {
    let g = complete(24);
    let (m, dropped) = lossy_matching(&g, 11, 90, 0.3);
    assert!(dropped > 0, "loss must actually trigger");
    assert!(
        m.size() >= 1,
        "a dense graph under 30% loss still pairs nodes"
    );
}

#[test]
fn loss_only_shrinks_never_corrupts() {
    // Monotone safety: every agreed pair is a real edge and each node
    // appears at most once — already enforced by validate(); here we
    // additionally check agreement pairs survive across loss levels
    // qualitatively (sizes weakly decrease in expectation).
    let g = gnp(60, 0.1, 13);
    let mut sizes = Vec::new();
    for &loss in &[0.0, 0.3, 0.8] {
        let mut total = 0usize;
        for seed in 0..6u64 {
            let (m, _) = lossy_matching(&g, seed, 45, loss);
            total += m.size();
        }
        sizes.push(total);
    }
    assert!(
        sizes[0] >= sizes[1] && sizes[1] >= sizes[2],
        "sizes {sizes:?} not decreasing"
    );
}

/// The `lossy_matching` helper must reproduce the retired bespoke
/// implementation **bit-for-bit**: these matchings and drop counts were
/// captured from the pre-adversary lossy Israeli–Itai runner at the
/// seeds this file uses.
#[test]
fn lossy_matching_shim_reproduces_legacy_golden_values() {
    struct Golden {
        g: Graph,
        seed: u64,
        rounds: u64,
        loss: f64,
        edges: &'static [u32],
        dropped: u64,
    }
    let cases = [
        Golden {
            g: gnp(40, 0.12, 0),
            seed: 0,
            rounds: 60,
            loss: 0.2,
            edges: &[
                54, 11, 42, 22, 7, 82, 29, 25, 10, 62, 53, 34, 75, 68, 89, 92,
            ],
            dropped: 40,
        },
        Golden {
            g: gnp(40, 0.12, 3),
            seed: 3,
            rounds: 60,
            loss: 0.5,
            edges: &[16, 42, 37, 72, 15, 89, 31, 62, 79, 68],
            dropped: 162,
        },
        Golden {
            g: gnp(40, 0.12, 4),
            seed: 4,
            rounds: 60,
            loss: 0.9,
            edges: &[76, 39],
            dropped: 351,
        },
        Golden {
            g: gnp(60, 0.1, 13),
            seed: 2,
            rounds: 45,
            loss: 0.3,
            edges: &[
                11, 170, 3, 136, 144, 56, 164, 123, 6, 64, 17, 83, 43, 112, 79, 90, 157, 54, 96,
                86, 122, 153, 178,
            ],
            dropped: 133,
        },
        Golden {
            g: gnp(60, 0.1, 13),
            seed: 5,
            rounds: 45,
            loss: 0.8,
            edges: &[24, 77, 16, 74, 161, 96],
            dropped: 396,
        },
        Golden {
            g: complete(24),
            seed: 11,
            rounds: 90,
            loss: 0.3,
            edges: &[5, 39, 46, 118, 186, 200, 244, 252, 275],
            dropped: 179,
        },
    ];
    for case in &cases {
        let (m, dropped) = lossy_matching(&case.g, case.seed, case.rounds, case.loss);
        assert_eq!(
            m.edge_ids(&case.g),
            case.edges,
            "seed {} loss {}: matching diverged from the legacy implementation",
            case.seed,
            case.loss
        );
        assert_eq!(
            dropped, case.dropped,
            "seed {} loss {}: drop count diverged (drop RNG stream moved)",
            case.seed, case.loss
        );
    }
}

// ---------------------------------------------------------------------
// Adversary plane: every algorithm × every fault class.
// ---------------------------------------------------------------------

/// Every `Algorithm` variant (the same roster as `tests/prop_plane.rs`).
fn algorithms() -> Vec<Algorithm> {
    vec![
        Algorithm::IsraeliItai,
        Algorithm::Generic { k: 2 },
        Algorithm::Bipartite { k: 2 },
        Algorithm::General {
            k: 2,
            early_stop: Some(4),
        },
        Algorithm::Weighted {
            epsilon: 0.25,
            mwm_box: MwmBox::SeqClass,
        },
        Algorithm::Weighted {
            epsilon: 0.25,
            mwm_box: MwmBox::ParClass,
        },
        Algorithm::Weighted {
            epsilon: 0.25,
            mwm_box: MwmBox::LocalDominant,
        },
        Algorithm::DeltaMwm {
            mwm_box: MwmBox::LocalDominant,
        },
    ]
}

/// The satellite fault matrix: drop 20%, delay ≤ 3 rounds, 1%-per-round
/// crash with rejoin, and a kitchen-sink composition.
fn fault_plans() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("drop-0.2", FaultPlan::drop(0.2)),
        ("delay-3", FaultPlan::NONE.with_delay(3)),
        ("crash-1%", FaultPlan::NONE.with_crash(0.01, 6)),
        (
            "combined",
            FaultPlan::drop(0.1)
                .with_delay(2)
                .with_stall(0.1)
                .with_crash(0.01, 4),
        ),
    ]
}

fn run_adversarial(
    g: &Graph,
    sides: Option<&[bool]>,
    alg: Algorithm,
    seed: u64,
    plan: FaultPlan,
) -> RunReport {
    let mut b = Session::on(g)
        .algorithm(alg)
        .seed(seed)
        .exec(ExecCfg::default().with_faults(plan));
    if let Some(sides) = sides {
        b = b.sides(sides);
    }
    b.build().run_to_completion()
}

/// Safety under every fault class, for every algorithm of the paper:
/// the output is always a valid matching (conflicting or phantom pairs
/// never surface), and on a connected graph under these mild plans
/// something is still matched (weak liveness).
#[test]
fn every_algorithm_is_safe_under_every_fault_class() {
    let (gb, sides) = bipartite_gnp(12, 12, 0.3, 5);
    let inputs: Vec<(&str, Graph, Option<Vec<bool>>)> = vec![
        ("gnp", gnp(26, 0.18, 1), None),
        ("bipartite", gb, Some(sides)),
    ];
    for (label, g0, sides) in &inputs {
        for alg in algorithms() {
            if matches!(alg, Algorithm::Bipartite { .. }) && sides.is_none() {
                continue;
            }
            let g = if matches!(alg, Algorithm::Weighted { .. } | Algorithm::DeltaMwm { .. }) {
                apply_weights(g0, WeightModel::Uniform(0.5, 4.0), 9)
            } else {
                g0.clone()
            };
            for (plan_label, plan) in fault_plans() {
                let r = run_adversarial(&g, sides.as_deref(), alg, 17, plan);
                assert!(
                    r.matching.validate(&g).is_ok(),
                    "{label} / {alg:?} / {plan_label}: invalid matching under faults"
                );
                assert!(
                    r.matching.size() >= 1,
                    "{label} / {alg:?} / {plan_label}: nothing matched under a mild plan"
                );
            }
        }
    }
}

/// The fault gauges must reflect what the adversary actually did.
#[test]
fn fault_gauges_account_for_injected_faults() {
    let g = gnp(30, 0.2, 2);
    let r = run_adversarial(&g, None, Algorithm::IsraeliItai, 3, FaultPlan::drop(0.3));
    assert!(r.stats.dropped > 0, "drop plan must drop messages");
    assert_eq!(r.stats.delayed, 0);
    assert_eq!(r.stats.crashed, 0);

    let r = run_adversarial(
        &g,
        None,
        Algorithm::IsraeliItai,
        3,
        FaultPlan::NONE.with_delay(3),
    );
    assert!(r.stats.delayed > 0, "delay plan must park messages");
    assert_eq!(r.stats.dropped, 0);

    let r = run_adversarial(
        &g,
        None,
        Algorithm::IsraeliItai,
        3,
        FaultPlan::NONE.with_crash(0.3, 0),
    );
    assert!(r.stats.crashed > 0, "30%-per-round crashes must trigger");
}

/// A fault-free plan routed through the adversary plane is a no-op:
/// bit-identical to a plain run, all gauges zero.
#[test]
fn inactive_plan_is_bit_identical_to_fault_free() {
    let g = gnp(24, 0.2, 8);
    for alg in [Algorithm::IsraeliItai, Algorithm::Generic { k: 2 }] {
        let plain = Session::on(&g)
            .algorithm(alg)
            .seed(21)
            .build()
            .run_to_completion();
        let planned = run_adversarial(&g, None, alg, 21, FaultPlan::NONE);
        assert_eq!(plain.matching, planned.matching, "{alg:?}");
        assert_eq!(plain.stats, planned.stats, "{alg:?}");
        assert_eq!(planned.stats.dropped, 0);
        assert_eq!(planned.stats.delayed, 0);
        assert_eq!(planned.stats.crashed, 0);
        assert_eq!(planned.stats.deferred_bits, 0);
    }
}

// ---------------------------------------------------------------------
// CONGEST enforcement.
// ---------------------------------------------------------------------

/// Algorithm 1's ball-gathering messages are Θ(ball-size) bits — a real
/// CONGEST violation at a 64-bit budget, and the strict mode catches it
/// (this is the non-vacuity witness: the panic fires from an actual
/// protocol message, not a synthetic one).
#[test]
#[should_panic(expected = "CONGEST")]
fn strict_congest_catches_generic_ball_gathering() {
    let g = gnp(20, 0.25, 3);
    let plan = FaultPlan::NONE.with_budget(Budget::Bits(64)).strict();
    let _ = run_adversarial(&g, None, Algorithm::Generic { k: 2 }, 5, plan);
}

/// A 1-bit budget is below even Israeli–Itai's 2-bit messages.
#[test]
#[should_panic(expected = "CONGEST")]
fn strict_congest_catches_two_bit_messages_on_one_bit_edges() {
    let g = gnp(16, 0.25, 4);
    let plan = FaultPlan::NONE.with_budget(Budget::Bits(1)).strict();
    let _ = run_adversarial(&g, None, Algorithm::IsraeliItai, 5, plan);
}

/// Israeli–Itai's 2-bit messages fit the classical `O(log n)` budget:
/// the strict plan is *survived*, with a result identical to the
/// fault-free run (budget checks draw no RNG).
#[test]
fn israeli_itai_survives_strict_logn_budget() {
    let g = gnp(30, 0.15, 6);
    let plain = Session::on(&g).seed(9).build().run_to_completion();
    let plan = FaultPlan::NONE.with_budget(Budget::LogN(1)).strict();
    let strict = run_adversarial(&g, None, Algorithm::IsraeliItai, 9, plan);
    assert_eq!(plain.matching, strict.matching);
    assert_eq!(strict.stats.deferred_bits, 0);
}

/// Degrade mode completes the exact configuration strict mode panics
/// on: the overflow becomes extra latency, accounted bit-for-bit in
/// `deferred_bits`, and safety still holds.
#[test]
fn degrade_congest_completes_where_strict_panics() {
    let g = gnp(20, 0.25, 3);
    let plan = FaultPlan::NONE.with_budget(Budget::Bits(64));
    let r = run_adversarial(&g, None, Algorithm::Generic { k: 2 }, 5, plan);
    assert!(r.matching.validate(&g).is_ok());
    assert!(
        r.stats.deferred_bits > 0,
        "over-budget bits must be deferred, not teleported"
    );
}
