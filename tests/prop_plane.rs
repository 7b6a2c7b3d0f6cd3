//! Message-plane equivalence suite: one-chunk and k-chunk execution
//! must produce **bit-identical** matchings and full `NetStats`
//! (including the per-round traces, the scheduler and plane gauges)
//! for every algorithm of the paper, across random topology families,
//! with and without fault injection.
//!
//! This is the contract the double-buffered plane was built around:
//! the executor (how many chunks a round is cut into) is unobservable,
//! the round scheduler's judge picks each round's representation from
//! node counts alone, and the fault-injection RNG stream is consumed
//! in a fixed delivery order. Every comparison below is `==` on the
//! whole `NetStats`: no run enables `ExecCfg::timing`, so the
//! wall-clock `timings` registry, the one field outside the contract,
//! stays empty. Threaded configs are `forced()`: the fan-out floor
//! would otherwise run every round of these test-sized graphs as one
//! chunk, and the comparison would be vacuous. Forcing splits the
//! dense rounds; a sparse round is always one chunk.

use distributed_matching::dgraph::generators::random::{bipartite_gnp, gnp, random_tree};
use distributed_matching::dgraph::generators::weights::{apply_weights, WeightModel};
use distributed_matching::dgraph::Graph;
use distributed_matching::dmatch::weighted::MwmBox;
use distributed_matching::dmatch::{Algorithm, RunReport, Session};
use distributed_matching::simnet::{Budget, ExecCfg, FaultPlan};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Serializes the tests that take it: the lossy test swaps the *global*
/// panic hook, which would otherwise silence diagnostics of a sibling
/// test running on another thread.
static HOOK_LOCK: Mutex<()> = Mutex::new(());

type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send>;

/// Restores the previous panic hook on drop, so a panic inside the
/// lossy test cannot leak the silent hook into the rest of the process.
struct HookGuard(Option<PanicHook>);

impl HookGuard {
    fn silence() -> Self {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence expected panics
        HookGuard(Some(prev))
    }
}

impl Drop for HookGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.0.take() {
            std::panic::set_hook(prev);
        }
    }
}

/// All `runner::Algorithm` variants exercised by this suite.
/// `Bipartite` is included only when `sides` exist.
fn algorithms() -> Vec<Algorithm> {
    vec![
        Algorithm::IsraeliItai,
        Algorithm::Generic { k: 2 },
        Algorithm::Bipartite { k: 2 },
        Algorithm::General {
            k: 2,
            early_stop: Some(6),
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

/// Topology zoo: (label, graph, sides if bipartite).
fn topologies() -> Vec<(String, Graph, Option<Vec<bool>>)> {
    let mut out = Vec::new();
    for seed in [1u64, 2, 3] {
        let g = gnp(18 + 2 * seed as usize, 0.18, seed);
        out.push((format!("gnp/{seed}"), g, None));
    }
    for seed in [4u64, 5] {
        let (g, sides) = bipartite_gnp(9, 10, 0.25, seed);
        out.push((format!("bipartite_gnp/{seed}"), g, Some(sides)));
    }
    for seed in [6u64, 7] {
        let g = random_tree(20, seed);
        out.push((format!("tree/{seed}"), g, None));
    }
    out
}

fn applicable(alg: &Algorithm, sides: &Option<Vec<bool>>) -> bool {
    !matches!(alg, Algorithm::Bipartite { .. }) || sides.is_some()
}

fn weighted_input(alg: &Algorithm) -> bool {
    matches!(alg, Algorithm::Weighted { .. } | Algorithm::DeltaMwm { .. })
}

/// Execute one (graph, algorithm, cfg) run, capturing panics so lossy
/// runs that trip an algorithm invariant still compare deterministically
/// between executors. Returns `Ok((matching edges, stats))` or `Err(())`.
#[allow(clippy::type_complexity)]
fn run_caught(
    g: &Graph,
    sides: Option<&[bool]>,
    alg: Algorithm,
    seed: u64,
    cfg: ExecCfg,
) -> Result<(Vec<u32>, distributed_matching::simnet::NetStats), ()> {
    let result = catch_unwind(AssertUnwindSafe(|| {
        let r = session_run(g, sides, alg, seed, cfg);
        (r.matching.edge_ids(g), r.stats)
    }));
    result.map_err(|_| ())
}

/// One unified-driver run (oracle termination, explicit exec knobs).
fn session_run(
    g: &Graph,
    sides: Option<&[bool]>,
    alg: Algorithm,
    seed: u64,
    cfg: ExecCfg,
) -> RunReport {
    let mut b = Session::on(g).algorithm(alg).seed(seed).exec(cfg);
    if let Some(sides) = sides {
        b = b.sides(sides);
    }
    b.build().run_to_completion()
}

#[test]
fn sequential_vs_parallel_bit_identical_all_algorithms() {
    let _serial = HOOK_LOCK.lock().unwrap();
    for (label, g0, sides) in topologies() {
        for alg in algorithms() {
            if !applicable(&alg, &sides) {
                continue;
            }
            let g = if weighted_input(&alg) {
                apply_weights(&g0, WeightModel::Uniform(0.5, 4.0), 11)
            } else {
                g0.clone()
            };
            let sides_ref = sides.as_deref();
            let seq = session_run(&g, sides_ref, alg, 99, ExecCfg::sequential());
            let par = session_run(&g, sides_ref, alg, 99, ExecCfg::parallel(8).forced());
            assert_eq!(
                seq.matching, par.matching,
                "{label} / {}: matchings diverged between executors",
                seq.name
            );
            assert_eq!(
                seq.stats, par.stats,
                "{label} / {}: NetStats diverged between executors",
                seq.name
            );
            assert!(seq.matching.validate(&g).is_ok(), "{label} / {}", seq.name);
        }
    }
}

/// The hub fixture: the executor matrix on a Chung–Lu power-law graph,
/// whose node 0 is a heavy hub. This is the workload the
/// degree-weighted chunker exists for — contiguous equal-count chunks
/// would put the hub's whole port range in one worker — and the matrix
/// asserts that chunking and forced multi-worker execution under the
/// judge stay bit-identical to the sequential reference: same matching,
/// same full `NetStats`.
#[test]
fn chung_lu_hub_scheduler_matrix_bit_identical() {
    let _serial = HOOK_LOCK.lock().unwrap();
    let g0 = distributed_matching::dgraph::generators::zoo::chung_lu(40, 2.2, 4.0, 9);
    let max_deg = (0..40).map(|v| g0.degree(v)).max().unwrap_or(0);
    assert!(
        max_deg >= 10,
        "fixture lost its hub (max degree {max_deg}); pick another seed"
    );
    let algs = [
        Algorithm::IsraeliItai,
        Algorithm::Generic { k: 2 },
        Algorithm::Weighted {
            epsilon: 0.25,
            mwm_box: MwmBox::LocalDominant,
        },
    ];
    // {2, 3, 8} forced threads, so the dense cuts really fan out on a
    // 40-node fixture.
    for alg in algs {
        let g = if weighted_input(&alg) {
            apply_weights(&g0, WeightModel::Uniform(0.5, 4.0), 11)
        } else {
            g0.clone()
        };
        let reference = session_run(&g, None, alg, 77, ExecCfg::sequential());
        assert!(
            reference.matching.validate(&g).is_ok(),
            "{}",
            reference.name
        );
        for threads in [2, 3, 8] {
            let r = session_run(&g, None, alg, 77, ExecCfg::parallel(threads).forced());
            let label = format!("chung-lu hub / {} / {threads} threads", reference.name);
            assert_eq!(reference.matching, r.matching, "{label}: matching diverged");
            assert_eq!(reference.stats, r.stats, "{label}: NetStats diverged");
        }
    }
}

/// The flight recorder observes, never steers: running with a `dobs`
/// trace session installed must be bit-identical to running without
/// one — the full `NetStats` and the matching — at {sequential, 8
/// forced threads}. The traced runs must also actually record events,
/// so the equality is not vacuous.
#[test]
fn traced_vs_untraced_bit_identical() {
    let _serial = HOOK_LOCK.lock().unwrap();
    let g0 = gnp(30, 0.18, 21);
    let algs = [
        Algorithm::IsraeliItai,
        Algorithm::Generic { k: 2 },
        Algorithm::Weighted {
            epsilon: 0.25,
            mwm_box: MwmBox::LocalDominant,
        },
    ];
    let mut events_total = 0u64;
    for alg in algs {
        let g = if weighted_input(&alg) {
            apply_weights(&g0, WeightModel::Uniform(0.5, 4.0), 11)
        } else {
            g0.clone()
        };
        for cfg in [ExecCfg::sequential(), ExecCfg::parallel(8).forced()] {
            let plain = session_run(&g, None, alg, 55, cfg);
            let session = distributed_matching::dobs::TraceSession::start(1 << 16);
            let traced = session_run(&g, None, alg, 55, cfg);
            let rec = session.finish();
            events_total += rec.recorded();
            let label = format!("{} / {} threads", plain.name, cfg.threads);
            assert_eq!(
                plain.matching, traced.matching,
                "{label}: tracing changed the matching"
            );
            assert_eq!(
                plain.stats, traced.stats,
                "{label}: tracing changed the NetStats"
            );
            assert!(
                rec.recorded() > 0,
                "{label}: traced run recorded nothing — the identity check is vacuous"
            );
        }
    }
    assert!(events_total > 0);
}

#[test]
fn sequential_vs_parallel_bit_identical_under_loss() {
    // Under 10% message loss some algorithms legitimately trip internal
    // invariants (a lost token breaks an augmentation); the contract
    // here is *determinism*: both executors must do exactly the same
    // thing — succeed with identical results, or fail identically.
    let _serial = HOOK_LOCK.lock().unwrap();
    let hook = HookGuard::silence();
    let mut outcomes = Vec::new();
    for (label, g0, sides) in topologies() {
        for alg in algorithms() {
            if !applicable(&alg, &sides) {
                continue;
            }
            let g = if weighted_input(&alg) {
                apply_weights(&g0, WeightModel::Uniform(0.5, 4.0), 11)
            } else {
                g0.clone()
            };
            let sides_ref = sides.as_deref();
            let lossy = |threads| {
                ExecCfg::parallel(threads)
                    .forced()
                    .with_faults(FaultPlan::drop(0.1))
            };
            let seq = run_caught(&g, sides_ref, alg, 7, lossy(1));
            let par = run_caught(&g, sides_ref, alg, 7, lossy(2));
            outcomes.push((label.clone(), alg, seq, par));
        }
    }
    drop(hook);
    let mut succeeded = 0usize;
    for (label, alg, seq, par) in outcomes {
        assert_eq!(
            seq.is_ok(),
            par.is_ok(),
            "{label} / {alg:?}: one executor panicked, the other did not"
        );
        if let (Ok(s), Ok(p)) = (seq, par) {
            assert_eq!(s.0, p.0, "{label} / {alg:?}: lossy matchings diverged");
            assert_eq!(s.1, p.1, "{label} / {alg:?}: lossy NetStats diverged");
            succeeded += 1;
        }
    }
    // The suite is vacuous if loss makes everything panic; Israeli–Itai
    // at least is loss-tolerant by design.
    assert!(succeeded >= 5, "only {succeeded} lossy runs completed");
}

/// The adversary-plane determinism gate: same seed + same `FaultPlan`
/// ⇒ bit-identical matchings and full `NetStats` between sequential and
/// forced 3-chunk execution, for representative algorithms and for
/// every fault class — drop, delay+stall, and crash+budget. None
/// of these plans may panic: the per-algorithm bounded-run extraction
/// is part of the contract.
#[test]
fn adversary_plans_bit_identical_across_executors() {
    let plans: Vec<(&str, FaultPlan)> = vec![
        ("drop-0.2", FaultPlan::drop(0.2)),
        (
            "delay-3+stall-0.15",
            FaultPlan::NONE.with_delay(3).with_stall(0.15),
        ),
        (
            "crash+budget",
            FaultPlan::NONE
                .with_crash(0.02, 5)
                .with_budget(Budget::Bits(96)),
        ),
    ];
    let (gb, sides) = bipartite_gnp(10, 11, 0.25, 4);
    let cases: Vec<(String, Graph, Option<Vec<bool>>, Algorithm)> = vec![
        (
            "gnp/ii".into(),
            gnp(22, 0.18, 3),
            None,
            Algorithm::IsraeliItai,
        ),
        (
            "gnp/generic".into(),
            gnp(22, 0.18, 3),
            None,
            Algorithm::Generic { k: 2 },
        ),
        (
            "bipartite/k2".into(),
            gb,
            Some(sides),
            Algorithm::Bipartite { k: 2 },
        ),
        (
            "gnp/delta-mwm".into(),
            apply_weights(&gnp(22, 0.18, 3), WeightModel::Uniform(0.5, 4.0), 11),
            None,
            Algorithm::DeltaMwm {
                mwm_box: MwmBox::LocalDominant,
            },
        ),
    ];
    for (plan_label, plan) in &plans {
        for (label, g, sides, alg) in &cases {
            let mk = |threads: usize| ExecCfg::parallel(threads).forced().with_faults(*plan);
            let base = session_run(g, sides.as_deref(), *alg, 29, mk(1));
            let r = session_run(g, sides.as_deref(), *alg, 29, mk(3));
            assert_eq!(
                r.matching.edge_ids(g),
                base.matching.edge_ids(g),
                "{label} / {plan_label}: matching diverged"
            );
            assert_eq!(
                r.stats, base.stats,
                "{label} / {plan_label}: NetStats diverged"
            );
        }
    }
}
