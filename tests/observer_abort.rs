//! `Observer::on_phase` → `Control::Abort` contract, for every
//! `Algorithm` variant.
//!
//! Aborting from a *phase* callback must stop the session at exactly
//! that phase boundary: the `step()` that completed the aborting phase
//! returns `Phase::Aborted` (the phase itself is still logged — phases
//! are atomic), the log is a prefix of the uninterrupted run's log
//! (phases are deterministic), the state the session's accessors return
//! is internally consistent (the matching validates against the graph
//! and agrees with the last phase's recorded cardinality, the
//! statistics are the prefix sums), and further `step()` calls stay
//! `Phase::Aborted` without consuming anything.

use distributed_matching::dgraph::generators::random::{bipartite_gnp, gnp};
use distributed_matching::dgraph::generators::weights::{apply_weights, WeightModel};
use distributed_matching::dgraph::Graph;
use distributed_matching::dmatch::weighted::MwmBox;
use distributed_matching::dmatch::{
    Algorithm, Control, Observer, Phase, PhaseEvent, PhaseInfo, Session,
};

/// Every `Algorithm` variant (as in `prop_session.rs`).
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

/// (graph, sides) for one connected test case.
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

fn build(
    g: &Graph,
    alg: Algorithm,
    sides: Option<&[bool]>,
    obs: impl Observer + 'static,
) -> Session {
    let mut b = Session::on(g).algorithm(alg).seed(42).observe(obs);
    if let Some(s) = sides {
        b = b.sides(s);
    }
    b.build()
}

/// Aborts from `on_phase` once `cut` phases have completed, checking
/// the event's internal consistency on the way.
struct AbortAfterPhases {
    cut: usize,
    seen: usize,
}

impl Observer for AbortAfterPhases {
    fn on_phase(&mut self, ev: &PhaseEvent<'_>) -> Control {
        self.seen += 1;
        // The event must be self-consistent at the moment of the
        // decision: the matching it shows is valid and is the one the
        // log entry describes.
        ev.matching
            .validate(ev.graph)
            .expect("phase event matching");
        assert_eq!(ev.phase.matching_size, ev.matching.size());
        assert!(ev.stats.rounds >= ev.phase.rounds);
        if self.seen >= self.cut {
            Control::Abort
        } else {
            Control::Continue
        }
    }
}

/// Run to completion (observer present but never aborting, so the
/// per-phase consistency checks still fire); return log and messages.
fn full_run(g: &Graph, alg: Algorithm, sides: Option<&[bool]>) -> (Vec<PhaseInfo>, u64) {
    let mut s = build(
        g,
        alg,
        sides,
        AbortAfterPhases {
            cut: usize::MAX,
            seen: 0,
        },
    );
    s.run_to_completion();
    (s.phase_log().to_vec(), s.stats().messages)
}

#[test]
fn phase_abort_stops_every_algorithm_at_the_boundary() {
    for alg in all_algorithms() {
        let (g, sides) = case(&alg, 5);
        let (full, full_messages) = full_run(&g, alg, sides.as_deref());
        assert!(!full.is_empty(), "{alg}: no phases to cut");

        // Cut at the first, a middle, and the last boundary (aborting
        // on the final phase must still report Aborted, not Done).
        let mut cuts = vec![1, (full.len() / 2).max(1), full.len()];
        cuts.dedup();
        for cut in cuts {
            let mut s = build(&g, alg, sides.as_deref(), AbortAfterPhases { cut, seen: 0 });
            let mut ran = 0usize;
            let aborted = loop {
                match s.step() {
                    Phase::Ran(_) => ran += 1,
                    Phase::Aborted => break true,
                    Phase::Done => break false,
                }
                assert!(ran <= full.len(), "{alg}: runaway session");
            };
            assert!(aborted, "{alg}: cut {cut} of {} must abort", full.len());
            assert!(s.is_aborted());
            assert!(!s.is_done());

            // The aborting phase is logged but returned as Aborted:
            // `cut - 1` phases surfaced as Ran, `cut` are in the log,
            // and the log is a prefix of the uninterrupted run.
            assert_eq!(ran, cut - 1, "{alg}: abort lands on the boundary");
            assert_eq!(s.phase_log().len(), cut);
            for (got, expect) in s.phase_log().iter().zip(&full) {
                assert_eq!(got.label, expect.label, "{alg}");
                assert_eq!(got.rounds, expect.rounds, "{alg}");
                assert_eq!(got.matching_size, expect.matching_size, "{alg}");
            }

            // The aborted state is consistent: a valid matching of the
            // advertised size, statistics equal to the prefix sums.
            s.matching().validate(&g).expect("aborted matching");
            assert_eq!(
                s.matching().size(),
                s.phase_log().last().expect("cut >= 1").matching_size,
                "{alg}"
            );
            assert_eq!(
                s.stats().rounds,
                s.phase_log().iter().map(|p| p.rounds).sum::<u64>(),
                "{alg}: rounds are the prefix sum"
            );
            assert!(s.stats().messages <= full_messages, "{alg}");

            // Aborted is terminal and idempotent: stepping again does
            // nothing and consumes nothing.
            let rounds_before = s.stats().rounds;
            assert!(matches!(s.step(), Phase::Aborted));
            assert!(matches!(s.step(), Phase::Aborted));
            assert_eq!(s.stats().rounds, rounds_before);
            assert_eq!(s.phase_log().len(), cut);
        }
    }
}

#[test]
fn abort_on_first_phase_still_yields_a_valid_partial_matching() {
    for alg in all_algorithms() {
        let (g, sides) = case(&alg, 11);
        let mut s = build(
            &g,
            alg,
            sides.as_deref(),
            AbortAfterPhases { cut: 1, seen: 0 },
        );
        // cut = 1 aborts on the very first boundary: the first step()
        // already reports it.
        assert!(matches!(s.step(), Phase::Aborted));
        s.matching().validate(&g).expect("one-phase matching");
        assert_eq!(s.phase_log().len(), 1, "{alg}");
        assert!(s.is_aborted());
    }
}
