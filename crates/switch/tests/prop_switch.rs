//! Randomized property tests for the switch simulator: decision
//! validity for every scheduler on arbitrary occupancy, cell
//! conservation, and work conservation at saturation.
//!
//! Dependency-free: cases are enumerated from seeded `SplitMix64`
//! streams, so every run explores the same (deterministic) case set.

use simnet::{ExecCfg, SplitMix64};
use switchsim::sched::{is_valid_decision, SchedulerKind};
use switchsim::{SimConfig, Simulator, TrafficModel};

fn random_occ(n: usize, rng: &mut SplitMix64) -> Vec<Vec<usize>> {
    (0..n)
        .map(|_| (0..n).map(|_| rng.below(5) as usize).collect())
        .collect()
}

#[test]
fn every_scheduler_emits_partial_permutations() {
    let mut rng = SplitMix64::new(0x51);
    for case in 0..32 {
        let occ = random_occ(5, &mut rng);
        let seed = rng.next();
        for kind in [
            SchedulerKind::Pim { iterations: 2 },
            SchedulerKind::Islip { iterations: 2 },
            SchedulerKind::DistMaximal,
            SchedulerKind::LpsBipartite { k: 2 },
            SchedulerKind::MaxCardinality,
            SchedulerKind::MaxWeight,
        ] {
            let mut s = kind.build(5, seed, ExecCfg::default());
            for _ in 0..3 {
                let d = s.schedule(&occ);
                assert!(
                    is_valid_decision(&occ, &d),
                    "case {case}: {} invalid",
                    s.name()
                );
            }
        }
    }
}

#[test]
fn maximal_schedulers_leave_no_free_pair() {
    // Israeli–Itai is maximal: no (input, output) pair with traffic
    // can be left with both sides unmatched.
    let mut rng = SplitMix64::new(0x52);
    for case in 0..32 {
        let occ = random_occ(5, &mut rng);
        let seed = rng.next();
        let mut s = SchedulerKind::DistMaximal.build(5, seed, ExecCfg::default());
        let d = s.schedule(&occ);
        let mut out_used = [false; 5];
        for o in d.iter().flatten() {
            out_used[*o] = true;
        }
        for (i, &di) in d.iter().enumerate() {
            if di.is_none() {
                for (o, &used) in out_used.iter().enumerate() {
                    assert!(
                        occ[i][o] == 0 || used,
                        "case {case}: input {i} and output {o} both idle despite occupancy"
                    );
                }
            }
        }
    }
}

#[test]
fn cells_are_conserved() {
    let mut rng = SplitMix64::new(0x53);
    for _ in 0..24 {
        let load = 0.10 + 0.85 * rng.f64();
        let cycles = 50 + rng.below(250);
        let seed = rng.next();
        let cfg = SimConfig {
            ports: 4,
            cycles,
            warmup: 0,
            traffic: TrafficModel::Uniform { load },
            seed,
        };
        let r = Simulator::new(cfg, SchedulerKind::Islip { iterations: 1 }).run();
        assert_eq!(r.offered, r.delivered + r.final_backlog as u64);
    }
}

fn run_once(
    traffic: TrafficModel,
    kind: SchedulerKind,
    cycles: u64,
    seed: u64,
) -> switchsim::SimResult {
    Simulator::new(
        SimConfig {
            ports: 8,
            cycles,
            warmup: cycles / 5,
            traffic,
            seed,
        },
        kind,
    )
    .run()
}

#[test]
fn bursty_moderate_load_is_delivered() {
    // Bursty traffic is admissible at any ρ ≤ 1 in the long run; at
    // moderate load a strong scheduler must keep up despite the
    // burst-induced backlog spikes.
    for seed in [1u64, 2, 3] {
        let model = TrafficModel::Bursty {
            load: 0.5,
            mean_burst: 8.0,
        };
        assert!(model.is_admissible(8));
        let r = run_once(model, SchedulerKind::MaxWeight, 6000, seed);
        assert!(
            r.delivery_ratio() > 0.9,
            "seed {seed}: bursty ratio {}",
            r.delivery_ratio()
        );
        assert_eq!(r.offered, r.delivered + r.final_backlog as u64);
    }
}

#[test]
fn hotspot_admissible_load_is_delivered() {
    for seed in [4u64, 5] {
        let model = TrafficModel::Hotspot {
            load: 0.5,
            frac: 0.12,
        };
        assert!(model.is_admissible(8), "0.5·(0.96+0.88) < 1");
        let r = run_once(model, SchedulerKind::MaxWeight, 6000, seed);
        assert!(
            r.delivery_ratio() > 0.93,
            "seed {seed}: hotspot ratio {}",
            r.delivery_ratio()
        );
    }
}

#[test]
fn hotspot_inadmissible_load_is_capped_but_sane() {
    // Half of all traffic aims at output 0: that output is offered
    // ≈4.5× its capacity, so even the oracle cannot deliver
    // everything — but cells are never lost and the uniform part
    // still flows.
    let model = TrafficModel::Hotspot {
        load: 0.9,
        frac: 0.5,
    };
    assert!(!model.is_admissible(8));
    let r = run_once(model, SchedulerKind::MaxWeight, 4000, 6);
    assert_eq!(r.offered, r.delivered + r.final_backlog as u64);
    assert!(
        r.delivery_ratio() < 0.9,
        "oversubscribed hotspot cannot be fully delivered, got {}",
        r.delivery_ratio()
    );
    assert!(
        r.delivery_ratio() > 0.3,
        "the admissible part must still flow, got {}",
        r.delivery_ratio()
    );
}

#[test]
fn bursty_and_hotspot_are_deterministic_per_seed() {
    for model in [
        TrafficModel::Bursty {
            load: 0.6,
            mean_burst: 12.0,
        },
        TrafficModel::Hotspot {
            load: 0.6,
            frac: 0.2,
        },
    ] {
        let a = run_once(model, SchedulerKind::Islip { iterations: 2 }, 1500, 42);
        let b = run_once(model, SchedulerKind::Islip { iterations: 2 }, 1500, 42);
        assert_eq!(a.offered, b.offered);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.mean_delay, b.mean_delay);
        assert_eq!(a.final_backlog, b.final_backlog);
        // A different seed must explore a different sample path.
        let c = run_once(model, SchedulerKind::Islip { iterations: 2 }, 1500, 43);
        assert_ne!(
            (a.offered, a.delivered),
            (c.offered, c.delivered),
            "{}: distinct seeds should not collide",
            model.label()
        );
    }
}

#[test]
fn oracle_dominates_single_iteration_pim() {
    let mut rng = SplitMix64::new(0x54);
    for _ in 0..8 {
        let seed = rng.next();
        let mk = |kind| {
            Simulator::new(
                SimConfig {
                    ports: 6,
                    cycles: 800,
                    warmup: 100,
                    traffic: TrafficModel::Uniform { load: 0.95 },
                    seed,
                },
                kind,
            )
            .run()
        };
        let pim = mk(SchedulerKind::Pim { iterations: 1 });
        let orc = mk(SchedulerKind::MaxCardinality);
        // With identical arrivals, the maximum matching can only move
        // at least as many cells (allow small slack for tie-breaking
        // effects on queue states over time).
        assert!(
            orc.delivered + orc.final_backlog as u64 == orc.offered
                && orc.delivered as f64 >= 0.95 * pim.delivered as f64,
            "seed {seed}"
        );
    }
}
