//! E8 — the introduction's application: input-queued switch scheduling.
//!
//! The paper motivates matching quality with switch throughput and
//! cites PIM \[3\] and iSLIP \[23\] as the practical lineage of
//! Israeli–Itai. We sweep offered load under uniform, diagonal, and
//! bursty traffic and report normalized throughput and mean delay per
//! scheduler, including the paper's algorithms as schedulers. The run
//! fails unless every scheduler delivers at least 0.95 of the offered
//! cells at ρ = 0.5 on every traffic model.

use bench_harness::{banner, f2, f3, Table};
use switchsim::{SchedulerKind, SimConfig, Simulator, TrafficModel};

fn main() {
    banner(
        "E8",
        "switch scheduling: throughput & delay under load",
        "Introduction ¶2 + [3], [23]",
    );

    let ports = 8usize;
    let cycles = 3000u64;
    let schedulers = [
        SchedulerKind::Pim { iterations: 1 },
        SchedulerKind::Islip { iterations: 1 },
        SchedulerKind::Islip { iterations: 3 },
        SchedulerKind::DistMaximal,
        SchedulerKind::Ilqf { iterations: 2 },
        SchedulerKind::LpsBipartite { k: 2 },
        SchedulerKind::MaxCardinality,
        SchedulerKind::MaxWeight,
    ];
    let mut any_inadmissible = false;
    for traffic in [
        TrafficModel::Uniform { load: 0.0 },
        TrafficModel::Diagonal { load: 0.0 },
        TrafficModel::Bursty {
            load: 0.0,
            mean_burst: 16.0,
        },
        // frac 0.1 on 8 ports: output 0 sees 1.7ρ — admissible at
        // ρ=0.5, oversubscribed beyond ρ≈0.59, so the sweep shows both
        // regimes.
        TrafficModel::Hotspot {
            load: 0.0,
            frac: 0.1,
        },
    ] {
        println!(
            "\n--- traffic: {} ({} ports, {} cycles) — delivery ratio | mean delay",
            traffic.label(),
            ports,
            cycles
        );
        let mut t = Table::new(vec!["scheduler", "ρ=0.5", "ρ=0.7", "ρ=0.85", "ρ=0.95"]);
        for kind in schedulers {
            let mut row = vec![kind.build(ports, 0).name()];
            for (i, &load) in [0.5, 0.7, 0.85, 0.95].iter().enumerate() {
                let model = match traffic {
                    TrafficModel::Uniform { .. } => TrafficModel::Uniform { load },
                    TrafficModel::Diagonal { .. } => TrafficModel::Diagonal { load },
                    TrafficModel::Bursty { mean_burst, .. } => {
                        TrafficModel::Bursty { load, mean_burst }
                    }
                    TrafficModel::Hotspot { frac, .. } => TrafficModel::Hotspot { load, frac },
                };
                let cfg = SimConfig {
                    ports,
                    cycles,
                    warmup: cycles / 5,
                    traffic: model,
                    seed: 11,
                };
                let r = Simulator::new(cfg, kind).run();
                // Degraded throughput under an oversubscribed pattern
                // is the *pattern's* fault, not the scheduler's: flag
                // it instead of letting the row read as a regression.
                let flag = if model.is_admissible(ports) {
                    ""
                } else {
                    any_inadmissible = true;
                    "†"
                };
                // The shape's first claim: at ρ = 0.5 every scheduler
                // delivers ≈ all offered cells on every traffic model.
                if i == 0 {
                    assert!(
                        r.delivery_ratio() >= 0.95,
                        "{} delivers {:.3} of {} traffic at ρ=0.5",
                        r.scheduler,
                        r.delivery_ratio(),
                        traffic.label()
                    );
                }
                row.push(format!(
                    "{}{flag}|{}",
                    f3(r.delivery_ratio()),
                    f2(r.mean_delay)
                ));
            }
            t.row(row);
        }
        t.print();
    }
    if any_inadmissible {
        println!(
            "\n† inadmissible (TrafficModel::is_admissible): the pattern oversubscribes an\n\
             output, so no scheduler — not even the max-weight oracle — can deliver 1.0."
        );
    }
    println!(
        "\nExpected shape: all schedulers deliver ≈1.0 at ρ=0.5; under diagonal/bursty\n\
         traffic at high load, PIM(1) degrades first, iSLIP(1) holds on uniform but slips\n\
         on diagonal, and the larger matchings (LPS-MCM, max-cardinality, max-weight)\n\
         sustain the highest loads — the throughput motivation of the paper's intro."
    );
}
