//! Wall-clock benchmarks (plain `harness = false` binary; the
//! workspace carries no external bench framework).
//!
//! One group per experiment family: the distributed algorithms (their
//! full simulated executions), the exact reference solvers, and the
//! switch schedulers. These measure *simulator* wall-clock — the
//! theorem-level metrics (rounds, bits) come from the `exp_*` binaries.

use bench_harness::timing::bench;
use dgraph::generators::random::{bipartite_gnp, bipartite_regular, gnp};
use dgraph::generators::weights::{apply_weights, WeightModel};
use dmatch::weighted::MwmBox;
use dmatch::{Algorithm, Session};
use std::hint::black_box;

fn report(group: &str, name: &str, runs: u32, f: impl FnMut()) {
    let s = bench(runs, f);
    println!("{group:<16} {name:<24} {}", s.display());
}

fn bench_distributed() {
    for &n in &[256usize, 1024] {
        let g = gnp(n, 6.0 / n as f64, 1);
        report("distributed", &format!("israeli_itai/{n}"), 10, || {
            black_box(
                Session::on(black_box(&g))
                    .algorithm(Algorithm::IsraeliItai)
                    .seed(7)
                    .build()
                    .run_to_completion(),
            );
        });
        let (bg, sides) = bipartite_regular(n / 2, 3, 2);
        report("distributed", &format!("bipartite_k3/{n}"), 10, || {
            black_box(
                Session::on(black_box(&bg))
                    .algorithm(Algorithm::Bipartite { k: 3 })
                    .sides(&sides)
                    .seed(5)
                    .build()
                    .run_to_completion(),
            );
        });
    }
    let g = gnp(96, 0.06, 3);
    report("distributed", "generic_k2_n96", 10, || {
        black_box(
            Session::on(black_box(&g))
                .algorithm(Algorithm::Generic { k: 2 })
                .seed(9)
                .build()
                .run_to_completion(),
        );
    });
    report("distributed", "general_k2_n96", 10, || {
        black_box(
            Session::on(black_box(&g))
                .algorithm(Algorithm::General {
                    k: 2,
                    early_stop: Some(8),
                })
                .seed(9)
                .build()
                .run_to_completion(),
        );
    });
    let wg = apply_weights(&gnp(256, 0.03, 4), WeightModel::Exponential(1.0), 5);
    report("distributed", "weighted_eps02_n256", 10, || {
        black_box(
            Session::on(black_box(&wg))
                .algorithm(Algorithm::Weighted {
                    epsilon: 0.2,
                    mwm_box: MwmBox::SeqClass,
                })
                .seed(3)
                .build()
                .run_to_completion(),
        );
    });
}

fn bench_exact_solvers() {
    for &n in &[256usize, 1024] {
        let (bg, sides) = bipartite_gnp(n / 2, n / 2, 8.0 / (n / 2) as f64, 6);
        report("exact", &format!("hopcroft_karp/{n}"), 10, || {
            black_box(dgraph::hopcroft_karp::max_matching(black_box(&bg), &sides));
        });
        let g = gnp(n, 8.0 / n as f64, 7);
        report("exact", &format!("blossom/{n}"), 10, || {
            black_box(dgraph::blossom::max_matching(black_box(&g)));
        });
    }
    let (bg, sides) = bipartite_gnp(64, 64, 0.2, 8);
    let wg = apply_weights(&bg, WeightModel::Uniform(0.1, 5.0), 9);
    report("exact", "hungarian_128", 10, || {
        black_box(dgraph::hungarian::max_weight_matching(
            black_box(&wg),
            &sides,
        ));
    });
    let small = apply_weights(&gnp(18, 0.4, 10), WeightModel::Integer(1, 9), 11);
    report("exact", "mwm_exact_dp_18", 10, || {
        black_box(dgraph::mwm_exact::max_weight_exact(black_box(&small)));
    });
}

fn bench_parallel_stepping() {
    // Ablation: sequential vs parallel node stepping in the simulator.
    use simnet::{ExecCfg, Inbox, Network, Protocol};
    struct Spin(u64);
    impl Protocol for Spin {
        type Msg = u64;
        fn on_round(&mut self, ctx: &mut simnet::Ctx<'_, u64>, inbox: Inbox<'_, u64>) {
            for e in inbox.iter() {
                self.0 = self.0.wrapping_add(*e.msg);
            }
            // Busy local computation plus gossip.
            for _ in 0..200 {
                self.0 = self
                    .0
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
            }
            if ctx.round() < 10 {
                ctx.send_all(self.0);
            } else {
                ctx.halt();
            }
        }
    }
    let n = 2048usize;
    let g = gnp(n, 8.0 / n as f64, 12);
    let topo = dmatch::topology_of(&g);
    for &threads in &[1usize, 4] {
        report("simnet_stepping", &format!("threads/{threads}"), 10, || {
            let nodes = (0..n as u64).map(Spin).collect();
            let mut net = Network::new(topo.clone(), nodes, 3).with_cfg(ExecCfg::parallel(threads));
            net.run_until_halt(64);
            black_box(net.stats().messages);
        });
    }
}

fn bench_switch() {
    use switchsim::{SchedulerKind, SimConfig, Simulator, TrafficModel};
    for kind in [
        SchedulerKind::Pim { iterations: 1 },
        SchedulerKind::Islip { iterations: 1 },
        SchedulerKind::MaxWeight,
        SchedulerKind::LpsBipartite { k: 2 },
    ] {
        let cfg = SimConfig {
            ports: 8,
            cycles: 200,
            warmup: 40,
            traffic: TrafficModel::Uniform { load: 0.8 },
            seed: 5,
        };
        let name = Simulator::new(SimConfig { cycles: 1, ..cfg }, kind)
            .run()
            .scheduler;
        report("switch", &format!("200cycles_{name}"), 10, || {
            black_box(Simulator::new(black_box(cfg), kind).run());
        });
    }
}

fn main() {
    println!("{:<16} {:<24} timing", "group", "benchmark");
    println!("{}", "-".repeat(80));
    bench_distributed();
    bench_exact_solvers();
    bench_parallel_stepping();
    bench_switch();
}
