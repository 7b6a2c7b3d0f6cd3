//! The switch cycle loop and its statistics.

use crate::sched::{is_valid_decision, Scheduler, SchedulerKind};
use crate::traffic::{TrafficGen, TrafficModel};
use crate::voq::{Cell, Voqs};

/// Simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Port count `N`.
    pub ports: usize,
    /// Cycles to simulate.
    pub cycles: u64,
    /// Warm-up cycles excluded from delay statistics.
    pub warmup: u64,
    /// Traffic model.
    pub traffic: TrafficModel,
    /// RNG seed.
    pub seed: u64,
}

/// Aggregated results of one simulation.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Scheduler label.
    pub scheduler: String,
    /// Cells offered by the traffic source.
    pub offered: u64,
    /// Cells delivered through the fabric.
    pub delivered: u64,
    /// Normalized throughput: delivered / (cycles · N).
    pub throughput: f64,
    /// Mean cell delay (cycles), post-warm-up deliveries.
    pub mean_delay: f64,
    /// 99th-percentile cell delay (cycles), post-warm-up deliveries.
    pub p99_delay: u64,
    /// Mean total backlog (cells buffered, sampled each cycle).
    pub mean_backlog: f64,
    /// Backlog at the end of the run.
    pub final_backlog: usize,
    /// Total simulated distributed rounds consumed by the scheduler.
    pub sched_rounds: u64,
}

impl SimResult {
    /// Delivered fraction of offered cells (1.0 = kept up with load).
    pub fn delivery_ratio(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            self.delivered as f64 / self.offered as f64
        }
    }
}

/// `q`-th percentile of `xs` (0 for an empty sample).
fn percentile(xs: &mut [u64], q: f64) -> u64 {
    if xs.is_empty() {
        return 0;
    }
    xs.sort_unstable();
    let idx = ((xs.len() as f64 - 1.0) * q).round() as usize;
    xs[idx.min(xs.len() - 1)]
}

/// An input-queued switch driven by a scheduler.
pub struct Simulator {
    cfg: SimConfig,
    voqs: Voqs,
    traffic: TrafficGen,
    sched: Box<dyn Scheduler>,
}

impl Simulator {
    /// Build a simulator for the given scheduler kind.
    pub fn new(cfg: SimConfig, kind: SchedulerKind) -> Self {
        Simulator {
            voqs: Voqs::new(cfg.ports),
            traffic: TrafficGen::new(cfg.traffic, cfg.ports, cfg.seed),
            sched: kind.build(cfg.ports, cfg.seed.wrapping_add(0x5C4ED)),
            cfg,
        }
    }

    /// Run the configured number of cycles.
    pub fn run(mut self) -> SimResult {
        let mut offered = 0u64;
        let mut delivered = 0u64;
        let mut delay_sum = 0u64;
        let mut delay_count = 0u64;
        let mut delays: Vec<u64> = Vec::new();
        let mut backlog_sum = 0u64;
        for cycle in 0..self.cfg.cycles {
            // Arrivals.
            for (input, dest) in self.traffic.arrivals().into_iter().enumerate() {
                if let Some(output) = dest {
                    offered += 1;
                    self.voqs.push(input, output, Cell { arrived: cycle });
                }
            }
            // Schedule and transfer.
            let occ = self.voqs.occupancy();
            let decision = self.sched.schedule(&occ);
            debug_assert!(is_valid_decision(&occ, &decision));
            for (input, out) in decision.into_iter().enumerate() {
                if let Some(output) = out {
                    if let Some(cell) = self.voqs.pop(input, output) {
                        delivered += 1;
                        if cycle >= self.cfg.warmup {
                            delay_sum += cycle - cell.arrived;
                            delay_count += 1;
                            delays.push(cycle - cell.arrived);
                        }
                    }
                }
            }
            backlog_sum += self.voqs.total() as u64;
        }
        SimResult {
            scheduler: self.sched.name(),
            offered,
            delivered,
            throughput: delivered as f64 / (self.cfg.cycles * self.cfg.ports as u64) as f64,
            mean_delay: if delay_count == 0 {
                0.0
            } else {
                delay_sum as f64 / delay_count as f64
            },
            p99_delay: percentile(&mut delays, 0.99),
            mean_backlog: backlog_sum as f64 / self.cfg.cycles as f64,
            final_backlog: self.voqs.total(),
            sched_rounds: self.sched.rounds_used(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(load: f64, cycles: u64) -> SimConfig {
        SimConfig {
            ports: 8,
            cycles,
            warmup: cycles / 5,
            traffic: TrafficModel::Uniform { load },
            seed: 42,
        }
    }

    #[test]
    fn low_load_is_fully_delivered_by_everyone() {
        for kind in [
            SchedulerKind::Pim { iterations: 1 },
            SchedulerKind::Islip { iterations: 1 },
            SchedulerKind::MaxCardinality,
        ] {
            let r = Simulator::new(cfg(0.3, 3000), kind).run();
            assert!(
                r.delivery_ratio() > 0.97,
                "{}: only {} of offered cells delivered",
                r.scheduler,
                r.delivery_ratio()
            );
            assert!(
                r.mean_delay < 5.0,
                "{}: delay {}",
                r.scheduler,
                r.mean_delay
            );
        }
    }

    #[test]
    fn oracle_sustains_high_uniform_load() {
        let r = Simulator::new(cfg(0.95, 4000), SchedulerKind::MaxWeight).run();
        assert!(r.delivery_ratio() > 0.95, "ratio {}", r.delivery_ratio());
    }

    #[test]
    fn single_iteration_pim_saturates_before_islip() {
        // Classic: PIM(1) peaks around 63% on uniform full load, while
        // iSLIP(1) desynchronizes to ~100%.
        let mk = |kind| {
            Simulator::new(
                SimConfig {
                    ports: 8,
                    cycles: 4000,
                    warmup: 800,
                    traffic: TrafficModel::Uniform { load: 1.0 },
                    seed: 7,
                },
                kind,
            )
            .run()
        };
        let pim = mk(SchedulerKind::Pim { iterations: 1 });
        let islip = mk(SchedulerKind::Islip { iterations: 1 });
        assert!(
            islip.throughput > pim.throughput + 0.05,
            "iSLIP {} vs PIM {}",
            islip.throughput,
            pim.throughput
        );
    }

    #[test]
    fn lps_scheduler_keeps_up_at_moderate_load() {
        let r = Simulator::new(
            SimConfig {
                ports: 4,
                cycles: 600,
                warmup: 100,
                traffic: TrafficModel::Uniform { load: 0.6 },
                seed: 3,
            },
            SchedulerKind::LpsBipartite { k: 2 },
        )
        .run();
        assert!(r.delivery_ratio() > 0.9, "ratio {}", r.delivery_ratio());
        assert!(
            r.sched_rounds > 0,
            "distributed scheduler must consume rounds"
        );
    }

    #[test]
    fn p99_dominates_mean() {
        let r = Simulator::new(cfg(0.8, 2000), SchedulerKind::Islip { iterations: 1 }).run();
        assert!(
            r.p99_delay as f64 >= r.mean_delay.floor(),
            "p99 {} < mean {}",
            r.p99_delay,
            r.mean_delay
        );
    }

    #[test]
    fn zero_load_runs_cleanly() {
        let r = Simulator::new(cfg(0.0, 200), SchedulerKind::Islip { iterations: 1 }).run();
        assert_eq!(r.offered, 0);
        assert_eq!(r.delivered, 0);
        assert_eq!(r.final_backlog, 0);
    }
}
