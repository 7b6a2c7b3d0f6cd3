//! The switch cycle loop and its statistics.
//!
//! The port topology can vary over time: a [`FailurePlan`] flips
//! individual input→output links down and up mid-run (a seeded
//! two-state Markov chain per link). A down link disappears from the
//! occupancy the scheduler sees — exactly the dynamic-network setting
//! of the `dchurn` crate, at the switch-fabric scale — and its cells
//! wait in the VOQ until the link heals.

use crate::sched::{is_valid_decision, Scheduler, SchedulerKind};
use crate::traffic::{TrafficGen, TrafficModel};
use crate::voq::{Cell, Voqs};
use simnet::rng::streams;
use simnet::SplitMix64;

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

/// Time-varying link failures: each of the `N²` input→output links is
/// an independent two-state Markov chain, going down with probability
/// `fail` and back up with probability `repair` per cycle. Long-run
/// availability is `repair / (fail + repair)`. Deterministic in
/// `seed`; independent of the traffic and scheduler RNG streams.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailurePlan {
    /// Per-link per-cycle failure probability.
    pub fail: f64,
    /// Per-link per-cycle repair probability.
    pub repair: f64,
    /// RNG seed for the failure process.
    pub seed: u64,
}

/// Runtime link state driven by a [`FailurePlan`].
struct LinkState {
    up: Vec<Vec<bool>>,
    plan: FailurePlan,
    rng: SplitMix64,
    /// Down link-cycles accumulated (for the availability report).
    down_cycles: u64,
}

impl LinkState {
    fn new(n: usize, plan: FailurePlan) -> Self {
        assert!((0.0..=1.0).contains(&plan.fail) && (0.0..=1.0).contains(&plan.repair));
        LinkState {
            up: vec![vec![true; n]; n],
            plan,
            rng: SplitMix64::for_node(plan.seed, streams::SWITCH_FAILURE),
            down_cycles: 0,
        }
    }

    /// Advance every link one cycle (fixed row-major order, so the
    /// process is reproducible).
    fn tick(&mut self) {
        for row in &mut self.up {
            for up in row.iter_mut() {
                *up = if *up {
                    !self.rng.bernoulli(self.plan.fail)
                } else {
                    self.rng.bernoulli(self.plan.repair)
                };
                if !*up {
                    self.down_cycles += 1;
                }
            }
        }
    }

    /// Occupancy as the scheduler may see it: down links hidden.
    fn mask(&self, occ: &[Vec<usize>]) -> Vec<Vec<usize>> {
        occ.iter()
            .enumerate()
            .map(|(i, row)| {
                row.iter()
                    .enumerate()
                    .map(|(o, &q)| if self.up[i][o] { q } else { 0 })
                    .collect()
            })
            .collect()
    }
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
    /// Fraction of link-cycles spent down (0.0 without a
    /// [`FailurePlan`]).
    pub link_downtime: f64,
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
    kind: SchedulerKind,
    voqs: Voqs,
    traffic: TrafficGen,
    sched: Box<dyn Scheduler>,
    links: Option<LinkState>,
}

impl Simulator {
    /// Build a simulator for the given scheduler kind.
    pub fn new(cfg: SimConfig, kind: SchedulerKind) -> Self {
        Simulator {
            voqs: Voqs::new(cfg.ports),
            traffic: TrafficGen::new(cfg.traffic, cfg.ports, cfg.seed),
            sched: kind.build(
                cfg.ports,
                cfg.seed.wrapping_add(0x5C4ED),
                simnet::ExecCfg::default(),
            ),
            kind,
            links: None,
            cfg,
        }
    }

    /// Run the distributed schedulers' per-cycle matching networks
    /// under explicit execution knobs (threads / faults); see
    /// [`SchedulerKind::build`]. Results are
    /// bit-identical across `exec.threads`. Must be
    /// applied before [`Simulator::run`] (it rebuilds the scheduler,
    /// so call it construction-style, like the other builders).
    pub fn with_exec(mut self, exec: simnet::ExecCfg) -> Self {
        self.sched = self
            .kind
            .build(self.cfg.ports, self.cfg.seed.wrapping_add(0x5C4ED), exec);
        self
    }

    /// Inject time-varying link failures: the port topology the
    /// scheduler sees changes every cycle. Cells whose link is down
    /// wait in their VOQ; nothing is lost. Without this call the run
    /// is identical to earlier versions (no extra RNG draws).
    pub fn with_failures(mut self, plan: FailurePlan) -> Self {
        self.links = Some(LinkState::new(self.cfg.ports, plan));
        self
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
            // Evolve the port topology, then schedule over the links
            // that are up and transfer.
            let occ = match &mut self.links {
                Some(links) => {
                    links.tick();
                    links.mask(&self.voqs.occupancy())
                }
                None => self.voqs.occupancy(),
            };
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
            link_downtime: self.links.map_or(0.0, |l| {
                l.down_cycles as f64
                    / (self.cfg.cycles * (self.cfg.ports * self.cfg.ports) as u64) as f64
            }),
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

    #[test]
    fn link_failures_conserve_cells_and_report_downtime() {
        let plan = FailurePlan {
            fail: 0.02,
            repair: 0.1,
            seed: 5,
        };
        let r = Simulator::new(cfg(0.6, 3000), SchedulerKind::MaxWeight)
            .with_failures(plan)
            .run();
        assert_eq!(r.offered, r.delivered + r.final_backlog as u64);
        // Long-run availability repair/(fail+repair) ≈ 5/6.
        assert!(
            (r.link_downtime - 1.0 / 6.0).abs() < 0.03,
            "downtime {} far from 1/6",
            r.link_downtime
        );
        assert!(r.delivery_ratio() > 0.8, "ratio {}", r.delivery_ratio());
    }

    #[test]
    fn heavy_failures_degrade_but_never_lose_cells() {
        let plan = FailurePlan {
            fail: 0.3,
            repair: 0.1,
            seed: 9,
        };
        let healthy = Simulator::new(cfg(0.8, 2000), SchedulerKind::MaxWeight).run();
        let failing = Simulator::new(cfg(0.8, 2000), SchedulerKind::MaxWeight)
            .with_failures(plan)
            .run();
        assert_eq!(
            failing.offered,
            failing.delivered + failing.final_backlog as u64
        );
        assert!(
            failing.delivered < healthy.delivered,
            "3/4 of links down must cost throughput"
        );
        assert!(failing.link_downtime > 0.5);
    }

    /// The per-cycle matching networks give the same switch results and
    /// the same simulated traffic, round by round, at any thread count.
    /// The traffic is read from the flight recorder's round spans: the
    /// switch results alone can hide a lost message count.
    #[test]
    fn exec_knobs_are_unobservable_for_distributed_schedulers() {
        use simnet::ExecCfg;
        for kind in [
            SchedulerKind::DistMaximal,
            SchedulerKind::LpsBipartite { k: 2 },
        ] {
            let mk = |exec: ExecCfg| {
                let session = dobs::TraceSession::start(1 << 18);
                let result = Simulator::new(
                    SimConfig {
                        ports: 4,
                        cycles: 300,
                        warmup: 50,
                        traffic: TrafficModel::Uniform { load: 0.6 },
                        seed: 11,
                    },
                    kind,
                )
                .with_exec(exec)
                .run();
                let rounds: Vec<(u64, u64, u64, bool)> = session
                    .finish()
                    .events()
                    .filter_map(|e| match *e {
                        dobs::Event::RoundSpan {
                            round,
                            stepped,
                            sent,
                            dense,
                            ..
                        } => Some((round, stepped, sent, dense)),
                        _ => None,
                    })
                    .collect();
                (result, rounds)
            };
            // Forced, so the 4-port networks really run in k chunks.
            let (seq, seq_rounds) = mk(ExecCfg::sequential());
            let (par, par_rounds) = mk(ExecCfg::parallel(3).forced());
            assert_eq!(seq.delivered, par.delivered, "{}", seq.scheduler);
            assert_eq!(seq.sched_rounds, par.sched_rounds);
            assert_eq!(seq.final_backlog, par.final_backlog);
            assert_eq!(
                seq_rounds.len() as u64,
                seq.sched_rounds,
                "recorder overflowed"
            );
            assert_eq!(
                seq_rounds, par_rounds,
                "{}: per-round traffic",
                seq.scheduler
            );
        }
    }

    #[test]
    fn failure_runs_are_deterministic() {
        let mk = || {
            Simulator::new(cfg(0.7, 500), SchedulerKind::Islip { iterations: 2 })
                .with_failures(FailurePlan {
                    fail: 0.05,
                    repair: 0.2,
                    seed: 3,
                })
                .run()
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.link_downtime, b.link_downtime);
        assert_eq!(a.final_backlog, b.final_backlog);
    }
}
