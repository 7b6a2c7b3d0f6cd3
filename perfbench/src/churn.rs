//! The `churn-repair` workload: `DynEngine` with `IncrementalMaximal`
//! on gnp(n = 50 000) under 0.1% edge churn per epoch.
//!
//! One op is one `DynEngine::step_with`. In the first sweep the
//! benchmark draws every batch itself with
//! `ChurnGen::next_batch(engine.graph())`, outside the timed call, and
//! keeps it; later sweeps replay the same batches on a freshly
//! bootstrapped engine, which must reproduce every epoch's cost and
//! matching size exactly. After each epoch of the first sweep the
//! matching must be valid and maximal, and the protocol's liveness
//! knowledge must be exact; every epoch's report must say maximal.

use crate::measure::{median, metric, Sim, SimnetAcc};
use crate::spans::Spans;
use crate::{SweepOut, Workload};
use bench_harness::workloads::Family;
use dchurn::{ChurnGen, ChurnModel, DynEngine, MutationBatch, RepairAlgo};
use simnet::{ExecCfg, NetStats};

const N: usize = 50_000;
const MODEL: ChurnModel = ChurnModel::EdgeChurn { rate: 0.001 };

pub struct ChurnWorkload {
    seed: u64,
    epochs: usize,
    cfg: ExecCfg,
    engine: Option<DynEngine>,
    /// The batches sweep 0 drew, replayed by later sweeps.
    batches: Vec<MutationBatch>,
    /// Sweep 0's `(rounds, messages, bits, matching size)` per epoch.
    reference: Vec<(u64, u64, u64, usize)>,
}

/// Epochs per second of `--seconds` (≈ 60 ms per epoch on a 2-core
/// host, run once per sweep); fixed by `--seconds` alone.
pub fn churn_repair(seed: u64, seconds: u64) -> ChurnWorkload {
    ChurnWorkload {
        seed,
        epochs: ((seconds as f64 * 5.5).round() as usize).max(1),
        cfg: ExecCfg::sequential(),
        engine: None,
        batches: Vec::new(),
        reference: Vec::new(),
    }
}

impl ChurnWorkload {
    fn bootstrap(&mut self, sp: &mut Spans) {
        self.engine = None;
        let open = sp.begin("Family::instantiate", "dgraph");
        let w = Family::Gnp.instantiate(N, self.seed);
        sp.end(open);
        let open = sp.begin("DynEngine::bootstrap", "dchurn");
        let mut engine = DynEngine::with_cfg(
            w.graph,
            MODEL,
            RepairAlgo::IncrementalMaximal,
            self.seed.wrapping_add(1),
            self.cfg,
        );
        engine.bootstrap();
        sp.end(open);
        self.engine = Some(engine);
    }
}

impl Workload for ChurnWorkload {
    fn threads(&self) -> usize {
        1
    }

    fn setup(&mut self, sp: &mut Spans, timed: bool) {
        self.cfg = if timed {
            ExecCfg::sequential().timed()
        } else {
            ExecCfg::sequential()
        };
        self.bootstrap(sp);
        self.batches.clear();
        self.reference.clear();
    }

    fn sweep(&mut self, sp: &mut Spans, sweep: usize) -> SweepOut {
        if self.engine.as_ref().is_none_or(|e| e.epochs() > 1) {
            self.bootstrap(sp);
        }
        let mut out = SweepOut::default();
        let mut load = ChurnGen::new(MODEL, self.seed.wrapping_add(2));
        let engine = self.engine.as_mut().expect("bootstrapped above");
        let before: NetStats = engine
            .net_stats()
            .expect("maximal arm has a network")
            .clone();
        let (mut iterations, mut woken, mut damage) = (0u64, 0u64, 0u64);
        let mut repair_rounds = Vec::with_capacity(self.epochs);
        let mut gen_s = 0.0;
        for epoch in 0..self.epochs {
            sp.next_op();
            let batch = if sweep == 0 {
                let open = sp.begin("ChurnGen::next_batch", "load");
                let batch = load.next_batch(engine.graph());
                gen_s += sp.end(open);
                self.batches.push(batch.clone());
                batch
            } else {
                self.batches[epoch].clone()
            };
            let open = sp.begin("DynEngine::step_with", "dchurn");
            let report = engine.step_with(batch).clone();
            let secs = sp.end(open);
            out.record_op(secs);

            let check = sp.begin("check", "dgraph.verify");
            let summary = (
                report.rounds,
                report.messages,
                report.bits,
                report.matching_size,
            );
            let mut ok = report.maximal;
            if sweep == 0 {
                let (g, m) = (engine.graph(), engine.matching());
                ok &= m.validate(g).is_ok() && m.is_maximal(g) && engine.check_liveness_invariant();
                self.reference.push(summary);
            } else {
                ok &= self.reference[epoch] == summary;
            }
            sp.end(check);
            if !ok {
                out.fail(format!(
                    "sweep {sweep} epoch {}: not maximal, liveness stale, or not repeated",
                    epoch + 1
                ));
            }
            out.sim.add(Sim {
                rounds: report.rounds,
                messages: report.messages,
                bits: report.bits,
                max_msg_bits: 0,
            });
            iterations += report.iterations;
            woken += report.woken as u64;
            damage += report.damage as u64;
            repair_rounds.push(report.rounds as f64);
        }
        let after = engine.net_stats().expect("maximal arm has a network");
        out.sim.max_msg_bits = after.max_msg_bits;

        if sweep == 0 {
            // The exact reference, once, on the final graph.
            let check = sp.begin("check", "dgraph.verify");
            let open = sp.begin("blossom::max_matching", "dgraph.verify");
            let opt = dgraph::blossom::max_matching(engine.graph()).size();
            sp.end(open);
            sp.end(check);
            let ratio = engine.matching().size() as f64 / opt.max(1) as f64;
            if ratio < 0.5 {
                out.fail(format!("final matching ratio {ratio:.4} < 1/2"));
            }
            out.ratio_min = ratio;
        }

        let mut simnet = SimnetAcc::default();
        simnet.add_delta(&before, after, engine.graph().n());
        let simnet_s = simnet.busy_s();
        let wall = out.wall_s;
        let epochs = self.epochs as f64;
        out.layers.extend(simnet.metrics());
        out.layers.extend([
            metric("dchurn.bootstrap_s", sp.total("DynEngine::bootstrap"), "s"),
            metric("dchurn.simnet_s", simnet_s, "s"),
            metric("dchurn.bookkeeping_s", wall - simnet_s, "s"),
            metric(
                "dchurn.iterations_per_epoch",
                iterations as f64 / epochs,
                "count",
            ),
            metric(
                "dchurn.woken_per_damage",
                if damage == 0 {
                    0.0
                } else {
                    woken as f64 / damage as f64
                },
                "ratio",
            ),
            metric("dchurn.repair_rounds_p50", median(&repair_rounds), "rounds"),
            metric(
                "dchurn.node_steps_per_epoch",
                simnet.node_steps() as f64 / epochs,
                "count",
            ),
            metric("load.churn_gen_s", gen_s, "s"),
            metric("simnet.busy_share", simnet_s / wall, "frac"),
            metric("dchurn.bookkeeping_share", (wall - simnet_s) / wall, "frac"),
        ]);
        out
    }
}
