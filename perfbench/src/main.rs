//! `perfbench` — one benchmark for the whole job.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <static-zoo|generic-gather|churn-repair|oracle-lca> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each invocation runs one workload in its own process, closed-loop
//! with one client: the next op starts when the previous one returns.
//! The benchmark generates every input from `--seed` outside the timed
//! calls and hands the program only the generated inputs. `--seconds`
//! fixes how much work a run does (passes, epochs or queries, sized so
//! the run measures about that long on a 2-core host), so every run of
//! a comparison times the same work. Every op's output is checked
//! outside the timed calls; a failed check makes the run exit non-zero.
//!
//! The timed phase is [`SWEEPS`] identical sweeps over the workload's op
//! list, one after the other. An op's latency is the fastest of its
//! executions: on a shared host, other tenants slow the CPU by up to
//! half for stretches of a second or more, and the fastest of executions
//! seconds apart is the figure such stretches move least. Every sweep
//! must reproduce the first one's outputs and simulated counts exactly.
//!
//! Set-up (graph generation plus the construction a user pays once) is
//! repeated [`SETUP_REPS`] times and reported as the median.
//!
//! `--trace 0` prints the end-to-end metrics: `setup_s`; `wall_s`, the
//! sum of the op latencies (one pass over the op list); `op_p50_ms`;
//! `op_tail_ms`, the highest percentile that leaves ten ops above it;
//! `peak_rss_mb` (`VmHWM`); the simulated cost summed over the ops
//! (`sim_rounds`, `sim_messages`, `sim_bits`; `max_msg_bits` is the
//! maximum); and `ratio_min`, the worst approximation ratio among the
//! ops with an exact reference.
//!
//! `--trace 1` runs the same sweeps untraced, then again with
//! `ExecCfg::timed()`, a `dobs::TraceSession` and the benchmark's own
//! spans around each public call, and prints the per-layer metrics. The
//! simulated counts of both runs must be equal. The spans and the
//! program's events go to `.bench_out/<workload>-seed<n>.trace.json`
//! (Chrome trace format).

mod churn;
mod measure;
mod oracle;
mod sessions;
mod spans;

use measure::{median, metric, peak_rss_mb, result_json, tail, Metric, Sim};
use spans::Spans;
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// Sweeps over the op list per timed phase.
const SWEEPS: usize = 3;

/// Flight-recorder ring size for the traced run.
const RECORDER_CAPACITY: usize = 1 << 20;

/// The end-to-end metrics `BENCHMARK.json` declares, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("sim_rounds", "rounds"),
    ("sim_messages", "count"),
    ("sim_bits", "bits"),
    ("max_msg_bits", "bits"),
    ("ratio_min", "ratio"),
];

/// The per-layer metrics `BENCHMARK.json` declares, printed with
/// `--trace 1`: those every workload can report. A layer a workload
/// does not exercise reads 0.
const PER_LAYER: [(&str, &str); 26] = [
    ("dgraph.gen_s", "s"),
    ("dgraph.verify_s", "s"),
    ("setup.build_s", "s"),
    ("simnet.busy_share", "frac"),
    ("dmatch.local_share", "frac"),
    ("dmatch.generic.phase_l3_share", "frac"),
    ("dchurn.bookkeeping_share", "frac"),
    ("simnet.node_steps", "count"),
    ("simnet.active_frac", "frac"),
    ("simnet.sched_waste_frac", "frac"),
    ("simnet.plane_allocs", "count"),
    ("simnet.peak_inbox", "count"),
    ("dmatch.charged_rounds", "count"),
    ("dmatch.charged_frac", "frac"),
    ("dmatch.oracle_checks", "count"),
    ("dmatch.phases", "count"),
    ("dchurn.iterations_per_epoch", "count"),
    ("dchurn.woken_per_damage", "ratio"),
    ("dchurn.repair_rounds_p50", "rounds"),
    ("dchurn.node_steps_per_epoch", "count"),
    ("oracle.probed_per_query", "count"),
    ("oracle.balls_per_miss", "ratio"),
    ("oracle.ball_radius_p50", "hops"),
    ("dobs.trace_overhead_frac", "frac"),
    ("op.samples", "count"),
    ("op_tail.pct", "%"),
];

/// One workload: its inputs, its set-up and its timed sweeps.
pub trait Workload {
    /// Worker threads the workload's executor may use.
    fn threads(&self) -> usize;

    /// Generate the inputs from the seed and pay the one-time
    /// construction. `timed` selects `ExecCfg::timed()` for the sweeps
    /// that follow.
    fn setup(&mut self, sp: &mut Spans, timed: bool);

    /// One sweep over the op list, each op checked after it returns.
    /// Sweep 0 gates the outputs against their references; later sweeps
    /// must reproduce sweep 0 exactly.
    fn sweep(&mut self, sp: &mut Spans, sweep: usize) -> SweepOut;
}

/// What one sweep produced.
pub struct SweepOut {
    /// Latency of every op, in milliseconds, in op-list order.
    pub ops: Vec<f64>,
    /// Sum of the timed calls, in seconds.
    pub wall_s: f64,
    /// Simulated cost summed over the ops.
    pub sim: Sim,
    pub ratio_min: f64,
    pub failed: u64,
    /// Per-layer metrics of this workload.
    pub layers: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Default for SweepOut {
    fn default() -> Self {
        SweepOut {
            ops: Vec::new(),
            wall_s: 0.0,
            sim: Sim::default(),
            ratio_min: f64::INFINITY,
            failed: 0,
            layers: Vec::new(),
            notes: Vec::new(),
        }
    }
}

impl SweepOut {
    pub fn record_op(&mut self, secs: f64) {
        self.ops.push(secs * 1e3);
        self.wall_s += secs;
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.notes.push(format!("FAILED: {why}"));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// The sweeps of one timed phase, merged.
struct Timed {
    /// Per op, the fastest of its executions (ms).
    best: Vec<f64>,
    /// Sum of all timed calls of all sweeps (s).
    raw_wall_s: f64,
    attempted: u64,
    failed: u64,
    /// The first sweep: simulated cost, ratio, per-layer metrics.
    first: SweepOut,
}

impl Timed {
    fn run(wl: &mut dyn Workload, sp: &mut Spans) -> Timed {
        let first = wl.sweep(sp, 0);
        let mut t = Timed {
            best: first.ops.clone(),
            raw_wall_s: first.wall_s,
            attempted: first.ops.len() as u64,
            failed: first.failed,
            first,
        };
        for line in &t.first.notes {
            println!("{line}");
        }
        for r in 1..SWEEPS {
            let s = wl.sweep(sp, r);
            for line in &s.notes {
                println!("{line}");
            }
            t.attempted += s.ops.len() as u64;
            t.failed += s.failed;
            t.raw_wall_s += s.wall_s;
            if s.ops.len() != t.best.len() || s.sim != t.first.sim {
                t.failed += 1;
                println!(
                    "FAILED: sweep {r} did not repeat sweep 0 ({} ops, {:?} vs {} ops, {:?})",
                    s.ops.len(),
                    s.sim,
                    t.best.len(),
                    t.first.sim
                );
                continue;
            }
            for (b, x) in t.best.iter_mut().zip(&s.ops) {
                *b = b.min(*x);
            }
        }
        t
    }

    fn wall_s(&self) -> f64 {
        self.best.iter().sum::<f64>() / 1e3
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <static-zoo|generic-gather|churn-repair|oracle-lca> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k:?}"))?;
        let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        kv.insert(key.to_string(), v);
    }
    let num = |key: &str| -> Result<u64, String> {
        kv.get(key)
            .ok_or_else(|| format!("missing --{key}"))?
            .parse()
            .map_err(|e| format!("--{key}: {e}"))
    };
    let trace = match num("trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    let seconds = num("seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: kv.get("workload").ok_or("missing --workload")?.clone(),
        seed: num("seed")?,
        seconds,
        trace,
    })
}

fn workload(args: &Args, max_threads: usize) -> Option<Box<dyn Workload>> {
    let (seed, secs) = (args.seed, args.seconds);
    Some(match args.workload.as_str() {
        "static-zoo" => Box::new(sessions::static_zoo(seed, secs, max_threads.min(2))),
        "generic-gather" => Box::new(sessions::generic_gather(seed, secs)),
        "churn-repair" => Box::new(churn::churn_repair(seed, secs)),
        "oracle-lca" => Box::new(oracle::oracle_lca(seed, secs)),
        _ => return None,
    })
}

/// Pick `names` out of `have` in order; a metric the workload did not
/// produce reads 0.
fn select(names: &[(&str, &'static str)], have: &[Metric]) -> Vec<Metric> {
    names
        .iter()
        .map(|&(name, unit)| {
            let value = have
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            metric(name, value, unit)
        })
        .collect()
}

fn print_metrics(title: &str, ms: &[Metric]) {
    println!("{title}:");
    for m in ms {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let host = bench_harness::host::fingerprint();
    // dlint::allow(ambient-env, "caps the benchmark's executor threads at nproc; results are bit-identical for every thread count")
    let Some(mut wl) = workload(&args, host.available_parallelism) else {
        eprintln!("perfbench: unknown workload {:?}\n{USAGE}", args.workload);
        std::process::exit(2);
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("host {} threads_used={}", host.to_json(), wl.threads());

    let mut setup = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        // dlint::allow(wall-clock, "the benchmark times set-up; durations are reported, never fed back into the program")
        let t0 = Instant::now();
        wl.setup(&mut Spans::timing_only(), false);
        setup.push(t0.elapsed().as_secs_f64());
    }
    let base = Timed::run(wl.as_mut(), &mut Spans::timing_only());
    let (tail_ms, tail_pct, samples) = tail(&base.best);
    let sim = base.first.sim;
    let e2e = vec![
        metric("setup_s", median(&setup), "s"),
        metric("wall_s", base.wall_s(), "s"),
        metric("op_p50_ms", median(&base.best), "ms"),
        metric("op_tail_ms", tail_ms, "ms"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
        metric("sim_rounds", sim.rounds as f64, "rounds"),
        metric("sim_messages", sim.messages as f64, "count"),
        metric("sim_bits", sim.bits as f64, "bits"),
        metric("max_msg_bits", sim.max_msg_bits as f64, "bits"),
        metric("ratio_min", base.first.ratio_min, "ratio"),
    ];
    print_metrics("end-to-end", &e2e);
    println!(
        "  {samples} ops, each the fastest of {SWEEPS} sweeps; op_tail_ms is p{tail_pct:.2}; \
         all sweeps' timed calls sum to {:.6} s; fail_frac = {}/{}",
        base.raw_wall_s, base.failed, base.attempted
    );

    let mut attempted = base.attempted;
    let mut failed = base.failed;
    let reported = if args.trace {
        let session = dobs::TraceSession::start(RECORDER_CAPACITY);
        let epoch = dobs::plane::epoch().expect("a trace session installs a recorder");
        let mut sp = Spans::recording(epoch);
        wl.setup(&mut sp, true);
        let traced = Timed::run(wl.as_mut(), &mut sp);
        let rec = session.finish();
        attempted += traced.attempted;
        failed += traced.failed;
        if traced.first.sim != sim {
            failed += 1;
            println!(
                "FAILED: tracing changed the simulated cost: untraced {sim:?}, traced {:?}",
                traced.first.sim
            );
        }

        let mut layers = vec![
            metric(
                "dgraph.gen_s",
                sp.total("Family::instantiate") + sp.total("apply_weights"),
                "s",
            ),
            metric("dgraph.verify_s", sp.total("check"), "s"),
            metric(
                "setup.build_s",
                [
                    "SessionBuilder::build",
                    "OracleBuilder::build",
                    "DynEngine::bootstrap",
                ]
                .iter()
                .map(|n| sp.total(n))
                .sum(),
                "s",
            ),
            metric("wall_s.traced", traced.wall_s(), "s"),
            metric(
                "dobs.trace_overhead_frac",
                traced.wall_s() / base.wall_s() - 1.0,
                "frac",
            ),
            metric("op.samples", samples as f64, "count"),
            metric("op_tail.pct", tail_pct, "%"),
            metric("dobs.events", rec.recorded() as f64, "count"),
            metric("dobs.events_dropped", rec.dropped() as f64, "count"),
            metric("bench.spans", sp.len() as f64, "count"),
        ];
        layers.extend(traced.first.layers);
        for (layer, secs) in sp.self_times() {
            layers.push(metric(format!("self.{layer}_s"), secs, "s"));
        }
        print_metrics(
            "per-layer (traced run; sweep-0 figures for the workload's layers)",
            &layers,
        );

        let path = format!(".bench_out/{}-seed{}.trace.json", args.workload, args.seed);
        let doc = sp.splice_into_chrome(&dobs::export::chrome_trace(&rec));
        match std::fs::create_dir_all(".bench_out").and_then(|()| std::fs::write(&path, doc)) {
            Ok(()) => println!("trace written to {path}"),
            Err(e) => println!("trace not written to {path}: {e}"),
        }
        select(&PER_LAYER, &layers)
    } else {
        select(&END_TO_END, &e2e)
    };
    let correct = failed == 0;
    println!("{}", result_json(correct, attempted, failed, &reported));
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dobs::json::{parse, Value};

    /// The metric lists the binary prints are the ones `BENCHMARK.json`
    /// declares, in the same order and with the same units.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("json");
        let declared = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), ours(&END_TO_END));
        assert_eq!(declared("per_layer"), ours(&PER_LAYER));
    }

    #[test]
    fn tail_leaves_ten_samples_above() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&xs), (30.0, 75.0, 40));
        assert_eq!(tail(&xs[..10]), (10.0, 100.0, 10));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn result_line_has_exactly_the_declared_keys() {
        let line = result_json(true, 3, 0, &[metric("wall_s", 1.25, "s")]);
        let v = parse(&line).expect("result line is JSON");
        let keys: Vec<&str> = v
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let wall = v
            .get("metrics")
            .and_then(|m| m.get("wall_s"))
            .expect("metric");
        assert_eq!(wall.get("value").and_then(Value::as_f64), Some(1.25));
        assert_eq!(wall.get("unit").and_then(Value::as_str), Some("s"));
    }
}
