//! E19 — the sparse/dense **parallel frontier**: does multi-threaded
//! stepping actually win, and does it ever lose?
//!
//! The paper's algorithms are round-synchronous, so a round is an
//! embarrassingly parallel map over the active nodes. E19 sweeps a
//! threads × n × activity ladder over the round scheduler (its judge
//! picks the dense sweep or the sparse wake list every round) and the
//! fan-out rule of `simnet::parallel` (one worker per fixed floor of
//! expected node steps, capped by the requested threads and the host's
//! cores), and records, machine-readably:
//!
//! * `par_speedup` per (n, activity, threads) cell — sequential time
//!   over parallel time, so > 1 means parallel won — next to the
//!   `workers` the measured rounds fanned out to. Cells with
//!   `workers = 1` run the same code on both sides, so their spread
//!   is the host's A/A′ noise;
//! * the **crossover n**: the smallest network at which any thread
//!   count beats sequential at 100% activity (null on boxes without
//!   usable cores — which is why the header carries the host
//!   fingerprint);
//! * the **seq-fallback overhead**: how much a `threads = 8` config
//!   pays over `threads = 1` on a workload below the fan-out floor —
//!   it must not fan out at all (asserted), and the acceptance bound
//!   on its overhead is < 5%;
//! * a per-phase wall-clock breakdown (the `dobs` timing-histogram
//!   registry behind `ExecCfg::timing`) of one low-activity run,
//!   showing where rounds actually go (sparse vs. dense stepping,
//!   representation conversion, merge).
//!
//! Correctness is not sampled here, it is gated: every measured
//! configuration first re-runs a short prefix against the sequential
//! reference and must agree bit-for-bit.
//!
//! Knobs: `E19_NMAX` (default 131072) caps the n-ladder, `E19_THREADS`
//! (default 8) caps the thread ladder, `E19_ROUNDS` (default 30)
//! measured rounds, `E19_RUNS` (default 3) timing repeats,
//! `E19_ASSERT` (default 1) enables the fallback-overhead assertion.
//!
//! Writes `BENCH_e19_parallel.json` for the CI artifact trail.

use bench_harness::{banner, env_or, f2, host, FracGossip, Table};
use dgraph::generators::random::gnp;
use dobs::{Event, TraceSession};
use simnet::{ExecCfg, Network, NodeId, Topology};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

fn mk(topo: &Topology, threshold: NodeId, seed: u64, cfg: ExecCfg) -> Network<FracGossip> {
    let nodes = (0..topo.len())
        .map(|_| FracGossip::new(threshold, true))
        .collect();
    Network::new(topo.clone(), nodes, seed).with_cfg(cfg)
}

/// Best-of-`runs` time per steady-state round.
fn time_rounds(net: &mut Network<FracGossip>, rounds: u64, runs: u32) -> Duration {
    net.run_rounds(2); // warmup: sleepers park, the frontier settles
    let mut best = Duration::MAX;
    for _ in 0..runs {
        let t0 = Instant::now();
        net.run_rounds(rounds);
        best = best.min(t0.elapsed());
        black_box(net.nodes().len());
    }
    best / rounds as u32
}

/// Workers the steady-state rounds of `net` (past warmup) fan out to,
/// read from the round spans of a short traced run. `peak_workers()`
/// would also count round 0, in which every node starts awake, so a
/// low-activity cell on a large network would report that one round
/// instead of the rounds the timing measured.
fn steady_workers(net: &mut Network<FracGossip>) -> usize {
    let session = TraceSession::start(1 << 10);
    net.run_rounds(4);
    session
        .finish()
        .events()
        .filter_map(|e| match *e {
            Event::RoundSpan { workers, .. } => Some((workers as usize).max(1)),
            _ => None,
        })
        .max()
        .unwrap_or(1)
}

/// Bit-identity gate: `cfg` must reproduce the sequential reference
/// exactly (accumulators, message count and the full stats) on a short
/// run.
fn gate(topo: &Topology, threshold: NodeId, seed: u64, cfg: ExecCfg) {
    let gate_rounds = 6;
    let mut reference = mk(topo, threshold, seed, ExecCfg::sequential());
    let mut candidate = mk(topo, threshold, seed, cfg);
    reference.run_rounds(gate_rounds);
    candidate.run_rounds(gate_rounds);
    assert!(
        reference
            .nodes()
            .iter()
            .zip(candidate.nodes())
            .all(|(a, b)| a.acc == b.acc),
        "{cfg:?} diverged from the sequential reference"
    );
    assert_eq!(reference.stats(), candidate.stats());
}

struct Cell {
    n: usize,
    activity: f64,
    threads: usize,
    seq_ns: u128,
    par_ns: u128,
    speedup: f64,
    workers: usize,
}

fn main() {
    banner(
        "E19",
        "parallel frontier: threads x n x activity",
        "round-synchronous model; rounds are parallel maps over active nodes",
    );
    let fp = host::fingerprint();
    println!(
        "  host: {} cores available ({}/{}, {} build)\n",
        fp.available_parallelism, fp.os, fp.arch, fp.profile
    );

    let n_max = env_or("E19_NMAX", 131_072) as usize;
    let t_max = (env_or("E19_THREADS", 8) as usize).max(2);
    let rounds = env_or("E19_ROUNDS", 30);
    let runs = env_or("E19_RUNS", 3) as u32;
    let seed = 0xE19;

    let ns: Vec<usize> = [2_000usize, 8_000, 32_000, 131_072, 524_288]
        .into_iter()
        .filter(|&x| x <= n_max)
        .collect();
    let thread_ladder: Vec<usize> = [2usize, 4, 8, 16]
        .into_iter()
        .filter(|&t| t <= t_max)
        .collect();
    let activities = [1.0f64, 0.25, 0.05];

    let mut cells: Vec<Cell> = Vec::new();
    let mut peak_overall = 1usize;
    let mut t = Table::new(vec![
        "n",
        "activity",
        "threads",
        "seq/round",
        "par/round",
        "speedup",
        "workers",
    ]);
    for &n in &ns {
        let g = gnp(n, 8.0 / n as f64, 7);
        let topo = dmatch::topology_of(&g);
        for &activity in &activities {
            let threshold = (n as f64 * activity).round() as NodeId;
            let seq_ns = {
                let mut net = mk(&topo, threshold, seed, ExecCfg::sequential());
                time_rounds(&mut net, rounds, runs).as_nanos()
            };
            for &threads in &thread_ladder {
                let cfg = ExecCfg::parallel(threads);
                gate(&topo, threshold, seed, cfg);
                let mut net = mk(&topo, threshold, seed, cfg);
                let par_ns = time_rounds(&mut net, rounds, runs).as_nanos();
                let speedup = seq_ns as f64 / par_ns as f64;
                let workers = steady_workers(&mut net);
                peak_overall = peak_overall.max(workers);
                t.row(vec![
                    n.to_string(),
                    format!("{activity:.2}"),
                    threads.to_string(),
                    format!("{}us", seq_ns / 1_000),
                    format!("{}us", par_ns / 1_000),
                    f2(speedup),
                    workers.to_string(),
                ]);
                cells.push(Cell {
                    n,
                    activity,
                    threads,
                    seq_ns,
                    par_ns,
                    speedup,
                    workers,
                });
            }
        }
    }
    t.print();

    // Crossover: smallest n where some thread count wins at 100%
    // activity by more than timer noise. `workers > 1` keeps the claim
    // honest: a "win" in which no measured round fanned out is two
    // sequential runs plus noise, not a parallel victory (observed on a
    // 1-core container: 1.4x "speedup" between two identical sequential
    // paths).
    let crossover_n = ns
        .iter()
        .find(|&&n| {
            cells
                .iter()
                .any(|c| c.n == n && c.activity == 1.0 && c.speedup > 1.05 && c.workers > 1)
        })
        .copied();
    match crossover_n {
        Some(c) => println!("\n  sequential/parallel crossover: n = {c}"),
        None => println!(
            "\n  sequential/parallel crossover: none up to n={} on this host \
             ({} cores available)",
            ns.last().copied().unwrap_or(0),
            fp.available_parallelism
        ),
    }

    // Seq-fallback overhead: a tiny workload with a big thread request.
    // It sits below the fan-out floor, so no round may fan out, and
    // asking for threads must then cost (almost) nothing.
    let fallback_n = 1_000usize;
    let g = gnp(fallback_n, 8.0 / fallback_n as f64, 7);
    let topo = dmatch::topology_of(&g);
    let fb_rounds = rounds.max(50);
    let seq_ns = {
        let mut net = mk(&topo, fallback_n as NodeId, seed, ExecCfg::sequential());
        time_rounds(&mut net, fb_rounds, runs).as_nanos()
    };
    let mut fb_net = mk(&topo, fallback_n as NodeId, seed, ExecCfg::parallel(t_max));
    let fb_ns = time_rounds(&mut fb_net, fb_rounds, runs).as_nanos();
    let fb_peak = fb_net.peak_workers();
    let fallback_overhead_pct = (fb_ns as f64 / seq_ns as f64 - 1.0) * 100.0;
    println!(
        "  seq-fallback overhead (n={fallback_n}, {t_max} threads requested, \
         {fb_peak} worker(s) spawned): {}%",
        f2(fallback_overhead_pct)
    );
    assert_eq!(
        fb_peak, 1,
        "n={fallback_n} is below the fan-out floor, yet a round fanned out"
    );
    if env_or("E19_ASSERT", 1) == 1 {
        assert!(
            fallback_overhead_pct < 5.0,
            "fallback cost {fallback_overhead_pct:.1}% over sequential \
             (acceptance bound: < 5%)"
        );
    }

    // Phase breakdown of one low-activity run: round 0 schedules
    // everyone (dense), then activity drops to 5% and the judge
    // converts back to sparse — all three phases show up.
    let pb_n = ns.last().copied().unwrap_or(2_000);
    let g = gnp(pb_n, 8.0 / pb_n as f64, 7);
    let topo = dmatch::topology_of(&g);
    let mut pb_net = mk(
        &topo,
        (pb_n / 20) as NodeId,
        seed,
        ExecCfg::parallel(t_max).timed(),
    );
    pb_net.run_rounds(rounds);
    // The timing registry holds per-round histograms; `sum()` is the
    // old scalar accumulator, the p99 column is what the scalars hid.
    let pt = pb_net.stats().timings.clone();
    let (sparse_sum, dense_sum, conv_sum, merge_sum) = (
        pt.sum(simnet::stats::timing::SPARSE_UPDATE_NS),
        pt.sum(simnet::stats::timing::DENSE_UPDATE_NS),
        pt.sum(simnet::stats::timing::CONVERSION_NS),
        pt.sum(simnet::stats::timing::MERGE_NS),
    );
    println!(
        "  phase breakdown (n={pb_n}, 5% activity, {} rounds): \
         sparse {}us, dense {}us, conversion {}us, merge {}us",
        rounds,
        sparse_sum / 1_000,
        dense_sum / 1_000,
        conv_sum / 1_000,
        merge_sum / 1_000
    );
    if let Some(h) = pt.hist(simnet::stats::timing::SPARSE_UPDATE_NS) {
        println!(
            "  sparse round distribution: p50 {}us, p99 {}us, max {}us over {} rounds",
            h.p50() / 1_000,
            h.p99() / 1_000,
            h.max() / 1_000,
            h.count()
        );
    }

    // Machine-readable mirror for the CI artifact trail.
    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"e19_parallel\",\n");
    let _ = writeln!(json, "  \"host\": {},", fp.to_json());
    let _ = writeln!(json, "  \"threads_requested_max\": {t_max},");
    let _ = writeln!(json, "  \"threads_used_peak\": {peak_overall},");
    let _ = writeln!(json, "  \"rounds_per_run\": {rounds},");
    let _ = writeln!(json, "  \"runs\": {runs},");
    json.push_str("  \"ladder\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"n\": {}, \"activity\": {}, \"threads\": {}, \"seq_ns\": {}, \
             \"par_ns\": {}, \"par_speedup\": {:.2}, \"workers\": {}}}",
            c.n, c.activity, c.threads, c.seq_ns, c.par_ns, c.speedup, c.workers
        );
        json.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"sequential_parallel_crossover_n\": {},",
        crossover_n.map_or("null".to_string(), |c| c.to_string())
    );
    let _ = writeln!(
        json,
        "  \"seq_fallback\": {{\"n\": {fallback_n}, \"threads_requested\": {t_max}, \
         \"peak_workers\": {fb_peak}, \"overhead_pct\": {fallback_overhead_pct:.2}}},"
    );
    let _ = writeln!(
        json,
        "  \"phase_breakdown_ns\": {{\"sparse_update\": {sparse_sum}, \
         \"dense_update\": {dense_sum}, \"conversion\": {conv_sum}, \"merge\": {merge_sum}}},"
    );
    let _ = writeln!(json, "  \"timings\": {}", pt.to_json());
    json.push_str("}\n");
    std::fs::write("BENCH_e19_parallel.json", &json).expect("write BENCH_e19_parallel.json");
    println!("\n  wrote BENCH_e19_parallel.json");
}
