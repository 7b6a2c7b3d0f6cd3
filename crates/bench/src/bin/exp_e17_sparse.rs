//! E17 — the sparse activity-driven step plane: round cost ∝ active
//! nodes, not n.
//!
//! Two measurements, one claim (the LCA-style "work ∝ probed region"
//! principle of Alon–Rubinfeld–Vardi–Xie / Reingold–Vardi, applied to
//! the round loop):
//!
//! **Part A — activity-fraction sweep.** A gossip workload in which
//! only a fraction `f` of nodes is ever active; the rest have nothing
//! to do. Two executions of the *same* workload, both under the one
//! round scheduler (its judge picks the dense sweep or the sparse wake
//! list every round):
//!
//! * `no sleep` — idle nodes are stepped every round and return
//!   immediately: the pre-sparse behavior, where every round cost O(n)
//!   regardless of activity;
//! * `sleep` — idle nodes `Ctx::sleep`, so once activity is low the
//!   rounds drain the wake list and idle nodes cost nothing.
//!
//! Both must agree bit-for-bit on final states and message counts
//! (asserted), the sleeping run must keep `plane_allocs` at zero per
//! steady-state round (asserted — the CI perf-smoke contract), and at
//! 10% activity it must beat `no sleep` by ≥ `E17_MIN_SPEEDUP`
//! (default 3, asserted unless `E17_ASSERT=0`).
//!
//! **Part B — repair-epoch cost vs n at fixed damage.** Two columns
//! over one n-ladder:
//!
//! * the simulated rounds: a ring of
//!   `dmatch::israeli_itai::RepairNode`s; each epoch churns away
//!   exactly one matched edge and runs a fixed budget of repair
//!   rounds. The damage is O(1), so the timed round cost stays
//!   flat as n grows — `node_steps` per epoch shows the active set
//!   staying near the damage;
//! * the whole epoch: the mean `DynEngine::step_with` time on
//!   gnp(n, d̄ = 8) with about 20 edges swapped per epoch (batches
//!   drawn outside the timed call): the topology and graph patches,
//!   the slab migration, the repair rounds and the damage-local
//!   bookkeeping. The patches copy every untouched row once per epoch,
//!   so this column grows linearly with n.
//!
//! Knobs: `E17_N` (default 120000), `E17_ROUNDS` (default 60),
//! `E17_RUNS` (default 3), `E17_REPAIR_LADDER` (default
//! "10000,20000,40000,80000"), `E17_MIN_SPEEDUP` (default 3),
//! `E17_ASSERT` (default 1).
//!
//! Writes `BENCH_e17_sparse.json` (machine-readable mirror of the
//! tables) for the CI artifact trail.

use bench_harness::{banner, env_or, f2, FracGossip, Table};
use dchurn::{ChurnGen, ChurnModel, DynEngine, RepairAlgo};
use dgraph::generators::random::gnp;
use simnet::{Network, NodeId, Topology};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

struct Measured {
    per_round: Duration,
    avg_active: f64,
}

/// Time `rounds` steady-state rounds (after warmup), best of `runs`.
fn measure_rounds(net: &mut Network<FracGossip>, rounds: u64, runs: u32) -> Measured {
    net.run_rounds(2); // warmup: idle nodes reach their steady state
    let r0 = net.stats().rounds;
    let steps0 = net.stats().node_steps;
    let mut best = Duration::MAX;
    for _ in 0..runs {
        let t0 = Instant::now();
        net.run_rounds(rounds);
        best = best.min(t0.elapsed());
        black_box(net.nodes().len());
    }
    let measured_rounds = net.stats().rounds - r0;
    let avg_active = (net.stats().node_steps - steps0) as f64 / measured_rounds as f64;
    Measured {
        per_round: best / rounds as u32,
        avg_active,
    }
}

struct FractionRow {
    fraction: f64,
    avg_active: f64,
    no_sleep_ns: u128,
    sleep_ns: u128,
    speedup: f64,
}

#[allow(clippy::too_many_arguments)]
fn sweep_fraction(
    topo: &Topology,
    n: usize,
    fraction: f64,
    rounds: u64,
    runs: u32,
    seed: u64,
) -> FractionRow {
    let threshold = (n as f64 * fraction).round() as NodeId;
    let mk = |sleepy: bool| {
        let nodes = (0..n).map(|_| FracGossip::new(threshold, sleepy)).collect();
        Network::new(topo.clone(), nodes, seed)
    };

    // Correctness gate: both executions agree bit-for-bit.
    let gate_rounds = 5;
    let mut gate_busy = mk(false);
    let mut gate_sleepy = mk(true);
    gate_busy.run_rounds(gate_rounds);
    gate_sleepy.run_rounds(gate_rounds);
    assert!(
        gate_busy
            .nodes()
            .iter()
            .zip(gate_sleepy.nodes())
            .all(|(a, b)| a.acc == b.acc),
        "the sleeping workload diverged from the busy-idle baseline"
    );
    assert_eq!(gate_busy.stats().messages, gate_sleepy.stats().messages);

    let mut busy = mk(false);
    let m_busy = measure_rounds(&mut busy, rounds, runs);
    let mut sleepy = mk(true);
    let m_sleepy = measure_rounds(&mut sleepy, rounds, runs);

    // The CI perf-smoke contract: the plane allocates nothing per
    // steady-state round.
    let s = sleepy.stats();
    assert!(
        s.per_round[1..].iter().all(|r| r.plane_allocs == 0),
        "the message plane allocated mid-run"
    );

    FractionRow {
        fraction,
        avg_active: m_sleepy.avg_active,
        no_sleep_ns: m_busy.per_round.as_nanos(),
        sleep_ns: m_sleepy.per_round.as_nanos(),
        speedup: m_busy.per_round.as_secs_f64() / m_sleepy.per_round.as_secs_f64(),
    }
}

// --------------------------------------------------------- Part B

struct RepairRow {
    n: usize,
    ms: f64,
    steps_per_epoch: f64,
    epoch_ms: f64,
}

/// Fixed round budget per repair epoch: one sync round, ten 3-round
/// iterations (far more than one lost edge ever needs), one drain.
const REPAIR_ROUNDS: u64 = 1 + 3 * 10 + 1;

/// Ring of RepairNodes: bootstrap to maximality (untimed), then per
/// epoch churn away one matched edge (untimed rewire) and run the
/// fixed repair-round budget (timed). Returns the mean timed cost per
/// epoch.
fn repair_epochs(n: usize, epochs: u64, seed: u64) -> (f64, f64) {
    use dmatch::israeli_itai::RepairNode;
    let edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
    let topo = Topology::from_edges(n, &edges);
    let nodes: Vec<RepairNode> = (0..n as u32)
        .map(|v| RepairNode::new(topo.degree(v)))
        .collect();
    let mut net = Network::new(topo, nodes, seed);
    // Bootstrap: run iterations until the ring is maximally matched.
    let mates = |net: &Network<RepairNode>| -> Vec<Option<u32>> {
        net.nodes()
            .iter()
            .enumerate()
            .map(|(v, s)| s.mate_port().map(|p| net.topology().neighbor(v as u32, p)))
            .collect()
    };
    let is_maximal_ring = |m: &[Option<u32>], net: &Network<RepairNode>| {
        (0..net.topology().len() as u32).all(|v| {
            m[v as usize].is_some()
                || net
                    .topology()
                    .neighbors(v)
                    .iter()
                    .all(|&u| m[u as usize].is_some())
        })
    };
    net.run_rounds(1); // sync round
    for _ in 0..200 {
        net.run_rounds(3);
        if is_maximal_ring(&mates(&net), &net) {
            break;
        }
    }
    assert!(is_maximal_ring(&mates(&net), &net), "bootstrap failed");

    let mut timed = Duration::ZERO;
    let steps0 = net.stats().node_steps;
    for e in 0..epochs {
        // Damage: one matched edge, rotated around the ring so epochs
        // do not compound in one place.
        let m = mates(&net);
        let start = (e as u32).wrapping_mul(0x9E37) % n as u32;
        let u = (0..n as u32)
            .map(|i| (start + i) % n as u32)
            .find(|&v| m[v as usize] == Some((v + 1) % n as u32))
            .expect("a matched ring edge");
        let v = (u + 1) % n as u32;
        net.rewire(&[(u, v)], &[]);
        let t0 = Instant::now();
        net.run_rounds(REPAIR_ROUNDS);
        timed += t0.elapsed();
        black_box(net.stats().rounds);
    }
    let m = mates(&net);
    assert!(is_maximal_ring(&m, &net), "repair budget was insufficient");
    let steps = (net.stats().node_steps - steps0) as f64 / epochs as f64;
    (timed.as_secs_f64() * 1e3 / epochs as f64, steps)
}

/// Edges removed (and as many inserted) per end-to-end epoch.
const EPOCH_SWAP: f64 = 20.0;

/// Epochs averaged per end-to-end cell.
const ENGINE_EPOCHS: u32 = 30;

/// `DynEngine` (IncrementalMaximal) on gnp(n, d̄ = 8): bootstrap
/// (untimed), then per epoch draw an edge-churn batch of about
/// `EPOCH_SWAP` swaps (untimed) and time the whole `step_with`.
/// Returns the mean end-to-end milliseconds per epoch.
fn engine_epochs(n: usize, seed: u64) -> f64 {
    let g = gnp(n, 8.0 / n as f64, seed);
    let model = ChurnModel::EdgeChurn {
        rate: EPOCH_SWAP / g.m() as f64,
    };
    let mut load = ChurnGen::new(model, seed);
    let mut engine = DynEngine::new(g, ChurnModel::Trace, RepairAlgo::IncrementalMaximal, seed);
    engine.bootstrap();
    let mut timed = Duration::ZERO;
    for _ in 0..ENGINE_EPOCHS {
        let batch = load.next_batch(engine.graph());
        let t0 = Instant::now();
        let report = engine.step_with(batch);
        timed += t0.elapsed();
        assert!(report.maximal, "repair must end maximal");
    }
    timed.as_secs_f64() * 1e3 / ENGINE_EPOCHS as f64
}

fn main() {
    banner(
        "E17",
        "sparse activity-driven step plane",
        "round cost ∝ active nodes (LCA principle), not n",
    );
    let n = env_or("E17_N", 120_000) as usize;
    let rounds = env_or("E17_ROUNDS", 60);
    let runs = env_or("E17_RUNS", 3) as u32;
    let min_speedup = env_or("E17_MIN_SPEEDUP", 3) as f64;
    let do_assert = env_or("E17_ASSERT", 1) == 1;
    let seed = 17u64;

    println!(
        "Part A: activity-fraction sweep on gnp(n={n}, d̄=8), {rounds} rounds/run, {runs} runs"
    );
    let g = gnp(n, 8.0 / n as f64, 7);
    let topo = dmatch::topology_of(&g);
    let mut rows = Vec::new();
    let mut t = Table::new(vec![
        "active",
        "avg active/round",
        "no-sleep/round",
        "sleep/round",
        "speedup vs no-sleep",
    ]);
    for fraction in [1.0, 0.5, 0.1, 0.01] {
        let row = sweep_fraction(&topo, n, fraction, rounds, runs, seed);
        t.row(vec![
            format!("{:.0}%", fraction * 100.0),
            format!("{:.0}", row.avg_active),
            format!("{}ns", row.no_sleep_ns),
            format!("{}ns", row.sleep_ns),
            format!("{}x", f2(row.speedup)),
        ]);
        rows.push(row);
    }
    t.print();
    let at_10pct = rows
        .iter()
        .find(|r| (r.fraction - 0.1).abs() < 1e-9)
        .expect("10% row");
    println!(
        "\n  quiet-tail speedup at 10% activity: {}x (floor: {min_speedup}x)",
        f2(at_10pct.speedup)
    );
    if do_assert {
        assert!(
            at_10pct.speedup >= min_speedup,
            "sleeping speedup {:.2}x at 10% activity is below the {min_speedup}x floor",
            at_10pct.speedup
        );
    }

    println!(
        "\nPart B: repair-epoch cost vs n: {REPAIR_ROUNDS} repair rounds after one churned ring edge, \
         and whole DynEngine epochs on gnp(n, d̄=8) swapping ~{EPOCH_SWAP} edges (mean of {ENGINE_EPOCHS})"
    );
    let ladder: Vec<usize> = std::env::var("E17_REPAIR_LADDER")
        .unwrap_or_else(|_| "10000,20000,40000,80000".into())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    let epochs = 5u64;
    let mut repair_rows = Vec::new();
    let mut t = Table::new(vec![
        "n",
        "rounds ms/epoch",
        "node steps/epoch",
        "whole epoch ms",
    ]);
    for &rn in &ladder {
        let (ms, steps) = repair_epochs(rn, epochs, 3);
        let epoch_ms = engine_epochs(rn, 3);
        t.row(vec![
            rn.to_string(),
            format!("{ms:.3}"),
            format!("{steps:.0}"),
            format!("{epoch_ms:.2}"),
        ]);
        repair_rows.push(RepairRow {
            n: rn,
            ms,
            steps_per_epoch: steps,
            epoch_ms,
        });
    }
    t.print();
    if repair_rows.len() >= 2 {
        let first = &repair_rows[0];
        let last = &repair_rows[repair_rows.len() - 1];
        println!(
            "\n  n grew {:.1}x: repair rounds {:.1}x slower, active set {:.1}x, whole epoch {:.1}x slower",
            last.n as f64 / first.n as f64,
            last.ms / first.ms,
            last.steps_per_epoch / first.steps_per_epoch,
            last.epoch_ms / first.epoch_ms,
        );
    }

    // Machine-readable mirror for the CI artifact trail.
    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"e17_sparse\",\n");
    let _ = writeln!(
        json,
        "  \"host\": {},",
        bench_harness::host::fingerprint().to_json()
    );
    // This experiment measures the scheduler, not the executor: every
    // run is sequential by construction.
    json.push_str("  \"threads_requested\": 1,\n  \"threads_used_peak\": 1,\n");
    let _ = writeln!(json, "  \"n\": {n},");
    let _ = writeln!(json, "  \"rounds_per_run\": {rounds},");
    let _ = writeln!(json, "  \"runs\": {runs},");
    json.push_str("  \"fractions\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"fraction\": {}, \"avg_active\": {:.0}, \"no_sleep_ns\": {}, \"sleep_ns\": {}, \"speedup\": {:.2}}}",
            r.fraction, r.avg_active, r.no_sleep_ns, r.sleep_ns, r.speedup
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"speedup_at_10pct\": {:.2},", at_10pct.speedup);
    let _ = writeln!(json, "  \"repair_rounds_per_epoch\": {REPAIR_ROUNDS},");
    json.push_str("  \"repair_ladder\": [\n");
    for (i, r) in repair_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"n\": {}, \"ms_per_epoch\": {:.3}, \"node_steps_per_epoch\": {:.0}, \"epoch_ms\": {:.3}}}",
            r.n, r.ms, r.steps_per_epoch, r.epoch_ms
        );
        json.push_str(if i + 1 < repair_rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ],\n  \"plane_allocs_steady_state\": 0\n}\n");
    std::fs::write("BENCH_e17_sparse.json", &json).expect("write BENCH_e17_sparse.json");
    println!("\n  wrote BENCH_e17_sparse.json");
}
