//! E20 — the observability plane: trace fidelity and tracing overhead.
//!
//! Two claims are on trial:
//!
//! 1. **Fidelity.** A traced churn run must come out of the flight
//!    recorder as a Perfetto-loadable Chrome trace with per-round
//!    spans, per-worker tracks, and per-epoch instants — checked here
//!    by re-parsing the export with `dobs`'s own JSON parser, not by
//!    eyeballing. The binary writes the artifacts next to the
//!    `BENCH_*.json` records: `e20_obs.trace.json` (load it at
//!    <https://ui.perfetto.dev>) and `e20_obs.trace.jsonl` (grep/jq).
//! 2. **Overhead.** The recorder hooks sit inside `Network::step`; with
//!    no recorder installed they must cost nothing measurable. Two
//!    *identical* untraced runs (A/A′, best-of-`E20_RUNS` each) must
//!    agree within 2% — the hooks are a TLS flag read, so any stable
//!    gap would mean the disabled path grew real work. The traced run's
//!    overhead is *reported* (it buys the whole event stream) but not
//!    gated.
//!
//! Knobs: `E20_N` (default 6000), `E20_EPOCHS` (default 16), `E20_DEG`
//! (default 8), `E20_RUNS` (best-of for the timing pairs, default 3),
//! `E20_TRACE_CAP` (ring capacity, default 65536), `E20_ASSERT=0`
//! (report instead of asserting the 2% bound — for noisy shared hosts).

use bench_harness::workloads::Family;
use bench_harness::{banner, env_or, f2, host, Table};
use dchurn::{ChurnModel, DynEngine, RepairAlgo};
use dobs::TraceSession;
use simnet::ExecCfg;
use std::fmt::Write as _;
use std::time::Instant;

/// One full churn run: bootstrap + `epochs` repair epochs. Returns the
/// engine for inspection (metrics registry, reports).
fn churn_run(n: usize, deg: f64, epochs: u64, cfg: ExecCfg) -> DynEngine {
    let g = Family::Gnp.instantiate_with_deg(n, deg, 7).graph;
    let mut eng = DynEngine::with_cfg(
        g,
        ChurnModel::EdgeChurn { rate: 0.02 },
        RepairAlgo::IncrementalMaximal,
        1007,
        cfg,
    );
    eng.bootstrap();
    for _ in 0..epochs {
        let rep = eng.step_epoch();
        assert!(rep.maximal, "every epoch must end maximal");
    }
    eng
}

/// Best-of-`runs` wall time of one untraced churn run.
fn best_of(runs: u64, n: usize, deg: f64, epochs: u64, cfg: ExecCfg) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..runs {
        let t = Instant::now();
        let eng = churn_run(n, deg, epochs, cfg);
        best = best.min(t.elapsed().as_nanos() as u64);
        std::hint::black_box(eng.matching().size());
    }
    best
}

fn main() {
    let n = env_or("E20_N", 6000) as usize;
    let epochs = env_or("E20_EPOCHS", 16);
    let deg = env_or("E20_DEG", 8) as f64;
    let runs = env_or("E20_RUNS", 3).max(1);
    let cap = env_or("E20_TRACE_CAP", 65536) as usize;
    let gate = env_or("E20_ASSERT", 1) == 1;
    let fp = host::fingerprint();

    banner(
        "E20",
        "observability: trace fidelity and disabled-tracing overhead",
        "implementation artifact (dobs plane); CONGEST accounting unchanged",
    );
    println!(
        "  host: {} cores available ({}/{}, {} build)",
        fp.available_parallelism, fp.os, fp.arch, fp.profile
    );
    println!("  gnp n={n}, d̄≈{deg}, {epochs} epochs, 2% churn/epoch\n");

    // --- Part 1: traced run → exported artifacts → re-parse and check.
    // Two forced workers so the per-worker tracks exist even on a
    // 1-core container (forced() bypasses the fan-out floor; the
    // results stay bit-identical by the parallel plane's contract).
    let session = TraceSession::start(cap);
    let eng = churn_run(n, deg, epochs, ExecCfg::parallel(2).forced());
    let rec = session.finish();

    let trace = dobs::export::chrome_trace(&rec);
    let lines = dobs::export::jsonl(&rec);
    std::fs::write("e20_obs.trace.json", &trace).expect("write trace");
    std::fs::write("e20_obs.trace.jsonl", &lines).expect("write jsonl");

    let v = dobs::json::parse(&trace).expect("exported trace must be valid JSON");
    let events = v
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    let ph = |e: &dobs::json::Value| {
        e.get("ph")
            .and_then(|p| p.as_str())
            .unwrap_or("")
            .to_string()
    };
    let round_spans = events
        .iter()
        .filter(|e| ph(e) == "X" && e.get("tid").and_then(|t| t.as_f64()) == Some(0.0))
        .count();
    let mut worker_tids: Vec<u64> = events
        .iter()
        .filter(|e| ph(e) == "X")
        .filter_map(|e| e.get("tid")?.as_f64())
        .filter(|&t| t >= 10.0)
        .map(|t| t as u64)
        .collect();
    worker_tids.sort_unstable();
    worker_tids.dedup();
    let epoch_instants = events
        .iter()
        .filter(|e| {
            ph(e) == "i"
                && e.get("name")
                    .and_then(|n| n.as_str())
                    .is_some_and(|n| n.starts_with("epoch"))
        })
        .count();
    let track_names: Vec<String> = events
        .iter()
        .filter(|e| ph(e) == "M")
        .filter_map(|e| Some(e.get("args")?.get("name")?.as_str()?.to_string()))
        .collect();

    let mut t = Table::new(vec!["trace check", "value", "require"]);
    t.row(vec![
        "events kept (ring)".to_string(),
        format!("{} of {} recorded", rec.len(), rec.recorded()),
        format!("cap {cap}"),
    ]);
    t.row(vec![
        "round spans (tid 0)".to_string(),
        round_spans.to_string(),
        "> 0".to_string(),
    ]);
    t.row(vec![
        "worker tracks".to_string(),
        format!("{:?}", worker_tids),
        ">= 2 tids".to_string(),
    ]);
    t.row(vec![
        "epoch instants".to_string(),
        epoch_instants.to_string(),
        format!("{} (bootstrap + epochs)", epochs + 1),
    ]);
    t.print();
    assert!(round_spans > 0, "trace must carry per-round spans");
    assert!(
        worker_tids.len() >= 2,
        "trace must carry >= 2 per-worker tracks (got {worker_tids:?})"
    );
    assert!(
        track_names.iter().any(|s| s == "rounds")
            && track_names.iter().any(|s| s.starts_with("worker")),
        "trace must name its tracks for Perfetto"
    );
    // The ring may evict early rounds, but epoch instants are rare and
    // recent: all of them must survive a 64k ring at this size.
    assert!(
        epoch_instants as u64 == epochs + 1 || rec.dropped() > 0,
        "all epoch instants must reach the trace"
    );

    // --- dchurn repair distributions, straight off the engine.
    println!("\n--- per-epoch repair distributions (dchurn metrics registry)");
    let mut t = Table::new(vec!["histogram", "p50", "p90", "p99", "max"]);
    for name in ["repair_rounds", "repair_messages", "damage_nodes", "woken"] {
        if let Some(h) = eng.metrics().hist(name) {
            t.row(vec![
                name.to_string(),
                h.quantile(0.5).to_string(),
                h.quantile(0.9).to_string(),
                h.p99().to_string(),
                h.max().to_string(),
            ]);
        }
    }
    t.print();

    // --- Part 2: overhead. A/A′ untraced (gated), traced (reported).
    println!("\n--- overhead: best-of-{runs} untraced A/A′ pair, then traced");
    let cfg = ExecCfg::sequential();
    let a_ns = best_of(runs, n, deg, epochs, cfg);
    let a2_ns = best_of(runs, n, deg, epochs, cfg);
    let base = a_ns.min(a2_ns) as f64;
    let disabled_overhead_pct = (a_ns.max(a2_ns) as f64 / base - 1.0) * 100.0;

    let mut traced_best = u64::MAX;
    for _ in 0..runs {
        let session = TraceSession::start(cap);
        let t = Instant::now();
        let eng = churn_run(n, deg, epochs, cfg);
        traced_best = traced_best.min(t.elapsed().as_nanos() as u64);
        std::hint::black_box(eng.matching().size());
        session.finish();
    }
    let traced_overhead_pct = (traced_best as f64 / base - 1.0) * 100.0;

    let mut t = Table::new(vec!["run", "best ns", "vs base"]);
    t.row(vec![
        "untraced A".to_string(),
        a_ns.to_string(),
        "-".to_string(),
    ]);
    t.row(vec![
        "untraced A′".to_string(),
        a2_ns.to_string(),
        format!("{}%", f2(disabled_overhead_pct)),
    ]);
    t.row(vec![
        "traced".to_string(),
        traced_best.to_string(),
        format!("{}%", f2(traced_overhead_pct)),
    ]);
    t.print();
    println!(
        "\n  disabled-path hooks: {}% A/A′ spread (gate < 2%{}); tracing itself: {}%",
        f2(disabled_overhead_pct),
        if gate {
            ""
        } else {
            ", E20_ASSERT=0: report only"
        },
        f2(traced_overhead_pct)
    );
    if gate {
        assert!(
            disabled_overhead_pct < 2.0,
            "acceptance: untraced A/A′ runs must agree within 2% \
             (got {disabled_overhead_pct:.2}% — the disabled hook path must stay a flag read)"
        );
    }

    // --- Machine-readable record (see EXPERIMENTS.md: committed
    // records carry the host fingerprint so benchdiff can tell a
    // regression from a different machine).
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"e20_obs\",");
    let _ = writeln!(json, "  \"host\": {},", fp.to_json());
    let _ = writeln!(json, "  \"n\": {n},");
    let _ = writeln!(json, "  \"epochs\": {epochs},");
    let _ = writeln!(json, "  \"runs\": {runs},");
    let _ = writeln!(json, "  \"trace_cap\": {cap},");
    let _ = writeln!(json, "  \"events_recorded\": {},", rec.recorded());
    let _ = writeln!(json, "  \"events_kept\": {},", rec.len());
    let _ = writeln!(json, "  \"round_spans\": {round_spans},");
    let _ = writeln!(json, "  \"worker_tracks\": {},", worker_tids.len());
    let _ = writeln!(json, "  \"epoch_instants\": {epoch_instants},");
    let _ = writeln!(json, "  \"untraced_a_ns\": {a_ns},");
    let _ = writeln!(json, "  \"untraced_a2_ns\": {a2_ns},");
    let _ = writeln!(json, "  \"traced_ns\": {traced_best},");
    let _ = writeln!(
        json,
        "  \"disabled_aa_overhead_pct\": {},",
        f2(disabled_overhead_pct)
    );
    let _ = writeln!(
        json,
        "  \"traced_overhead_pct\": {},",
        f2(traced_overhead_pct)
    );
    let _ = writeln!(json, "  \"repair_metrics\": {}", eng.metrics().to_json());
    let _ = writeln!(json, "}}");
    std::fs::write("BENCH_e20_obs.json", &json).expect("write BENCH_e20_obs.json");
    println!("\n  wrote BENCH_e20_obs.json, e20_obs.trace.json, e20_obs.trace.jsonl");
}
