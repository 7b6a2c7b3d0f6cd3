//! E21 — the adversary plane: guarantee re-verification under faults.
//!
//! Theorems 3.1/3.8/3.11/4.5 assume a fault-free synchronous CONGEST
//! network. This sweep measures what actually survives when the
//! [`simnet::adversary`] plane breaks that assumption: every algorithm
//! family runs under message drop, bounded delay, crash-stop with
//! rejoin, a combined storm, and a degrade-mode CONGEST budget, and we
//! record
//!
//! * **safety** — every returned matching must still validate
//!   (mutually-agreed, adjacent, disjoint pairs). The sweep-wide
//!   violation count is written to the record as `safety_violations`
//!   and must be **0** — benchdiff gates it as a deterministic counter
//!   and the binary itself asserts it.
//! * **rounds inflation** — rounds under the plan vs. the fault-free
//!   baseline at the same seeds. Drop/delay stretch the bounded
//!   re-verification windows; this is the measured price of broken
//!   synchrony.
//! * **retained quality** — matching size (weight for the MWM
//!   families) vs. the fault-free baseline. Liveness degrades
//!   gracefully: faults may shrink the matching, never corrupt it.
//! * **fault gauges** — `dropped` / `delayed` / `crashed` /
//!   `deferred_bits` straight from `NetStats`, proving the plan was
//!   actually exercised (a zero-fault "fault run" would be vacuous).
//!
//! Everything here is deterministic in the built-in seeds — the
//! adversary draws from the same per-node seeded streams as the
//! simulator — so every number below gates at benchdiff's counter
//! threshold on any host.
//!
//! Knobs: `E21_N` (default 400), `E21_SEEDS` (default 2).
//! Writes `BENCH_e21_faults.json`.

use bench_harness::workloads::{Family, ScenarioSpec, Workload};
use bench_harness::{banner, env_or, f2, host, mean, Table};
use dgraph::generators::weights::WeightModel;
use dmatch::weighted::MwmBox;
use dmatch::Algorithm;
use simnet::{Budget, ExecCfg, FaultPlan};
use std::fmt::Write as _;

/// One (algorithm × plan) cell, averaged over seeds.
struct Cell {
    alg: &'static str,
    plan: &'static str,
    rounds: f64,
    inflation: f64,
    retained: f64,
    messages: f64,
    dropped: f64,
    delayed: f64,
    crashed: f64,
    deferred_bits: f64,
    violations: u64,
}

/// Matching quality: weight for the weighted families (their guarantee
/// is about weight), cardinality otherwise.
fn quality(w: &Workload, alg: &Algorithm, m: &dgraph::Matching) -> f64 {
    match alg {
        Algorithm::Weighted { .. } | Algorithm::DeltaMwm { .. } => m.weight(&w.graph),
        _ => m.size() as f64,
    }
}

fn sweep_cell(
    label: &'static str,
    alg: Algorithm,
    plan_label: &'static str,
    plan: FaultPlan,
    n: usize,
    seeds: u64,
    weighted: bool,
) -> Cell {
    let model = if weighted {
        WeightModel::Exponential(2.0)
    } else {
        WeightModel::Unit
    };
    let mut cell = Cell {
        alg: label,
        plan: plan_label,
        rounds: 0.0,
        inflation: 0.0,
        retained: 0.0,
        messages: 0.0,
        dropped: 0.0,
        delayed: 0.0,
        crashed: 0.0,
        deferred_bits: 0.0,
        violations: 0,
    };
    let (mut rounds, mut infl, mut ret, mut msgs) = (vec![], vec![], vec![], vec![]);
    for seed in 0..seeds {
        let w = ScenarioSpec::new(Family::Gnp, n, model, 100 + seed).build();
        let base = w.session(alg, seed).build().run_to_completion();
        let r = w
            .session(alg, seed)
            .exec(ExecCfg::default().with_faults(plan))
            .build()
            .run_to_completion();
        if r.matching.validate(&w.graph).is_err() {
            cell.violations += 1;
        }
        rounds.push(r.stats.rounds as f64);
        if base.stats.rounds > 0 {
            infl.push(r.stats.rounds as f64 / base.stats.rounds as f64);
        }
        let base_q = quality(&w, &alg, &base.matching);
        if base_q > 0.0 {
            ret.push(quality(&w, &alg, &r.matching) / base_q);
        }
        msgs.push(r.stats.messages as f64);
        cell.dropped += r.stats.dropped as f64;
        cell.delayed += r.stats.delayed as f64;
        cell.crashed += r.stats.crashed as f64;
        cell.deferred_bits += r.stats.deferred_bits as f64;
    }
    cell.rounds = mean(&rounds);
    cell.inflation = mean(&infl);
    cell.retained = mean(&ret);
    cell.messages = mean(&msgs);
    cell
}

fn main() {
    let n = env_or("E21_N", 400) as usize;
    let seeds = env_or("E21_SEEDS", 2);
    let fp = host::fingerprint();

    banner(
        "E21",
        "adversary plane: safety and degradation under faults",
        "robustness artifact; Theorems 3.1/3.8/3.11/4.5 re-verified off-model",
    );
    println!(
        "  host: {} cores available ({}/{}, {} build)",
        fp.available_parallelism, fp.os, fp.arch, fp.profile
    );
    println!("  gnp n={n}, {seeds} seed(s) per cell, oracle termination\n");

    let algorithms: [(&str, Algorithm, bool); 4] = [
        ("israeli-itai", Algorithm::IsraeliItai, false),
        ("generic-k2", Algorithm::Generic { k: 2 }, false),
        (
            "general-k2",
            Algorithm::General {
                k: 2,
                early_stop: Some(6),
            },
            false,
        ),
        (
            "mwm-local-dominant",
            Algorithm::DeltaMwm {
                mwm_box: MwmBox::LocalDominant,
            },
            true,
        ),
    ];
    let plans: [(&str, FaultPlan); 7] = [
        ("baseline", FaultPlan::NONE),
        ("drop-10", FaultPlan::drop(0.1)),
        ("drop-30", FaultPlan::drop(0.3)),
        ("delay-3", FaultPlan::NONE.with_delay(3)),
        ("crash-2", FaultPlan::NONE.with_crash(0.02, 5)),
        (
            "combined",
            FaultPlan::drop(0.1)
                .with_delay(2)
                .with_stall(0.1)
                .with_crash(0.01, 4),
        ),
        (
            "congest-degrade",
            FaultPlan::NONE.with_budget(Budget::Bits(128)),
        ),
    ];

    let mut cells: Vec<Cell> = Vec::new();
    for (label, alg, weighted) in &algorithms {
        for (plan_label, plan) in &plans {
            cells.push(sweep_cell(
                label, *alg, plan_label, *plan, n, seeds, *weighted,
            ));
        }
    }

    let mut t = Table::new(vec![
        "algorithm",
        "plan",
        "rounds",
        "inflate",
        "retained",
        "dropped",
        "delayed",
        "crashed",
        "defer bits",
    ]);
    for c in &cells {
        t.row(vec![
            c.alg.to_string(),
            c.plan.to_string(),
            f2(c.rounds),
            f2(c.inflation),
            f2(c.retained),
            f2(c.dropped),
            f2(c.delayed),
            f2(c.crashed),
            f2(c.deferred_bits),
        ]);
    }
    t.print();

    let violations: u64 = cells.iter().map(|c| c.violations).sum();
    println!(
        "\n  safety violations across {} cells: {} (acceptance: 0)",
        cells.len(),
        violations
    );

    // Machine-readable record (host fingerprint header so benchdiff can
    // tell a regression from a different machine; every cell value is a
    // deterministic counter).
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"e21_faults\",");
    let _ = writeln!(json, "  \"host\": {},", fp.to_json());
    let _ = writeln!(json, "  \"n\": {n},");
    let _ = writeln!(json, "  \"seeds\": {seeds},");
    let _ = writeln!(json, "  \"safety_violations\": {violations},");
    let _ = writeln!(json, "  \"cells\": {{");
    for (i, c) in cells.iter().enumerate() {
        let comma = if i + 1 < cells.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    \"{}+{}\": {{ \"rounds\": {}, \"rounds_inflation\": {}, \
             \"retained_ratio\": {}, \"messages\": {}, \"dropped\": {}, \
             \"delayed\": {}, \"crashed\": {}, \"deferred_bits\": {} }}{comma}",
            c.alg,
            c.plan,
            f2(c.rounds),
            f2(c.inflation),
            f2(c.retained),
            f2(c.messages),
            f2(c.dropped),
            f2(c.delayed),
            f2(c.crashed),
            f2(c.deferred_bits),
        );
    }
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");
    std::fs::write("BENCH_e21_faults.json", &json).expect("write BENCH_e21_faults.json");
    println!("  wrote BENCH_e21_faults.json");

    assert_eq!(
        violations, 0,
        "acceptance: every matching returned under faults must validate"
    );
}
