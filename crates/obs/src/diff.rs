//! Bench-record diffing: the engine behind the `benchdiff` binary.
//!
//! Two `BENCH_*.json` records are flattened to dotted numeric paths
//! and compared pairwise. Every path is classified:
//!
//! - **perf** — wall-clock and derived-from-wall-clock quantities: a
//!   time unit (`ns`, `us`, `ms`, `s`) on the leaf key or on any
//!   ancestor key (`*_ns`, `*_ms_per_epoch`, `phase_breakdown_ns.*`,
//!   `timings.merge_ns.p99`), `*speedup*`, `*latency*`, …. Only
//!   comparable when both records carry the *same host fingerprint*
//!   (the `host` object the harness embeds); across differing hosts the
//!   diff reports the ratios but refuses to call any of them a
//!   regression.
//! - **counter** — deterministic quantities (rounds, messages, bits,
//!   node steps, ratios). Host-independent, always gated.
//! - **meta** — identity fields (the host object itself, thread
//!   capacity actually observed, names): never gated.
//!
//! A comparison regresses when `new` is worse than `old` by more than
//! the class threshold, in the direction that is worse for that metric
//! (most metrics are lower-is-better; `*speedup*`, `*ratio*` and
//! `*throughput*` are higher-is-better).

use crate::json::Value;

/// What a flattened path measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Wall-clock dependent: gated only within one host fingerprint.
    Perf,
    /// Deterministic count: gated everywhere.
    Counter,
    /// Identity/context: reported, never gated.
    Meta,
}

/// Thresholds and mode for a diff run.
#[derive(Debug, Clone, Copy)]
pub struct DiffCfg {
    /// Allowed relative perf regression before failing (0.25 = 25%).
    pub perf_threshold: f64,
    /// Allowed relative counter regression before failing.
    pub counter_threshold: f64,
    /// Report only: classify and print, never count regressions.
    pub report_only: bool,
}

impl Default for DiffCfg {
    fn default() -> Self {
        DiffCfg {
            perf_threshold: 0.25,
            counter_threshold: 0.05,
            report_only: false,
        }
    }
}

/// One compared numeric path.
#[derive(Debug, Clone)]
pub struct Delta {
    /// Dotted path into the record (`rows.2.sparse_ms`).
    pub path: String,
    /// Classification the gate used.
    pub class: Class,
    /// Value in the old record.
    pub old: f64,
    /// Value in the new record.
    pub new: f64,
    /// Relative change in the *worse* direction for this metric
    /// (positive = regressed, negative = improved).
    pub regression_ratio: f64,
    /// True when this delta exceeds its class threshold (never set in
    /// report-only mode or for perf paths across differing hosts).
    pub regressed: bool,
}

/// Outcome of diffing one pair of records.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// All compared numeric paths, in flattening order.
    pub deltas: Vec<Delta>,
    /// True when both records carry an identical host fingerprint.
    pub hosts_match: bool,
    /// True when perf paths existed but were not gated because the
    /// host fingerprints differ.
    pub perf_refused: bool,
    /// Paths present in only one record.
    pub unmatched: Vec<String>,
    /// Number of gated regressions (what the exit code keys on).
    pub regressions: usize,
}

/// Time units that make a path wall-clock when they appear as a whole
/// token of any of its keys (tokens are delimited by `_`, `.` and the
/// key boundaries).
const TIME_UNITS: [&str; 4] = ["ns", "us", "ms", "s"];

/// Classify a flattened path. The identity rules look at the leaf key
/// (and the `host` object); a time unit anywhere on the path — the leaf
/// key, the middle of a key, or an ancestor key — makes it wall-clock,
/// except a histogram's `count` leaf, which counts samples.
pub fn classify(path: &str) -> Class {
    let key = path.rsplit('.').next().unwrap_or(path).to_ascii_lowercase();
    let full = path.to_ascii_lowercase();
    // Identity/context fields: never gate.
    if full.starts_with("host.")
        || full.contains(".host.")
        || key.contains("threads")
        || key.contains("workers")
        || key.contains("seed")
        || key == "n"
        || key.ends_with("_n")
        || key.contains("epochs")
        || key.contains("runs")
        || key.contains("cap")
    {
        return Class::Meta;
    }
    // Wall-clock and derived-from-wall-clock quantities.
    let timed = full
        .split(['.', '_'])
        .any(|token| TIME_UNITS.contains(&token));
    if (timed && key != "count")
        || key.contains("time")
        || key.contains("latency")
        || key.contains("speedup")
        || key.contains("overhead_pct")
        || key.contains("crossover")
        || key.contains("throughput")
    {
        return Class::Perf;
    }
    Class::Counter
}

/// True when larger values are better for this path (speedups,
/// approximation ratios, throughput); everything else regresses
/// upward.
pub fn higher_is_better(path: &str) -> bool {
    let key = path.rsplit('.').next().unwrap_or(path).to_ascii_lowercase();
    key.contains("speedup") || key.contains("ratio") || key.contains("throughput")
}

fn flatten_into(prefix: &str, v: &Value, out: &mut Vec<(String, f64)>) {
    match v {
        Value::Num(n) => out.push((prefix.to_string(), *n)),
        Value::Bool(b) => out.push((prefix.to_string(), if *b { 1.0 } else { 0.0 })),
        Value::Obj(pairs) => {
            for (k, val) in pairs {
                let p = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten_into(&p, val, out);
            }
        }
        Value::Arr(items) => {
            for (i, val) in items.iter().enumerate() {
                flatten_into(&format!("{prefix}.{i}"), val, out);
            }
        }
        // Strings and nulls don't diff numerically.
        Value::Str(_) | Value::Null => {}
    }
}

/// Flatten a record to dotted numeric paths (bools as 0/1; strings and
/// nulls skipped).
pub fn flatten(v: &Value) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    flatten_into("", v, &mut out);
    out
}

/// The host fingerprint of a record, as a canonical comparison string
/// (`None` when the record carries no `host` object).
pub fn host_fingerprint(v: &Value) -> Option<String> {
    let host = v.get("host")?;
    let mut flat = Vec::new();
    flatten_into("host", host, &mut flat);
    let mut parts: Vec<String> = flat.iter().map(|(k, n)| format!("{k}={n}")).collect();
    // Strings matter most for a fingerprint (os/arch/profile).
    if let Some(pairs) = host.as_object() {
        for (k, val) in pairs {
            if let Some(s) = val.as_str() {
                parts.push(format!("host.{k}={s}"));
            }
        }
    }
    parts.sort();
    Some(parts.join(";"))
}

/// Relative change of `old → new` in the *worse* direction, safe for
/// zero-valued baselines:
///
/// * both sides (effectively) zero → `0.0` — no change, a pass;
/// * a zero baseline that becomes nonzero in the worse direction →
///   `+∞` — any finite threshold flags it, so `0 → k` on a gated
///   counter can never slip through as a pass;
/// * a nonzero baseline → ordinary `(worse_to - worse_from) /
///   |worse_from|`, negative when `new` improved.
///
/// Never divides by zero and never returns `NaN`.
pub fn regression_ratio(old: f64, new: f64, higher_better: bool) -> f64 {
    let (worse_from, worse_to) = if higher_better {
        (new, old)
    } else {
        (old, new)
    };
    if worse_from.abs() > f64::EPSILON {
        (worse_to - worse_from) / worse_from.abs()
    } else if worse_to.abs() > f64::EPSILON {
        f64::INFINITY
    } else {
        0.0
    }
}

/// Diff two parsed records under `cfg`.
pub fn diff(old: &Value, new: &Value, cfg: &DiffCfg) -> DiffReport {
    let old_flat = flatten(old);
    let new_flat = flatten(new);
    let hosts_match = match (host_fingerprint(old), host_fingerprint(new)) {
        (Some(a), Some(b)) => a == b,
        // A record without a fingerprint can't prove comparability.
        _ => false,
    };

    let mut deltas = Vec::new();
    let mut unmatched = Vec::new();
    let mut regressions = 0usize;
    let mut perf_refused = false;

    for (path, old_v) in &old_flat {
        let Some((_, new_v)) = new_flat.iter().find(|(p, _)| p == path) else {
            unmatched.push(path.clone());
            continue;
        };
        let class = classify(path);
        let regression_ratio = regression_ratio(*old_v, *new_v, higher_is_better(path));
        let threshold = match class {
            Class::Perf => cfg.perf_threshold,
            Class::Counter => cfg.counter_threshold,
            Class::Meta => f64::INFINITY,
        };
        let mut regressed =
            !cfg.report_only && class != Class::Meta && regression_ratio > threshold;
        if regressed && class == Class::Perf && !hosts_match {
            regressed = false;
            perf_refused = true;
        }
        if class == Class::Perf && !hosts_match {
            perf_refused = true;
        }
        if regressed {
            regressions += 1;
        }
        deltas.push(Delta {
            path: path.clone(),
            class,
            old: *old_v,
            new: *new_v,
            regression_ratio,
            regressed,
        });
    }
    for (path, _) in &new_flat {
        if !old_flat.iter().any(|(p, _)| p == path) {
            unmatched.push(path.clone());
        }
    }

    DiffReport {
        deltas,
        hosts_match,
        perf_refused,
        unmatched,
        regressions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    const HOST_A: &str =
        r#"{"available_parallelism": 1, "os": "linux", "arch": "x86_64", "profile": "release"}"#;
    const HOST_B: &str =
        r#"{"available_parallelism": 8, "os": "linux", "arch": "aarch64", "profile": "release"}"#;

    fn record(host: &str, rounds: u64, ms: f64) -> Value {
        parse(&format!(
            r#"{{"bench": "t", "host": {host}, "rounds": {rounds}, "sparse_ms": {ms}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn classification() {
        assert_eq!(classify("rows.0.sparse_ms"), Class::Perf);
        assert_eq!(classify("repair.update_ns"), Class::Perf);
        assert_eq!(classify("par_speedup"), Class::Perf);
        assert_eq!(classify("rounds"), Class::Counter);
        assert_eq!(classify("messages"), Class::Counter);
        // A time unit on an ancestor key, or inside a key, is wall-clock
        // too (E19's phase breakdown and timing histograms, E17's repair
        // ladder) — but a histogram's sample count is not.
        for path in [
            "phase_breakdown_ns.sparse_update",
            "phase_breakdown_ns.dense_update",
            "phase_breakdown_ns.conversion",
            "phase_breakdown_ns.merge",
            "timings.sparse_update_ns.sum",
            "timings.dense_update_ns.min",
            "timings.conversion_ns.p50",
            "timings.merge_ns.p90",
            "timings.merge_ns.p99",
            "timings.merge_ns.max",
            "repair_ladder.0.ms_per_epoch",
            "repair_ladder.3.dense_ms_per_epoch",
            "repair_ladder.3.sparse_ms_per_epoch",
        ] {
            assert_eq!(classify(path), Class::Perf, "{path}");
        }
        assert_eq!(classify("timings.merge_ns.count"), Class::Counter);
        // Whole tokens only: a unit-like run of letters inside a word
        // is not a unit.
        assert_eq!(
            classify("repair_ladder.0.node_steps_per_epoch"),
            Class::Counter
        );
        assert_eq!(classify("msgs.sent"), Class::Counter);
        assert_eq!(classify("bus_load"), Class::Counter);
        // The identity rules still run first.
        assert_eq!(classify("seq_fallback.threads_requested"), Class::Meta);
        assert_eq!(classify("host.available_parallelism"), Class::Meta);
        assert_eq!(classify("threads_used_peak"), Class::Meta);
        assert!(higher_is_better("par_speedup"));
        assert!(higher_is_better("ii_ratio"));
        assert!(!higher_is_better("rounds"));
    }

    #[test]
    fn zero_baseline_counters_have_explicit_verdicts() {
        // 0 → 0: no change, pass.
        let rep = diff(
            &record(HOST_A, 0, 10.0),
            &record(HOST_A, 0, 10.0),
            &DiffCfg::default(),
        );
        let d = rep.deltas.iter().find(|d| d.path == "rounds").unwrap();
        assert!(!d.regressed, "0 → 0 must pass");
        assert_eq!(d.regression_ratio, 0.0);
        assert_eq!(rep.regressions, 0);

        // 0 → k: infinite blowup, must gate — never a silent pass.
        let rep = diff(
            &record(HOST_A, 0, 10.0),
            &record(HOST_A, 7, 10.0),
            &DiffCfg::default(),
        );
        let d = rep.deltas.iter().find(|d| d.path == "rounds").unwrap();
        assert!(d.regressed, "0 → k must gate");
        assert!(d.regression_ratio.is_infinite() && d.regression_ratio > 0.0);
        assert_eq!(rep.regressions, 1);

        // k → 0: an improvement, pass.
        let rep = diff(
            &record(HOST_A, 7, 10.0),
            &record(HOST_A, 0, 10.0),
            &DiffCfg::default(),
        );
        let d = rep.deltas.iter().find(|d| d.path == "rounds").unwrap();
        assert!(!d.regressed, "k → 0 must pass");
        assert!((d.regression_ratio + 1.0).abs() < 1e-9);
        assert_eq!(rep.regressions, 0);
    }

    #[test]
    fn regression_ratio_never_divides_by_zero_or_nans() {
        for &(old, new, hb) in &[
            (0.0, 0.0, false),
            (0.0, 5.0, false),
            (5.0, 0.0, false),
            (0.0, 0.0, true),
            (0.0, 5.0, true),
            (5.0, 0.0, true),
        ] {
            let r = regression_ratio(old, new, hb);
            assert!(!r.is_nan(), "({old}, {new}, {hb}) produced NaN");
        }
        // Higher-is-better collapse to zero is an infinite regression
        // (throughput 5 → 0), and a zero baseline that gains
        // throughput is an improvement-from-nothing, not a regression.
        assert!(regression_ratio(5.0, 0.0, true).is_infinite());
        assert_eq!(regression_ratio(0.0, 5.0, true), -1.0);
    }

    #[test]
    fn injected_rounds_regression_is_caught() {
        // The acceptance-criteria case: 2× rounds must gate.
        let old = record(HOST_A, 100, 10.0);
        let new = record(HOST_A, 200, 10.0);
        let rep = diff(&old, &new, &DiffCfg::default());
        assert!(rep.hosts_match);
        assert_eq!(rep.regressions, 1);
        let d = rep.deltas.iter().find(|d| d.path == "rounds").unwrap();
        assert!(d.regressed);
        assert!((d.regression_ratio - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cross_host_perf_verdict_is_refused_but_counters_gate() {
        let old = record(HOST_A, 100, 10.0);
        let new = record(HOST_B, 250, 100.0); // 10× slower AND 2.5× rounds
        let rep = diff(&old, &new, &DiffCfg::default());
        assert!(!rep.hosts_match);
        assert!(rep.perf_refused);
        // The wall-clock blowup is not a regression across hosts…
        let ms = rep.deltas.iter().find(|d| d.path == "sparse_ms").unwrap();
        assert!(!ms.regressed);
        // …but the counter regression still gates.
        let r = rep.deltas.iter().find(|d| d.path == "rounds").unwrap();
        assert!(r.regressed);
        assert_eq!(rep.regressions, 1);
    }

    #[test]
    fn same_host_perf_regression_gates() {
        let old = record(HOST_A, 100, 10.0);
        let new = record(HOST_A, 100, 20.0);
        let rep = diff(&old, &new, &DiffCfg::default());
        assert_eq!(rep.regressions, 1);
        assert!(rep
            .deltas
            .iter()
            .any(|d| d.path == "sparse_ms" && d.regressed));
    }

    #[test]
    fn improvements_and_small_noise_pass() {
        let old = record(HOST_A, 100, 10.0);
        let new = record(HOST_A, 98, 9.1); // both improved
        let rep = diff(&old, &new, &DiffCfg::default());
        assert_eq!(rep.regressions, 0);
        let new2 = record(HOST_A, 103, 11.0); // 3% counters, 10% perf: inside thresholds
        let rep2 = diff(&old, &new2, &DiffCfg::default());
        assert_eq!(rep2.regressions, 0);
    }

    #[test]
    fn higher_is_better_direction() {
        let old = parse(&format!(
            r#"{{"host": {HOST_A}, "par_speedup": 2.0, "ii_ratio": 0.9}}"#
        ))
        .unwrap();
        let new = parse(&format!(
            r#"{{"host": {HOST_A}, "par_speedup": 1.0, "ii_ratio": 0.6}}"#
        ))
        .unwrap();
        let rep = diff(&old, &new, &DiffCfg::default());
        // Speedup halved (perf, hosts match) and ratio fell by a third
        // (counter): both gate.
        assert_eq!(rep.regressions, 2);
    }

    #[test]
    fn report_only_never_gates() {
        let old = record(HOST_A, 100, 10.0);
        let new = record(HOST_A, 1000, 1000.0);
        let cfg = DiffCfg {
            report_only: true,
            ..DiffCfg::default()
        };
        let rep = diff(&old, &new, &cfg);
        assert_eq!(rep.regressions, 0);
        assert!(rep.deltas.iter().all(|d| !d.regressed));
    }

    #[test]
    fn unmatched_paths_are_listed() {
        let old = parse(r#"{"a": 1, "shared": 2}"#).unwrap();
        let new = parse(r#"{"b": 3, "shared": 2}"#).unwrap();
        let rep = diff(&old, &new, &DiffCfg::default());
        assert!(rep.unmatched.contains(&"a".to_string()));
        assert!(rep.unmatched.contains(&"b".to_string()));
    }

    #[test]
    fn missing_fingerprint_refuses_perf() {
        let old = parse(r#"{"sparse_ms": 10.0}"#).unwrap();
        let new = parse(r#"{"sparse_ms": 100.0}"#).unwrap();
        let rep = diff(&old, &new, &DiffCfg::default());
        assert!(!rep.hosts_match);
        assert_eq!(rep.regressions, 0);
        assert!(rep.perf_refused);
    }
}
