//! Metric records, order statistics, and the simulated-cost and
//! simnet-layer accumulators shared by the workloads.

use dobs::Histogram;
use simnet::stats::timing;
use simnet::NetStats;

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Median (mean of the middle pair for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile that leaves at least ten samples above it:
/// `(value, percentile, sample count)`. With ten samples or fewer there
/// is no such percentile, and the maximum is returned as p100.
pub fn tail(xs: &[f64]) -> (f64, f64, usize) {
    let n = xs.len();
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if n <= 10 {
        return (v.last().copied().unwrap_or(0.0), 100.0, n);
    }
    (v[n - 11], 100.0 * (n - 10) as f64 / n as f64, n)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The simulated cost the paper bounds: exact counts, identical on
/// every run of the same seed, traced or not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sim {
    pub rounds: u64,
    pub messages: u64,
    pub bits: u64,
    pub max_msg_bits: u64,
}

impl Sim {
    pub fn of(s: &NetStats) -> Self {
        Sim {
            rounds: s.rounds,
            messages: s.messages,
            bits: s.bits,
            max_msg_bits: s.max_msg_bits,
        }
    }

    pub fn add(&mut self, o: Sim) {
        self.rounds += o.rounds;
        self.messages += o.messages;
        self.bits += o.bits;
        self.max_msg_bits = self.max_msg_bits.max(o.max_msg_bits);
    }
}

/// Sums the simnet layer's counters and timings over many runs
/// (timings are present only under `ExecCfg::timed`).
#[derive(Default)]
pub struct SimnetAcc {
    busy_ns: u64,
    merge_ns: u64,
    conversion_ns: u64,
    round_ns: Histogram,
    node_slots: u64,
    node_steps: u64,
    sched_overhead: u64,
    plane_allocs: u64,
    peak_inbox: u64,
    charged_rounds: u64,
}

impl SimnetAcc {
    /// Fold in the statistics of one run on an `n`-node network.
    pub fn add(&mut self, s: &NetStats, n: usize) {
        self.add_delta(&NetStats::default(), s, n);
    }

    /// Fold in what a persistent network did between the snapshots
    /// `before` and `after`. Round-time percentiles come from the whole
    /// histogram of `after`, which cannot be differenced.
    pub fn add_delta(&mut self, before: &NetStats, after: &NetStats, n: usize) {
        let d = |name| after.timings.sum(name) - before.timings.sum(name);
        self.busy_ns += d(timing::SPARSE_UPDATE_NS) + d(timing::DENSE_UPDATE_NS);
        self.merge_ns += d(timing::MERGE_NS);
        self.conversion_ns += d(timing::CONVERSION_NS);
        for name in [timing::SPARSE_UPDATE_NS, timing::DENSE_UPDATE_NS] {
            if let Some(h) = after.timings.hist(name) {
                self.round_ns.merge(h);
            }
        }
        self.node_slots += (after.rounds - before.rounds) * n as u64;
        self.node_steps += after.node_steps - before.node_steps;
        self.sched_overhead += after.sched_overhead - before.sched_overhead;
        self.plane_allocs += after.plane_allocs - before.plane_allocs;
        self.peak_inbox = self.peak_inbox.max(after.peak_inbox);
        self.charged_rounds += after.per_round[before.per_round.len()..]
            .iter()
            .filter(|r| r.active == 0)
            .count() as u64;
    }

    /// Seconds the round loop spent stepping rounds.
    pub fn busy_s(&self) -> f64 {
        self.busy_ns as f64 / 1e9
    }

    pub fn node_steps(&self) -> u64 {
        self.node_steps
    }

    pub fn charged_rounds(&self) -> u64 {
        self.charged_rounds
    }

    pub fn metrics(&self) -> Vec<Metric> {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        vec![
            metric("simnet.busy_s", self.busy_s(), "s"),
            metric(
                "simnet.round_p50_us",
                self.round_ns.p50() as f64 / 1e3,
                "us",
            ),
            metric(
                "simnet.round_p99_us",
                self.round_ns.p99() as f64 / 1e3,
                "us",
            ),
            metric("simnet.merge_s", self.merge_ns as f64 / 1e9, "s"),
            metric("simnet.conversion_s", self.conversion_ns as f64 / 1e9, "s"),
            metric("simnet.node_steps", self.node_steps as f64, "count"),
            metric(
                "simnet.ns_per_node_step",
                ratio(self.busy_ns, self.node_steps),
                "ns",
            ),
            metric(
                "simnet.active_frac",
                ratio(self.node_steps, self.node_slots),
                "frac",
            ),
            metric(
                "simnet.sched_waste_frac",
                ratio(self.sched_overhead, self.node_steps + self.sched_overhead),
                "frac",
            ),
            metric("simnet.plane_allocs", self.plane_allocs as f64, "count"),
            metric("simnet.peak_inbox", self.peak_inbox as f64, "count"),
        ]
    }
}

/// The result line, printed last: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
