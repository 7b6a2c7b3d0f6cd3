//! Shared support for the experiment binaries (`src/bin/exp_*.rs`).
//!
//! Each binary regenerates one experiment of `EXPERIMENTS.md`, printing
//! an aligned table of *paper expectation vs. measured value*. The
//! binaries are deterministic in their built-in seeds. Graph setup
//! goes through the [`workloads`] registry (family × size × weight
//! model × seed) rather than per-binary ad-hoc generator calls.

pub mod workloads;

/// Minimal aligned-table printer (no external dependencies).
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Render to stdout.
    pub fn print(&self) {
        let ncols = self.headers.len();
        let mut width = vec![0usize; ncols];
        for (i, h) in self.headers.iter().enumerate() {
            width[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                s.push_str(&format!("{:>w$}  ", c, w = width[i]));
            }
            println!("{}", s.trim_end());
        };
        line(&self.headers);
        println!("{}", "-".repeat(width.iter().sum::<usize>() + 2 * ncols));
        for row in &self.rows {
            line(row);
        }
    }
}

/// Format a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Format a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Print an experiment banner.
pub fn banner(id: &str, title: &str, paper_ref: &str) {
    println!("\n=== {id}: {title}");
    println!("    paper artifact: {paper_ref}\n");
}

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Integer knob from the environment (experiment binaries and benches
/// scale themselves down in CI through these).
pub fn env_or(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Host execution-environment fingerprint for BENCH_*.json headers.
///
/// Every benchmark JSON embeds this next to the *requested* thread
/// counts, so a `par_speedup ≈ 1.0` row or a `null` crossover is
/// interpretable at a glance: on a 1-core CI container the fan-out rule
/// is *supposed* to keep everything sequential, and without the
/// `available_parallelism` field that outcome is indistinguishable
/// from a parallel path that failed to win on real cores.
pub mod host {
    /// What the machine offers (probed once per process).
    #[derive(Debug, Clone)]
    pub struct Fingerprint {
        /// `std::thread::available_parallelism()` — cgroup/affinity
        /// aware, so a 64-core box capped to 1 CPU reports 1.
        pub available_parallelism: usize,
        /// Target triple components baked in at compile time.
        pub os: &'static str,
        pub arch: &'static str,
        /// Optimization profile the binary was built under ("release"
        /// or "debug") — a debug-build bench number is not a number.
        pub profile: &'static str,
    }

    /// Probe the host.
    pub fn fingerprint() -> Fingerprint {
        Fingerprint {
            available_parallelism: std::thread::available_parallelism()
                .map_or(1, std::num::NonZeroUsize::get),
            os: std::env::consts::OS,
            arch: std::env::consts::ARCH,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }

    impl Fingerprint {
        /// Render as a JSON object fragment, for the hand-rolled
        /// BENCH_*.json writers:
        /// `"host": {"available_parallelism": 8, ...}`.
        pub fn to_json(&self) -> String {
            format!(
                "{{\"available_parallelism\": {}, \"os\": \"{}\", \"arch\": \"{}\", \"profile\": \"{}\"}}",
                self.available_parallelism, self.os, self.arch, self.profile
            )
        }
    }
}

/// Minimal wall-clock micro-benchmark support for the `benches/`
/// targets (the workspace is dependency-free, so the benches are plain
/// `harness = false` binaries rather than criterion suites).
pub mod timing {
    use std::time::{Duration, Instant};

    /// Timing summary over the measured samples.
    #[derive(Debug, Clone, Copy)]
    pub struct Sample {
        /// Fastest observed run.
        pub min: Duration,
        /// Arithmetic mean of the runs.
        pub mean: Duration,
        /// Number of measured runs.
        pub runs: u32,
    }

    impl Sample {
        /// `"min 12.3ms / mean 13.1ms (10 runs)"`.
        pub fn display(&self) -> String {
            format!(
                "min {:>9.3?} / mean {:>9.3?} ({} runs)",
                self.min, self.mean, self.runs
            )
        }
    }

    /// Run `f` once for warmup, then `runs` measured times.
    pub fn bench<F: FnMut()>(runs: u32, mut f: F) -> Sample {
        assert!(runs > 0);
        f(); // warmup
        let mut min = Duration::MAX;
        let mut total = Duration::ZERO;
        for _ in 0..runs {
            let t = Instant::now();
            f();
            let d = t.elapsed();
            min = min.min(d);
            total += d;
        }
        Sample {
            min,
            mean: total / runs,
            runs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_roundtrip() {
        let mut t = Table::new(vec!["a", "bb"]);
        t.row(vec!["1", "2"]);
        t.print(); // smoke: must not panic
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn width_mismatch_panics() {
        Table::new(vec!["a"]).row(vec!["1", "2"]);
    }

    #[test]
    fn mean_handles_empty() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn host_fingerprint_is_sane() {
        let fp = host::fingerprint();
        assert!(fp.available_parallelism >= 1);
        let json = fp.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"available_parallelism\""));
        assert!(json.contains("\"profile\""));
    }
}
