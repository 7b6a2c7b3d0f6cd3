//! Benchmark-side spans around every public call into the program.
//!
//! A span holds a name, the layer it belongs to, start and end, its
//! parent span, and the id of the op it serves (all spans of one op
//! share it). Spans stay in memory and are written out when the run
//! ends, next to the program's own `dobs` events. Inclusive time per
//! span name is accumulated even when recording is off, so the untraced
//! run pays two clock reads per call and nothing else.

use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    name: &'static str,
    layer: &'static str,
    op: u64,
    parent: Option<usize>,
    t0_ns: u64,
    t1_ns: u64,
}

/// An open span; close it with [`Spans::end`].
pub struct Open {
    name: &'static str,
    idx: Option<usize>,
    start: Instant,
}

pub struct Spans {
    /// Clock base of recorded spans (the flight recorder's epoch), or
    /// `None` when spans are only timed, not recorded.
    epoch: Option<Instant>,
    op: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
    totals: BTreeMap<&'static str, f64>,
}

impl Spans {
    /// Time calls without recording spans.
    pub fn timing_only() -> Self {
        Self::with_epoch(None)
    }

    /// Record spans with timestamps relative to `epoch`.
    pub fn recording(epoch: Instant) -> Self {
        Self::with_epoch(Some(epoch))
    }

    fn with_epoch(epoch: Option<Instant>) -> Self {
        Spans {
            epoch,
            op: 0,
            spans: Vec::new(),
            stack: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    pub fn is_recording(&self) -> bool {
        self.epoch.is_some()
    }

    /// Start a new op: the spans opened from now on share a fresh id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    pub fn begin(&mut self, name: &'static str, layer: &'static str) -> Open {
        // dlint::allow(wall-clock, "span start: benchmark timing, reported only")
        let start = Instant::now();
        let idx = self.epoch.map(|epoch| {
            let idx = self.spans.len();
            self.spans.push(Span {
                name,
                layer,
                op: self.op,
                parent: self.stack.last().copied(),
                t0_ns: (start - epoch).as_nanos() as u64,
                t1_ns: 0,
            });
            self.stack.push(idx);
            idx
        });
        Open { name, idx, start }
    }

    /// Close `open` and return its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        // dlint::allow(wall-clock, "span end: benchmark timing, reported only")
        let now = Instant::now();
        let secs = (now - open.start).as_secs_f64();
        *self.totals.entry(open.name).or_default() += secs;
        if let (Some(idx), Some(epoch)) = (open.idx, self.epoch) {
            self.spans[idx].t1_ns = (now - epoch).as_nanos() as u64;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans must close innermost first");
        }
        secs
    }

    /// Inclusive seconds spent in spans called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.totals.get(name).copied().unwrap_or(0.0)
    }

    /// Self time per layer, in seconds: each span's duration minus the
    /// part its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.t1_ns - s.t0_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child_ns) {
            let own = (s.t1_ns - s.t0_ns).saturating_sub(*c);
            *out.entry(s.layer).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Append the spans to a `dobs::export::chrome_trace` document, on
    /// a process of their own with one track per layer.
    pub fn splice_into_chrome(&self, doc: &str) -> String {
        let mut tracks: Vec<&'static str> = self.spans.iter().map(|s| s.layer).collect();
        tracks.sort_unstable();
        tracks.dedup();
        let tid = |layer: &str| tracks.binary_search(&layer).expect("layer was collected");
        let mut rows = vec![
            "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 2, \"tid\": 0, \
             \"args\": {\"name\": \"perfbench\"}}"
                .to_string(),
        ];
        for (i, layer) in tracks.iter().enumerate() {
            rows.push(format!(
                "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 2, \"tid\": {i}, \
                 \"args\": {{\"name\": \"{layer}\"}}}}"
            ));
        }
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            rows.push(format!(
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 2, \"tid\": {}, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"span\": {i}, \"parent\": {parent}, \"op\": {}}}}}",
                s.name,
                tid(s.layer),
                s.t0_ns as f64 / 1e3,
                s.t1_ns.saturating_sub(s.t0_ns).max(1) as f64 / 1e3,
                s.op,
            ));
        }
        let head = doc
            .trim_end()
            .strip_suffix("]}")
            .expect("chrome_trace ends its event array with ]}")
            .trim_end();
        format!("{head},\n{}\n]}}\n", rows.join(",\n"))
    }
}
