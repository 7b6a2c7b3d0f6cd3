//! `dobs` — the observability plane for the distributed-matching
//! stack.
//!
//! Every layer above this crate (the `simnet` round simulator, the
//! `dmatch` session driver, the `dchurn` dynamic engine, the bench
//! harness) emits numbers; this crate is the one substrate they emit
//! them into:
//!
//! - [`plane`] — the structured event plane: typed, `Copy`,
//!   heap-free [`Event`]s (round spans, scheduler mode switches, phase
//!   and epoch boundaries, rewires, wakes, repair-ball probes, worker
//!   sections) recorded into a bounded ring-buffer
//!   [`FlightRecorder`]. Installation is thread-local and scoped
//!   ([`TraceSession`]); when nothing is installed — the default —
//!   every hook costs one flag read and an untaken branch. Like the
//!   wall-clock `NetStats::timings` registry, anything captured here
//!   is *excluded from the bit-identity contract*: tracing observes
//!   runs, it never steers them, and `tests/prop_plane.rs` holds the
//!   line.
//! - [`metrics`] — a named [`Registry`] of counters, gauges, and
//!   log-bucketed percentile [`Histogram`]s (p50/p90/p99/max), the
//!   home for quantities that used to live in loose scalar fields.
//! - [`export`] — JSONL event dumps and Chrome trace-event JSON that
//!   loads in Perfetto / `chrome://tracing` with per-round spans and
//!   per-worker tracks.
//! - [`json`] / [`diff`] — a dependency-free JSON parser and the
//!   bench-record diff engine behind the `benchdiff` binary:
//!   host-fingerprint-aware (refuses cross-host perf verdicts,
//!   still gates counters) with configurable regression thresholds.

pub mod diff;
pub mod export;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod plane;

pub use hist::Histogram;
pub use metrics::Registry;
pub use plane::{Event, FaultKind, FlightRecorder, Name, TraceSession};
