//! # distributed-matching
//!
//! A full reproduction of **"Improved Distributed Approximate Matching"**
//! (Zvi Lotker, Boaz Patt-Shamir, Seth Pettie; SPAA 2008) as a Rust
//! workspace, including the synchronous network model the paper assumes,
//! the exact reference solvers it compares against, all four algorithm
//! families it contributes, and the switch-scheduling application its
//! introduction motivates.
//!
//! This umbrella crate re-exports the workspace members:
//!
//! * [`simnet`] — synchronous LOCAL/CONGEST round simulator with message
//!   bit accounting.
//! * [`dgraph`] — graph substrate: generators and exact matching solvers
//!   (Hopcroft–Karp, Edmonds blossom, Hungarian, exact MWM).
//! * [`dmatch`] — the paper's algorithms: the generic `(1-ε)`-MCM
//!   (Theorem 3.1), the bipartite small-message algorithm (Theorem 3.8),
//!   the red/blue reduction for general graphs (Theorem 3.11), and the
//!   weighted `(½-ε)`-MWM reduction (Theorem 4.5), plus the
//!   Israeli–Itai and weighted baselines.
//! * [`dchurn`] — dynamic-network engine: epoch-based churn (edge
//!   insert/delete, node join/leave, degree-preserving rewiring, trace
//!   replay) with incremental matching repair over a rewired message
//!   plane.
//! * [`switchsim`] — input-queued switch simulator with PIM, iSLIP and
//!   matching-based schedulers.
//! * [`dobs`] — observability plane: a bounded flight recorder of typed
//!   simulator events (install one with `dobs::TraceSession`),
//!   log-bucketed percentile histograms and a metrics registry,
//!   JSONL/Perfetto exporters, and the bench-record diff engine behind
//!   the `benchdiff` binary. Observation only: traced runs are
//!   bit-identical to untraced ones.
//!
//! Every algorithm is driven through the builder-first
//! [`dmatch::Session`] (re-exported here): static runs, `switchsim`
//! cycles and the generic arm of `dchurn`'s churn epochs (via
//! `Session::rewire(removed, added)`) all share the same driver, with a
//! per-phase [`dmatch::Observer`] plane for mid-run visibility.
//! `dchurn`'s Israeli–Itai arm runs one persistent network below the
//! `Session` surface instead; it shares the damage rule
//! (`dmatch::session::apply_batch`) and the protocol itself: its
//! `dmatch::israeli_itai::RepairNode` wraps the same Israeli–Itai
//! iteration as the session's `IINode`.
//!
//! See `README.md` for a tour and `EXPERIMENTS.md` for the experiment
//! index mapping every theorem and figure of the paper to a reproducible
//! measurement.

pub use dchurn;
pub use dgraph;
pub use dmatch;
pub use dobs;
pub use simnet;
pub use switchsim;

pub use dmatch::{Algorithm, ConvergenceCurve, Observer, RunReport, Session, TerminationMode};
