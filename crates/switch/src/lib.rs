//! # switchsim — input-queued switch scheduling
//!
//! The paper's introduction motivates distributed matching with
//! *"internal scheduling of a communication switch: … in each cycle,
//! the switch fabric can realize one partial permutation, and an
//! internal scheduling routine decides which ports will be connected"*,
//! and names **PIM** (Anderson et al., the DEC AN2 switch) and
//! **iSLIP** (McKeown) as the practical descendants of Israeli–Itai.
//!
//! This crate builds that application end to end:
//!
//! * [`voq`] — virtual output queues of an `N × N` input-queued switch;
//! * [`traffic`] — admissible Bernoulli traffic models (uniform,
//!   diagonal, bursty on/off);
//! * [`sched`] — schedulers: PIM, iSLIP, maximal-matching
//!   (Israeli–Itai), the paper's bipartite `(1-1/k)`-MCM, the weighted
//!   `(½-ε)`-MWM on queue lengths, and centralized optima (maximum
//!   cardinality / maximum weight) as oracles;
//! * [`sim`] — the cycle loop and throughput/delay statistics.
//!
//! Experiment E8 sweeps offered load and reproduces the classical
//! ordering: maximal-matching-family schedulers saturate early under
//! non-uniform traffic, while larger matchings sustain higher load.

pub mod sched;
pub mod sim;
pub mod traffic;
pub mod voq;

pub use sched::{Scheduler, SchedulerKind};
pub use sim::{SimConfig, SimResult, Simulator};
pub use traffic::TrafficModel;
