//! # dmatch — the algorithms of *Improved Distributed Approximate
//! Matching* (Lotker, Patt-Shamir, Pettie; SPAA 2008)
//!
//! Every algorithm family of the paper, implemented over the
//! synchronous round simulator of [`simnet`]:
//!
//! | Paper artifact | Module | Guarantee |
//! |---|---|---|
//! | Israeli–Itai '86 baseline | [`israeli_itai`] | maximal (½-MCM), `O(log n)` rounds whp |
//! | Algorithm 1+2 (Theorem 3.1) | [`generic`] | `(1-1/(k+1))`-MCM, `O(k³ log n)` rounds, large messages |
//! | Algorithm 3 + token MIS (Theorem 3.8) | [`bipartite`] | bipartite `(1-1/k)`-MCM, small messages |
//! | Algorithm 4 (Theorem 3.11) | [`general`] | general `(1-1/k)`-MCM whp via red/blue sampling |
//! | Algorithm 5 (Theorem 4.5) | [`weighted`] | `(½-ε)`-MWM via a δ-MWM black box |
//! | δ-MWM black boxes (LPS'07 \[18\] substitute) | [`weighted`] | constant-factor MWM |
//!
//! All protocols exchange real messages with accounted bit sizes; see
//! each module's docs for where (and how) the implementation deviates
//! from the paper's telegraphic description, and [`paper`] for the
//! line-by-line map from the paper's pseudocode to the code.
//!
//! ## The `Session` driver
//!
//! Every algorithm runs through one builder-first [`session::Session`]
//! from the empty matching: build it
//! (`Session::on(&g).algorithm(…).seed(…).build()`), then
//! `run_to_completion()`, or `step()` phase by phase, reading
//! `matching()`, `stats()` and `phase_log()` between phases, with
//! per-phase [`session::Observer`] callbacks; a completed
//! `Algorithm::Generic` session repairs a churn batch via
//! `rewire(removed, added)`, whose damage rule ([`session::apply_batch`])
//! `dchurn` shares. Execution knobs, the adversary plan included, travel
//! in one `simnet::ExecCfg` (`.exec(cfg)`).
//!
//! `dchurn` repairs Israeli–Itai below the `Session` surface, on one
//! persistent network, with the same protocol: [`israeli_itai`] writes
//! the iteration once and wraps it twice, as the halting
//! [`israeli_itai::IINode`] and the sleeping, rewirable
//! [`israeli_itai::RepairNode`]. An `IINode`'s round is written once
//! too: a `simnet::Network` drives it for sessions and the weighted
//! class boxes, and [`oracle`]'s on-demand light cone drives it for
//! point queries.

pub mod bipartite;
pub mod general;
pub mod generic;
pub mod israeli_itai;
pub mod oracle;
pub mod paper;
pub mod runner;
pub mod session;
pub mod state;
pub mod weighted;

pub use oracle::MatchingOracle;
pub use runner::{Algorithm, RunReport, TerminationMode};
pub use session::{
    Control, ConvergenceCurve, CurvePoint, Damage, Observer, Phase, PhaseEvent, PhaseInfo, Session,
    SessionBuilder,
};
pub use state::topology_of;
