//! # dchurn — epoch-based churn and incremental matching repair
//!
//! Every other layer of this reproduction assumes a static graph; this
//! crate makes the network *dynamic*. The motivating application of
//! the paper — switch scheduling — is a repeated matching problem whose
//! instance changes every cycle, and the LCA line of work
//! (Alon–Rubinfeld–Vardi–Xie; Reingold–Vardi) shows that matching
//! answers can be maintained with polylog-radius local work. The engine
//! here makes that property *measurable*: how many rounds and messages
//! does it take to repair a matching after churn, compared to
//! recomputing it from scratch?
//!
//! Execution proceeds in **epochs**:
//!
//! 1. a deterministic churn generator ([`ChurnGen`]) produces a
//!    [`MutationBatch`] — seeded edge insert/delete batches, node
//!    join/leave, degree-preserving rewiring, or trace replay;
//! 2. the engine applies the batch: [`dmatch::session::apply_batch`]
//!    patches the graph, unmatches the destroyed pairs and derives the
//!    damage set, and the Israeli–Itai arm's [`simnet::Network::rewire`]
//!    patches the network's CSR and migrates the port-indexed
//!    message-plane slabs in place (surviving directed-edge slots keep
//!    their in-flight payloads), while per-node protocol state crosses
//!    the boundary through the [`simnet::Rewire`] trait (old-port →
//!    new-port remap, invalidation of matched edges that vanished).
//!    Both patches copy untouched rows in runs and merge only the rows
//!    the batch touches;
//! 3. a bounded number of **repair rounds** runs; only nodes in the
//!    neighborhood of the damage ever send, which the engine verifies
//!    by measuring the *locality radius* — the maximum BFS distance
//!    from the damage of any node that spoke. The engine's own
//!    bookkeeping stays at the damage too: it tests maximality only at
//!    the damage nodes, updates its matching from the nodes that spoke,
//!    and stops the radius BFS once it has reached all of them.
//!
//! Two repair algorithms are provided: an incremental Israeli–Itai
//! ([`dmatch::israeli_itai::RepairNode`], the session's Israeli–Itai
//! iteration on one persistent network; maximal ⇒ ½-MCM after every
//! epoch) and the warm-started generic `(1-1/(k+1))`-MCM (a
//! [`dmatch::Session`] that repairs through [`dmatch::Session::rewire`]).
//! Both are bit-identical across worker thread counts, like every other
//! protocol in the workspace.
//!
//! ```
//! use dchurn::{ChurnModel, DynEngine, RepairAlgo};
//! use dgraph::generators::random::gnp;
//!
//! let g = gnp(200, 0.03, 7);
//! let mut eng = DynEngine::new(g, ChurnModel::EdgeChurn { rate: 0.05 },
//!                              RepairAlgo::IncrementalMaximal, 42);
//! eng.bootstrap();
//! for _ in 0..5 {
//!     let rep = eng.step_epoch();
//!     assert!(rep.maximal, "repair restores maximality every epoch");
//! }
//! ```

pub mod churn;
pub mod engine;
pub mod mutation;

pub use churn::{ChurnGen, ChurnModel};
pub use engine::{DynEngine, EpochReport, RepairAlgo};
pub use mutation::MutationBatch;
