//! # dgraph — graph substrate and reference matching solvers
//!
//! Everything the reproduction of *Improved Distributed Approximate
//! Matching* (SPAA'08) needs from "classical" graph land:
//!
//! * [`Graph`] — an immutable undirected graph in CSR form with optional
//!   edge weights, plus [`builder::GraphBuilder`] for incremental
//!   construction;
//! * [`generators`] — random and structured workload families
//!   (G(n,p), random bipartite, regular bipartite, trees, grids,
//!   power-law, paths/cycles, …) and weight models;
//! * [`Matching`] — a validated matching with augmentation support;
//! * [`augmenting`] — augmenting-path machinery (enumeration up to a
//!   length bound, shortest-path length, Hopcroft–Karp Lemmas 3.4/3.5
//!   checkers);
//! * exact solvers used as ground truth for approximation ratios:
//!   [`hopcroft_karp`] (bipartite MCM), [`blossom`] (general MCM,
//!   Edmonds), [`hungarian`] (bipartite MWM), [`mwm_exact`] (general MWM
//!   by bitmask DP on small graphs);
//! * [`greedy`] — the sequential ½-approximation baselines the paper
//!   cites (greedy-by-weight, arbitrary maximal matching).

pub mod augmenting;
pub mod bipartite;
pub mod blossom;
pub mod builder;
pub mod generators;
pub mod graph;
pub mod greedy;
pub mod hopcroft_karp;
pub mod hungarian;
pub mod io;
pub mod matching;
pub mod mwm_exact;
pub mod rng;
pub mod subgraph;
pub mod waug;

pub use builder::GraphBuilder;
pub use graph::{EdgeId, Graph, NodeId, UNMATCHED};
pub use matching::Matching;
