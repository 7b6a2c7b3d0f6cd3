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

/// Relative tolerance for weight comparisons throughout the workspace.
pub const WEIGHT_EPS: f64 = 1e-9;

/// `a ≥ b` up to the global relative tolerance.
pub fn weight_ge(a: f64, b: f64) -> bool {
    a >= b - WEIGHT_EPS * (1.0 + a.abs().max(b.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_ge_tolerates_rounding() {
        assert!(weight_ge(1.0, 1.0 + 1e-12));
        assert!(weight_ge(2.0, 1.0));
        assert!(!weight_ge(1.0, 1.1));
    }
}
