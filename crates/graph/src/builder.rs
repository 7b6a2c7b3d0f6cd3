//! Incremental graph construction with deduplication.

use crate::graph::{Graph, NodeId};
use std::collections::HashMap;

/// Builds a [`Graph`] edge by edge, silently deduplicating (the last
/// weight written for an edge wins). Useful for generators in which the
/// same pair may be drawn more than once.
#[derive(Debug, Default)]
pub struct GraphBuilder {
    n: usize,
    index: HashMap<(NodeId, NodeId), usize>,
    edges: Vec<(NodeId, NodeId)>,
    weights: Vec<f64>,
}

impl GraphBuilder {
    /// Start a builder for a graph on `n` nodes.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            ..Default::default()
        }
    }

    /// Number of distinct edges added so far.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True when no edges were added.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Add an unweighted edge (weight 1.0). Returns true if it was new.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        self.add_weighted(u, v, 1.0)
    }

    /// Add a weighted edge; duplicate pairs overwrite the weight.
    /// Returns true if the edge was new. Self-loops are rejected.
    pub fn add_weighted(&mut self, u: NodeId, v: NodeId, w: f64) -> bool {
        assert!(u != v, "self-loop at {u}");
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "endpoint out of range"
        );
        let key = (u.min(v), u.max(v));
        match self.index.get(&key) {
            Some(&i) => {
                self.weights[i] = w;
                false
            }
            None => {
                self.index.insert(key, self.edges.len());
                self.edges.push(key);
                self.weights.push(w);
                true
            }
        }
    }

    /// Finish, producing the immutable graph.
    pub fn build(self) -> Graph {
        Graph::with_weights(self.n, self.edges, self.weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_keeps_last_weight() {
        let mut b = GraphBuilder::new(3);
        assert!(b.add_weighted(0, 1, 5.0));
        assert!(!b.add_weighted(1, 0, 7.0));
        assert!(b.add_edge(1, 2));
        assert_eq!(b.len(), 2);
        let g = b.build();
        assert_eq!(g.m(), 2);
        let e = g.edge_between(0, 1).unwrap();
        assert_eq!(g.weight(e), 7.0);
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let b = GraphBuilder::new(5);
        assert!(b.is_empty());
        let g = b.build();
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 0);
    }
}
