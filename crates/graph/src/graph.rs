//! The core immutable graph type.
//!
//! Undirected, simple (no self-loops, no parallel edges), with `f64`
//! edge weights (1.0 for unweighted workloads). Stored in CSR form with
//! *edge ids*: every undirected edge has one id, and each incidence-list
//! entry carries `(neighbor, edge_id)` so matchings and augmentations
//! can refer to edges unambiguously.

use simnet::csr::{RowChanges, RowEdit, RowSpan};
use std::ops::Range;

/// Node identifier (compatible with `simnet::NodeId`).
pub type NodeId = u32;
/// Edge identifier: index into the graph's edge list.
pub type EdgeId = u32;

/// Sentinel for "no mate" in mate arrays.
pub const UNMATCHED: NodeId = NodeId::MAX;

/// An immutable undirected weighted graph.
#[derive(Debug, Clone)]
pub struct Graph {
    n: usize,
    /// Canonical endpoints, `u < v`.
    edges: Vec<(NodeId, NodeId)>,
    weights: Vec<f64>,
    /// CSR offsets into `adj`.
    offsets: Vec<usize>,
    /// Flattened incidence lists, sorted by neighbor id.
    adj: Vec<(NodeId, EdgeId)>,
}

impl Graph {
    /// Build an unweighted graph (all weights 1.0).
    pub fn new(n: usize, edges: Vec<(NodeId, NodeId)>) -> Self {
        let w = vec![1.0; edges.len()];
        Self::with_weights(n, edges, w)
    }

    /// Build a weighted graph. Endpoints are canonicalized to `u < v`.
    ///
    /// Panics on self-loops, duplicate edges, out-of-range endpoints,
    /// negative or non-finite weights — all modelling errors.
    pub fn with_weights(n: usize, edges: Vec<(NodeId, NodeId)>, weights: Vec<f64>) -> Self {
        assert_eq!(edges.len(), weights.len(), "one weight per edge");
        let mut canon: Vec<(NodeId, NodeId)> = Vec::with_capacity(edges.len());
        for &(u, v) in &edges {
            assert!(u != v, "self-loop at {u}");
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge ({u},{v}) out of range (n={n})"
            );
            canon.push((u.min(v), u.max(v)));
        }
        for &w in &weights {
            assert!(
                w.is_finite() && w >= 0.0,
                "weights must be finite and non-negative, got {w}"
            );
        }
        let mut degree = vec![0usize; n];
        for &(u, v) in &canon {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor = offsets.clone();
        let mut adj = vec![(0 as NodeId, 0 as EdgeId); acc];
        for (e, &(u, v)) in canon.iter().enumerate() {
            adj[cursor[u as usize]] = (v, e as EdgeId);
            cursor[u as usize] += 1;
            adj[cursor[v as usize]] = (u, e as EdgeId);
            cursor[v as usize] += 1;
        }
        for v in 0..n {
            let slice = &mut adj[offsets[v]..offsets[v + 1]];
            slice.sort_unstable();
            assert!(
                slice.windows(2).all(|w| w[0].0 != w[1].0),
                "duplicate edge at node {v}"
            );
        }
        Graph {
            n,
            edges: canon,
            weights,
            offsets,
            adj,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// True when the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Canonical endpoints `(u, v)` with `u < v` of edge `e`.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        self.edges[e as usize]
    }

    /// The endpoint of `e` that is not `v`.
    #[inline]
    pub fn other(&self, e: EdgeId, v: NodeId) -> NodeId {
        let (a, b) = self.endpoints(e);
        debug_assert!(v == a || v == b, "node {v} not incident to edge {e}");
        if v == a {
            b
        } else {
            a
        }
    }

    /// Weight of edge `e`.
    #[inline]
    pub fn weight(&self, e: EdgeId) -> f64 {
        self.weights[e as usize]
    }

    /// All edges with their canonical endpoints.
    #[inline]
    pub fn edge_list(&self) -> &[(NodeId, NodeId)] {
        &self.edges
    }

    /// All edge weights (indexed by [`EdgeId`]).
    #[inline]
    pub fn weight_list(&self) -> &[f64] {
        &self.weights
    }

    /// Incidence list of `v`: `(neighbor, edge_id)` sorted by neighbor.
    #[inline]
    pub fn incident(&self, v: NodeId) -> &[(NodeId, EdgeId)] {
        &self.adj[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Maximum degree Δ.
    pub fn max_degree(&self) -> usize {
        (0..self.n)
            .map(|v| self.degree(v as NodeId))
            .max()
            .unwrap_or(0)
    }

    /// Edge id between `u` and `v`, if present.
    pub fn edge_between(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        let inc = self.incident(u);
        inc.binary_search_by_key(&v, |&(nb, _)| nb)
            .ok()
            .map(|i| inc[i].1)
    }

    /// Total weight of all edges.
    pub fn total_weight(&self) -> f64 {
        self.weights.iter().sum()
    }

    /// Restrict to the edges for which `keep` returns true. Node ids are
    /// preserved; dropped edges simply disappear. Returns the subgraph
    /// and a map `new edge id -> original edge id`.
    pub fn edge_subgraph(&self, mut keep: impl FnMut(EdgeId) -> bool) -> (Graph, Vec<EdgeId>) {
        let mut edges = Vec::new();
        let mut weights = Vec::new();
        let mut back = Vec::new();
        for e in 0..self.m() as EdgeId {
            if keep(e) {
                edges.push(self.edges[e as usize]);
                weights.push(self.weights[e as usize]);
                back.push(e);
            }
        }
        (Graph::with_weights(self.n, edges, weights), back)
    }

    /// Replace all weights (e.g. with derived gains `w_M`). Length must
    /// match the edge count; weights must be finite and non-negative.
    pub fn reweighted(&self, weights: Vec<f64>) -> Graph {
        Graph::with_weights(self.n, self.edges.clone(), weights)
    }

    /// Write this graph minus `removed` plus `added` into `out`,
    /// reusing `out`'s buffers. The result equals
    /// `Graph::with_weights(n, survivors ++ added, …)`: the surviving
    /// edges keep their order and weights, so their ids shift down by
    /// the number of removed ids below them, and the inserted edges
    /// follow with weight 1.0.
    ///
    /// Rows of nodes no edge of the batch touches are copied in runs,
    /// edge ids renumbered; only the touched rows are merged. That row
    /// walk is [`simnet::csr`]'s, which the simulator's topology rewire
    /// shares. An edge may be removed and re-inserted in one call (it
    /// gets a new id). Panics on removing a non-edge or an edge twice,
    /// on inserting an existing edge or a duplicate, and on a self-loop
    /// or an out-of-range endpoint.
    pub fn patch_into(
        &self,
        removed: &[(NodeId, NodeId)],
        added: &[(NodeId, NodeId)],
        out: &mut Graph,
    ) {
        let n = self.n;
        let mut changes = RowChanges::default();
        changes.load(n, removed, added);
        // Removed edge ids, ascending: the rank of an id among them is
        // how far a surviving id moves down.
        let mut gone: Vec<EdgeId> = removed
            .iter()
            .map(|&(u, v)| {
                self.edge_between(u, v)
                    .unwrap_or_else(|| panic!("removing non-edge ({u},{v})"))
            })
            .collect();
        gone.sort_unstable();
        assert!(
            gone.windows(2).all(|w| w[0] != w[1]),
            "duplicate removal in graph patch"
        );
        // Removed ids below each block of 2^shift ids. There are at
        // least 16 blocks per removed id, so nearly every id sits in a
        // block without one and finds its rank with one lookup; only
        // the rest search `gone`. (A binary search over all of `gone`
        // for every id made an epoch on gnp(50 000, d = 8) with 200
        // removed edges 1.5x slower end to end on a 2-core x86-64
        // host.)
        let shift = (self.m() / (16 * (gone.len() + 1))).max(1).ilog2();
        let mut below_block = vec![0u32; (self.m() >> shift) + 2];
        for &r in &gone {
            below_block[(r >> shift) as usize + 1] += 1;
        }
        for b in 1..below_block.len() {
            below_block[b] += below_block[b - 1];
        }
        let renumber = |e: EdgeId| {
            let b = (e >> shift) as usize;
            let (lo, hi) = (below_block[b] as usize, below_block[b + 1] as usize);
            e - (lo + gone[lo..hi].partition_point(|&r| r < e)) as EdgeId
        };
        let first_added = (self.m() - gone.len()) as EdgeId;

        // Exact reservations: the buffers stay the size of the largest
        // graph seen instead of doubling past it.
        let m = self.m() - gone.len() + added.len();
        out.n = n;
        out.edges.clear();
        out.weights.clear();
        out.offsets.clear();
        out.adj.clear();
        out.edges.reserve_exact(m);
        out.weights.reserve_exact(m);
        out.offsets.reserve_exact(n + 1);
        out.adj.reserve_exact(2 * m);
        let mut start = 0usize;
        for &e in gone.iter().chain(std::iter::once(&(self.m() as EdgeId))) {
            out.edges.extend_from_slice(&self.edges[start..e as usize]);
            out.weights
                .extend_from_slice(&self.weights[start..e as usize]);
            start = e as usize + 1;
        }
        out.edges
            .extend(added.iter().map(|&(u, v)| (u.min(v), u.max(v))));
        out.weights.resize(out.edges.len(), 1.0);

        out.offsets.push(0);
        for span in changes.spans() {
            match span {
                RowSpan::Clean(rows) => self.copy_rows(rows, &renumber, out),
                RowSpan::Dirty(r) => {
                    let old = self.incident(r.row as NodeId);
                    r.merge(
                        old,
                        |(nb, _)| nb,
                        |edit| match edit {
                            RowEdit::Keep((nb, e)) => out.adj.push((nb, renumber(e))),
                            RowEdit::Drop(_) => {}
                            RowEdit::Insert { neighbor, index } => {
                                out.adj.push((neighbor, first_added + index as EdgeId))
                            }
                        },
                    );
                    out.offsets.push(out.adj.len());
                }
            }
        }
    }

    /// Append `rows`, none of which a patch touches, to `out`: one run
    /// of incidences with their edge ids renumbered, and the run's
    /// offsets shifted to where it lands.
    fn copy_rows(&self, rows: Range<usize>, renumber: &impl Fn(EdgeId) -> EdgeId, out: &mut Graph) {
        let (a, b) = (self.offsets[rows.start], self.offsets[rows.end]);
        let base = out.adj.len();
        out.adj
            .extend(self.adj[a..b].iter().map(|&(nb, e)| (nb, renumber(e))));
        out.offsets.extend(
            self.offsets[rows.start + 1..=rows.end]
                .iter()
                .map(|&o| o - a + base),
        );
    }

    /// Number of connected components.
    pub fn components(&self) -> usize {
        let mut seen = vec![false; self.n];
        let mut stack = Vec::new();
        let mut comps = 0;
        for s in 0..self.n {
            if seen[s] {
                continue;
            }
            comps += 1;
            seen[s] = true;
            stack.push(s as NodeId);
            while let Some(v) = stack.pop() {
                for &(u, _) in self.incident(v) {
                    if !seen[u as usize] {
                        seen[u as usize] = true;
                        stack.push(u);
                    }
                }
            }
        }
        comps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn house() -> Graph {
        // A 4-cycle with a diagonal and a pendant.
        Graph::new(5, vec![(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (3, 4)])
    }

    #[test]
    fn basic_accessors() {
        let g = house();
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 6);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(4), 1);
        assert_eq!(g.max_degree(), 3);
        assert_eq!(g.endpoints(0), (0, 1));
    }

    #[test]
    fn incidence_is_sorted_and_consistent() {
        let g = house();
        for v in 0..5u32 {
            let inc = g.incident(v);
            assert!(inc.windows(2).all(|w| w[0].0 < w[1].0));
            for &(u, e) in inc {
                assert_eq!(g.other(e, v), u);
            }
        }
    }

    #[test]
    fn edge_between_works_both_ways() {
        let g = house();
        let e = g.edge_between(2, 0).expect("diagonal");
        assert_eq!(g.endpoints(e), (0, 2));
        assert_eq!(g.edge_between(0, 2), Some(e));
        assert_eq!(g.edge_between(1, 3), None);
    }

    #[test]
    fn weights_default_to_one() {
        let g = house();
        assert_eq!(g.total_weight(), 6.0);
        assert_eq!(g.weight(3), 1.0);
    }

    #[test]
    fn edge_subgraph_preserves_ids() {
        let g = house();
        let (sub, back) = g.edge_subgraph(|e| e % 2 == 0);
        assert_eq!(sub.m(), 3);
        assert_eq!(sub.n(), 5);
        for (new_e, &old_e) in back.iter().enumerate() {
            assert_eq!(sub.endpoints(new_e as EdgeId), g.endpoints(old_e));
        }
    }

    #[test]
    fn reweighted_replaces_weights() {
        let g = house();
        let g2 = g.reweighted(vec![2.0; 6]);
        assert_eq!(g2.total_weight(), 12.0);
        assert_eq!(g2.endpoints(5), g.endpoints(5));
    }

    #[test]
    fn components_counts() {
        let g = Graph::new(6, vec![(0, 1), (2, 3), (3, 4)]);
        assert_eq!(g.components(), 3); // {0,1}, {2,3,4}, {5}
        assert_eq!(house().components(), 1);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loop() {
        Graph::new(2, vec![(1, 1)]);
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn rejects_parallel_edges() {
        Graph::new(3, vec![(0, 1), (1, 0)]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_weights() {
        Graph::with_weights(2, vec![(0, 1)], vec![-1.0]);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new(0, vec![]);
        assert!(g.is_empty());
        assert_eq!(g.components(), 0);
    }

    /// `patch_into` against a rebuild from `survivors ++ added`: edge
    /// list, weights and every incidence list.
    fn assert_patch_matches_rebuild(
        g: &Graph,
        removed: &[(NodeId, NodeId)],
        added: &[(NodeId, NodeId)],
    ) {
        let canon = |&(u, v): &(NodeId, NodeId)| (u.min(v), u.max(v));
        let gone: Vec<(NodeId, NodeId)> = removed.iter().map(canon).collect();
        let mut edges = Vec::new();
        let mut weights = Vec::new();
        for (e, &uv) in g.edge_list().iter().enumerate() {
            if !gone.contains(&uv) {
                edges.push(uv);
                weights.push(g.weight(e as EdgeId));
            }
        }
        edges.extend_from_slice(added);
        weights.resize(edges.len(), 1.0);
        let want = Graph::with_weights(g.n(), edges, weights);
        // A used buffer, so stale contents would show.
        let mut got = house();
        g.patch_into(removed, added, &mut got);
        assert_eq!(got.n(), want.n());
        assert_eq!(got.edge_list(), want.edge_list());
        assert_eq!(got.weight_list(), want.weight_list());
        for v in 0..g.n() as NodeId {
            assert_eq!(got.incident(v), want.incident(v), "row {v}");
        }
    }

    #[test]
    fn patch_into_equals_the_rebuild() {
        use crate::generators::{
            barabasi_albert, chung_lu, d_regular, gnp, random_geometric, zipf_bipartite,
        };
        use crate::rng::Rng64;
        let n = 60;
        let zoo = [
            gnp(n, 0.1, 1),
            barabasi_albert(n, 3, 2),
            chung_lu(n, 2.5, 6.0, 3),
            random_geometric(n, 0.25, 4),
            d_regular(n, 4, 5),
            zipf_bipartite(24, 36, 150, 1.1, 6).0,
        ];
        let mut rng = Rng64::new(9);
        for g in &zoo {
            let g = g.reweighted((0..g.m()).map(|e| 1.0 + e as f64).collect());
            let last = g.n() as NodeId - 1;
            assert_patch_matches_rebuild(&g, &[], &[]);
            for _ in 0..8 {
                let removed: Vec<(NodeId, NodeId)> = (0..rng.index(6))
                    .map(|_| g.endpoints(rng.index(g.m()) as EdgeId))
                    .collect::<std::collections::BTreeSet<_>>()
                    .into_iter()
                    .collect();
                let mut added = Vec::new();
                for _ in 0..rng.index(6) {
                    let (u, v) = (rng.index(g.n()) as NodeId, rng.index(g.n()) as NodeId);
                    let e = (u.min(v), u.max(v));
                    if u != v && g.edge_between(u, v).is_none() && !added.contains(&e) {
                        added.push(e);
                    }
                }
                assert_patch_matches_rebuild(&g, &removed, &added);
            }
            // Batches at both ends of the id range, in reversed
            // orientation, and an edge removed and re-inserted.
            let lo = (0..=last).find(|&v| g.degree(v) > 0).unwrap();
            let hi = (0..=last).rev().find(|&v| g.degree(v) > 0).unwrap();
            let mut ends = Vec::new();
            for v in [lo, hi] {
                let u = g.incident(v)[0].0;
                if !ends.contains(&(u.max(v), u.min(v))) {
                    ends.push((u.max(v), u.min(v)));
                }
            }
            let corner: Vec<(NodeId, NodeId)> = if g.edge_between(0, last).is_none() {
                vec![(last, 0)]
            } else {
                vec![]
            };
            assert_patch_matches_rebuild(&g, &ends, &corner);
            assert_patch_matches_rebuild(&g, &ends[..1], &ends[..1]);
            // A node losing its last edge, and an isolated node gaining
            // its first.
            let leaf = (0..g.n() as NodeId).find(|&v| g.degree(v) > 0).unwrap();
            let star: Vec<(NodeId, NodeId)> =
                g.incident(leaf).iter().map(|&(u, _)| (leaf, u)).collect();
            let mut bare = Graph::new(0, vec![]);
            g.patch_into(&star, &[], &mut bare);
            assert_eq!(bare.degree(leaf), 0);
            let first = g.incident(leaf)[0].0;
            assert_patch_matches_rebuild(&bare, &[], &[(first, leaf)]);
        }
    }

    #[test]
    #[should_panic(expected = "non-edge")]
    fn patch_rejects_removing_non_edges() {
        house().patch_into(&[(1, 3)], &[], &mut Graph::new(0, vec![]));
    }

    #[test]
    #[should_panic(expected = "existing edge")]
    fn patch_rejects_inserting_existing_edges() {
        house().patch_into(&[], &[(2, 1)], &mut Graph::new(0, vec![]));
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn patch_rejects_duplicate_insertions() {
        house().patch_into(&[], &[(1, 3), (3, 1)], &mut Graph::new(0, vec![]));
    }
}
