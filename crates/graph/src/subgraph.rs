//! A borrowed window onto a [`Graph`]: the induced subgraph on a sorted
//! vertex set, without copying the CSR.
//!
//! This is the substrate of the LCA query plane
//! (`dmatch::oracle::MatchingOracle`): a point query materializes only
//! the ball around its query vertex, runs the algorithm on the induced
//! subgraph, and certifies which answers are exact. Two properties are
//! load-bearing and guaranteed here:
//!
//! * **Monotone relabeling.** Local ids are assigned in increasing
//!   global-id order, so the local incidence order (neighbors sorted by
//!   id, the contract of [`Graph::incident`]) equals the global one for
//!   every interior vertex, and lexicographic comparison of local
//!   vertex sequences agrees with the global comparison. Port-sensitive
//!   protocols (Israeli–Itai picks proposals by port index) therefore
//!   see identical choices inside the ball.
//! * **Sublinear footprint.** [`SubgraphView::ball`] walks outward from
//!   the centers keeping distances in an ordered map — no `O(n)`
//!   scratch — so building a view costs `O(|ball| · Δ · log |ball|)`
//!   regardless of how large the host graph is. This is what keeps
//!   oracle probes flat in `n` (gated by experiment E22).

use crate::graph::{Graph, NodeId};
use std::collections::{BTreeMap, VecDeque};

/// An induced subgraph over a borrowed [`Graph`], identified by a
/// sorted vertex list. Local ids are positions in that list.
#[derive(Debug, Clone)]
pub struct SubgraphView<'g> {
    g: &'g Graph,
    /// Sorted, deduplicated global ids; `verts[local] = global`.
    verts: Vec<NodeId>,
}

impl<'g> SubgraphView<'g> {
    /// View over an explicit vertex set (sorted + deduplicated here).
    pub fn new(g: &'g Graph, mut verts: Vec<NodeId>) -> Self {
        verts.sort_unstable();
        verts.dedup();
        debug_assert!(verts.iter().all(|&v| (v as usize) < g.n()));
        SubgraphView { g, verts }
    }

    /// The ball `B(centers, radius)`: every vertex within `radius` hops
    /// of some center. BFS with an ordered distance map — the cost is
    /// proportional to the ball, not to `g.n()`.
    pub fn ball(g: &'g Graph, centers: &[NodeId], radius: usize) -> Self {
        let mut dist: BTreeMap<NodeId, usize> = BTreeMap::new();
        let mut queue = VecDeque::new();
        for &c in centers {
            if dist.insert(c, 0).is_none() {
                queue.push_back(c);
            }
        }
        while let Some(v) = queue.pop_front() {
            let d = dist[&v];
            if d == radius {
                continue;
            }
            for &(u, _) in g.incident(v) {
                if let std::collections::btree_map::Entry::Vacant(e) = dist.entry(u) {
                    e.insert(d + 1);
                    queue.push_back(u);
                }
            }
        }
        // BTreeMap iterates in key order: already sorted.
        let verts: Vec<NodeId> = dist.into_keys().collect();
        SubgraphView { g, verts }
    }

    /// Number of vertices in the view.
    pub fn len(&self) -> usize {
        self.verts.len()
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.verts.is_empty()
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g Graph {
        self.g
    }

    /// The sorted global vertex ids.
    pub fn vertices(&self) -> &[NodeId] {
        &self.verts
    }

    /// Whether global vertex `v` is in the view.
    pub fn contains(&self, v: NodeId) -> bool {
        self.verts.binary_search(&v).is_ok()
    }

    /// Local id of global vertex `v`, if present. Strictly monotone in
    /// `v` by construction.
    pub fn local(&self, v: NodeId) -> Option<usize> {
        self.verts.binary_search(&v).ok()
    }

    /// Global id of local vertex `l`.
    pub fn global(&self, l: usize) -> NodeId {
        self.verts[l]
    }

    /// Local ids of the view's boundary: vertices with at least one
    /// neighbor outside the view. For a ball of radius `r` these all
    /// sit on the distance-`r` sphere (an interior vertex's neighbors
    /// are all within `r`), which is what makes them the contamination
    /// frontier of a local simulation.
    pub fn boundary_locals(&self) -> Vec<usize> {
        (0..self.verts.len())
            .filter(|&l| {
                self.g
                    .incident(self.verts[l])
                    .iter()
                    .any(|&(u, _)| !self.contains(u))
            })
            .collect()
    }

    /// Materialize the induced subgraph as an owned [`Graph`] in local
    /// ids, weights carried over from the host. Its edges are listed
    /// in sorted order, smaller endpoint first.
    pub fn induced(&self) -> Graph {
        let mut edges = Vec::new();
        let mut weights = Vec::new();
        for (lv, &v) in self.verts.iter().enumerate() {
            for &(u, e) in self.g.incident(v) {
                if u > v {
                    if let Some(lu) = self.local(u) {
                        edges.push((lv as NodeId, lu as NodeId));
                        weights.push(self.g.weight(e));
                    }
                }
            }
        }
        Graph::with_weights(self.verts.len(), edges, weights)
    }
}

/// Multi-source BFS over `g`: `dist[v]` is the number of hops from `v`
/// to the nearest source, or `usize::MAX` when that exceeds `radius`
/// (pass `usize::MAX` for no cut-off). Unlike [`SubgraphView::ball`] it
/// keeps `O(n)` scratch, so it is meant for a whole graph or for a ball
/// already materialized by [`SubgraphView::induced`].
pub fn bfs_distances(g: &Graph, sources: &[NodeId], radius: usize) -> Vec<usize> {
    let mut dist = vec![usize::MAX; g.n()];
    let mut queue = VecDeque::new();
    for &s in sources {
        if dist[s as usize] == usize::MAX {
            dist[s as usize] = 0;
            queue.push_back(s);
        }
    }
    while let Some(v) = queue.pop_front() {
        let d = dist[v as usize];
        if d == radius {
            continue;
        }
        for &(u, _) in g.incident(v) {
            if dist[u as usize] == usize::MAX {
                dist[u as usize] = d + 1;
                queue.push_back(u);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::random::gnp;
    use crate::generators::structured::path;

    #[test]
    fn ball_matches_dense_bfs() {
        let g = gnp(60, 0.08, 11);
        for &(c, r) in &[(0u32, 1usize), (7, 2), (13, 3), (30, 0)] {
            let view = SubgraphView::ball(&g, &[c], r);
            let dist = bfs_distances(&g, &[c], r);
            let want: Vec<NodeId> = (0..g.n() as NodeId)
                .filter(|&v| dist[v as usize] != usize::MAX)
                .collect();
            assert_eq!(view.vertices(), &want[..], "center {c} radius {r}");
        }
    }

    #[test]
    fn ball_tolerates_duplicate_centers() {
        let g = gnp(40, 0.1, 3);
        let a = SubgraphView::ball(&g, &[5, 5, 5, 9], 2);
        let b = SubgraphView::ball(&g, &[5, 9], 2);
        assert_eq!(a.vertices(), b.vertices());
    }

    #[test]
    fn relabeling_is_monotone_and_invertible() {
        let g = gnp(50, 0.1, 7);
        let view = SubgraphView::ball(&g, &[20], 2);
        for l in 0..view.len() {
            assert_eq!(view.local(view.global(l)), Some(l));
        }
        for w in view.vertices().windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn induced_preserves_incidence_order() {
        // Interior vertices must see their neighbors in the same order
        // locally as globally (both sorted by id under monotone remap).
        let g = gnp(50, 0.12, 19);
        let view = SubgraphView::ball(&g, &[10], 3);
        let ind = view.induced();
        let boundary: Vec<usize> = view.boundary_locals();
        for l in 0..view.len() {
            if boundary.contains(&l) {
                continue;
            }
            let global: Vec<NodeId> = g.incident(view.global(l)).iter().map(|&(u, _)| u).collect();
            let local: Vec<NodeId> = ind
                .incident(l as NodeId)
                .iter()
                .map(|&(u, _)| view.global(u as usize))
                .collect();
            assert_eq!(global, local, "interior vertex {l}");
        }
    }

    #[test]
    fn boundary_is_the_sphere() {
        let g = path(30);
        let view = SubgraphView::ball(&g, &[15], 3);
        let boundary: Vec<NodeId> = view
            .boundary_locals()
            .into_iter()
            .map(|l| view.global(l))
            .collect();
        assert_eq!(boundary, vec![12, 18]);
    }

    #[test]
    fn full_component_has_no_boundary() {
        let g = path(8);
        let view = SubgraphView::ball(&g, &[4], 100);
        assert_eq!(view.len(), 8);
        assert!(view.boundary_locals().is_empty());
    }

    #[test]
    fn induced_carries_weights() {
        let g = Graph::with_weights(4, vec![(0, 1), (1, 2), (2, 3)], vec![1.5, 2.5, 3.5]);
        let view = SubgraphView::new(&g, vec![1, 2, 3]);
        let ind = view.induced();
        assert_eq!(ind.m(), 2);
        let e = ind.edge_between(0, 1).unwrap();
        assert!((ind.weight(e) - 2.5).abs() < 1e-12);
    }
}
