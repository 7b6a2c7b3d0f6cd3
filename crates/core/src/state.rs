//! Shared node-state plumbing for all protocols.
//!
//! Protocols run in *phases*: each phase runs a [`simnet::Network`]
//! (its own, or for `Aug`'s passes a re-armed one of a kept
//! [`crate::bipartite::AugNets`]) on node states set from the graph and
//! the current matching, and hands the (possibly updated) matching plus
//! statistics to the next phase. This mirrors how the paper composes
//! its algorithms (Algorithm 1 iterates phases; Algorithm 4 calls `Aug`
//! per sampling iteration; Algorithm 5 calls a δ-MWM black box per
//! iteration).

use dgraph::{Graph, Matching, NodeId, UNMATCHED};
use simnet::Topology;

/// Convert a [`Graph`] into a [`Topology`] (the communication graph is
/// the input graph itself, as in the paper's model). The graph's
/// incidence lists are already sorted rows, so they are copied straight
/// in and only the reverse ports are paired.
pub fn topology_of(g: &Graph) -> Topology {
    let mut offsets = Vec::with_capacity(g.n() + 1);
    let mut neighbors = Vec::with_capacity(2 * g.m());
    offsets.push(0);
    for v in 0..g.n() as NodeId {
        neighbors.extend(g.incident(v).iter().map(|&(u, _)| u));
        offsets.push(neighbors.len());
    }
    Topology::from_sorted_rows(offsets, neighbors)
}

/// Port of `v`'s mate under `m` (an index into `g.incident(v)`, which
/// is also the port order of [`topology_of`]), or `None` when free.
pub(crate) fn mate_port(g: &Graph, m: &Matching, v: NodeId) -> Option<usize> {
    m.mate(v).map(|w| {
        g.incident(v)
            .binary_search_by_key(&w, |&(u, _)| u)
            .expect("mate must be a neighbor")
    })
}

/// Extract the matching a protocol run left behind from its per-node
/// mate ports (`mate_ports` yields, in node order, the port each node
/// believes leads to its mate).
///
/// With `agreed == false` the claims must already be symmetric — the
/// fault-free contract of every protocol here (debug-asserted). With
/// `agreed == true`, possibly *inconsistent* claims (fault injection
/// can leave one-sided ones) are tolerated: only pairs in which both
/// endpoints claim each other are kept, which always yields a valid
/// matching.
pub fn matching_from_ports(
    g: &Graph,
    mate_ports: impl IntoIterator<Item = Option<usize>>,
    agreed: bool,
) -> Matching {
    let mut mates: Vec<NodeId> = mate_ports
        .into_iter()
        .enumerate()
        .map(|(v, port)| port.map_or(UNMATCHED, |p| g.incident(v as NodeId)[p].0))
        .collect();
    if agreed {
        // Clearing in place is sound: an entry is cleared only when its
        // target does not claim it back, so no reciprocated pair ever
        // reads a cleared entry.
        for v in 0..mates.len() {
            let c = mates[v];
            if c != UNMATCHED && mates[c as usize] != v as NodeId {
                mates[v] = UNMATCHED;
            }
        }
    }
    let m = Matching::from_mates(mates);
    debug_assert!(
        m.validate(g).is_ok(),
        "protocol produced an invalid matching"
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgraph::generators::structured::path;

    #[test]
    fn topology_matches_graph() {
        let g = path(6);
        let t = topology_of(&g);
        assert_eq!(t.len(), 6);
        assert_eq!(t.num_edges(), 5);
        for v in 0..6u32 {
            let nbrs: Vec<NodeId> = g.incident(v).iter().map(|&(u, _)| u).collect();
            assert_eq!(t.neighbors(v), &nbrs[..]);
        }
    }

    /// The one-pass copy yields exactly the topology the edge-list
    /// route builds, reverse ports included.
    #[test]
    fn topology_of_equals_the_edge_list_route_on_the_zoo() {
        use dgraph::generators::random::{barabasi_albert, gnp};
        use dgraph::generators::zoo::{chung_lu, d_regular, random_geometric};
        let zoo = [
            gnp(150, 0.04, 1),
            barabasi_albert(150, 3, 2),
            chung_lu(150, 2.5, 5.0, 3),
            random_geometric(150, 0.1, 4),
            d_regular(150, 3, 5),
            Graph::new(4, vec![]),
        ];
        for (i, g) in zoo.iter().enumerate() {
            let got = topology_of(g);
            let want = Topology::from_edges(g.n(), g.edge_list());
            assert_eq!(got.len(), want.len(), "graph {i}");
            for v in 0..g.n() as NodeId {
                assert_eq!(got.neighbors(v), want.neighbors(v), "graph {i} node {v}");
                for p in 0..got.degree(v) {
                    assert_eq!(got.reverse_port(v, p), want.reverse_port(v, p));
                }
            }
        }
    }

    #[test]
    fn mate_ports_align_with_topology_ports() {
        let g = path(4);
        let m = Matching::from_edges(&g, &[1]); // edge (1,2)
        assert_eq!(mate_port(&g, &m, 0), None);
        // Node 1 neighbors sorted: [0, 2]; mate 2 is port 1.
        assert_eq!(mate_port(&g, &m, 1), Some(1));
        assert_eq!(mate_port(&g, &m, 2), Some(0));
        assert_eq!(topology_of(&g).neighbors(1)[1], 2);
    }

    #[test]
    fn roundtrip_mates() {
        let g = path(4);
        let m = Matching::from_edges(&g, &[0, 2]);
        let ports = (0..4).map(|v| mate_port(&g, &m, v));
        assert_eq!(matching_from_ports(&g, ports.clone(), false), m);
        assert_eq!(matching_from_ports(&g, ports, true), m);
        // One-sided claims: 1 → 2 is not reciprocated (2 claims 3, and
        // 3 claims 2 back), so only the pair (2, 3) survives agreement.
        let claims = [None, Some(1), Some(1), Some(0)];
        assert_eq!(
            matching_from_ports(&g, claims, true),
            Matching::from_edges(&g, &[2])
        );
    }
}
