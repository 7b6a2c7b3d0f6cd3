//! Shared node-state plumbing for all protocols.
//!
//! Protocols run in *phases*: each phase constructs a fresh
//! [`simnet::Network`] whose node states are built from the graph and
//! the current matching, runs to completion, and hands the (possibly
//! updated) matching plus accumulated statistics to the next phase.
//! This mirrors how the paper composes its algorithms (Algorithm 1
//! iterates phases; Algorithm 4 calls `Aug` per sampling iteration;
//! Algorithm 5 calls a δ-MWM black box per iteration).

use dgraph::{EdgeId, Graph, Matching, NodeId, UNMATCHED};
use simnet::Topology;

/// Convert a [`Graph`] into a [`Topology`] (the communication graph is
/// the input graph itself, as in the paper's model).
pub fn topology_of(g: &Graph) -> Topology {
    Topology::from_edges(g.n(), g.edge_list())
}

/// Static per-node inputs every protocol needs: the incident edge ids,
/// their weights, and (port-indexed) everything required to act without
/// touching global state.
#[derive(Debug, Clone)]
pub struct NodeInit {
    /// This node's id.
    pub id: NodeId,
    /// `edge_ids[p]` is the edge id on port `p` (ports are sorted by
    /// neighbor id, matching both `Graph::incident` and
    /// `Topology::neighbors` order).
    pub edge_ids: Vec<EdgeId>,
    /// `weights[p]` is the weight of the edge on port `p`.
    pub weights: Vec<f64>,
    /// Port to this node's mate, or `None` when free.
    pub mate_port: Option<usize>,
}

/// Build the per-node inputs for all nodes under matching `m`.
pub fn node_inits(g: &Graph, m: &Matching) -> Vec<NodeInit> {
    (0..g.n() as NodeId)
        .map(|v| {
            let inc = g.incident(v);
            let mate = m.mate(v);
            let mate_port = mate.map(|mv| {
                inc.binary_search_by_key(&mv, |&(nb, _)| nb)
                    .expect("mate must be a neighbor")
            });
            NodeInit {
                id: v,
                edge_ids: inc.iter().map(|&(_, e)| e).collect(),
                weights: inc.iter().map(|&(_, e)| g.weight(e)).collect(),
                mate_port,
            }
        })
        .collect()
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
pub(crate) fn matching_from_ports(
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

    #[test]
    fn node_inits_align_ports() {
        let g = path(4);
        let m = Matching::from_edges(&g, &[1]); // edge (1,2)
        let inits = node_inits(&g, &m);
        assert_eq!(inits[0].mate_port, None);
        // Node 1 neighbors sorted: [0, 2]; mate 2 is port 1.
        assert_eq!(inits[1].mate_port, Some(1));
        assert_eq!(inits[2].mate_port, Some(0));
        assert_eq!(inits[1].edge_ids.len(), 2);
    }

    #[test]
    fn roundtrip_mates() {
        let g = path(4);
        let m = Matching::from_edges(&g, &[0, 2]);
        let ports = node_inits(&g, &m).into_iter().map(|i| i.mate_port);
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
