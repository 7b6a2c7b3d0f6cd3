//! Distributed local-dominant weighted matching (Preis \[25\] / Hoepman
//! \[11\] style): an edge joins the matching when both endpoints point at
//! it as their heaviest remaining incident edge.
//!
//! Deterministic ½-MWM. Round complexity is `O(n)` in the worst case
//! (a path with strictly increasing weights serializes completely) —
//! exactly the baseline the paper's `O(log n)`-round algorithms beat;
//! experiment E5 shows this contrast.
//!
//! One iteration spans two rounds: point, then resolve-and-announce.

use crate::state;
use dgraph::{Graph, Matching, NodeId};
use simnet::{BitSize, Ctx, ExecCfg, Inbox, NetStats, Network, Protocol};

/// Wire messages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LdMsg {
    /// "You are my heaviest remaining neighbor."
    Point,
    /// "I am matched; remove this edge."
    Matched,
}

impl BitSize for LdMsg {
    fn bit_size(&self) -> u64 {
        1
    }
}

struct LdNode {
    mate_port: Option<usize>,
    active: Vec<bool>,
    weights: Vec<f64>,
    edge_ids: Vec<dgraph::EdgeId>,
    pointed: Option<usize>,
    announced: bool,
}

impl LdNode {
    fn new(g: &Graph, v: NodeId) -> Self {
        let inc = g.incident(v);
        LdNode {
            mate_port: None,
            active: vec![true; inc.len()],
            weights: inc.iter().map(|&(_, e)| g.weight(e)).collect(),
            edge_ids: inc.iter().map(|&(_, e)| e).collect(),
            pointed: None,
            announced: false,
        }
    }

    /// Heaviest active port; ties broken by (globally known) edge id.
    fn best_port(&self) -> Option<usize> {
        let mut best: Option<usize> = None;
        for p in 0..self.active.len() {
            if !self.active[p] {
                continue;
            }
            best = match best {
                None => Some(p),
                Some(b) => {
                    let key = (self.weights[p], std::cmp::Reverse(self.edge_ids[p]));
                    let bkey = (self.weights[b], std::cmp::Reverse(self.edge_ids[b]));
                    if key.partial_cmp(&bkey).expect("finite weights")
                        == std::cmp::Ordering::Greater
                    {
                        Some(p)
                    } else {
                        Some(b)
                    }
                }
            };
        }
        best
    }
}

impl Protocol for LdNode {
    type Msg = LdMsg;

    fn on_round(&mut self, ctx: &mut Ctx<'_, LdMsg>, inbox: Inbox<'_, LdMsg>) {
        for env in inbox.iter() {
            if *env.msg == LdMsg::Matched {
                self.active[env.port] = false;
            }
        }
        match ctx.round() % 2 {
            0 => {
                if let Some(mp) = self.mate_port {
                    if !self.announced {
                        // Newly matched: tell the others.
                        for p in 0..ctx.degree() {
                            if p != mp {
                                ctx.send(p, LdMsg::Matched);
                            }
                        }
                        self.announced = true;
                    } else {
                        ctx.halt();
                    }
                    return;
                }
                match self.best_port() {
                    None => ctx.halt(), // all neighbors matched: locally maximal
                    Some(p) => {
                        self.pointed = Some(p);
                        ctx.send(p, LdMsg::Point);
                    }
                }
            }
            1 => {
                if self.mate_port.is_some() {
                    return;
                }
                if let Some(p) = self.pointed {
                    // Mutual pointing ⇒ the edge is locally dominant
                    // (O(1) port-indexed inbox lookup).
                    if inbox.get(p) == Some(&LdMsg::Point) {
                        self.mate_port = Some(p);
                    }
                }
                self.pointed = None;
            }
            _ => unreachable!(),
        }
    }
}

/// Deterministic round budget: `O(n)` iterations suffice (every
/// iteration matches at least one globally heaviest remaining edge).
pub fn round_budget(n: usize) -> u64 {
    2 * (2 * n as u64 + 16)
}

/// Run local-dominant matching under `cfg`. Returns a maximal-by-weight
/// ½-MWM.
pub fn run_cfg(g: &Graph, seed: u64, cfg: ExecCfg) -> (Matching, NetStats) {
    let nodes: Vec<LdNode> = (0..g.n() as NodeId).map(|v| LdNode::new(g, v)).collect();
    let mut net = Network::new(state::topology_of(g), nodes, seed).with_cfg(cfg);
    // Any active fault plan can break the mutual-pointing handshake: a
    // dropped `Point` matches one endpoint but not the other, and a
    // dropped one-shot `Matched` announcement leaves a neighbor pointing
    // forever (so the network may never halt). Run to the fixed round
    // budget and keep only mutually-agreed pairs.
    let faulty = cfg.faults.is_active();
    if faulty {
        net.run_rounds(round_budget(g.n()));
    } else {
        net.run_until_halt(round_budget(g.n()));
    }
    let (nodes, stats) = net.into_parts();
    let m = state::matching_from_ports(g, nodes.iter().map(|s| s.mate_port), faulty);
    (m, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgraph::generators::random::gnp;
    use dgraph::generators::weights::{apply_weights, WeightModel};
    use dgraph::mwm_exact::max_weight_exact;
    use dgraph::NodeId;

    #[test]
    fn half_approximation_on_random_weighted_graphs() {
        for seed in 0..8 {
            let g = apply_weights(
                &gnp(14, 0.3, seed),
                WeightModel::Uniform(0.5, 5.0),
                seed + 9,
            );
            let (m, _) = run_cfg(&g, seed, ExecCfg::default());
            assert!(m.validate(&g).is_ok());
            let opt = max_weight_exact(&g);
            assert!(
                m.weight(&g) >= 0.5 * opt - 1e-9,
                "seed {seed}: {} < {}/2",
                m.weight(&g),
                opt
            );
        }
    }

    #[test]
    fn result_is_maximal() {
        for seed in 0..5 {
            let g = apply_weights(
                &gnp(20, 0.2, 50 + seed),
                WeightModel::Exponential(1.0),
                seed,
            );
            let (m, _) = run_cfg(&g, seed, ExecCfg::default());
            assert!(m.is_maximal(&g), "seed {seed}");
        }
    }

    #[test]
    fn takes_globally_heaviest_edge() {
        let g = Graph::with_weights(4, vec![(0, 1), (1, 2), (2, 3)], vec![1.0, 10.0, 1.0]);
        let (m, _) = run_cfg(&g, 0, ExecCfg::default());
        assert!(
            m.contains(&g, 1),
            "heaviest edge is always locally dominant"
        );
        assert_eq!(m.size(), 1);
    }

    #[test]
    fn increasing_path_serializes() {
        // Weights 1 < 2 < … : only the heaviest edge is dominant each
        // sweep; rounds grow linearly — the worst case the paper
        // escapes.
        let n = 22;
        let edges: Vec<(NodeId, NodeId)> =
            (0..n - 1).map(|i| (i as NodeId, i as NodeId + 1)).collect();
        let weights: Vec<f64> = (0..n - 1).map(|i| (i + 1) as f64).collect();
        let g = Graph::with_weights(n, edges, weights);
        let (m, stats) = run_cfg(&g, 3, ExecCfg::default());
        assert!(m.validate(&g).is_ok());
        // Every second edge from the heavy end.
        assert!(m.weight(&g) >= 0.5 * max_weight_exact_for_path(&g));
        assert!(
            stats.rounds as usize >= n / 4,
            "expected near-linear rounds, got {}",
            stats.rounds
        );
    }

    fn max_weight_exact_for_path(g: &Graph) -> f64 {
        // The path is small enough for the DP oracle.
        max_weight_exact(g)
    }

    #[test]
    fn deterministic_result() {
        let g = apply_weights(&gnp(16, 0.3, 7), WeightModel::Integer(1, 50), 8);
        let (m1, _) = run_cfg(&g, 1, ExecCfg::default());
        let (m2, _) = run_cfg(&g, 2, ExecCfg::default()); // seed-independent: algorithm is deterministic
        assert_eq!(m1, m2);
    }

    #[test]
    fn unit_weights_give_maximal_matching() {
        let g = gnp(20, 0.2, 11);
        let (m, _) = run_cfg(&g, 4, ExecCfg::default());
        assert!(m.is_maximal(&g));
    }
}
