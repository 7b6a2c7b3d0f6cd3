//! Luby's randomized maximal independent set (MIS).
//!
//! The paper uses an MIS subroutine (citing Luby \[20\] and
//! Alon–Babai–Itai \[1\]) in Step 5 of Algorithm 1, and its bipartite
//! token construction (Section 3.2) *emulates* exactly this variant:
//! every node picks a random priority and joins the MIS when it beats
//! all neighbors; winners and their neighbors drop out; repeat.
//! `O(log n)` iterations with high probability.
//!
//! One iteration spans three rounds: priorities out, winners announce,
//! losers retire.

use simnet::{BitSize, Ctx, Inbox, NetStats, Network, Protocol, Topology};

/// Wire messages.
#[derive(Debug, Clone, Copy)]
pub enum LubyMsg {
    /// Random priority for the current iteration.
    Priority(u64),
    /// "I joined the MIS" — receivers are dominated and retire.
    InMis,
}

impl BitSize for LubyMsg {
    fn bit_size(&self) -> u64 {
        match self {
            LubyMsg::Priority(_) => 1 + 64,
            LubyMsg::InMis => 1,
        }
    }
}

/// Per-node state.
#[derive(Default)]
pub struct LubyNode {
    /// Decision: `Some(true)` in the MIS, `Some(false)` dominated.
    pub in_mis: Option<bool>,
    prio: u64,
}

impl Protocol for LubyNode {
    type Msg = LubyMsg;

    fn on_round(&mut self, ctx: &mut Ctx<'_, LubyMsg>, inbox: Inbox<'_, LubyMsg>) {
        match ctx.round() % 3 {
            0 => {
                self.prio = ctx.rng().next();
                ctx.send_all(LubyMsg::Priority(self.prio));
            }
            1 => {
                // Beat every still-active neighbor (ties by id — the
                // message's sender id is available in the envelope).
                let me = (self.prio, ctx.id());
                let wins = inbox.iter().all(|e| match *e.msg {
                    LubyMsg::Priority(p) => me > (p, e.from),
                    LubyMsg::InMis => true,
                });
                if wins {
                    self.in_mis = Some(true);
                    ctx.send_all(LubyMsg::InMis);
                    ctx.halt();
                }
            }
            2 => {
                if inbox.iter().any(|e| matches!(e.msg, LubyMsg::InMis)) {
                    self.in_mis = Some(false);
                    ctx.halt();
                }
            }
            _ => unreachable!(),
        }
    }
}

/// Round budget (`O(log n)` iterations whp, generous constants).
pub fn round_budget(n: usize) -> u64 {
    3 * (200 + 60 * simnet::id_bits(n.max(2)))
}

/// Compute an MIS of `topo` on a reliable, sequential network. Returns
/// the indicator vector and stats.
pub fn mis(topo: &Topology, seed: u64) -> (Vec<bool>, NetStats) {
    let n = topo.len();
    if n == 0 {
        return (Vec::new(), NetStats::default());
    }
    let nodes: Vec<LubyNode> = (0..n).map(|_| LubyNode::default()).collect();
    let mut net = Network::new(topo.clone(), nodes, seed);
    net.run_until_halt(round_budget(n));
    let (nodes, stats) = net.into_parts();
    let flags = nodes
        .iter()
        .map(|s| s.in_mis.expect("every node decided"))
        .collect();
    (flags, stats)
}

/// Check MIS validity: independent and dominating.
pub fn is_valid_mis(topo: &Topology, flags: &[bool]) -> bool {
    let independent = (0..topo.len() as u32)
        .all(|v| !flags[v as usize] || topo.neighbors(v).iter().all(|&u| !flags[u as usize]));
    let dominating = (0..topo.len() as u32)
        .all(|v| flags[v as usize] || topo.neighbors(v).iter().any(|&u| flags[u as usize]));
    independent && dominating
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo_path(n: usize) -> Topology {
        Topology::from_edges(
            n,
            &(0..n as u32 - 1).map(|i| (i, i + 1)).collect::<Vec<_>>(),
        )
    }

    #[test]
    fn valid_on_paths_and_cliques() {
        let t = topo_path(20);
        let (f, _) = mis(&t, 3);
        assert!(is_valid_mis(&t, &f));

        let mut edges = Vec::new();
        for u in 0..10u32 {
            for v in u + 1..10 {
                edges.push((u, v));
            }
        }
        let t = Topology::from_edges(10, &edges);
        let (f, _) = mis(&t, 4);
        assert!(is_valid_mis(&t, &f));
        assert_eq!(
            f.iter().filter(|&&x| x).count(),
            1,
            "clique MIS is a single node"
        );
    }

    #[test]
    fn isolated_nodes_always_join() {
        let t = Topology::from_edges(4, &[(0, 1)]);
        let (f, _) = mis(&t, 9);
        assert!(f[2] && f[3]);
        assert!(is_valid_mis(&t, &f));
    }

    #[test]
    fn logarithmic_rounds_on_random_graph() {
        let mut edges = Vec::new();
        let mut rng = simnet::SplitMix64::new(5);
        let n = 256u32;
        for u in 0..n {
            for v in u + 1..n {
                if rng.bernoulli(0.02) {
                    edges.push((u, v));
                }
            }
        }
        let t = Topology::from_edges(n as usize, &edges);
        let (f, stats) = mis(&t, 6);
        assert!(is_valid_mis(&t, &f));
        assert!(stats.rounds <= 3 * 60, "{} rounds", stats.rounds);
    }

    #[test]
    fn deterministic_in_seed() {
        let t = topo_path(30);
        assert_eq!(mis(&t, 11).0, mis(&t, 11).0);
    }

    #[test]
    fn empty_topology() {
        let t = Topology::from_edges(0, &[]);
        let (f, _) = mis(&t, 0);
        assert!(f.is_empty());
    }
}
