//! Israeli–Itai randomized maximal matching (1986) — the classical
//! distributed ½-MCM baseline the paper improves on.
//!
//! Each *iteration* spans three synchronous rounds:
//!
//! 1. **Propose** — every active node flips a coin; heads ("male")
//!    nodes propose to a uniformly random active neighbor.
//! 2. **Accept** — tails ("female") nodes accept one incoming proposal
//!    (lowest port), which immediately matches the pair.
//! 3. **Announce** — newly matched nodes tell their other neighbors,
//!    who mark the corresponding ports dead.
//!
//! A node halts once it is matched (after announcing) or all of its
//! neighbors are matched — so the result is always a *maximal*
//! matching, which is a ½-approximation of the maximum. The number of
//! iterations is `O(log n)` with high probability \[15\].
//!
//! Messages are constant-size (2-bit tags), well inside CONGEST.
//!
//! ```
//! use dgraph::generators::random::gnp;
//! use dmatch::Session;
//! let g = gnp(100, 0.05, 1);
//! // Israeli–Itai is the session's default algorithm.
//! let r = Session::on(&g).seed(7).build().run_to_completion();
//! assert!(r.matching.is_maximal(&g)); // ⇒ a ½-approximation
//! assert!(r.stats.max_msg_bits <= 2); // constant-size messages
//! ```

use crate::state;
use dgraph::{Graph, Matching, NodeId};
use simnet::{BitSize, Ctx, ExecCfg, Inbox, NetStats, Network, Protocol};

/// Wire messages (2 bits each).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IIMsg {
    /// "Will you match with me?"
    Propose,
    /// "Yes" (sent only to the chosen proposer; consummates the match).
    Accept,
    /// "I am matched; stop considering this edge."
    Matched,
}

impl BitSize for IIMsg {
    fn bit_size(&self) -> u64 {
        2
    }
}

/// Per-node protocol state.
pub struct IINode {
    /// Port of the mate once matched.
    pub mate_port: Option<usize>,
    /// Which ports still lead to unmatched nodes.
    active_port: Vec<bool>,
    /// True while this node is male in the current iteration.
    male: bool,
    /// Port proposed to in the current iteration.
    proposed_to: Option<usize>,
    /// The 0-based round in which this node halted, `None` while live.
    /// The oracle certifies a ball node by it.
    pub(crate) halt_round: Option<u64>,
}

impl IINode {
    /// A free node of the given degree, all ports live: the degree is
    /// all the input it reads, so the oracle builds ball nodes from it
    /// alone.
    pub(crate) fn new(degree: usize) -> Self {
        IINode {
            mate_port: None,
            active_port: vec![true; degree],
            male: false,
            proposed_to: None,
            halt_round: None,
        }
    }

    fn matched(&self) -> bool {
        self.mate_port.is_some()
    }
}

impl Protocol for IINode {
    type Msg = IIMsg;

    fn on_round(&mut self, ctx: &mut Ctx<'_, IIMsg>, inbox: Inbox<'_, IIMsg>) {
        let phase = ctx.round() % 3;
        // Dead-port bookkeeping happens in every phase.
        for env in inbox.iter() {
            if *env.msg == IIMsg::Matched {
                self.active_port[env.port] = false;
            }
        }
        match phase {
            0 => {
                // Announcing always halts, so a node still stepped while
                // matched has accepted but not announced: it crashed
                // through phase 2 and rejoined. It announces now and
                // leaves, like every announced node.
                if self.matched() {
                    self.announce(ctx);
                    self.halt(ctx);
                    return;
                }
                let live = self.active_port.iter().filter(|&&a| a).count();
                if live == 0 {
                    self.halt(ctx); // isolated among matched nodes: maximality holds
                    return;
                }
                self.male = ctx.rng().bernoulli(0.5);
                self.proposed_to = None;
                if self.male {
                    // The k-th live port, k uniform: counted, not collected.
                    let k = ctx.rng().below(live as u64) as usize;
                    let p = (0..ctx.degree())
                        .filter(|&p| self.active_port[p])
                        .nth(k)
                        .expect("k < live ports");
                    self.proposed_to = Some(p);
                    ctx.send(p, IIMsg::Propose);
                }
            }
            1 => {
                if self.matched() || self.male {
                    return; // males ignore proposals
                }
                // Accept the lowest-port live proposal.
                if let Some(env) = inbox
                    .iter()
                    .find(|e| *e.msg == IIMsg::Propose && self.active_port[e.port])
                {
                    self.mate_port = Some(env.port);
                    ctx.send(env.port, IIMsg::Accept);
                }
            }
            2 => {
                if !self.matched() {
                    // Only honour an Accept on the port this iteration's
                    // proposal went out on: under adversarial delay a
                    // stale Accept can surface rounds later on a port
                    // the node has since abandoned, and consummating it
                    // would double-match the other endpoint.
                    if let Some(env) = inbox
                        .iter()
                        .find(|e| *e.msg == IIMsg::Accept && Some(e.port) == self.proposed_to)
                    {
                        self.mate_port = Some(env.port);
                    }
                }
                if self.matched() {
                    self.announce(ctx);
                    // Announced couples are done: the announcement is
                    // already on the wire and nothing they could ever
                    // receive matters again. Halting at once keeps the
                    // sparse scheduler's active set shrinking as fast
                    // as the matching grows.
                    self.halt(ctx);
                }
            }
            _ => unreachable!(),
        }
    }
}

impl IINode {
    fn announce(&self, ctx: &mut Ctx<'_, IIMsg>) {
        let mate = self.mate_port.expect("announce requires a mate");
        for p in 0..ctx.degree() {
            if p != mate {
                ctx.send(p, IIMsg::Matched);
            }
        }
    }

    /// Halt, recording the round: every halt goes through here.
    fn halt(&mut self, ctx: &mut Ctx<'_, IIMsg>) {
        self.halt_round = Some(ctx.round());
        ctx.halt();
    }
}

/// Round budget: `O(log n)` iterations whp, with a generous constant so
/// a legitimate unlucky run never trips the assert.
pub fn round_budget(n: usize) -> u64 {
    3 * (200 + 60 * simnet::id_bits(n.max(2)))
}

/// The Israeli–Itai primitive every higher layer builds on (the
/// `Session` driver, the per-class δ-MWM boxes): run from the empty
/// matching under `cfg`. Results are bit-identical across thread
/// counts and schedulers.
///
/// Fault-free and without a `round_limit`, the network runs until every
/// node halts and the result is a *maximal* matching. An active fault
/// plan breaks both that termination and symmetric mate claims (a lost
/// `Accept` leaves a one-sided claim), so then — or whenever
/// `round_limit` is given — exactly `round_limit` rounds run (default
/// [`round_budget`]) and only the *agreed* pairs, in which both
/// endpoints claim each other, are kept: always a valid matching, with
/// liveness degraded to whatever the surviving messages achieved.
///
/// A short fault-free window is the constant-round regime of
/// Hoepman–Kutten–Lotker \[12\] (cited by the paper): on trees, a
/// constant number of 3-round iterations already yields a
/// `(½-ε)`-approximation in expectation (experiment E14).
pub fn run(g: &Graph, seed: u64, cfg: ExecCfg, round_limit: Option<u64>) -> (Matching, NetStats) {
    let nodes: Vec<IINode> = (0..g.n() as NodeId)
        .map(|v| IINode::new(g.degree(v)))
        .collect();
    let mut net = Network::new(state::topology_of(g), nodes, seed).with_cfg(cfg);
    let bounded = round_limit.is_some() || cfg.faults.is_active();
    if bounded {
        net.run_rounds(round_limit.unwrap_or_else(|| round_budget(g.n())));
    } else {
        net.run_until_halt(round_budget(g.n()));
    }
    let (nodes, stats) = net.into_parts();
    let m = state::matching_from_ports(g, nodes.iter().map(|s| s.mate_port), bounded);
    (m, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Session;
    use dgraph::generators::random::{barabasi_albert, gnp};
    use dgraph::generators::structured::{complete, cycle, path, star};
    use dgraph::generators::zoo::{chung_lu, d_regular, random_geometric};

    fn maximal_matching(g: &Graph, seed: u64) -> (Matching, NetStats) {
        let r = Session::on(g).seed(seed).build().run_to_completion();
        (r.matching, r.stats)
    }

    #[test]
    fn produces_maximal_matchings() {
        for seed in 0..10 {
            let g = gnp(60, 0.08, seed);
            let (m, _) = maximal_matching(&g, seed);
            assert!(m.validate(&g).is_ok());
            assert!(m.is_maximal(&g), "seed {seed}: not maximal");
        }
    }

    #[test]
    fn half_approximation_holds() {
        for seed in 0..10 {
            let g = gnp(40, 0.1, 100 + seed);
            let (m, _) = maximal_matching(&g, seed);
            let opt = dgraph::blossom::max_matching(&g).size();
            assert!(2 * m.size() >= opt, "seed {seed}: {} < {opt}/2", m.size());
        }
    }

    #[test]
    fn rounds_are_logarithmic() {
        // Complete graph: many conflicts, still O(log n) iterations.
        let g = complete(128);
        let (m, stats) = maximal_matching(&g, 7);
        assert_eq!(m.size(), 64);
        assert!(
            stats.rounds <= 3 * 80,
            "took {} rounds on K128",
            stats.rounds
        );
    }

    #[test]
    fn structured_families() {
        let (m, _) = maximal_matching(&path(9), 1);
        assert!(m.is_maximal(&path(9)));
        let (m, _) = maximal_matching(&cycle(7), 2);
        assert!(m.is_maximal(&cycle(7)));
        let (m, _) = maximal_matching(&star(10), 3);
        assert_eq!(m.size(), 1, "star admits exactly one matched edge");
    }

    #[test]
    fn messages_are_constant_size() {
        let g = gnp(50, 0.1, 3);
        let (_, stats) = maximal_matching(&g, 11);
        assert_eq!(stats.max_msg_bits, 2);
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let g = Graph::new(5, vec![]);
        let (m, stats) = maximal_matching(&g, 0);
        assert_eq!(m.size(), 0);
        assert!(stats.rounds <= 2);
    }

    /// II nodes never sleep, so a node is stepped in exactly the rounds
    /// up to and including its halt round: the recorded halt rounds must
    /// reproduce the network's own per-round activity.
    #[test]
    fn halt_rounds_agree_with_round_activity() {
        let zoo = [
            barabasi_albert(120, 2, 1),
            chung_lu(120, 2.5, 4.0, 2),
            random_geometric(120, 0.15, 3),
            d_regular(120, 3, 4),
        ];
        for (i, g) in zoo.iter().enumerate() {
            let nodes = (0..g.n() as NodeId)
                .map(|v| IINode::new(g.degree(v)))
                .collect();
            let mut net = Network::new(state::topology_of(g), nodes, 7);
            net.run_until_halt(round_budget(g.n()));
            let (nodes, stats) = net.into_parts();
            let halts: Vec<u64> = nodes
                .iter()
                .map(|s| s.halt_round.expect("every node halts"))
                .collect();
            assert_eq!(
                halts.iter().max().map(|h| h + 1),
                Some(stats.rounds),
                "family {i}"
            );
            for (r, trace) in stats.per_round.iter().enumerate() {
                let live = halts.iter().filter(|&&h| h >= r as u64).count() as u64;
                assert_eq!(trace.active, live, "family {i}, round {r}");
            }
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let g = gnp(30, 0.15, 9);
        let (m1, s1) = maximal_matching(&g, 42);
        let (m2, s2) = maximal_matching(&g, 42);
        assert_eq!(m1, m2);
        assert_eq!(s1.rounds, s2.rounds);
    }
}
