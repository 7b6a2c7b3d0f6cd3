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
//! The iteration is written once, as one node's side of it, and two
//! nodes wrap it:
//!
//! * [`IINode`] runs it from the empty matching and halts as above.
//!   Its round is written once too, over the round's mail and a small
//!   round / RNG / send / halt interface, and two drivers run it: a
//!   [`simnet::Network`] for [`Session`](crate::Session) runs and the
//!   weighted class boxes, where the interface is the node's
//!   [`Ctx`] and the round compiles to the code of any other
//!   protocol; and the oracle's on-demand evaluation of the global run
//!   (`dmatch::oracle`), which steps a node only as far as a point
//!   query needs;
//! * [`RepairNode`] runs it on one persistent network across churn
//!   epochs (`dchurn`'s incremental repair). It never halts: with
//!   nothing to do it sleeps, so it keeps hearing liveness
//!   announcements, and a node whose matched edge a rewire destroyed
//!   revives its ports at its neighbors with `Freed`.
//!
//! Both are local replays of one global process: fault-free, a churn
//! engine's bootstrap from the empty matching sends exactly the
//! messages of a session run from the same seed, one round later.
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
use simnet::{
    BitSize, Ctx, ExecCfg, Inbox, NetStats, Network, Port, Protocol, Received, Rewire, RewireCtx,
    SplitMix64,
};

/// Wire messages (2 bits each).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IIMsg {
    /// "Will you match with me?"
    Propose,
    /// "Yes" (sent only to the chosen proposer; consummates the match).
    Accept,
    /// "I am matched; stop considering this edge."
    Matched,
    /// "My matched edge was churned away; this edge is available again."
    /// Only a [`RepairNode`] sends it.
    Freed,
}

impl BitSize for IIMsg {
    fn bit_size(&self) -> u64 {
        2
    }
}

/// What a node's round does besides reading its mail: the round
/// number, the node's degree and RNG stream, sends, and the halt. A
/// [`Ctx`] is one, and the oracle's on-demand run is the other, so
/// both drive the same [`IINode`] round.
pub(crate) trait NodeIo {
    /// The current round (0-based).
    fn round(&self) -> u64;
    /// The node's degree.
    fn degree(&self) -> usize;
    /// The node's RNG stream.
    fn rng(&mut self) -> &mut SplitMix64;
    /// Send `msg` on `port`; read by the neighbour next round.
    fn send(&mut self, port: Port, msg: IIMsg);
    /// Stop: the node is not stepped again.
    fn halt(&mut self);
}

impl NodeIo for Ctx<'_, IIMsg> {
    #[inline(always)]
    fn round(&self) -> u64 {
        Ctx::round(self)
    }

    #[inline(always)]
    fn degree(&self) -> usize {
        Ctx::degree(self)
    }

    #[inline(always)]
    fn rng(&mut self) -> &mut SplitMix64 {
        Ctx::rng(self)
    }

    #[inline(always)]
    fn send(&mut self, port: Port, msg: IIMsg) {
        Ctx::send(self, port, msg);
    }

    #[inline(always)]
    fn halt(&mut self) {
        Ctx::halt(self);
    }
}

/// One round's mail as the iteration reads it: the messages that
/// arrived, in ascending port order. Every kind yields an [`Inbox`]'s
/// own items, [`Received`], so a network round compiles to the code
/// that reads its inbox directly.
pub(crate) trait Mail<'m>: Copy {
    /// The messages, in ascending port order.
    fn each(self) -> impl Iterator<Item = Received<'m, IIMsg>>;
}

impl<'m> Mail<'m> for Inbox<'m, IIMsg> {
    #[inline(always)]
    fn each(self) -> impl Iterator<Item = Received<'m, IIMsg>> {
        self.iter()
    }
}

/// `(sender, arrival port, message)` triples, in ascending port order.
impl<'m> Mail<'m> for &'m [(NodeId, Port, IIMsg)] {
    #[inline(always)]
    fn each(self) -> impl Iterator<Item = Received<'m, IIMsg>> {
        self.iter().map(|(from, port, msg)| Received {
            from: *from,
            port: *port,
            msg,
        })
    }
}

/// One node's side of the Israeli–Itai iteration, which [`IINode`] and
/// [`RepairNode`] both wrap: the liveness bookkeeping and the propose,
/// accept, resolve and announce steps. The wrappers own the clock, the
/// halt-or-sleep decision, and when a matched node announces.
///
/// The steps are always inlined: `IINode` runs them once per node step
/// on the hot path of sessions and oracle queries, where rustc
/// otherwise emits them as calls.
#[derive(Debug, Clone)]
struct IIState {
    /// Port of the mate once matched.
    mate_port: Option<Port>,
    /// `live[p]`: the neighbor on `p` is free, as far as the
    /// `Matched` / `Freed` announcements have told (exact up to one
    /// round of message latency).
    live: Vec<bool>,
    /// Port proposed to in the current iteration: `Some` exactly when
    /// this iteration's coin made the node male, since a male always
    /// has a live port to propose to.
    proposed_to: Option<Port>,
}

impl IIState {
    /// A free node of the given degree, all ports live.
    fn new(degree: usize) -> Self {
        IIState {
            mate_port: None,
            live: vec![true; degree],
            proposed_to: None,
        }
    }

    fn matched(&self) -> bool {
        self.mate_port.is_some()
    }

    /// Liveness bookkeeping, in every round whatever the phase, before
    /// any decision: `Matched` kills a port, `Freed` revives it.
    #[inline(always)]
    fn hear<'m>(&mut self, mail: impl Mail<'m>) {
        for env in mail.each() {
            match env.msg {
                IIMsg::Matched => self.live[env.port] = false,
                IIMsg::Freed => self.live[env.port] = true,
                IIMsg::Propose | IIMsg::Accept => {}
            }
        }
    }

    /// Propose phase, for a free node: flip the coin and, as a male,
    /// propose to a uniformly random live port. `false`, with nothing
    /// drawn, when no port is live.
    #[inline(always)]
    fn propose(&mut self, io: &mut impl NodeIo) -> bool {
        let live = self.live.iter().filter(|&&a| a).count();
        if live == 0 {
            return false;
        }
        self.proposed_to = None;
        if io.rng().bernoulli(0.5) {
            // Male. The k-th live port, k uniform: counted, not collected.
            let k = io.rng().below(live as u64) as usize;
            let p = (0..self.live.len())
                .filter(|&p| self.live[p])
                .nth(k)
                .expect("k < live ports");
            self.proposed_to = Some(p);
            io.send(p, IIMsg::Propose);
        }
        true
    }

    /// Accept phase: a free female takes the lowest-port live proposal.
    /// Returns whether this node matched.
    #[inline(always)]
    fn accept<'m>(&mut self, io: &mut impl NodeIo, mail: impl Mail<'m>) -> bool {
        if self.matched() || self.proposed_to.is_some() {
            return false; // males ignore proposals
        }
        let Some(env) = mail
            .each()
            .find(|e| *e.msg == IIMsg::Propose && self.live[e.port])
        else {
            return false;
        };
        self.mate(env.port);
        io.send(env.port, IIMsg::Accept);
        true
    }

    /// Resolve phase: a free proposer learns its fate. Only an `Accept`
    /// on the port this iteration's proposal went out on counts: under
    /// adversarial delay a stale `Accept` can surface rounds later on a
    /// port the node has since abandoned, and consummating it would
    /// double-match the other endpoint. Returns whether this node
    /// matched.
    #[inline(always)]
    fn resolve<'m>(&mut self, mail: impl Mail<'m>) -> bool {
        if self.matched() {
            return false;
        }
        let Some(env) = mail
            .each()
            .find(|e| *e.msg == IIMsg::Accept && Some(e.port) == self.proposed_to)
        else {
            return false;
        };
        self.mate(env.port);
        true
    }

    /// Record the mate. It is no longer free, and nobody announces that
    /// to this node (announcements skip the mate), so its port dies
    /// first-hand.
    #[inline(always)]
    fn mate(&mut self, p: Port) {
        self.mate_port = Some(p);
        self.live[p] = false;
    }

    /// Tell every neighbor but the mate that this node is matched.
    #[inline(always)]
    fn announce(&self, io: &mut impl NodeIo) {
        let mate = self.mate_port.expect("announce requires a mate");
        for p in 0..io.degree() {
            if p != mate {
                io.send(p, IIMsg::Matched);
            }
        }
    }
}

/// The session node: the iteration from round 0, halting once matched
/// and announced or once no port is live.
pub struct IINode {
    ii: IIState,
    /// The 0-based round in which this node halted, `None` while live.
    pub(crate) halt_round: Option<u64>,
}

impl IINode {
    /// A free node of the given degree, all ports live: the degree is
    /// all the input it reads, so the oracle builds its nodes from it
    /// alone.
    pub(crate) fn new(degree: usize) -> Self {
        IINode {
            ii: IIState::new(degree),
            halt_round: None,
        }
    }

    /// Port of the mate once matched.
    pub(crate) fn mate_port(&self) -> Option<Port> {
        self.ii.mate_port
    }

    /// Halt, recording the round: every halt goes through here.
    #[inline(always)]
    fn halt(&mut self, io: &mut impl NodeIo) {
        self.halt_round = Some(io.round());
        io.halt();
    }

    /// One round: hear the mail, then act on the round's phase. The
    /// one copy of the round, for a network's [`Ctx`] and for the
    /// oracle's on-demand run alike.
    #[inline(always)]
    pub(crate) fn step<'m>(&mut self, io: &mut impl NodeIo, mail: impl Mail<'m>) {
        self.ii.hear(mail);
        match io.round() % 3 {
            0 => {
                // Announcing always halts, so a node still stepped while
                // matched has accepted but not announced: it crashed
                // through phase 2 and rejoined. It announces now and
                // leaves, like every announced node.
                if self.ii.matched() {
                    self.ii.announce(io);
                    self.halt(io);
                } else if !self.ii.propose(io) {
                    self.halt(io); // isolated among matched nodes: maximality holds
                }
            }
            1 => {
                self.ii.accept(io, mail);
            }
            2 => {
                self.ii.resolve(mail);
                if self.ii.matched() {
                    self.ii.announce(io);
                    // Announced couples are done: the announcement is
                    // already on the wire and nothing they could ever
                    // receive matters again. Halting at once keeps the
                    // sparse scheduler's active set shrinking as fast
                    // as the matching grows.
                    self.halt(io);
                }
            }
            _ => unreachable!(),
        }
    }
}

impl Protocol for IINode {
    type Msg = IIMsg;

    fn on_round(&mut self, ctx: &mut Ctx<'_, IIMsg>, inbox: Inbox<'_, IIMsg>) {
        self.step(ctx, inbox);
    }
}

/// The churn-repair node: the iteration on one persistent network,
/// rewired between epochs, keeping the matching maximal after every
/// epoch with traffic confined to the damage neighborhood.
///
/// * **Nobody halts.** A node with nothing to do [`Ctx::sleep`]s
///   instead, so it keeps processing liveness announcements and its
///   knowledge of which neighbors are free never goes stale — the
///   invariant that lets a proposal always target a genuinely free
///   node. The mail that could change its situation is exactly what
///   wakes it, so a repair epoch costs O(damage) node steps, not O(n)
///   per round.
/// * **Epoch boundaries are one sync round.** After a
///   [`simnet::Network::rewire`], the [`Rewire`] hook has remapped the
///   node's port state; in the first round of the epoch a node whose
///   matched edge vanished broadcasts `Freed`, and a matched node
///   announces `Matched` on its born ports (a new neighbor starts
///   optimistic). From round 1 on the usual iterations run, and only
///   nodes that heard about damage ever take part.
#[derive(Debug, Clone)]
pub struct RepairNode {
    ii: IIState,
    /// Network round at which the current epoch began (recorded by
    /// `on_rewire` from [`RewireCtx::round`]; 0 for the bootstrap
    /// epoch). The epoch-local round is `ctx.round() - epoch_start`:
    /// derived from the global clock — not a per-step counter — so
    /// nodes that sleep through quiet rounds stay phase-synchronized.
    epoch_start: u64,
    /// Set by `on_rewire` when the matched edge vanished: broadcast
    /// `Freed` in the sync round.
    freed_pending: bool,
    /// Born ports a matched node must announce `Matched` on in the
    /// sync round (the new neighbor starts optimistic).
    born_announce: Vec<Port>,
    /// Matched during the current iteration: announce in its phase 2.
    just_matched: bool,
}

impl RepairNode {
    /// Fresh node of the given degree: free, all ports presumed live.
    pub fn new(degree: usize) -> Self {
        RepairNode {
            ii: IIState::new(degree),
            epoch_start: 0,
            freed_pending: false,
            born_announce: Vec::new(),
            just_matched: false,
        }
    }

    /// Port of the current mate, if matched.
    pub fn mate_port(&self) -> Option<Port> {
        self.ii.mate_port
    }

    /// `live_ports()[p]`: whether this node believes the neighbor on
    /// `p` is free. Exact at an epoch boundary, once the drain round
    /// has absorbed the announcements in flight.
    pub fn live_ports(&self) -> &[bool] {
        &self.ii.live
    }

    /// Nothing to say and nothing to decide: matched with no pending
    /// announcements, or free with every port dead.
    fn idle(&self) -> bool {
        !self.freed_pending
            && !self.just_matched
            && self.born_announce.is_empty()
            && (self.ii.matched() || !self.ii.live.iter().any(|&a| a))
    }

    /// The phase work of one round (split out so `on_round` can apply
    /// the idle/sleep decision after every branch, early returns
    /// included).
    fn phase_round(&mut self, ctx: &mut Ctx<'_, IIMsg>, inbox: Inbox<'_, IIMsg>) {
        let lr = ctx.round() - self.epoch_start;
        if lr == 0 {
            // Sync round: publish what the rewire changed about me.
            if self.freed_pending {
                self.freed_pending = false;
                for p in 0..ctx.degree() {
                    ctx.send(p, IIMsg::Freed);
                }
            } else if self.ii.matched() {
                for &p in &self.born_announce {
                    ctx.send(p, IIMsg::Matched);
                }
            }
            self.born_announce.clear();
            return;
        }
        match (lr - 1) % 3 {
            0 => {
                // Passive, not halted, when no port is live: churn may
                // revive one.
                if !self.ii.matched() {
                    self.ii.propose(ctx);
                }
            }
            1 => {
                if self.ii.accept(ctx, inbox) {
                    self.just_matched = true;
                }
            }
            2 => {
                // Resolve, then fresh couples announce to everyone else.
                if self.ii.resolve(inbox) || self.just_matched {
                    self.just_matched = false;
                    self.ii.announce(ctx);
                }
            }
            _ => unreachable!(),
        }
    }
}

impl Protocol for RepairNode {
    type Msg = IIMsg;

    fn on_round(&mut self, ctx: &mut Ctx<'_, IIMsg>, inbox: Inbox<'_, IIMsg>) {
        self.ii.hear(inbox);
        self.phase_round(ctx, inbox);
        if self.idle() {
            ctx.sleep();
        }
    }
}

impl Rewire for RepairNode {
    fn on_rewire(&mut self, ctx: &RewireCtx<'_>) {
        let ii = &mut self.ii;
        if !ctx.ports_unchanged() {
            let mut live = vec![true; ctx.new_degree()]; // born ports start optimistic
            for (p, &a) in ii.live.iter().enumerate() {
                if let Some(np) = ctx.new_port(p) {
                    live[np] = a;
                }
            }
            ii.live = live;
        }
        ii.mate_port = match ii.mate_port {
            Some(mp) => match ctx.new_port(mp) {
                Some(np) => Some(np),
                None => {
                    // The matched edge was churned away: I am free
                    // again and must tell the neighborhood.
                    self.freed_pending = true;
                    None
                }
            },
            None => None,
        };
        self.born_announce.clear();
        if ii.matched() {
            self.born_announce.extend_from_slice(ctx.born_ports());
        }
        self.epoch_start = ctx.round();
        ii.proposed_to = None;
        self.just_matched = false;
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
    let m = state::matching_from_ports(g, nodes.iter().map(IINode::mate_port), bounded);
    (m, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Session;
    use dgraph::generators::random::{barabasi_albert, gnp};
    use dgraph::generators::structured::{complete, cycle, path, star};
    use dgraph::generators::zoo::{chung_lu, d_regular, random_geometric};
    use simnet::Topology;

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

    fn repair_net(n: usize, edges: &[(u32, u32)], seed: u64) -> Network<RepairNode> {
        let topo = Topology::from_edges(n, edges);
        let nodes = (0..n as u32)
            .map(|v| RepairNode::new(topo.degree(v)))
            .collect();
        Network::new(topo, nodes, seed)
    }

    fn mates(net: &Network<RepairNode>) -> Vec<Option<u32>> {
        net.nodes()
            .iter()
            .enumerate()
            .map(|(v, s)| s.mate_port().map(|p| net.topology().neighbor(v as u32, p)))
            .collect()
    }

    /// One sync round, then `iters` 3-round iterations.
    fn run_iterations(net: &mut Network<RepairNode>, iters: u64) {
        net.run_rounds(1 + 3 * iters);
    }

    #[test]
    fn cold_start_matches_a_path() {
        let mut net = repair_net(4, &[(0, 1), (1, 2), (2, 3)], 3);
        run_iterations(&mut net, 40);
        let m = mates(&net);
        // Symmetric, and maximal: no two adjacent free nodes.
        for (v, &mv) in m.iter().enumerate() {
            if let Some(u) = mv {
                assert_eq!(m[u as usize], Some(v as u32));
            }
        }
        for &(a, b) in &[(0u32, 1u32), (1, 2), (2, 3)] {
            assert!(
                m[a as usize].is_some() || m[b as usize].is_some(),
                "edge ({a},{b}) violates maximality"
            );
        }
    }

    #[test]
    fn matched_pair_goes_quiet() {
        let mut net = repair_net(2, &[(0, 1)], 1);
        run_iterations(&mut net, 30);
        assert!(mates(&net)[0].is_some());
        // Once matched, the pair is passive: no further traffic.
        let sent = net.step();
        assert_eq!(sent, 0, "matched nodes must be silent");
    }

    #[test]
    fn rewire_frees_and_reannounces() {
        // Match the pair (0,1), then churn the edge away and connect
        // each to a fresh partner; repair must rematch both.
        let mut net = repair_net(4, &[(0, 1)], 5);
        run_iterations(&mut net, 30);
        assert_eq!(mates(&net)[0], Some(1));
        net.rewire(&[(0, 1)], &[(0, 2), (1, 3)]);
        run_iterations(&mut net, 40);
        let m = mates(&net);
        assert_eq!(m[0], Some(2));
        assert_eq!(m[1], Some(3));
    }

    #[test]
    fn freed_announcement_revives_third_party_knowledge() {
        // Triangle-free chain: 2 matched with 3; 0-1 matched. Node 4 is
        // adjacent to 3 only, so it ends free with a dead port. When
        // (2,3) is churned away, 3 must broadcast Freed and 4 must
        // regain the port and match with 3.
        let mut net = repair_net(5, &[(0, 1), (2, 3), (3, 4)], 11);
        run_iterations(&mut net, 40);
        let m = mates(&net);
        assert_eq!(m[2], Some(3), "seeded run must match (2,3) first");
        assert_eq!(m[4], None);
        assert!(
            !net.nodes()[4].live_ports()[0],
            "4 learned its port is dead"
        );
        net.rewire(&[(2, 3)], &[]);
        run_iterations(&mut net, 40);
        let m = mates(&net);
        assert_eq!(m[3], Some(4), "Freed must revive the (3,4) edge");
    }
}
