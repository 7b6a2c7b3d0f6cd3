//! The epoch driver: churn → patch → repair, with full accounting.

use crate::churn::{ChurnGen, ChurnModel};
use crate::mutation::MutationBatch;
use dgraph::{Graph, Matching, NodeId};
use dmatch::israeli_itai::RepairNode;
use dmatch::session::{apply_batch, Damage, Phase, Session};
use dmatch::state::matching_from_ports;
use dmatch::Algorithm;
use simnet::{ExecCfg, NetStats, Network};

/// Which incremental algorithm repairs the matching each epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RepairAlgo {
    /// Incremental Israeli–Itai over a persistent, rewired network:
    /// maximal (⇒ ½-MCM) after every epoch. The flagship user of the
    /// message-plane remap — the same slabs live across all epochs.
    IncrementalMaximal,
    /// Warm-started generic `(1-1/(k+1))`-MCM with damage-local
    /// gathering, driven through a persistent [`Session`] via
    /// [`Session::rewire`] (one epoch = one rewire + repair run).
    IncrementalGeneric { k: usize },
}

/// What one epoch did and what it cost.
#[derive(Debug, Clone, Default)]
pub struct EpochReport {
    /// Epoch number (0 = bootstrap, building the initial matching).
    pub epoch: u64,
    /// Edges inserted by the churn batch.
    pub added: usize,
    /// Edges removed by the churn batch.
    pub removed: usize,
    /// Matched edges destroyed by the batch (each frees two nodes).
    pub invalidated: usize,
    /// Size of the damage set repair starts from: the distinct
    /// endpoints of inserted edges and of destroyed matched edges
    /// (every node on the bootstrap epoch). An endpoint of a removed
    /// unmatched edge keeps its mate and is not damage. Both repair
    /// algorithms derive the set with [`apply_batch`].
    pub damage: usize,
    /// Repair cost: synchronous rounds this epoch.
    pub rounds: u64,
    /// Repair cost: messages this epoch.
    pub messages: u64,
    /// Repair cost: bits this epoch.
    pub bits: u64,
    /// Repair iterations (algorithm-specific unit: Israeli–Itai
    /// 3-round iterations, or generic phases).
    pub iterations: u64,
    /// Distinct nodes that sent at least one message during repair.
    pub woken: usize,
    /// Maximum BFS distance from the damage set of any node that sent
    /// a message (`None` for the bootstrap epoch, where everything is
    /// damage, and for epochs with no damage).
    pub locality_radius: Option<usize>,
    /// Matching size after repair.
    pub matching_size: usize,
    /// Whether the repaired matching is maximal on the current graph.
    pub maximal: bool,
}

/// A dynamic network: a churn stream and the persistent repair
/// machinery, which owns the current graph and matching.
pub struct DynEngine {
    churn: ChurnGen,
    cfg: ExecCfg,
    seed: u64,
    epoch: u64,
    arm: Arm,
    /// Per-epoch reports, in order (index 0 = bootstrap).
    pub reports: Vec<EpochReport>,
    /// Distributions over the churn epochs (bootstrap excluded):
    /// repair-latency histograms (`repair_rounds`, `repair_messages`,
    /// `repair_bits`) and damage-locality histograms (`damage_nodes`,
    /// `woken`, `damage_radius`), plus `epochs` / `invalidated_edges`
    /// counters. The [`EpochReport`] scalars answer "what did epoch
    /// `e` cost"; this registry answers "what does an epoch cost",
    /// p50/p99/max included.
    metrics: dobs::Registry,
}

/// The persistent state of the engine's repair algorithm.
enum Arm {
    /// [`RepairAlgo::IncrementalMaximal`].
    Maximal(Box<MaximalArm>),
    /// [`RepairAlgo::IncrementalGeneric`]: the session owns the graph
    /// and the matching, and each epoch rewires it.
    Generic(Box<Session>),
}

/// The Israeli–Itai arm. It lives *below* the `Session` surface: its
/// protocol state never leaves the simulator, which is what makes
/// zero-rebuild epochs possible.
struct MaximalArm {
    g: Graph,
    /// The graph the previous epoch retired; the next batch is patched
    /// into its buffers.
    spare: Graph,
    m: Matching,
    /// The persistent network; its slabs and RNG streams live across
    /// every epoch.
    net: Network<RepairNode>,
    /// Per-node bookkeeping of the epochs, kept across epochs.
    scratch: EpochScratch,
}

/// Per-node scratch the maximal arm's epoch bookkeeping reuses across
/// epochs. Each flag array is reset through the list of the nodes it
/// marked, so no step costs more than the nodes it touches.
#[derive(Default)]
struct EpochScratch {
    /// Nodes that sent a message this epoch, in first-send order.
    woken: Vec<NodeId>,
    /// `is_woken[v]` iff `v` is in `woken`.
    is_woken: Vec<bool>,
    /// The radius BFS's visit order, level by level.
    seen: Vec<NodeId>,
    /// `is_seen[v]` iff `v` is in `seen` (false between searches).
    is_seen: Vec<bool>,
}

impl EpochScratch {
    /// Scratch for `n` nodes.
    fn new(n: usize) -> Self {
        EpochScratch {
            is_woken: vec![false; n],
            is_seen: vec![false; n],
            ..EpochScratch::default()
        }
    }

    /// Forget the previous epoch's woken set.
    fn start_epoch(&mut self) {
        for &v in &self.woken {
            self.is_woken[v as usize] = false;
        }
        self.woken.clear();
    }

    /// Add this round's senders to the epoch's woken set.
    fn note_senders(&mut self, senders: &[NodeId]) {
        for &v in senders {
            if !self.is_woken[v as usize] {
                self.is_woken[v as usize] = true;
                self.woken.push(v);
            }
        }
    }

    /// Max BFS distance (over the current graph) from the damage set to
    /// any node that spoke this epoch; `None` when there was no damage
    /// or a speaker is unreachable from it. The BFS runs level by level
    /// from the (distinct) damage nodes and stops at the level that
    /// reaches the last speaker, so it explores only the ball the
    /// repair spoke in.
    fn locality_radius(&mut self, g: &Graph, damage: &[NodeId]) -> Option<usize> {
        if damage.is_empty() || self.woken.is_empty() {
            return None;
        }
        let mut left = self.woken.len();
        self.seen.clear();
        for &d in damage {
            self.is_seen[d as usize] = true;
            self.seen.push(d);
            left -= usize::from(self.is_woken[d as usize]);
        }
        let (mut level, mut start) = (0, 0);
        while left > 0 && start < self.seen.len() {
            let end = self.seen.len();
            level += 1;
            for i in start..end {
                for &(u, _) in g.incident(self.seen[i]) {
                    if !self.is_seen[u as usize] {
                        self.is_seen[u as usize] = true;
                        self.seen.push(u);
                        left -= usize::from(self.is_woken[u as usize]);
                    }
                }
            }
            start = end;
        }
        for &v in &self.seen {
            self.is_seen[v as usize] = false;
        }
        (left == 0).then_some(level)
    }
}

impl Arm {
    fn graph(&self) -> &Graph {
        match self {
            Arm::Maximal(arm) => &arm.g,
            Arm::Generic(session) => session.graph(),
        }
    }
}

impl DynEngine {
    /// New engine over `g` (call [`DynEngine::bootstrap`] next).
    pub fn new(g: Graph, model: ChurnModel, algo: RepairAlgo, seed: u64) -> Self {
        Self::with_cfg(g, model, algo, seed, ExecCfg::default())
    }

    /// [`DynEngine::new`] under explicit execution knobs. Repair is
    /// bit-identical across `cfg.threads`.
    pub fn with_cfg(
        g: Graph,
        model: ChurnModel,
        algo: RepairAlgo,
        seed: u64,
        cfg: ExecCfg,
    ) -> Self {
        let arm = match algo {
            RepairAlgo::IncrementalMaximal => {
                let topo = dmatch::topology_of(&g);
                let nodes = (0..g.n() as NodeId)
                    .map(|v| RepairNode::new(topo.degree(v)))
                    .collect();
                Arm::Maximal(Box::new(MaximalArm {
                    net: Network::new(topo, nodes, seed).with_cfg(cfg),
                    scratch: EpochScratch::new(g.n()),
                    m: Matching::new(g.n()),
                    spare: Graph::new(0, Vec::new()),
                    g,
                }))
            }
            RepairAlgo::IncrementalGeneric { k } => Arm::Generic(Box::new(
                Session::on(&g)
                    .algorithm(Algorithm::Generic { k })
                    .seed(seed)
                    .exec(cfg)
                    .build(),
            )),
        };
        DynEngine {
            churn: ChurnGen::new(model, seed ^ 0xD15EA5E),
            cfg,
            seed,
            epoch: 0,
            arm,
            reports: Vec::new(),
            metrics: dobs::Registry::new(),
        }
    }

    /// The per-epoch repair distributions (see the `metrics` field
    /// docs for the histogram names). Empty until the first
    /// post-bootstrap epoch completes.
    pub fn metrics(&self) -> &dobs::Registry {
        &self.metrics
    }

    /// Record one epoch into the metrics registry and the flight
    /// recorder (if one is installed). Bootstrap epochs reach the
    /// trace but not the histograms — "everything is damage" would
    /// drown the distributions the churn epochs are measured by.
    fn observe_epoch(&mut self, rep: &EpochReport) {
        if dobs::plane::enabled() {
            dobs::plane::record(dobs::Event::Epoch {
                t_ns: dobs::plane::now_ns(),
                epoch: rep.epoch,
                rounds: rep.rounds,
                damage: rep.damage as u64,
                woken: rep.woken as u64,
                radius: rep.locality_radius.unwrap_or(0) as u64,
            });
        }
        if rep.epoch > 0 {
            self.metrics.inc("epochs", 1);
            self.metrics
                .inc("invalidated_edges", rep.invalidated as u64);
            self.metrics.record("repair_rounds", rep.rounds);
            self.metrics.record("repair_messages", rep.messages);
            self.metrics.record("repair_bits", rep.bits);
            self.metrics.record("damage_nodes", rep.damage as u64);
            self.metrics.record("woken", rep.woken as u64);
            if let Some(r) = rep.locality_radius {
                self.metrics.record("damage_radius", r as u64);
            }
        }
    }

    /// Append a batch to the replay trace ([`ChurnModel::Trace`]).
    pub fn push_trace(&mut self, batch: MutationBatch) {
        self.churn.push_trace(batch);
    }

    /// The current communication graph.
    pub fn graph(&self) -> &Graph {
        self.arm.graph()
    }

    /// The current matching.
    pub fn matching(&self) -> &Matching {
        match &self.arm {
            Arm::Maximal(arm) => &arm.m,
            Arm::Generic(session) => session.matching(),
        }
    }

    /// Epochs executed so far (including the bootstrap).
    pub fn epochs(&self) -> u64 {
        self.epoch
    }

    /// Cumulative statistics of the persistent repair network —
    /// including the scheduler gauges (`node_steps`, per-round
    /// `active`) that show each epoch's cost tracking the damage, not
    /// `n`. `None` for [`RepairAlgo::IncrementalGeneric`], whose
    /// phases run on throwaway networks.
    pub fn net_stats(&self) -> Option<&NetStats> {
        match &self.arm {
            Arm::Maximal(arm) => Some(arm.net.stats()),
            Arm::Generic(_) => None,
        }
    }

    /// Epoch 0: build the initial matching from scratch (everything is
    /// damage). Must be called once, before [`DynEngine::step_epoch`].
    pub fn bootstrap(&mut self) -> &EpochReport {
        assert_eq!(self.epoch, 0, "bootstrap runs exactly once");
        let everyone = Damage {
            invalidated: 0,
            nodes: (0..self.graph().n() as NodeId).collect(),
        };
        self.run_epoch(&MutationBatch::empty(), &everyone)
    }

    /// Run one epoch: draw a churn batch, patch the network, repair the
    /// matching, and append (and return) the epoch's report.
    pub fn step_epoch(&mut self) -> &EpochReport {
        assert!(self.epoch > 0, "call bootstrap first");
        let batch = self.churn.next_batch(self.arm.graph());
        self.rewire(batch)
    }

    /// Run one epoch with an explicit batch (trace-style driving; the
    /// batch must be valid against the current graph).
    pub fn step_with(&mut self, batch: MutationBatch) -> &EpochReport {
        assert!(self.epoch > 0, "call bootstrap first");
        self.rewire(batch.normalized())
    }

    /// Patch the batch into the arm's graph, matching and network (or
    /// session), then repair from the damage set [`apply_batch`]
    /// derives.
    fn rewire(&mut self, batch: MutationBatch) -> &EpochReport {
        let (removed, added) = (&batch.removed[..], &batch.added[..]);
        let damage = match &mut self.arm {
            Arm::Maximal(arm) => {
                let damage = apply_batch(&mut arm.g, &mut arm.spare, &mut arm.m, removed, added);
                // The simnet level is patched in place, slabs and all.
                arm.net.rewire(removed, added);
                damage
            }
            Arm::Generic(session) => session.rewire(removed, added),
        };
        self.run_epoch(&batch, &damage)
    }

    /// Repair from `damage` (epoch `e` of the generic arm seeds as
    /// `seed + e`, the engine's long-standing convention: the session's
    /// epochs are the engine's) and append (and return) the report.
    fn run_epoch(&mut self, batch: &MutationBatch, damage: &Damage) -> &EpochReport {
        let epoch = self.epoch;
        self.epoch += 1;
        let cost = match &mut self.arm {
            Arm::Maximal(arm) => arm.repair(epoch, &damage.nodes),
            Arm::Generic(session) => generic_repair(session),
        };
        debug_assert!(self.check_liveness_invariant(), "stale liveness knowledge");
        let report = EpochReport {
            epoch,
            added: batch.added.len(),
            removed: batch.removed.len(),
            invalidated: damage.invalidated,
            damage: damage.nodes.len(),
            ..cost
        };
        self.observe_epoch(&report);
        self.reports.push(report);
        self.reports.last().expect("just pushed")
    }

    /// Cost of recomputing the current matching from scratch with the
    /// same algorithm family — the baseline E15 compares repair
    /// against. Deterministic in `(graph, seed, epoch)`.
    pub fn recompute_baseline(&self) -> (Matching, NetStats) {
        let seed = self.seed.wrapping_mul(0x9E37).wrapping_add(self.epoch);
        let alg = match &self.arm {
            Arm::Maximal(_) => Algorithm::IsraeliItai,
            Arm::Generic(session) => session.algorithm(),
        };
        let r = Session::on(self.graph())
            .algorithm(alg)
            .seed(seed)
            .exec(self.cfg)
            .build()
            .run_to_completion();
        (r.matching, r.stats)
    }

    /// Ground-truth check of the protocol's liveness knowledge: every
    /// node's `live_ports()[p]` must equal "the neighbor on `p` is free".
    /// Exact at epoch boundaries (the drain round absorbed all
    /// announcements). Test hook; meaningless for the generic variant
    /// (always true).
    pub fn check_liveness_invariant(&self) -> bool {
        let Arm::Maximal(arm) = &self.arm else {
            return true;
        };
        let topo = arm.net.topology();
        arm.net.nodes().iter().enumerate().all(|(v, s)| {
            s.live_ports()
                .iter()
                .enumerate()
                .all(|(p, &a)| a == arm.m.is_free(topo.neighbor(v as NodeId, p)))
        })
    }
}

impl MaximalArm {
    /// Drive the persistent Israeli–Itai network until the matching is
    /// maximal on the current graph: one sync round, then 3-round
    /// iterations, then one drain round that absorbs the in-flight
    /// announcements (so liveness knowledge is exact at the boundary).
    /// Returns the report's cost fields.
    ///
    /// Termination is an oracle check (the paper's convention), made
    /// where maximality can break. The matching was maximal before the
    /// batch, and a [`RepairNode`] never unmatches (only a rewire clears
    /// `mate_port`), so every free–free edge has an endpoint in the
    /// damage set ([`apply_batch`] says why): the epoch is done when no
    /// damage node is free with a free neighbor. The bootstrap epoch
    /// starts from the empty matching with every node as damage.
    ///
    /// Every node whose mate changed sent a message this epoch (the
    /// proposer `Propose`, the acceptor `Accept`), so the matching is
    /// updated from the woken nodes alone.
    fn repair(&mut self, epoch: u64, damage: &[NodeId]) -> EpochReport {
        let (net, scratch) = (&mut self.net, &mut self.scratch);
        let stats0 = snapshot(net.stats());
        scratch.start_epoch();
        let step = |net: &mut Network<RepairNode>, scratch: &mut EpochScratch| {
            net.step();
            scratch.note_senders(net.last_senders());
        };
        step(net, scratch); // sync round
        let budget = dmatch::israeli_itai::round_budget(self.g.n()) / 3;
        let mut iterations = 0u64;
        loop {
            let unsettled = free_edge_at(net, damage);
            // Unit tests hold the damage-local test against the global
            // one after every iteration.
            #[cfg(test)]
            assert_eq!(
                unsettled,
                !matching_from_ports(
                    &self.g,
                    net.nodes().iter().map(RepairNode::mate_port),
                    false
                )
                .is_maximal(&self.g),
                "the damage-local termination test disagrees with the global one"
            );
            if !unsettled {
                break;
            }
            assert!(
                iterations < budget,
                "repair did not reach maximality within {budget} iterations"
            );
            for _ in 0..3 {
                step(net, scratch);
            }
            iterations += 1;
        }
        step(net, scratch); // drain round
        let stats1 = snapshot(net.stats());
        let topo = net.topology();
        for &v in &scratch.woken {
            if let (Some(p), true) = (net.nodes()[v as usize].mate_port(), self.m.is_free(v)) {
                let e = self.g.edge_between(v, topo.neighbor(v, p));
                self.m.add(&self.g, e.expect("mates are adjacent"));
            }
        }
        // Everything is damage at bootstrap: no radius to report.
        let locality_radius = if epoch == 0 {
            None
        } else {
            scratch.locality_radius(&self.g, damage)
        };
        debug_assert_eq!(
            self.m,
            matching_from_ports(
                &self.g,
                self.net.nodes().iter().map(RepairNode::mate_port),
                false
            ),
            "the matching missed a new match"
        );
        debug_assert!(self.m.is_maximal(&self.g), "repair stopped short");
        EpochReport {
            rounds: stats1.0 - stats0.0,
            messages: stats1.1 - stats0.1,
            bits: stats1.2 - stats0.2,
            iterations,
            woken: self.scratch.woken.len(),
            locality_radius,
            matching_size: self.m.size(),
            maximal: true, // the loop exits only on maximality
            ..EpochReport::default()
        }
    }
}

/// One epoch of the session-driven generic arm: step the (rewired or
/// fresh) session until its epoch completes and return the report's
/// cost fields, from the session's stats delta.
fn generic_repair(session: &mut Session) -> EpochReport {
    let before = snapshot(session.stats());
    let phases_before = session.phase_log().len();
    while let Phase::Ran(_) = session.step() {}
    let after = snapshot(session.stats());
    let (g, m) = (session.graph(), session.matching());
    EpochReport {
        rounds: after.0 - before.0,
        messages: after.1 - before.1,
        bits: after.2 - before.2,
        iterations: (session.phase_log().len() - phases_before) as u64,
        matching_size: m.size(),
        maximal: m.is_maximal(g),
        ..EpochReport::default()
    }
}

/// (rounds, messages, bits) triple for cheap before/after deltas.
fn snapshot(s: &NetStats) -> (u64, u64, u64) {
    (s.rounds, s.messages, s.bits)
}

/// Is some node of `damage` free with a free neighbor? After a churn
/// batch hits a maximal matching, that is the only place a free–free
/// edge can be (see `MaximalArm::repair`).
fn free_edge_at(net: &Network<RepairNode>, damage: &[NodeId]) -> bool {
    let (topo, nodes) = (net.topology(), net.nodes());
    let free = |v: NodeId| nodes[v as usize].mate_port().is_none();
    damage
        .iter()
        .any(|&d| free(d) && topo.neighbors(d).iter().any(|&u| free(u)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgraph::generators::random::gnp;

    #[test]
    fn bootstrap_reaches_maximality() {
        let g = gnp(120, 0.04, 1);
        let mut eng = DynEngine::new(
            g,
            ChurnModel::EdgeChurn { rate: 0.05 },
            RepairAlgo::IncrementalMaximal,
            7,
        );
        let rep = eng.bootstrap();
        assert!(rep.maximal);
        assert_eq!(rep.epoch, 0);
        assert!(rep.matching_size > 0);
        assert!(eng.matching().is_maximal(eng.graph()));
        assert!(eng.check_liveness_invariant());
    }

    #[test]
    fn epochs_repair_under_edge_churn() {
        let g = gnp(150, 0.04, 2);
        let mut eng = DynEngine::new(
            g,
            ChurnModel::EdgeChurn { rate: 0.05 },
            RepairAlgo::IncrementalMaximal,
            8,
        );
        eng.bootstrap();
        for _ in 0..8 {
            let rep = eng.step_epoch();
            assert!(rep.maximal);
            let (rounds, messages) = (rep.rounds, rep.messages);
            assert!(rounds >= 2, "sync + drain rounds are always charged");
            let _ = messages;
            assert!(eng.matching().validate(eng.graph()).is_ok());
            assert!(eng.matching().is_maximal(eng.graph()));
            assert!(eng.check_liveness_invariant());
        }
    }

    #[test]
    fn epochs_repair_under_crash_faults() {
        // Crash-stop faults from the adversary plane drive the churn:
        // each epoch replays a window of the pre-sampled schedule as
        // damage balls (crash tears out a node's edges, rejoin restores
        // them) and incremental repair must re-reach maximality.
        let g = gnp(120, 0.05, 4);
        let mut eng = DynEngine::new(
            g,
            ChurnModel::Crash {
                plan: simnet::FaultPlan::NONE.with_crash(0.08, 3),
                rounds_per_epoch: 2,
            },
            RepairAlgo::IncrementalMaximal,
            12,
        );
        eng.bootstrap();
        let mut saw_damage = false;
        for _ in 0..12 {
            let rep = eng.step_epoch();
            saw_damage |= rep.woken > 0;
            assert!(rep.maximal);
            assert!(eng.matching().validate(eng.graph()).is_ok());
            assert!(eng.matching().is_maximal(eng.graph()));
            assert!(eng.check_liveness_invariant());
        }
        assert!(saw_damage, "the crash schedule must inject real damage");
    }

    #[test]
    fn no_damage_epoch_is_nearly_free() {
        let g = gnp(80, 0.05, 3);
        let mut eng = DynEngine::new(g, ChurnModel::Trace, RepairAlgo::IncrementalMaximal, 9);
        eng.bootstrap();
        let rep = eng.step_with(MutationBatch::empty());
        assert_eq!(rep.messages, 0, "no damage ⇒ nobody speaks");
        assert_eq!(rep.rounds, 2, "just the sync and drain rounds");
        assert_eq!(rep.woken, 0);
    }

    #[test]
    fn locality_radius_is_small_for_local_damage() {
        // A long path; churn away one matched edge in the middle. The
        // repair must stay near the damage.
        let n = 200u32;
        let edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let g = Graph::new(n as usize, edges);
        let mut eng = DynEngine::new(g, ChurnModel::Trace, RepairAlgo::IncrementalMaximal, 10);
        eng.bootstrap();
        let (u, v) = {
            let m = eng.matching();
            let mid = (0..n)
                .find(|&v| v > n / 2 && m.mate(v) == Some(v + 1))
                .expect("middle matched edge");
            (mid, mid + 1)
        };
        let rep = eng.step_with(MutationBatch {
            added: vec![],
            removed: vec![(u, v)],
        });
        assert!(rep.maximal);
        if let Some(r) = rep.locality_radius {
            assert!(r <= 6, "repair wandered {r} hops from the damage");
        }
        assert!(
            rep.woken <= 16,
            "{} nodes spoke for one lost edge",
            rep.woken
        );
    }

    #[test]
    fn generic_variant_meets_bound_each_epoch() {
        let g = gnp(50, 0.08, 4);
        let k = 2;
        let mut eng = DynEngine::new(
            g,
            ChurnModel::EdgeChurn { rate: 0.06 },
            RepairAlgo::IncrementalGeneric { k },
            11,
        );
        eng.bootstrap();
        for _ in 0..5 {
            eng.step_epoch();
            let opt = dgraph::blossom::max_matching(eng.graph()).size();
            let bound = 1.0 - 1.0 / (k as f64 + 1.0);
            assert!(eng.matching().validate(eng.graph()).is_ok());
            assert!(
                opt == 0 || eng.matching().size() as f64 >= bound * opt as f64 - 1e-9,
                "ratio {} < {bound}",
                eng.matching().size() as f64 / opt as f64
            );
        }
    }

    /// The damage-local bookkeeping against its global oracles under
    /// all five churn models: the termination test after every 3-round
    /// iteration (asserted inside the epoch loop in test builds), and
    /// after every epoch the incrementally updated matching against the
    /// one extracted from every node.
    #[test]
    fn damage_local_bookkeeping_matches_the_global_oracles() {
        let models = [
            ChurnModel::EdgeChurn { rate: 0.08 },
            ChurnModel::NodeChurn {
                rate: 0.06,
                degree: 4,
            },
            ChurnModel::HubChurn {
                rate: 0.03,
                degree: 4,
            },
            ChurnModel::Rewire { rate: 0.1 },
            ChurnModel::Crash {
                plan: simnet::FaultPlan::NONE.with_crash(0.06, 3),
                rounds_per_epoch: 2,
            },
        ];
        for (i, model) in models.into_iter().enumerate() {
            let g = gnp(140, 0.05, 20 + i as u64);
            let mut eng = DynEngine::new(g, model, RepairAlgo::IncrementalMaximal, 3 + i as u64);
            eng.bootstrap();
            let mut iterations = 0;
            for epoch in 0..10 {
                iterations += eng.step_epoch().iterations;
                let Arm::Maximal(arm) = &eng.arm else {
                    panic!("maximal arm")
                };
                assert_eq!(
                    *eng.matching(),
                    matching_from_ports(
                        eng.graph(),
                        arm.net.nodes().iter().map(RepairNode::mate_port),
                        false
                    ),
                    "{model:?}, epoch {epoch}: incremental matching drifted"
                );
                assert!(eng.matching().is_maximal(eng.graph()));
            }
            assert!(iterations > 0, "{model:?}: no epoch needed repair");
        }
    }

    #[test]
    fn both_arms_report_the_same_damage() {
        // Four isolated edges: every arm matches all of them, so one
        // trace drives both arms through the same matched edges.
        let g = Graph::new(8, vec![(0, 1), (2, 3), (4, 5), (6, 7)]);
        let trace = [
            // Inserted edges only: their endpoints are the damage.
            MutationBatch {
                added: vec![(0, 2), (1, 3)],
                removed: vec![],
            },
            // A destroyed matched edge (0,1), two removed unmatched
            // edges sharing its endpoints, and an insertion sharing
            // one: the damage is {0, 1, 4}, not 2·|batch|.
            MutationBatch {
                added: vec![(1, 4)],
                removed: vec![(0, 1), (0, 2), (1, 3)],
            },
        ];
        let damage = |algo: RepairAlgo| {
            let mut eng = DynEngine::new(g.clone(), ChurnModel::Trace, algo, 2);
            eng.bootstrap();
            assert_eq!(eng.matching().size(), 4, "{algo:?} matches every edge");
            trace
                .iter()
                .map(|b| eng.step_with(b.clone()).damage)
                .collect::<Vec<_>>()
        };
        assert_eq!(damage(RepairAlgo::IncrementalMaximal), vec![4, 3]);
        assert_eq!(damage(RepairAlgo::IncrementalGeneric { k: 2 }), vec![4, 3]);
    }

    #[test]
    fn node_churn_keeps_validity() {
        let g = gnp(100, 0.05, 5);
        let mut eng = DynEngine::new(
            g,
            ChurnModel::NodeChurn {
                rate: 0.05,
                degree: 4,
            },
            RepairAlgo::IncrementalMaximal,
            12,
        );
        eng.bootstrap();
        for _ in 0..6 {
            let rep = eng.step_epoch();
            assert!(rep.maximal);
            assert!(eng.matching().validate(eng.graph()).is_ok());
        }
    }
}
