//! The epoch driver: churn → patch → repair, with full accounting.

use crate::churn::{ChurnGen, ChurnModel};
use crate::mutation::MutationBatch;
use crate::repair::RepairNode;
use dgraph::{Graph, Matching, NodeId, UNMATCHED};
use dmatch::session::{RewirePatch, Session};
use dmatch::Algorithm;
use simnet::{ExecCfg, NetStats, Network};
use std::collections::{BTreeSet, HashSet};

/// Which incremental algorithm repairs the matching each epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RepairAlgo {
    /// Incremental Israeli–Itai over a persistent, rewired network:
    /// maximal (⇒ ½-MCM) after every epoch. The flagship user of the
    /// message-plane remap — the same slabs live across all epochs.
    IncrementalMaximal,
    /// Warm-started generic `(1-1/(k+1))`-MCM with damage-local
    /// gathering, driven through a persistent [`Session`] via
    /// [`Session::resume_after_rewire`] (one epoch = one rewire +
    /// repair run).
    IncrementalGeneric { k: usize },
}

/// What one epoch did and what it cost.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// Epoch number (0 = bootstrap, building the initial matching).
    pub epoch: u64,
    /// Edges inserted by the churn batch.
    pub added: usize,
    /// Edges removed by the churn batch.
    pub removed: usize,
    /// Matched edges destroyed by the batch (each frees two nodes).
    pub invalidated: usize,
    /// Nodes whose incident edge set changed.
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

/// A dynamic network: current graph + matching, a churn stream, and
/// the persistent repair machinery.
pub struct DynEngine {
    g: Graph,
    m: Matching,
    churn: ChurnGen,
    algo: RepairAlgo,
    cfg: ExecCfg,
    seed: u64,
    epoch: u64,
    /// Persistent network for [`RepairAlgo::IncrementalMaximal`]; its
    /// slabs and RNG streams live across every epoch. This arm lives
    /// *below* the `Session` surface: its protocol state never leaves
    /// the simulator, which is what makes zero-rebuild epochs possible.
    net: Option<Network<RepairNode>>,
    /// Persistent session for [`RepairAlgo::IncrementalGeneric`]; each
    /// epoch resumes it with a [`RewirePatch`].
    session: Option<Session>,
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
        let n = g.n();
        DynEngine {
            m: Matching::new(n),
            g,
            churn: ChurnGen::new(model, seed ^ 0xD15EA5E),
            algo,
            cfg,
            seed,
            epoch: 0,
            net: None,
            session: None,
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
        &self.g
    }

    /// The current matching.
    pub fn matching(&self) -> &Matching {
        &self.m
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
        self.net.as_ref().map(Network::stats)
    }

    /// Epoch 0: build the initial matching from scratch (everything is
    /// damage). Must be called once, before [`DynEngine::step_epoch`].
    pub fn bootstrap(&mut self) -> &EpochReport {
        assert_eq!(self.epoch, 0, "bootstrap runs exactly once");
        let report = match self.algo {
            RepairAlgo::IncrementalMaximal => {
                let topo = dmatch::topology_of(&self.g);
                let nodes = (0..self.g.n() as NodeId)
                    .map(|v| RepairNode::new(topo.degree(v)))
                    .collect();
                let net = Network::new(topo, nodes, self.seed).with_cfg(self.cfg);
                self.net = Some(net);
                self.run_maximal_epoch(MutationBatch::empty(), 0, None, 0)
            }
            RepairAlgo::IncrementalGeneric { k } => {
                let session = Session::on(&self.g)
                    .algorithm(Algorithm::Generic { k })
                    .seed(self.seed)
                    .exec(self.cfg)
                    .build();
                self.session = Some(session);
                self.run_generic_epoch(MutationBatch::empty(), 0, None, 0)
            }
        };
        self.observe_epoch(&report);
        self.reports.push(report);
        self.epoch = 1;
        self.reports.last().expect("just pushed")
    }

    /// Run one epoch: draw a churn batch, patch the network, repair the
    /// matching, and append (and return) the epoch's report.
    pub fn step_epoch(&mut self) -> &EpochReport {
        assert!(self.epoch > 0, "call bootstrap first");
        let batch = self.churn.next_batch(&self.g);
        self.apply_batch(batch)
    }

    /// Run one epoch with an explicit batch (trace-style driving; the
    /// batch must be valid against the current graph).
    pub fn step_with(&mut self, batch: MutationBatch) -> &EpochReport {
        assert!(self.epoch > 0, "call bootstrap first");
        self.apply_batch(batch.normalized())
    }

    fn apply_batch(&mut self, batch: MutationBatch) -> &EpochReport {
        // Invalidate matched edges the batch destroys; their endpoints
        // are part of the damage.
        let mut invalidated = 0usize;
        // Ordered set: the damage set is iterated into the wake-up
        // schedule, so its order must come from node ids, not hash
        // state.
        let mut damage: BTreeSet<NodeId> = BTreeSet::new();
        for &(u, v) in &batch.removed {
            if self.m.mate(u) == Some(v) {
                let e = self.g.edge_between(u, v).expect("removed edge must exist");
                self.m.remove(&self.g, e);
                invalidated += 1;
                damage.insert(u);
                damage.insert(v);
            }
        }
        for &(u, v) in &batch.added {
            damage.insert(u);
            damage.insert(v);
        }
        // BTreeSet iterates in ascending id order, so the Vec is
        // already sorted.
        let damage: Vec<NodeId> = damage.into_iter().collect();
        // New graph (dgraph level; the simnet level is patched in
        // place below, slabs and all).
        let gone: HashSet<(NodeId, NodeId)> = batch.removed.iter().copied().collect();
        let mut edges: Vec<(NodeId, NodeId)> = self
            .g
            .edge_list()
            .iter()
            .copied()
            .filter(|e| !gone.contains(e))
            .collect();
        edges.extend_from_slice(&batch.added);
        self.g = Graph::new(self.g.n(), edges);
        debug_assert!(
            self.m.validate(&self.g).is_ok(),
            "surviving matching must stay valid on the new graph"
        );

        let epoch = self.epoch;
        self.epoch += 1;
        let report = match self.algo {
            RepairAlgo::IncrementalMaximal => {
                let patch = self
                    .net
                    .as_ref()
                    .expect("bootstrap created the network")
                    .topology()
                    .rewired(&batch.removed, &batch.added);
                self.net.as_mut().expect("checked").rewire(&patch);
                self.run_maximal_epoch(batch, epoch, Some(&damage), invalidated)
            }
            RepairAlgo::IncrementalGeneric { .. } => {
                let patch = RewirePatch::new(self.g.clone(), damage);
                self.run_generic_epoch(batch, epoch, Some(patch), invalidated)
            }
        };
        self.observe_epoch(&report);
        self.reports.push(report);
        self.reports.last().expect("just pushed")
    }

    /// Drive the persistent Israeli–Itai network until the matching is
    /// maximal on the current graph: one sync round, then 3-round
    /// iterations, then one drain round that absorbs the in-flight
    /// announcements (so liveness knowledge is exact at the boundary).
    /// Termination is an oracle check (the paper's convention).
    fn run_maximal_epoch(
        &mut self,
        batch: MutationBatch,
        epoch: u64,
        damage: Option<&[NodeId]>,
        invalidated: usize,
    ) -> EpochReport {
        let net = self.net.as_mut().expect("bootstrap created the network");
        let stats0 = snapshot(net.stats());
        let mut woken: BTreeSet<NodeId> = BTreeSet::new();
        let step = |net: &mut Network<RepairNode>, woken: &mut BTreeSet<NodeId>| {
            net.step();
            woken.extend(net.last_senders().iter().copied());
        };
        step(net, &mut woken); // sync round
        let budget = 200 + 60 * simnet::id_bits(self.g.n().max(2));
        let mut iterations = 0u64;
        loop {
            let m = extract_matching(net, &self.g);
            if m.is_maximal(&self.g) {
                self.m = m;
                break;
            }
            assert!(
                iterations < budget,
                "repair did not reach maximality within {budget} iterations"
            );
            for _ in 0..3 {
                step(net, &mut woken);
            }
            iterations += 1;
        }
        step(net, &mut woken); // drain round
        let stats1 = snapshot(net.stats());
        let locality_radius = damage.and_then(|d| locality_radius(&self.g, d, &woken));
        debug_assert!(self.check_liveness_invariant(), "stale liveness knowledge");
        EpochReport {
            epoch,
            added: batch.added.len(),
            removed: batch.removed.len(),
            invalidated,
            damage: damage.map_or(self.g.n(), <[NodeId]>::len),
            rounds: stats1.0 - stats0.0,
            messages: stats1.1 - stats0.1,
            bits: stats1.2 - stats0.2,
            iterations,
            woken: woken.len(),
            locality_radius,
            matching_size: self.m.size(),
            maximal: true, // the loop exits only on maximality
        }
    }

    /// One epoch of the session-driven generic arm: resume the
    /// persistent session with the rewire patch (epoch `e` seeds as
    /// `seed + e`, the engine's long-standing convention) and run the
    /// repair to completion; cost is the session's stats delta.
    fn run_generic_epoch(
        &mut self,
        batch: MutationBatch,
        epoch: u64,
        patch: Option<RewirePatch>,
        invalidated: usize,
    ) -> EpochReport {
        let session = self
            .session
            .as_mut()
            .expect("bootstrap created the session");
        let before = snapshot(session.stats());
        let phases_before = session.phase_log().len();
        if let Some(patch) = patch {
            session.resume_after_rewire(patch);
        }
        session.run_to_completion();
        self.m = session.matching().clone();
        let after = snapshot(session.stats());
        debug_assert_eq!(session.epoch(), epoch, "session epochs track engine epochs");
        let damage = if epoch == 0 {
            self.g.n()
        } else {
            2 * batch.len()
        };
        EpochReport {
            epoch,
            added: batch.added.len(),
            removed: batch.removed.len(),
            invalidated,
            damage,
            rounds: after.0 - before.0,
            messages: after.1 - before.1,
            bits: after.2 - before.2,
            iterations: (session.phase_log().len() - phases_before) as u64,
            woken: 0,
            locality_radius: None,
            matching_size: self.m.size(),
            maximal: self.m.is_maximal(&self.g),
        }
    }

    /// Cost of recomputing the current matching from scratch with the
    /// same algorithm family — the baseline E15 compares repair
    /// against. Deterministic in `(graph, seed, epoch)`.
    pub fn recompute_baseline(&self) -> (Matching, NetStats) {
        let seed = self.seed.wrapping_mul(0x9E37).wrapping_add(self.epoch);
        let alg = match self.algo {
            RepairAlgo::IncrementalMaximal => Algorithm::IsraeliItai,
            RepairAlgo::IncrementalGeneric { k } => Algorithm::Generic { k },
        };
        let r = Session::on(&self.g)
            .algorithm(alg)
            .seed(seed)
            .exec(self.cfg)
            .build()
            .run_to_completion();
        (r.matching, r.stats)
    }

    /// Ground-truth check of the protocol's liveness knowledge: every
    /// node's `active[p]` must equal "the neighbor on `p` is free".
    /// Exact at epoch boundaries (the drain round absorbed all
    /// announcements). Test hook; meaningless for the generic variant
    /// (always true).
    pub fn check_liveness_invariant(&self) -> bool {
        let Some(net) = self.net.as_ref() else {
            return true;
        };
        let topo = net.topology();
        net.nodes().iter().enumerate().all(|(v, s)| {
            s.active
                .iter()
                .enumerate()
                .all(|(p, &a)| a == self.m.is_free(topo.neighbor(v as NodeId, p)))
        })
    }
}

/// (rounds, messages, bits) triple for cheap before/after deltas.
fn snapshot(s: &NetStats) -> (u64, u64, u64) {
    (s.rounds, s.messages, s.bits)
}

/// Extract the matching from the persistent network's node states.
fn extract_matching(net: &Network<RepairNode>, g: &Graph) -> Matching {
    let topo = net.topology();
    let mates: Vec<NodeId> = net
        .nodes()
        .iter()
        .enumerate()
        .map(|(v, s)| match s.mate_port {
            Some(p) => topo.neighbor(v as NodeId, p),
            None => UNMATCHED,
        })
        .collect();
    let m = Matching::from_mates(mates);
    debug_assert!(
        m.validate(g).is_ok(),
        "protocol produced an invalid matching"
    );
    m
}

/// Max BFS distance (over the current graph) from the damage set to
/// any node that spoke; `None` when there was no damage or a speaker
/// is unreachable from it.
fn locality_radius(g: &Graph, damage: &[NodeId], woken: &BTreeSet<NodeId>) -> Option<usize> {
    if damage.is_empty() || woken.is_empty() {
        return None;
    }
    let mut dist = vec![usize::MAX; g.n()];
    let mut queue = std::collections::VecDeque::new();
    for &s in damage {
        if dist[s as usize] == usize::MAX {
            dist[s as usize] = 0;
            queue.push_back(s);
        }
    }
    while let Some(v) = queue.pop_front() {
        for &(u, _) in g.incident(v) {
            if dist[u as usize] == usize::MAX {
                dist[u as usize] = dist[v as usize] + 1;
                queue.push_back(u);
            }
        }
    }
    woken
        .iter()
        .map(|&v| dist[v as usize])
        .max()
        .filter(|&d| d != usize::MAX)
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
