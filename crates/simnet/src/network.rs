//! The synchronous round loop.
//!
//! A [`Network`] owns one [`Protocol`] state per node plus the
//! [`Topology`]. Each call to [`Network::step`] executes one synchronous
//! round: every live node receives the messages addressed to it in the
//! previous round, runs its local computation, and emits messages for
//! the next round. All accounting (rounds, messages, bits) happens here.
//!
//! Messages travel through the double-buffered, port-indexed plane of
//! [`crate::mailbox`]: `Ctx::send` writes straight into a preallocated
//! slot slab, and receivers read the same slots in place next round
//! through an [`Inbox`] view. Delivery performs no allocation and no
//! sorting — inbox order is positional (ascending arrival port), which
//! is what the old sort-based delivery produced, so protocol semantics
//! are unchanged.

use crate::adversary::{Adversary, CongestMode, CrashKind, FaultPlan};
use crate::mailbox::{Inbox, Slab, DEAD_STAMP};
use crate::message::BitSize;
use crate::parallel::CostModel;
use crate::rng::SplitMix64;
use crate::stats::{timing, NetStats};
use crate::topology::{NodeId, Port, Topology, TopologyPatch};
use std::time::Instant;

/// A distributed algorithm, from the point of view of a single node.
///
/// The same `Protocol` value is stepped once per round. State lives in
/// the implementing struct; randomness comes from the per-node stream in
/// [`Ctx::rng`]; communication goes through [`Ctx::send`].
pub trait Protocol: Send {
    /// The message type this protocol puts on wires.
    type Msg: Send + Sync + BitSize;

    /// Execute one synchronous round.
    ///
    /// `inbox` holds the messages sent to this node in the previous
    /// round, indexed by the local port they arrived on (iteration is in
    /// ascending port order, hence ascending sender id, since neighbor
    /// lists are sorted). Round 0 has an empty inbox.
    fn on_round(&mut self, ctx: &mut Ctx<'_, Self::Msg>, inbox: Inbox<'_, Self::Msg>);
}

/// Per-node view of an epoch boundary, handed to [`Rewire::on_rewire`]
/// while [`Network::rewire`] installs a new topology.
pub struct RewireCtx<'a> {
    node: NodeId,
    topo: &'a Topology,
    port_map: &'a [Option<Port>],
    born: &'a [Port],
    round: u64,
}

impl RewireCtx<'_> {
    /// This node's id.
    #[inline]
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// The round the rewired network will execute next — the first
    /// round of the new epoch. Protocols that pace themselves by an
    /// epoch-local clock should record this and derive their phase as
    /// `ctx.round() - epoch_start`: unlike a per-step counter, the
    /// derivation stays correct for nodes that [`crate::Ctx::sleep`]
    /// through rounds.
    #[inline]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The node's degree before the rewire.
    #[inline]
    pub fn old_degree(&self) -> usize {
        self.port_map.len()
    }

    /// The node's degree after the rewire.
    #[inline]
    pub fn new_degree(&self) -> usize {
        self.topo.degree(self.node)
    }

    /// Where old port `p` lives now, or `None` when its edge vanished.
    #[inline]
    pub fn new_port(&self, p: Port) -> Option<Port> {
        self.port_map[p]
    }

    /// Ports of the new topology whose edge was just inserted,
    /// ascending. Per-port protocol state has no old value to migrate
    /// for these.
    #[inline]
    pub fn born_ports(&self) -> &[Port] {
        self.born
    }

    /// The new topology.
    #[inline]
    pub fn topo(&self) -> &Topology {
        self.topo
    }
}

/// Protocol state that can survive an epoch boundary of a dynamic
/// network: remap port-indexed state through [`RewireCtx::new_port`],
/// initialize born ports, and invalidate anything (e.g. a matched
/// edge) whose port vanished.
pub trait Rewire {
    /// Migrate this node's state across a topology change. Called once
    /// per node by [`Network::rewire`], before any further round.
    fn on_rewire(&mut self, ctx: &RewireCtx<'_>);
}

/// Per-round, per-node execution context handed to [`Protocol::on_round`].
pub struct Ctx<'a, M> {
    id: NodeId,
    round: u64,
    topo: &'a Topology,
    rng: &'a mut SplitMix64,
    /// This node's port range of the outgoing slab (stamps).
    out_stamp: &'a mut [u64],
    /// This node's port range of the outgoing slab (payload slots).
    out_msg: &'a mut [Option<M>],
    /// Generation the outgoing slab is accepting this round.
    out_gen: u64,
    /// Set on the first send; the executor appends the node to the
    /// round's sender list so delivery touches only senders.
    sent_any: &'a mut bool,
    halted: &'a mut bool,
    /// Set by [`Ctx::sleep`]; cleared by the executor at every step, so
    /// sleeping must be re-asserted each time the node runs.
    dozing: &'a mut bool,
}

impl<'a, M> Ctx<'a, M> {
    /// Internal constructor used by the sequential and parallel executors.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        id: NodeId,
        round: u64,
        topo: &'a Topology,
        rng: &'a mut SplitMix64,
        out_stamp: &'a mut [u64],
        out_msg: &'a mut [Option<M>],
        out_gen: u64,
        sent_any: &'a mut bool,
        halted: &'a mut bool,
        dozing: &'a mut bool,
    ) -> Self {
        Ctx {
            id,
            round,
            topo,
            rng,
            out_stamp,
            out_msg,
            out_gen,
            sent_any,
            halted,
            dozing,
        }
    }

    /// This node's id.
    #[inline]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The current round number (0-based).
    #[inline]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Degree of this node.
    #[inline]
    pub fn degree(&self) -> usize {
        self.out_msg.len()
    }

    /// Sorted neighbor ids.
    #[inline]
    pub fn neighbors(&self) -> &[NodeId] {
        self.topo.neighbors(self.id)
    }

    /// Neighbor on `port`.
    #[inline]
    pub fn neighbor(&self, port: Port) -> NodeId {
        self.topo.neighbor(self.id, port)
    }

    /// Port leading to neighbor `u`, if adjacent.
    #[inline]
    pub fn port_to(&self, u: NodeId) -> Option<Port> {
        self.topo.port_to(self.id, u)
    }

    /// This node's deterministic RNG stream.
    #[inline]
    pub fn rng(&mut self) -> &mut SplitMix64 {
        self.rng
    }

    /// Send `msg` to the neighbor on `port`; delivered next round.
    ///
    /// The message plane holds exactly one slot per directed edge, so a
    /// node may send **at most one message per port per round** (the
    /// synchronous CONGEST contract). Sending twice on the same port in
    /// one round panics.
    #[inline]
    pub fn send(&mut self, port: Port, msg: M) {
        assert!(port < self.out_msg.len(), "send on invalid port");
        assert!(
            self.out_stamp[port] != self.out_gen,
            "duplicate send on port {port}: one message per port per round"
        );
        self.out_stamp[port] = self.out_gen;
        self.out_msg[port] = Some(msg);
        *self.sent_any = true;
    }

    /// Send a copy of `msg` to every neighbor.
    pub fn send_all(&mut self, msg: M)
    where
        M: Clone,
    {
        for port in 0..self.degree() {
            self.send(port, msg.clone());
        }
    }

    /// Stop participating: this node will not be stepped again and
    /// messages sent to it are dropped. Messages it sent *this* round
    /// are still delivered.
    #[inline]
    pub fn halt(&mut self) {
        *self.halted = true;
    }

    /// Park until something happens: this node is not stepped again
    /// until a message is delivered to it or it is woken externally
    /// ([`Network::wake`] / a rewire's dirty set). Unlike
    /// [`Ctx::halt`], mail addressed to a sleeping node is *kept* —
    /// its arrival is exactly what wakes the node.
    ///
    /// Sleep lasts until the next step: a woken node that still has
    /// nothing to do must call `sleep` again. Under the dense fallback
    /// scheduler the same contract holds (the sweep skips sleeping
    /// nodes without mail), so sleeping protocols remain bit-identical
    /// across [`SchedMode`]s; under [`SchedMode::Sparse`] a sleeping
    /// node additionally costs the round loop *nothing*.
    ///
    /// Messages sent this round are still delivered, and a node may
    /// both send and sleep (the replies will wake it).
    #[inline]
    pub fn sleep(&mut self) {
        *self.dozing = true;
    }
}

/// Result of driving a network with one of the `run_*` methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Rounds executed by this call (not cumulative).
    pub rounds: u64,
    /// True if every node halted.
    pub all_halted: bool,
    /// True if the run ended because the network went quiet (no
    /// messages in flight and none produced).
    pub quiescent: bool,
}

/// Which round scheduler drives [`Network::step`].
///
/// All modes step exactly the same set of nodes each round (the
/// scheduler contract below), so results are **bit-identical**; they
/// differ only in how that set is found:
///
/// * [`SchedMode::Sparse`] (the default) drains an epoch-stamped wake
///   list — round cost is proportional to the number of *active*
///   nodes, not `n`. This is the activity-driven plane: protocols that
///   halt or [`Ctx::sleep`] drop out of the per-round cost entirely.
/// * [`SchedMode::Dense`] sweeps `0..n` every round, skipping halted
///   and sleeping nodes — the classical executor, kept as a fallback
///   and as the reference the property suites compare against.
/// * [`SchedMode::Hybrid`] keeps **both frontier representations** and
///   switches per round with a deterministic `judge()` threshold, the
///   direction-optimizing pattern of parlay's LDD: high-activity
///   rounds run as a dense sweep (no wake-list sort, push, or
///   delivery-stamp dedup), low-activity rounds drain the sparse wake
///   list. Sparse→dense conversion is free (the halt/doze/mail flags
///   the dense sweep reads are maintained in every mode); dense→sparse
///   pays one O(n) wake-list rebuild from the scheduler predicate. The
///   judge never inspects wall-clock or thread counts, so a hybrid
///   run's representation sequence — and hence its `sched_overhead`
///   trace — is reproducible; everything else is bit-identical to the
///   other two modes.
///
/// **Scheduler contract** — a node `v` is stepped in round `r` iff it
/// is not halted and at least one of:
///
/// 1. `r` is the first round after construction (everyone starts
///    awake),
/// 2. `v` was stepped in round `r-1` and called neither [`Ctx::halt`]
///    nor [`Ctx::sleep`] (staying awake is the default),
/// 3. a message was delivered to `v` for round `r` (mail always wakes
///    a sleeping node), or
/// 4. `v` was woken externally since its last step ([`Network::wake`],
///    or the dirty set of a [`Network::rewire`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SchedMode {
    /// Activity-driven wake list: round cost ∝ active nodes.
    #[default]
    Sparse,
    /// Dense `0..n` sweep: round cost ∝ `n` (fallback / reference).
    Dense,
    /// Judge-switched dual representation: dense sweep above the
    /// activity threshold, sparse wake list below it.
    Hybrid,
}

/// Hybrid judge, upswitch: a round whose (upper-bound) scheduled count
/// is at least `n / HYBRID_DENSE_DIV` runs as a dense sweep. At that
/// activity the wake list's sort + per-node push + per-delivery stamp
/// dedup cost more than scanning the `n - active` idle flag slots.
pub(crate) const HYBRID_DENSE_DIV: usize = 8;

/// Hybrid judge, downswitch: a dense round whose *previous* round
/// stepped fewer than `n / HYBRID_SPARSE_DIV` nodes converts back to
/// the sparse representation (one O(n) wake-list rebuild). The gap to
/// [`HYBRID_DENSE_DIV`] is hysteresis so activity hovering near the
/// threshold does not thrash conversions.
pub(crate) const HYBRID_SPARSE_DIV: usize = 16;

/// Execution knobs shared by every layer that builds a [`Network`]:
/// worker-thread count, fault injection, and the round scheduler.
/// Algorithms that compose several network phases thread one `ExecCfg`
/// through all of them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecCfg {
    /// Worker threads for node stepping (1 = sequential). This is a
    /// *ceiling*, not a demand: the per-round cost model spawns fewer
    /// workers (down to none) when the measured workload would not pay
    /// for them. Results are bit-identical regardless of the value.
    pub threads: usize,
    /// The adversary plan (drop, burst, delay, stall, crash, CONGEST
    /// budget) — the one fault-injection knob. [`FaultPlan::NONE`] by
    /// default.
    pub faults: FaultPlan,
    /// Round scheduler (sparse wake list / dense sweep / judge-switched
    /// hybrid). Results are bit-identical regardless of the value.
    pub sched: SchedMode,
    /// Collect the per-phase wall-clock breakdown into the
    /// [`NetStats::timings`] histogram registry (see
    /// [`crate::stats::timing`] for the names). Off by default: the
    /// samples cost a few clock reads per round and — like
    /// `sched_overhead` — are excluded from the bit-identity contract,
    /// so identity suites leave this off or mask
    /// [`NetStats::timings`].
    pub timing: bool,
    /// Test/bench escape hatch: bypass the cost model and spawn one
    /// worker per requested thread regardless of machine or workload,
    /// so the parallel partitioners run for real on any host. Never
    /// set this in production configs — on small workloads it
    /// re-creates the thread-spawn pathology the cost model exists to
    /// prevent.
    pub force_parallel: bool,
}

impl Default for ExecCfg {
    fn default() -> Self {
        ExecCfg::sequential()
    }
}

impl ExecCfg {
    /// Sequential, reliable execution (the paper's model).
    pub const fn sequential() -> Self {
        ExecCfg {
            threads: 1,
            faults: FaultPlan::NONE,
            sched: SchedMode::Sparse,
            timing: false,
            force_parallel: false,
        }
    }

    /// Parallel stepping with up to `threads` workers, reliable
    /// delivery.
    pub const fn parallel(threads: usize) -> Self {
        ExecCfg {
            threads,
            ..ExecCfg::sequential()
        }
    }

    /// The same configuration under the dense fallback scheduler.
    pub const fn dense(mut self) -> Self {
        self.sched = SchedMode::Dense;
        self
    }

    /// The same configuration under the judge-switched hybrid
    /// scheduler.
    pub const fn hybrid(mut self) -> Self {
        self.sched = SchedMode::Hybrid;
        self
    }

    /// The same configuration with per-phase timing gauges enabled.
    pub const fn timed(mut self) -> Self {
        self.timing = true;
        self
    }

    /// The same configuration with the cost model bypassed (testing
    /// only; see [`ExecCfg::force_parallel`]).
    pub const fn forced(mut self) -> Self {
        self.force_parallel = true;
        self
    }

    /// The same configuration under adversary plan `faults`.
    pub const fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }
}

/// Per-worker scratch of the parallel executor: the sender buffer and
/// the per-chunk counters, recorded contention-free per chunk and
/// merged in chunk (= node) order after the join. Reused every round;
/// deliberately not charged to the plane gauge so stats stay
/// bit-identical across thread counts.
///
/// Next-frontier (wake) output does **not** live here: each worker
/// writes wake ids into its own disjoint window of the shared,
/// round-sized `wake_next` buffer — a local queue bounded by the
/// chunk's active count, with no shared-structure contention and no
/// spill (the bound is exact: a chunk wakes at most the nodes it
/// steps). The merge is an in-order compaction of those windows.
#[derive(Default)]
pub(crate) struct WorkerScratch {
    /// Nodes of this chunk that sent at least one message. Capacity is
    /// reserved to the chunk's active count once per round, before the
    /// step loop, so the hot loop never grows it.
    pub(crate) touched: Vec<NodeId>,
    /// Wake entries this worker wrote into its `wake_next` window.
    pub(crate) wake_len: usize,
    /// Size of this worker's `wake_next` window (= chunk active count).
    pub(crate) wake_cap: usize,
    /// Nodes of this chunk that halted this round.
    pub(crate) halts: u64,
    /// Nodes of this chunk actually stepped this round.
    pub(crate) stepped: u64,
    /// Flight-recorder span bounds for this worker's section, in ns
    /// since the recorder epoch the main thread handed over. Written
    /// by the worker only when tracing is enabled; the main thread
    /// turns them into `WorkerSpan` events after the join (workers
    /// never touch the thread-local recorder). Observation only —
    /// never read by the algorithm.
    pub(crate) span_t0_ns: u64,
    pub(crate) span_t1_ns: u64,
}

impl WorkerScratch {
    /// Ready the scratch for a new round: clear, and size the sender
    /// buffer once so the step loop performs no reallocation.
    pub(crate) fn prepare(&mut self, chunk_nodes: usize) {
        self.touched.clear();
        self.touched.reserve(chunk_nodes);
        self.wake_len = 0;
        self.wake_cap = 0;
        self.halts = 0;
        self.stepped = 0;
        self.span_t0_ns = 0;
        self.span_t1_ns = 0;
    }
}

/// A synchronous network: topology + per-node protocol state.
pub struct Network<P: Protocol> {
    pub(crate) topo: Topology,
    pub(crate) nodes: Vec<P>,
    pub(crate) halted: Vec<bool>,
    /// Nodes not yet halted — maintained incrementally so
    /// [`Network::all_halted`] is O(1) instead of an O(n) scan.
    pub(crate) live: usize,
    /// `dozing[v]` = `v` called [`Ctx::sleep`] the last time it was
    /// stepped (cleared on every step; see the [`SchedMode`] contract).
    pub(crate) dozing: Vec<bool>,
    pub(crate) rngs: Vec<SplitMix64>,
    /// The double-buffered message plane: the slab indexed by the
    /// current round's parity collects this round's sends, the other
    /// one holds last round's (being read through [`Inbox`] views).
    pub(crate) planes: [Slab<P::Msg>; 2],
    /// Nodes that sent at least one message this round, in node order
    /// (delivery walks only these). Reused every round.
    pub(crate) touched: Vec<NodeId>,
    /// Per-worker scratch for the parallel executor. Reused every round.
    pub(crate) workers: Vec<WorkerScratch>,
    /// Sparse scheduler: nodes scheduled for the round about to
    /// execute, ascending once sorted at the top of `step`. An entry is
    /// valid only while `wake_stamp[v]` equals that round (epoch
    /// stamping — no per-round clearing of the dense bitset).
    pub(crate) wake_cur: Vec<NodeId>,
    /// Sparse scheduler: nodes scheduled for the *next* round
    /// (auto-reschedules in node order, then delivery wake-ups).
    pub(crate) wake_next: Vec<NodeId>,
    /// `wake_stamp[v]` = round `v` is scheduled for (dedupes wake-list
    /// pushes; `u64::MAX` = never).
    pub(crate) wake_stamp: Vec<u64>,
    /// `inbox_count[v]` = messages awaiting `v`, valid when
    /// `inbox_count_round[v]` equals the round about to read them
    /// (generation-stamped, so no per-round clearing).
    pub(crate) inbox_count: Vec<u32>,
    pub(crate) inbox_count_round: Vec<u64>,
    /// Messages delivered by the previous round (readable this round).
    pub(crate) in_flight: u64,
    /// Buffer allocations performed by the message plane, cumulative.
    pub(crate) alloc_events: u64,
    /// `alloc_events` at the end of the previous round (for the
    /// per-round gauge).
    pub(crate) alloc_mark: u64,
    pub(crate) stats: NetStats,
    pub(crate) round: u64,
    /// Number of worker threads for node stepping (1 = sequential).
    pub(crate) threads: usize,
    /// Test-only: bypass the cost model so unit tests exercise real
    /// multi-worker rounds on any machine and workload size (see
    /// [`ExecCfg::force_parallel`]).
    pub(crate) force_parallel: bool,
    /// Round scheduler (sparse wake list / dense sweep / hybrid).
    pub(crate) sched: SchedMode,
    /// The representation the *next* round will run in: `true` = dense
    /// flag sweep, `false` = sparse wake list. Fixed for the pure
    /// modes; flipped by the judge under [`SchedMode::Hybrid`]. While
    /// dense, the wake list is not maintained (it lapses) and is
    /// rebuilt from the scheduler predicate on conversion back.
    pub(crate) frontier_dense: bool,
    /// Judge input while the frontier is dense: the number of nodes the
    /// previous round stepped (while sparse, the wake-list length is
    /// the exact upcoming count, so this is not consulted).
    pub(crate) est_active: u64,
    /// Per-round seq-vs-parallel cost model (measured ns/work-unit
    /// EWMAs; purely a performance decision, results are bit-identical
    /// whichever path it picks).
    pub(crate) cost: CostModel,
    /// Largest worker count any round actually spawned (1 = every
    /// round ran sequentially). Bench/CI fingerprint material.
    pub(crate) peak_workers: usize,
    /// Collect the [`crate::stats::timing`] histograms (see
    /// [`ExecCfg::timing`]).
    pub(crate) timing: bool,
    /// The adversary plane every delivery passes through: fault-class
    /// RNG streams (independent of node streams so that enabling
    /// faults does not perturb node randomness), burst link states,
    /// the delayed-payload holding ring, and the pre-sampled crash
    /// schedule. Inert ([`FaultPlan::NONE`]) by default.
    pub(crate) adversary: Adversary<P::Msg>,
}

impl<P: Protocol> Network<P> {
    /// Create a network. `nodes[v]` is the protocol state of node `v`;
    /// its RNG stream is derived from `seed` and `v`.
    ///
    /// All message-plane buffers are allocated here, sized by the
    /// topology (one slot per directed edge, twice for the double
    /// buffer); steady-state stepping performs no further heap
    /// allocation.
    pub fn new(topo: Topology, nodes: Vec<P>, seed: u64) -> Self {
        assert_eq!(topo.len(), nodes.len(), "one protocol state per node");
        let n = topo.len();
        let total = topo.total_ports();
        let rngs = (0..n)
            .map(|v| SplitMix64::for_node(seed, v as u64))
            .collect();
        let mut alloc_events = 0u64;
        let planes = [
            Slab::new(total, &mut alloc_events),
            Slab::new(total, &mut alloc_events),
        ];
        // touched + inbox_count + inbox_count_round + dozing +
        // wake_cur + wake_next + wake_stamp — all preallocated here
        // (wake lists at full capacity: a node appears at most once per
        // round, so they never grow), charged identically in both
        // scheduling modes.
        alloc_events += 7;
        Network {
            topo,
            nodes,
            halted: vec![false; n],
            live: n,
            dozing: vec![false; n],
            rngs,
            planes,
            touched: Vec::with_capacity(n),
            workers: Vec::new(),
            // Round 0: everyone starts awake.
            wake_cur: (0..n as NodeId).collect(),
            wake_next: Vec::with_capacity(n),
            wake_stamp: vec![0; n],
            inbox_count: vec![0; n],
            inbox_count_round: vec![u64::MAX; n],
            in_flight: 0,
            alloc_events,
            alloc_mark: 0,
            stats: NetStats::default(),
            round: 0,
            threads: 1,
            force_parallel: false,
            sched: SchedMode::default(),
            frontier_dense: false,
            est_active: n as u64,
            cost: CostModel::new(),
            peak_workers: 1,
            timing: false,
            adversary: Adversary::new(seed),
        }
    }

    /// Use `threads` worker threads to step nodes (results are identical
    /// to sequential execution; see `parallel.rs`).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Install an adversary plan (drop / burst / delay / stall / crash
    /// / CONGEST budget — see [`crate::adversary`]). A pre-run builder
    /// step: the plan's RNG streams, burst states, and pre-sampled
    /// crash schedule are (re)derived from the construction seed and
    /// the topology, so installation is idempotent and same seed +
    /// same plan ⇒ bit-identical runs at any thread count and under
    /// any scheduler.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.adversary.install(plan, &self.topo);
        self
    }

    /// Select the round scheduler (construction-time knob; results are
    /// bit-identical across modes).
    pub fn with_sched(mut self, sched: SchedMode) -> Self {
        self.sched = sched;
        // Pure Dense runs dense from round 0; Sparse and Hybrid start
        // sparse (round 0 schedules everyone, so a hybrid judge
        // converts — for free — before the first step).
        self.frontier_dense = sched == SchedMode::Dense;
        self
    }

    /// Enable the per-phase timing gauges (see [`ExecCfg::timing`]).
    pub fn with_timing(mut self, timing: bool) -> Self {
        self.timing = timing;
        self
    }

    /// Apply all execution knobs of an [`ExecCfg`] at once.
    pub fn with_cfg(mut self, cfg: ExecCfg) -> Self {
        self.force_parallel = cfg.force_parallel;
        self.with_threads(cfg.threads)
            .with_faults(cfg.faults)
            .with_sched(cfg.sched)
            .with_timing(cfg.timing)
    }

    /// Messages dropped by fault injection (Bernoulli + burst drops).
    pub fn dropped(&self) -> u64 {
        self.stats.dropped
    }

    /// The communication graph.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Immutable view of all node states.
    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    /// Mutable view of all node states (for harness-level phase changes).
    pub fn nodes_mut(&mut self) -> &mut [P] {
        &mut self.nodes
    }

    /// Consume the network, returning node states and statistics.
    pub fn into_parts(self) -> (Vec<P>, NetStats) {
        (self.nodes, self.stats)
    }

    /// Accounting so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Rounds executed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// True when every node has halted. O(1): halt bookkeeping is a
    /// maintained counter, not a scan (in both scheduling modes).
    pub fn all_halted(&self) -> bool {
        self.live == 0
    }

    /// Nodes not yet halted.
    pub fn live_nodes(&self) -> usize {
        self.live
    }

    /// True while the upcoming round schedules from the wake list
    /// (sparse representation). Dense rounds — pure [`SchedMode::Dense`]
    /// or a hybrid round above the judge threshold — derive scheduling
    /// from the halt/doze/mail flags and let the list lapse.
    #[inline]
    pub(crate) fn uses_wake_list(&self) -> bool {
        !self.frontier_dense
    }

    /// Wake `v` externally: un-halt it if needed, clear its sleep flag,
    /// and schedule it for the next round. The harness-level analogue
    /// of the wake-up a rewire's dirty set performs.
    ///
    /// A node the adversary has crashed refuses the wake-up: it stays
    /// down until its scheduled rejoin (resurrecting it early would
    /// let the harness undo a fault).
    pub fn wake(&mut self, v: NodeId) {
        if self.adversary.is_crashed(v as usize) {
            return;
        }
        if dobs::plane::enabled() {
            dobs::plane::record(dobs::Event::Wake {
                t_ns: dobs::plane::now_ns(),
                round: self.round,
                node: v as u64,
            });
        }
        let vi = v as usize;
        if self.halted[vi] {
            self.halted[vi] = false;
            self.live += 1;
        }
        self.dozing[vi] = false;
        // The wake list is live only in the sparse representation; a
        // dense round derives scheduling from the flags above, and
        // pushing here would grow a list the dense sweep never drains
        // (a hybrid dense→sparse conversion rebuilds it instead).
        if self.uses_wake_list() && self.wake_stamp[vi] != self.round {
            self.wake_stamp[vi] = self.round;
            self.wake_cur.push(v);
        }
    }

    /// Messages delivered last round and readable this round.
    pub fn in_flight(&self) -> u64 {
        self.in_flight
    }

    /// Plane-allocation gauge delta since the previous round (recorded
    /// into the round trace; 0 in steady state).
    pub(crate) fn take_alloc_delta(&mut self) -> u64 {
        let delta = self.alloc_events - self.alloc_mark;
        self.alloc_mark = self.alloc_events;
        delta
    }

    /// Largest worker count any round actually spawned so far (1 =
    /// everything ran sequentially — e.g. on a 1-core machine, or when
    /// every round's workload sat below the cost model's threshold).
    /// Benches record this next to the *requested* thread count so a
    /// `par_speedup ≈ 1.0` row is interpretable at a glance.
    pub fn peak_workers(&self) -> usize {
        self.peak_workers
    }

    /// The hybrid judge: pick the representation for the round about to
    /// execute and perform any conversion. Deterministic — inputs are
    /// node counts only, never wall-clock — so a hybrid run's
    /// representation sequence is reproducible.
    ///
    /// Upswitch (sparse→dense) triggers on the wake-list length (an
    /// exact upper bound on the upcoming scheduled count, stale entries
    /// included) and is free: the flags the dense sweep reads are
    /// maintained in every mode, the list simply lapses. Downswitch
    /// (dense→sparse) triggers on the previous round's stepped count
    /// and pays one O(n) wake-list rebuild from the scheduler
    /// predicate — charged to the `conversion_ns` timing histogram
    /// when timing is on, and amortized: it only happens when leaving
    /// a regime whose every round already cost O(n).
    ///
    /// Both switch directions emit a `dobs` [`ModeSwitch`] instant
    /// when a flight recorder is installed (observation only — the
    /// decision itself never reads the trace plane or the clock).
    ///
    /// [`ModeSwitch`]: dobs::Event::ModeSwitch
    fn choose_representation(&mut self) -> bool {
        match self.sched {
            SchedMode::Sparse => false,
            SchedMode::Dense => true,
            SchedMode::Hybrid => {
                let n = self.topo.len();
                if !self.frontier_dense {
                    if n > 0 && self.wake_cur.len() * HYBRID_DENSE_DIV >= n {
                        self.frontier_dense = true; // conversion is free
                        self.trace_mode_switch(true);
                    }
                } else if (self.est_active as usize) * HYBRID_SPARSE_DIV < n {
                    // dlint::allow(wall-clock, "timing gauge only: feeds the histogram, never steers execution; traced-vs-untraced bit-identity is property-tested")
                    let t0 = self.timing.then(Instant::now);
                    self.rebuild_wake_list();
                    self.frontier_dense = false;
                    if let Some(t0) = t0 {
                        self.stats
                            .timings
                            .record(timing::CONVERSION_NS, t0.elapsed().as_nanos() as u64);
                    }
                    self.trace_mode_switch(false);
                }
                self.frontier_dense
            }
        }
    }

    /// Record a scheduler representation switch into the installed
    /// flight recorder, if any.
    fn trace_mode_switch(&self, to_dense: bool) {
        if dobs::plane::enabled() {
            dobs::plane::record(dobs::Event::ModeSwitch {
                t_ns: dobs::plane::now_ns(),
                round: self.round,
                to_dense,
                wake_len: self.wake_cur.len() as u64,
            });
        }
    }

    /// Execute one synchronous round. Returns the number of messages
    /// sent during the round.
    ///
    /// Dispatch order: the hybrid judge picks the frontier
    /// representation, then the cost model picks sequential vs.
    /// parallel execution for that representation's workload. Both
    /// decisions are invisible in the results (bit-identity) — the
    /// judge is additionally deterministic, so the `sched_overhead`
    /// trace it shapes is reproducible too.
    pub fn step(&mut self) -> u64 {
        if self.adversary.has_crash_events() {
            self.apply_crash_events();
        }
        let dense = self.choose_representation();
        let workload = if dense {
            self.topo.len()
        } else {
            self.wake_cur.len()
        };
        let workers = if self.force_parallel {
            self.threads.min(workload.max(1))
        } else if self.threads > 1 {
            self.cost.plan(
                self.threads,
                crate::parallel::hw_parallelism(),
                workload,
                dense,
            )
        } else {
            1
        };
        self.peak_workers = self.peak_workers.max(workers);
        // The cost model learns from measured rounds; the timing gauges
        // want the same clock. One read serves both.
        let observe = self.threads > 1 && !self.force_parallel;
        // dlint::allow(wall-clock, "cost-model/gauge observation only: measured durations never steer the round schedule; traced-vs-untraced bit-identity is property-tested")
        let t0 = (observe || self.timing).then(Instant::now);
        // Flight-recorder span for the round (observation only; one
        // thread-local flag read when no recorder is installed).
        let traced = dobs::plane::enabled();
        let span_t0 = if traced { dobs::plane::now_ns() } else { 0 };
        let sent = match (dense, workers > 1) {
            (false, false) => self.step_sparse_seq(),
            (true, false) => self.step_dense_seq(),
            (false, true) => crate::parallel::step_parallel_sparse(self, workers),
            (true, true) => crate::parallel::step_parallel_dense(self, workers),
        };
        if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos() as u64;
            if observe {
                self.cost.observe(dense, workers, workload, ns);
            }
            if self.timing {
                let phase = if dense {
                    timing::DENSE_UPDATE_NS
                } else {
                    timing::SPARSE_UPDATE_NS
                };
                self.stats.timings.record(phase, ns);
            }
        }
        if traced {
            let stepped = self.stats.per_round.last().map_or(0, |t| t.active);
            dobs::plane::record(dobs::Event::RoundSpan {
                round: self.round,
                t0_ns: span_t0,
                t1_ns: dobs::plane::now_ns(),
                stepped,
                sent,
                dense,
                workers: if workers > 1 { workers as u32 } else { 0 },
            });
        }
        sent
    }

    /// Apply the pre-sampled crash/rejoin events due at the top of the
    /// current round, before any node is stepped. Main-thread only and
    /// purely schedule-driven, so crash faults are bit-identical across
    /// executors and schedulers.
    fn apply_crash_events(&mut self) {
        let traced = dobs::plane::enabled();
        while let Some(ev) = self.adversary.next_crash(self.round) {
            let vi = ev.node as usize;
            match ev.kind {
                CrashKind::Crash => {
                    // A node that already halted on its own has nothing
                    // to take down — skip entirely (its rejoin event,
                    // if any, will find `crashed` unset and also skip).
                    if self.halted[vi] {
                        continue;
                    }
                    self.halted[vi] = true;
                    self.adversary.set_crashed(vi, true);
                    self.stats.crashed += 1;
                    // A permanent crash is as dead as a halt, so runs
                    // can terminate; a rejoin-pending node stays in
                    // `live` so the run loops keep stepping (possibly
                    // empty) rounds until it comes back.
                    if self.adversary.plan.rejoin_after() == 0 {
                        self.live -= 1;
                    }
                    if traced {
                        dobs::plane::record(dobs::Event::Fault {
                            t_ns: dobs::plane::now_ns(),
                            round: self.round,
                            node: ev.node as u64,
                            port: 0,
                            kind: dobs::FaultKind::Crash,
                        });
                    }
                }
                CrashKind::Rejoin => {
                    if !self.adversary.is_crashed(vi) {
                        continue; // the crash was skipped (node had halted)
                    }
                    self.adversary.set_crashed(vi, false);
                    // `live` was never decremented for a rejoin-pending
                    // crash, so only the flags come back.
                    self.halted[vi] = false;
                    self.dozing[vi] = false;
                    if self.uses_wake_list() && self.wake_stamp[vi] != self.round {
                        self.wake_stamp[vi] = self.round;
                        self.wake_cur.push(ev.node);
                    }
                    if traced {
                        dobs::plane::record(dobs::Event::Fault {
                            t_ns: dobs::plane::now_ns(),
                            round: self.round,
                            node: ev.node as u64,
                            port: 0,
                            kind: dobs::FaultKind::Rejoin,
                        });
                    }
                }
            }
        }
    }

    /// Close out a round: delivery accounting, round counter, gauges.
    /// Shared by both sequential executors (the parallel ones do the
    /// same after their join).
    pub(crate) fn finish_round(&mut self, stepped: u64, sched_overhead: u64) -> u64 {
        let round = self.round;
        let schedule = self.uses_wake_list();
        let (out_plane, _) = split_planes(&mut self.planes, round);
        let out = deliver(
            &self.topo,
            out_plane,
            &self.touched,
            &self.halted,
            &mut self.adversary,
            &mut self.stats,
            &mut self.inbox_count,
            &mut self.inbox_count_round,
            round + 1,
            schedule.then_some((&mut self.wake_stamp, &mut self.wake_next)),
        );
        self.in_flight = out.delivered;
        self.round += 1;
        if schedule {
            std::mem::swap(&mut self.wake_cur, &mut self.wake_next);
            // While sparse the wake list itself is the exact upcoming
            // count; keep the estimate fresh anyway for the round after
            // an upswitch.
            self.est_active = self.wake_cur.len() as u64;
        } else {
            self.est_active = stepped;
        }
        let allocs = self.take_alloc_delta();
        self.stats
            .record_round_gauges(out.sent, out.peak_inbox, allocs, stepped, sched_overhead);
        out.sent
    }

    /// The dense fallback sweep: O(n) per round, honoring the same
    /// halt/sleep/mail contract as the sparse scheduler.
    pub(crate) fn step_dense_seq(&mut self) -> u64 {
        let n = self.topo.len();
        let round = self.round;
        let (out_plane, in_plane) = split_planes(&mut self.planes, round);
        out_plane.advance();
        let out_gen = out_plane.gen;
        self.touched.clear();
        let mut stepped = 0u64;
        for v in 0..n {
            if self.halted[v] {
                continue;
            }
            let count = if self.inbox_count_round[v] == round {
                self.inbox_count[v]
            } else {
                0
            };
            if self.dozing[v] && count == 0 {
                continue; // asleep and no mail: contract says skip
            }
            stepped += 1;
            self.dozing[v] = false;
            let vid = v as NodeId;
            let inbox = Inbox::new(&self.topo, vid, in_plane, count);
            let base = self.topo.port_base(vid);
            let deg = self.topo.degree(vid);
            let mut sent_any = false;
            let mut ctx = Ctx::new(
                vid,
                round,
                &self.topo,
                &mut self.rngs[v],
                &mut out_plane.stamp[base..base + deg],
                &mut out_plane.msg[base..base + deg],
                out_gen,
                &mut sent_any,
                &mut self.halted[v],
                &mut self.dozing[v],
            );
            self.nodes[v].on_round(&mut ctx, inbox);
            if self.halted[v] {
                self.live -= 1;
            }
            if sent_any {
                self.touched.push(vid);
            }
        }
        self.finish_round(stepped, n as u64 - stepped)
    }

    /// The sparse activity-driven executor: drains the wake list, so
    /// the round costs O(active), not O(n). Bit-identical to the dense
    /// sweep (same stepped set, same delivery order).
    pub(crate) fn step_sparse_seq(&mut self) -> u64 {
        let round = self.round;
        // Auto-reschedules arrive in node order but delivery wake-ups
        // do not; one cheap mostly-sorted pass restores the ascending
        // order delivery (and the loss RNG stream) depends on.
        if !self.wake_cur.is_sorted() {
            self.wake_cur.sort_unstable();
        }
        let scanned = self.wake_cur.len() as u64;
        let (out_plane, in_plane) = split_planes(&mut self.planes, round);
        out_plane.advance();
        let out_gen = out_plane.gen;
        self.touched.clear();
        self.wake_next.clear();
        let mut stepped = 0u64;
        for i in 0..self.wake_cur.len() {
            let vid = self.wake_cur[i];
            let v = vid as usize;
            if self.halted[v] || self.wake_stamp[v] != round {
                continue; // stale entry (e.g. woken then halted)
            }
            stepped += 1;
            self.dozing[v] = false;
            let count = if self.inbox_count_round[v] == round {
                self.inbox_count[v]
            } else {
                0
            };
            let inbox = Inbox::new(&self.topo, vid, in_plane, count);
            let base = self.topo.port_base(vid);
            let deg = self.topo.degree(vid);
            let mut sent_any = false;
            let mut ctx = Ctx::new(
                vid,
                round,
                &self.topo,
                &mut self.rngs[v],
                &mut out_plane.stamp[base..base + deg],
                &mut out_plane.msg[base..base + deg],
                out_gen,
                &mut sent_any,
                &mut self.halted[v],
                &mut self.dozing[v],
            );
            self.nodes[v].on_round(&mut ctx, inbox);
            if self.halted[v] {
                self.live -= 1;
            } else if !self.dozing[v] {
                // Staying awake is the default: reschedule for round+1.
                self.wake_stamp[v] = round + 1;
                self.wake_next.push(vid);
            }
            if sent_any {
                self.touched.push(vid);
            }
        }
        self.finish_round(stepped, scanned - stepped)
    }

    /// Run until every node halts, or `max_rounds` elapse. Panics if the
    /// round budget is exhausted — a protocol that fails to halt within
    /// its theoretical bound is a bug we want loudly.
    pub fn run_until_halt(&mut self, max_rounds: u64) -> RunOutcome {
        let start = self.round;
        while !self.all_halted() {
            assert!(
                self.round - start < max_rounds,
                "protocol did not halt within {max_rounds} rounds"
            );
            self.step();
        }
        RunOutcome {
            rounds: self.round - start,
            all_halted: true,
            quiescent: false,
        }
    }

    /// Run until the network goes quiet: a round in which no messages
    /// were sent and none were in flight. Suitable for message-driven
    /// protocols. Stops early if all nodes halt.
    ///
    /// A network that is quiet from birth (no node sends in round 0) is
    /// recognized after exactly one round — the single round needed to
    /// observe that nobody spoke.
    pub fn run_until_quiet(&mut self, max_rounds: u64) -> RunOutcome {
        let start = self.round;
        loop {
            if self.all_halted() {
                return RunOutcome {
                    rounds: self.round - start,
                    all_halted: true,
                    quiescent: false,
                };
            }
            assert!(
                self.round - start < max_rounds,
                "network not quiet within {max_rounds} rounds"
            );
            let in_flight = self.in_flight;
            let sent = self.step();
            // Quiet requires the adversary's holding ring to be empty
            // too: a parked payload is still in flight, just late.
            // Pending *crash* events deliberately do not block quiet —
            // a network with no traffic left is idle even if a distant
            // crash is scheduled.
            if sent == 0 && in_flight == 0 && self.adversary.parked_empty() {
                return RunOutcome {
                    rounds: self.round - start,
                    all_halted: self.all_halted(),
                    quiescent: true,
                };
            }
        }
    }

    /// Run exactly `rounds` rounds (or until all nodes halt).
    pub fn run_rounds(&mut self, rounds: u64) -> RunOutcome {
        let start = self.round;
        for _ in 0..rounds {
            if self.all_halted() {
                break;
            }
            self.step();
        }
        RunOutcome {
            rounds: self.round - start,
            all_halted: self.all_halted(),
            quiescent: false,
        }
    }

    /// Nodes that sent at least one message in the most recent round,
    /// ascending. Used by dynamic-network harnesses to measure how far
    /// from the churn damage repair traffic actually travels.
    pub fn last_senders(&self) -> &[NodeId] {
        &self.touched
    }

    /// Install the new topology of `patch` at an epoch boundary,
    /// carrying the network across:
    ///
    /// * both message-plane slabs are remapped (`Slab::remap`):
    ///   in-flight messages on surviving directed edges keep their
    ///   slots (and are delivered next round as usual); messages on
    ///   removed edges are dropped; the whole migration moves payloads
    ///   in O(ports) with a constant number of buffer allocations,
    ///   never cloning a payload and never allocating per edge;
    /// * every node's protocol state is migrated through
    ///   [`Rewire::on_rewire`] with its old-port → new-port map and its
    ///   born ports;
    /// * nodes whose incident edges changed ([`TopologyPatch::dirty`])
    ///   are woken (un-halted) so they can take part in repair;
    /// * inbox accounting is recomputed for the surviving in-flight
    ///   mail (mail addressed to nodes still halted after the wake-up
    ///   is dropped, matching the delivery rule).
    ///
    /// The node population is fixed (`patch` must describe the same
    /// number of nodes); node churn is modelled by edge batches.
    /// Rounds, statistics, and per-node RNG streams continue across the
    /// boundary, so a rewired run remains bit-identical across thread
    /// counts.
    pub fn rewire(&mut self, patch: &TopologyPatch)
    where
        P: Rewire,
    {
        let new_topo = patch.topo();
        assert_eq!(
            new_topo.len(),
            self.topo.len(),
            "rewire preserves the node population"
        );
        if dobs::plane::enabled() {
            // Each added edge contributes one born port at both (dirty)
            // endpoints; the removed count follows from the edge delta.
            let born: usize = patch
                .dirty()
                .iter()
                .map(|&v| patch.born_ports(v).len())
                .sum();
            let added = (born / 2) as u64;
            let removed =
                (self.topo.num_edges() as u64 + added).saturating_sub(new_topo.num_edges() as u64);
            dobs::plane::record(dobs::Event::Rewire {
                t_ns: dobs::plane::now_ns(),
                round: self.round,
                added,
                removed,
                dirty: patch.dirty().len() as u64,
            });
        }
        let new_total = new_topo.total_ports();
        for plane in &mut self.planes {
            plane.remap(patch.slot_map(), new_total, &mut self.alloc_events);
        }
        // Adversary state follows the slot remap: burst link states
        // move with their surviving slots, parked payloads on removed
        // edges are dropped (same rule as the slabs' in-flight mail).
        self.adversary.on_rewire(patch, new_topo);
        let mut port_map: Vec<Option<Port>> = Vec::new(); // scratch, reused per node
        for v in 0..self.topo.len() {
            let vid = v as NodeId;
            let old_base = self.topo.port_base(vid);
            let new_base = new_topo.port_base(vid);
            port_map.clear();
            port_map.extend(
                (0..self.topo.degree(vid))
                    .map(|p| patch.new_slot(old_base + p).map(|s| s - new_base)),
            );
            let ctx = RewireCtx {
                node: vid,
                topo: new_topo,
                port_map: &port_map,
                born: patch.born_ports(vid),
                round: self.round,
            };
            self.nodes[v].on_rewire(&ctx);
        }
        for &v in patch.dirty() {
            let vi = v as usize;
            // Crashed nodes stay down through a rewire: resurrecting
            // them via the dirty set would undo the fault (and corrupt
            // the `live` accounting, which deferred their decrement).
            if self.adversary.is_crashed(vi) {
                continue;
            }
            if self.halted[vi] {
                self.halted[vi] = false;
                self.live += 1;
            }
            self.dozing[vi] = false;
        }
        self.topo = new_topo.clone();
        self.recount_inboxes();
        if self.uses_wake_list() {
            self.rebuild_wake_list();
        }
        // A rewire typically wakes a whole damage ball; refresh the
        // dense-side judge input so a hybrid run re-evaluates from the
        // post-rewire schedule size rather than a pre-churn count.
        self.est_active = self.est_active.max(patch.dirty().len() as u64);
    }

    /// Rebuild `inbox_count` / `in_flight` from the plane that will be
    /// read next round (after a rewire invalidated the delivery-time
    /// accounting).
    fn recount_inboxes(&mut self) {
        let round = self.round;
        let in_plane = &self.planes[((round + 1) % 2) as usize];
        let gen = in_plane.gen;
        let mut in_flight = 0u64;
        for v in 0..self.topo.len() {
            self.inbox_count[v] = 0;
            self.inbox_count_round[v] = round;
        }
        for v in 0..self.topo.len() as NodeId {
            let base = self.topo.port_base(v);
            for p in 0..self.topo.degree(v) {
                if in_plane.stamp[base + p] != gen {
                    continue;
                }
                let to = self.topo.neighbor(v, p) as usize;
                if self.halted[to] {
                    continue;
                }
                self.inbox_count[to] += 1;
                in_flight += 1;
            }
        }
        self.in_flight = in_flight;
    }

    /// Recompute the wake list for the next round from first
    /// principles (the dense sweep's predicate): scheduled iff live
    /// and (awake, or has mail). A rewire can both wake nodes (dirty
    /// set) and kill scheduled mail (remapped slabs drop removed
    /// edges' payloads), so patching the list incrementally would
    /// leak stale entries — rebuilding keeps the sparse schedule
    /// exactly equal to the dense one. O(n), like the rewire itself.
    fn rebuild_wake_list(&mut self) {
        let round = self.round;
        self.wake_cur.clear();
        for v in 0..self.topo.len() {
            let scheduled = !self.halted[v]
                && (!self.dozing[v]
                    || (self.inbox_count_round[v] == round && self.inbox_count[v] > 0));
            if scheduled {
                self.wake_stamp[v] = round;
                self.wake_cur.push(v as NodeId);
            }
        }
    }
}

/// Split the double buffer into (this round's out slab, last round's in
/// slab) by round parity.
pub(crate) fn split_planes<M>(planes: &mut [Slab<M>; 2], round: u64) -> (&mut Slab<M>, &Slab<M>) {
    let (a, b) = planes.split_at_mut(1);
    if round.is_multiple_of(2) {
        (&mut a[0], &b[0])
    } else {
        (&mut b[0], &a[0])
    }
}

/// Outcome of one delivery sweep.
pub(crate) struct DeliverOutcome {
    /// Messages sent (charged to stats, including lost ones).
    pub(crate) sent: u64,
    /// Messages actually readable next round (excludes lost messages
    /// and mail addressed to halted nodes).
    pub(crate) delivered: u64,
    /// Largest single inbox produced this round.
    pub(crate) peak_inbox: u64,
}

/// Account (and, under fault injection, cull, delay, or defer) the
/// messages written into `out` this round. Walks only the port ranges
/// of nodes that sent, in ascending node order then ascending port
/// order — a fixed order, so every adversary RNG stream is consumed
/// identically under sequential and parallel stepping. The fault-free
/// path performs **no allocation and no sorting**: the payloads stay
/// in their slots, where the receivers read them in place.
///
/// Per live slot, the adversary pipeline runs in this fixed,
/// documented order (each stream consumed only when its fault class is
/// enabled — see [`crate::adversary`]):
///
/// 1. charge statistics (the sender paid for the message);
/// 2. Bernoulli **drop** (the legacy `loss_rng` stream, drawn at the
///    legacy point, so pure-drop plans replay old lossy runs
///    bit-for-bit);
/// 3. **burst** drop if the slot's Markov link is down;
/// 4. **CONGEST** budget check — strict panics, degrade converts the
///    overflow into `⌈bits/B⌉ - 1` extra rounds and records
///    `deferred_bits`;
/// 5. receiver-halted check (mail to halted or crashed nodes is
///    dropped on the floor, unread — crash-stop);
/// 6. **stall** (+1 round) and **delay** (uniform `0..=D` rounds)
///    draws; a message owing extra rounds is parked in the holding
///    ring, otherwise it is delivered as usual.
///
/// After the sender walk, parked payloads due this round are
/// re-injected in deterministic `(slot, seq)` order: an occupied slot
/// postpones its payload one round, a halted/crashed receiver discards
/// it, and a delivered payload performs the same inbox/wake accounting
/// as a fresh message (its bits were charged at first crossing).
///
/// Under the sparse scheduler (`schedule` is `Some`), delivery is also
/// where mail wakes nodes: every receiver is stamped and appended to
/// the next round's wake list (deduped by the stamp, so a node already
/// auto-rescheduled is not pushed twice).
#[allow(clippy::too_many_arguments)]
pub(crate) fn deliver<M: BitSize>(
    topo: &Topology,
    out: &mut Slab<M>,
    touched: &[NodeId],
    halted: &[bool],
    adversary: &mut Adversary<M>,
    stats: &mut NetStats,
    inbox_count: &mut [u32],
    inbox_count_round: &mut [u64],
    read_round: u64,
    mut schedule: Option<(&mut [u64], &mut Vec<NodeId>)>,
) -> DeliverOutcome {
    let gen = out.gen;
    let mut sent = 0u64;
    let mut delivered = 0u64;
    let mut peak = 0u64;
    let faults = adversary.is_active();
    let traced = faults && dobs::plane::enabled();
    if faults {
        adversary.evolve_bursts();
    }
    let plan = adversary.plan;
    for &v in touched {
        let base = topo.port_base(v);
        for p in 0..topo.degree(v) {
            let slot = base + p;
            if out.stamp[slot] != gen {
                continue;
            }
            let bits = out.msg[slot]
                .as_ref()
                .expect("live slot holds a message")
                .bit_size();
            stats.record_message(bits);
            sent += 1;
            if plan.drop_p > 0.0 && adversary.drop_rng.bernoulli(plan.drop_p) {
                stats.dropped += 1;
                out.stamp[slot] = DEAD_STAMP; // fault injection ate it
                out.msg[slot] = None;
                if traced {
                    record_fault(read_round - 1, v, p, dobs::FaultKind::Drop);
                }
                continue;
            }
            if !adversary.burst_down.is_empty() && adversary.burst_down[slot] {
                stats.dropped += 1;
                out.stamp[slot] = DEAD_STAMP; // link is down this round
                out.msg[slot] = None;
                if traced {
                    record_fault(read_round - 1, v, p, dobs::FaultKind::BurstDrop);
                }
                continue;
            }
            let to = topo.neighbor(v, p) as usize;
            // One message per port per round, so the per-message size
            // *is* the edge's per-round bit usage.
            let mut congest_extra = 0u64;
            if bits > adversary.budget_bits {
                match plan.congest {
                    CongestMode::Strict => panic!(
                        "CONGEST violation: {bits}-bit message on edge {v}->{to} \
                         exceeds the {}-bit per-edge per-round budget",
                        adversary.budget_bits
                    ),
                    CongestMode::Degrade => {
                        congest_extra = (bits - 1) / adversary.budget_bits;
                        stats.deferred_bits += bits - adversary.budget_bits;
                        if traced {
                            dobs::plane::record(dobs::Event::BudgetViolation {
                                t_ns: dobs::plane::now_ns(),
                                round: read_round - 1,
                                node: v as u64,
                                port: p as u32,
                                bits,
                                budget: adversary.budget_bits,
                            });
                        }
                    }
                }
            }
            if halted[to] {
                continue; // dropped on the floor, unread
            }
            let stall_extra = if plan.stall_p > 0.0 && adversary.stall_rng.bernoulli(plan.stall_p) {
                1
            } else {
                0
            };
            let delay_extra = if plan.delay_max > 0 {
                adversary.delay_rng.below(plan.delay_max + 1)
            } else {
                0
            };
            let extra = congest_extra + stall_extra + delay_extra;
            if extra > 0 {
                stats.delayed += 1;
                let msg = out.msg[slot].take().expect("live slot holds a message");
                out.stamp[slot] = DEAD_STAMP; // parked, not in the plane
                adversary.park(read_round + extra, slot, to as NodeId, msg);
                if traced {
                    let kind = if stall_extra > 0 && delay_extra == 0 && congest_extra == 0 {
                        dobs::FaultKind::Stall
                    } else {
                        dobs::FaultKind::Delay
                    };
                    record_fault(read_round - 1, v, p, kind);
                }
                continue;
            }
            delivered += 1;
            let c = if inbox_count_round[to] == read_round {
                inbox_count[to] + 1
            } else {
                1
            };
            inbox_count[to] = c;
            inbox_count_round[to] = read_round;
            peak = peak.max(c as u64);
            if let Some((wake_stamp, wake_next)) = schedule.as_mut() {
                if wake_stamp[to] != read_round {
                    wake_stamp[to] = read_round;
                    wake_next.push(to as NodeId);
                }
            }
        }
    }
    // Holding-ring injection: payloads due this round enter the plane
    // the receivers read next round, in deterministic (slot, seq)
    // order. Entries are never overdue (everything due is processed
    // each round), so sorting by (due, slot, seq) puts the due set in
    // exactly (slot, seq) order at the front.
    if !adversary.parked_empty() {
        adversary
            .parked
            .sort_unstable_by_key(|e| (e.due, e.slot, e.seq));
        let mut i = 0;
        while i < adversary.parked.len() && adversary.parked[i].due <= read_round {
            let slot = adversary.parked[i].slot;
            let to = adversary.parked[i].to as usize;
            if out.stamp[slot] == gen {
                // The sender refilled the slot this round: postpone one
                // more round (adversarial reordering on a busy edge).
                adversary.parked[i].due = read_round + 1;
            } else if halted[to] {
                adversary.parked[i].msg = None; // receiver gone: discard
            } else {
                out.msg[slot] = adversary.parked[i].msg.take();
                out.stamp[slot] = gen;
                delivered += 1;
                let c = if inbox_count_round[to] == read_round {
                    inbox_count[to] + 1
                } else {
                    1
                };
                inbox_count[to] = c;
                inbox_count_round[to] = read_round;
                peak = peak.max(c as u64);
                if let Some((wake_stamp, wake_next)) = schedule.as_mut() {
                    if wake_stamp[to] != read_round {
                        wake_stamp[to] = read_round;
                        wake_next.push(to as NodeId);
                    }
                }
            }
            i += 1;
        }
        adversary.parked.retain(|e| e.msg.is_some());
    }
    DeliverOutcome {
        sent,
        delivered,
        peak_inbox: peak,
    }
}

/// Record one adversary fault instant into the installed flight
/// recorder (callers have already checked `dobs::plane::enabled()`).
fn record_fault(round: u64, node: NodeId, port: usize, kind: dobs::FaultKind) {
    dobs::plane::record(dobs::Event::Fault {
        t_ns: dobs::plane::now_ns(),
        round,
        node: node as u64,
        port: port as u32,
        kind,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mailbox::Inbox;

    /// Flood the maximum id; halt when stable for 2 rounds.
    struct MaxFlood {
        best: u32,
        quiet: u32,
    }
    impl Protocol for MaxFlood {
        type Msg = u32;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u32>, inbox: Inbox<'_, u32>) {
            let before = self.best;
            for e in inbox.iter() {
                self.best = self.best.max(*e.msg);
            }
            if ctx.round() == 0 || self.best > before {
                ctx.send_all(self.best);
                self.quiet = 0;
            } else {
                self.quiet += 1;
                if self.quiet >= 2 {
                    ctx.halt();
                }
            }
        }
    }

    fn path_net(n: usize) -> Network<MaxFlood> {
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        let topo = Topology::from_edges(n, &edges);
        let nodes = (0..n as u32)
            .map(|v| MaxFlood { best: v, quiet: 0 })
            .collect();
        Network::new(topo, nodes, 1)
    }

    #[test]
    fn max_flood_converges_on_path() {
        let mut net = path_net(10);
        let out = net.run_until_halt(100);
        assert!(out.all_halted);
        assert!(net.nodes().iter().all(|s| s.best == 9));
        // Information must travel the diameter: at least n-1 rounds.
        assert!(out.rounds >= 9);
    }

    #[test]
    fn stats_count_messages_and_bits() {
        let mut net = path_net(4);
        net.run_until_halt(100);
        let s = net.stats();
        assert!(s.messages > 0);
        assert_eq!(s.bits, s.messages * 32, "every message is one u32");
        assert_eq!(s.max_msg_bits, 32);
    }

    #[test]
    fn run_rounds_is_exact() {
        let mut net = path_net(6);
        let out = net.run_rounds(3);
        assert_eq!(out.rounds, 3);
        assert_eq!(net.round(), 3);
    }

    #[test]
    fn quiet_detection() {
        // Nodes that send only in round 0 and never halt.
        struct OneShot;
        impl Protocol for OneShot {
            type Msg = u8;
            fn on_round(&mut self, ctx: &mut Ctx<'_, u8>, _inbox: Inbox<'_, u8>) {
                if ctx.round() == 0 {
                    ctx.send_all(1);
                }
            }
        }
        let topo = Topology::from_edges(3, &[(0, 1), (1, 2)]);
        let mut net = Network::new(topo, vec![OneShot, OneShot, OneShot], 0);
        let out = net.run_until_quiet(50);
        assert!(out.quiescent);
        assert!(out.rounds <= 4);
    }

    #[test]
    fn born_quiet_network_needs_one_round() {
        // Regression: a network in which nobody ever sends must be
        // declared quiescent after exactly one observation round, not
        // spin a gratuitous extra round (the old `rounds > 1` guard).
        struct Mute;
        impl Protocol for Mute {
            type Msg = u8;
            fn on_round(&mut self, _ctx: &mut Ctx<'_, u8>, _inbox: Inbox<'_, u8>) {}
        }
        let topo = Topology::from_edges(3, &[(0, 1), (1, 2)]);
        let mut net = Network::new(topo, vec![Mute, Mute, Mute], 0);
        let out = net.run_until_quiet(50);
        assert!(out.quiescent);
        assert_eq!(out.rounds, 1);
    }

    #[test]
    #[should_panic(expected = "did not halt")]
    fn halting_budget_enforced() {
        struct Chatty;
        impl Protocol for Chatty {
            type Msg = u8;
            fn on_round(&mut self, ctx: &mut Ctx<'_, u8>, _inbox: Inbox<'_, u8>) {
                ctx.send_all(0);
            }
        }
        let topo = Topology::from_edges(2, &[(0, 1)]);
        let mut net = Network::new(topo, vec![Chatty, Chatty], 0);
        net.run_until_halt(10);
    }

    #[test]
    fn halted_nodes_drop_mail() {
        struct HaltFirst {
            got: u64,
        }
        impl Protocol for HaltFirst {
            type Msg = u8;
            fn on_round(&mut self, ctx: &mut Ctx<'_, u8>, inbox: Inbox<'_, u8>) {
                self.got += inbox.len() as u64;
                if ctx.id() == 0 {
                    ctx.halt();
                } else if ctx.round() < 3 {
                    ctx.send_all(7);
                } else {
                    ctx.halt();
                }
            }
        }
        let topo = Topology::from_edges(2, &[(0, 1)]);
        let mut net = Network::new(topo, vec![HaltFirst { got: 0 }, HaltFirst { got: 0 }], 0);
        net.run_until_halt(20);
        // Node 0 halted in round 0 and never received node 1's messages.
        assert_eq!(net.nodes()[0].got, 0);
    }

    #[derive(Clone)]
    struct Probe {
        left: Option<u32>,
        right: Option<u32>,
    }

    impl Protocol for Probe {
        type Msg = u32;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u32>, inbox: Inbox<'_, u32>) {
            if ctx.round() == 0 {
                ctx.send_all(100 + ctx.id());
            } else if ctx.id() == 1 {
                self.left = inbox.get(0).copied();
                self.right = inbox.get(1).copied();
                assert_eq!(inbox.len(), 2);
                let seen: Vec<(u32, usize, u32)> =
                    inbox.iter().map(|e| (e.from, e.port, *e.msg)).collect();
                assert_eq!(seen, vec![(0, 0, 100), (2, 1, 102)]);
                ctx.halt();
            } else {
                ctx.halt();
            }
        }
    }

    #[test]
    fn inbox_is_port_indexed() {
        // Node 1 on a path 0-1-2 receives from both sides and can read
        // each port in O(1); ports are ordered by neighbor id.
        let topo = Topology::from_edges(3, &[(0, 1), (1, 2)]);
        let mut net = Network::new(
            topo,
            vec![
                Probe {
                    left: None,
                    right: None
                };
                3
            ],
            0,
        );
        net.run_rounds(2);
        assert_eq!(net.nodes()[1].left, Some(100));
        assert_eq!(net.nodes()[1].right, Some(102));
    }

    #[test]
    #[should_panic(expected = "duplicate send")]
    fn double_send_on_one_port_panics() {
        struct Doubler;
        impl Protocol for Doubler {
            type Msg = u8;
            fn on_round(&mut self, ctx: &mut Ctx<'_, u8>, _inbox: Inbox<'_, u8>) {
                ctx.send(0, 1);
                ctx.send(0, 2);
            }
        }
        let topo = Topology::from_edges(2, &[(0, 1)]);
        let mut net = Network::new(topo, vec![Doubler, Doubler], 0);
        net.step();
    }

    /// Counts everything it ever received, echoes on every port each
    /// round, and tracks rewires; per-port state is the receive count
    /// per port so remaps are observable.
    struct Echo {
        per_port: Vec<u64>,
        rewires: u64,
        born_seen: usize,
    }
    impl Protocol for Echo {
        type Msg = u32;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u32>, inbox: Inbox<'_, u32>) {
            for e in inbox.iter() {
                self.per_port[e.port] += 1;
            }
            if ctx.round() < 8 {
                ctx.send_all(ctx.id());
            }
        }
    }
    impl crate::network::Rewire for Echo {
        fn on_rewire(&mut self, ctx: &RewireCtx<'_>) {
            let mut per_port = vec![0u64; ctx.new_degree()];
            for (p, &c) in self.per_port.iter().enumerate() {
                if let Some(np) = ctx.new_port(p) {
                    per_port[np] = c;
                }
            }
            self.per_port = per_port;
            self.rewires += 1;
            self.born_seen += ctx.born_ports().len();
        }
    }

    fn echo_net(n: usize, edges: &[(u32, u32)]) -> Network<Echo> {
        let topo = Topology::from_edges(n, edges);
        let nodes = (0..n as u32)
            .map(|v| Echo {
                per_port: vec![0; topo.degree(v)],
                rewires: 0,
                born_seen: 0,
            })
            .collect();
        Network::new(topo, nodes, 5)
    }

    #[test]
    fn rewire_preserves_in_flight_mail_on_surviving_edges() {
        // Path 0-1-2: run one round (everyone sends), then rewire away
        // (1,2) and add (0,2) with the sends still in flight. Mail on
        // (0,1) must arrive; mail on (1,2) must vanish.
        let mut net = echo_net(3, &[(0, 1), (1, 2)]);
        net.step();
        assert_eq!(net.in_flight(), 4);
        let patch = net.topology().rewired(&[(1, 2)], &[(0, 2)]);
        net.rewire(&patch);
        assert_eq!(net.in_flight(), 2, "only the surviving edge's mail remains");
        net.step();
        // Node 0: received 1's round-0 send on port 0 (edge kept).
        assert_eq!(net.nodes()[0].per_port, vec![1, 0]);
        // Node 2 lost its only old edge; its in-flight mail died.
        assert_eq!(net.nodes()[2].per_port, vec![0]);
        assert!(net.nodes().iter().all(|n| n.rewires == 1));
        // Born ports: (0,2) seen at node 0 and node 2.
        assert_eq!(net.nodes()[0].born_seen, 1);
        assert_eq!(net.nodes()[2].born_seen, 1);
        assert_eq!(net.nodes()[1].born_seen, 0);
    }

    #[test]
    fn rewire_wakes_dirty_nodes_and_traffic_flows_on_new_edges() {
        let mut net = echo_net(4, &[(0, 1), (2, 3)]);
        net.run_rounds(2);
        let patch = net.topology().rewired(&[], &[(1, 2)]);
        net.rewire(&patch);
        net.run_rounds(2);
        // Node 1 now hears node 2 on its new port 1.
        assert!(net.nodes()[1].per_port[1] > 0, "new edge must carry mail");
        assert_eq!(net.topology().num_edges(), 3);
    }

    #[test]
    fn rewire_keeps_thread_count_bit_identity() {
        let run = |threads: usize| {
            let mut net = echo_net(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
                .with_threads(threads);
            net.run_rounds(3);
            let patch = net.topology().rewired(&[(2, 3), (5, 0)], &[(0, 3), (1, 4)]);
            net.rewire(&patch);
            net.run_rounds(3);
            let states: Vec<Vec<u64>> = net.nodes().iter().map(|n| n.per_port.clone()).collect();
            (states, net.stats().clone())
        };
        let (s1, st1) = run(1);
        let (s8, st8) = run(8);
        assert_eq!(s1, s8);
        assert_eq!(st1, st8);
    }

    /// Sleeps whenever its inbox is empty; logs every round it runs.
    struct Sleeper {
        stepped_at: Vec<u64>,
    }
    impl Protocol for Sleeper {
        type Msg = u8;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u8>, inbox: Inbox<'_, u8>) {
            self.stepped_at.push(ctx.round());
            if inbox.is_empty() {
                ctx.sleep();
            }
        }
    }

    /// Pings port 0 at fixed rounds, never sleeps, halts at the end.
    struct Pinger {
        at: Vec<u64>,
    }
    impl Protocol for Pinger {
        type Msg = u8;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u8>, _inbox: Inbox<'_, u8>) {
            if self.at.contains(&ctx.round()) {
                ctx.send(0, 1);
            }
            if ctx.round() >= *self.at.iter().max().unwrap() + 2 {
                ctx.halt();
            }
        }
    }

    #[test]
    fn mail_wakes_a_sleeping_node_in_both_modes() {
        let run = |sched: SchedMode| {
            let topo = Topology::from_edges(2, &[(0, 1)]);
            // Node 1 is a Sleeper reached through node 0's port 0.
            struct Pair;
            let _ = Pair; // (nodes are heterogeneous via an enum below)
            #[allow(clippy::large_enum_variant)]
            enum N {
                P(Pinger),
                S(Sleeper),
            }
            impl Protocol for N {
                type Msg = u8;
                fn on_round(&mut self, ctx: &mut Ctx<'_, u8>, inbox: Inbox<'_, u8>) {
                    match self {
                        N::P(p) => p.on_round(ctx, inbox),
                        N::S(s) => s.on_round(ctx, inbox),
                    }
                }
            }
            let nodes = vec![
                N::P(Pinger { at: vec![3, 7] }),
                N::S(Sleeper {
                    stepped_at: Vec::new(),
                }),
            ];
            let mut net = Network::new(topo, nodes, 1).with_sched(sched);
            net.run_rounds(12);
            let log = match &net.nodes()[1] {
                N::S(s) => s.stepped_at.clone(),
                _ => unreachable!(),
            };
            (log, net.stats().clone())
        };
        let (log_s, stats_s) = run(SchedMode::Sparse);
        let (log_d, stats_d) = run(SchedMode::Dense);
        // The sleeper runs in round 0, then when mail arrives (one
        // round after each ping), plus one more round each time to
        // re-assert sleep (it only calls `sleep` on an empty inbox).
        assert_eq!(log_s, vec![0, 4, 5, 8, 9]);
        assert_eq!(log_d, log_s, "dense and sparse stepped sets diverged");
        assert_eq!(stats_s.node_steps, stats_d.node_steps);
        assert_eq!(stats_s.messages, stats_d.messages);
    }

    #[test]
    fn sparse_round_cost_tracks_active_nodes() {
        // A path of sleepers: after round 0 everyone is asleep and the
        // wake list is empty, so rounds step zero nodes.
        let topo = Topology::from_edges(64, &(0..63).map(|i| (i, i + 1)).collect::<Vec<_>>());
        let nodes = (0..64)
            .map(|_| Sleeper {
                stepped_at: Vec::new(),
            })
            .collect();
        let mut net = Network::new(topo, nodes, 3);
        net.run_rounds(5);
        let s = net.stats();
        assert_eq!(s.per_round[0].active, 64, "round 0 steps everyone");
        assert!(
            s.per_round[1..].iter().all(|r| r.active == 0),
            "sleeping nodes must not be stepped"
        );
        assert_eq!(s.node_steps, 64);
        assert!(!net.all_halted(), "sleeping is not halting");
    }

    #[test]
    fn explicit_wake_schedules_a_sleeper() {
        let topo = Topology::from_edges(3, &[(0, 1), (1, 2)]);
        let nodes = (0..3)
            .map(|_| Sleeper {
                stepped_at: Vec::new(),
            })
            .collect();
        let mut net = Network::new(topo, nodes, 9);
        net.run_rounds(3);
        assert_eq!(net.nodes()[1].stepped_at, vec![0]);
        net.wake(1);
        net.run_rounds(2);
        assert_eq!(net.nodes()[1].stepped_at, vec![0, 3]);
        assert_eq!(net.nodes()[0].stepped_at, vec![0], "others stay asleep");
    }

    #[test]
    fn halting_maintains_the_live_counter() {
        let mut net = path_net(10);
        assert_eq!(net.live_nodes(), 10);
        net.run_until_halt(100);
        assert_eq!(net.live_nodes(), 0);
        assert!(net.all_halted());
    }

    #[test]
    fn steady_state_allocates_nothing() {
        let mut net = path_net(12);
        net.run_until_halt(100);
        let s = net.stats();
        // All plane allocations happen at construction, charged to the
        // first round's gauge; every later round must be zero.
        assert!(s.per_round[0].plane_allocs > 0);
        assert!(s.per_round[1..].iter().all(|r| r.plane_allocs == 0));
        assert_eq!(s.plane_allocs, s.per_round[0].plane_allocs);
        assert!(s.peak_inbox >= 1);
    }
}
