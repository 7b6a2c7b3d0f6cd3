//! The round executor: one node kernel, stepped in chunks.
//!
//! Within one synchronous round, nodes are independent: each reads only
//! its own inbox and state. A round is therefore one map over the
//! scheduled nodes, and the executor runs it as one or more **chunks**:
//! contiguous node-id ranges, each stepped by one worker. The message
//! plane partitions with them: a chunk's nodes own a contiguous slice
//! of the outgoing slab (their port ranges) via `split_at_mut` — no
//! locks, no unsafe, no per-round allocation. The previous round's slab
//! is read shared by every chunk.
//!
//! A round with one worker is a single chunk spanning the network,
//! stepped on the caller's thread: no thread scope, no cut search, and
//! its sender list is swapped in rather than merged. A round with
//! `k > 1` workers spawns `k - 1` scoped threads and steps chunk 0 on
//! the caller's thread.
//!
//! Three decisions shape a round; none of them may influence results
//! (see *Determinism* below):
//!
//! 1. **Representation** — the judge in [`crate::Network::step`]
//!    picks the sparse wake list or the dense flag sweep *before*
//!    execution strategy is considered (threshold
//!    `active ≥ n / HYBRID_DENSE_DIV`, with hysteresis; see
//!    [`crate::Network`]).
//! 2. **Fan-out** — a sparse round is always one chunk. The judge
//!    sends a round dense once its wake list holds `n / 8` nodes, so a
//!    sparse round would reach two workers' floor only on networks of
//!    more than `16 · MIN_STEPS_PER_WORKER` nodes (or in the one round
//!    after a switch back from dense, whose rebuilt list the judge
//!    does not re-check). A dense round uses
//!    `min(threads, cores, expected / MIN_STEPS_PER_WORKER)` workers,
//!    and at least one, where `expected` is the previous round's
//!    stepped count. A 1-core box, a small network, or a quiet tail
//!    never pays thread-spawn latency.
//! 3. **Chunking** — a dense round's id space is cut into chunks of
//!    roughly equal *incident-edge* weight (`degree + NODE_COST` per
//!    node), not equal node count. Equal-count contiguous ranges lose
//!    badly on heavy-tailed (Chung–Lu / Barabási–Albert) graphs, where
//!    one chunk owns the hub star and every other worker idles at the
//!    join barrier.
//!
//! The next frontier is collected only by sparse rounds, on the
//! caller's thread: the nodes that stay awake are pushed onto
//! `wake_next` in node order, and delivery appends the nodes its mail
//! wakes. A dense round keeps no list: the flags it sweeps are the
//! frontier.
//!
//! # Determinism
//!
//! A round's results are bit-identical for every worker count in both
//! representations — asserted by the tests below, which also pin each
//! representation in turn, and by the workspace-level identity suites,
//! which compare one-chunk rounds against forced k-chunk dense rounds —
//! because
//!
//! 1. every node draws from its own RNG stream,
//! 2. inbox order is positional (ports), independent of scheduling,
//! 3. delivery accounting (and the fault-injection RNG stream) runs
//!    sequentially after the join, walking senders in node order —
//!    chunks record senders separately and are merged in node order
//!    (chunks are id-sorted, so the merge is a concatenation), and
//! 4. the fan-out rule and the judge only choose *how* the round
//!    executes, never *what* it computes. Both are pure functions of
//!    node counts (and, for fan-out, the host's core count), so the
//!    representation sequence and with it the `sched_overhead` trace
//!    (the one gauge that depends on the representation) reproduce at
//!    every worker count, and `peak_workers` and a trace's worker
//!    tracks reproduce from run to run.

use crate::mailbox::{Inbox, Slab};
use crate::network::{split_planes, Ctx, Network, Protocol, WorkerScratch};
use crate::rng::SplitMix64;
use crate::stats::timing;
use crate::topology::{NodeId, Topology};
use std::time::Instant;

/// Fixed per-node step cost, in units of "one incident port", used by
/// the degree-weighted chunker: a node's weight is
/// `degree + NODE_COST`, so isolated or low-degree nodes still count
/// toward chunk balance (inbox setup, RNG, protocol dispatch are not
/// free) while hubs dominate, as they should.
const NODE_COST: usize = 8;

/// Expected node steps a round must offer *per worker* before it fans
/// out. Scoped threads are spawned and joined every parallel round, and
/// a worker pays for its spawn only when it takes this many steps off
/// the caller's thread. Set with E19 on a 2-core host: a full-activity
/// round of `gnp(8000, d̄=8)` stays on one worker (split in two it
/// lost), one of `gnp(32000, d̄=8)` is split in two.
pub(crate) const MIN_STEPS_PER_WORKER: usize = 10_000;

/// Machine parallelism, probed once (`available_parallelism` performs
/// affinity/cgroup syscalls; the core count cannot change meaningfully
/// mid-run).
pub(crate) fn hw_parallelism() -> usize {
    static HW: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    // dlint::allow(ambient-env, "the one sanctioned probe: caps the fan-out rule's worker count; results are bit-identical for every worker count by the parallel-equivalence suite")
    *HW.get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// The fan-out rule: how many workers a round that expects `expected`
/// node steps uses, under a ceiling of `threads` on a host with `cores`
/// cores. One worker per `MIN_STEPS_PER_WORKER` expected steps, and at
/// least one, which means the round is a single chunk on the caller's
/// thread.
pub(crate) fn fan_out(threads: usize, cores: usize, expected: usize) -> usize {
    threads
        .min(cores)
        .min(expected / MIN_STEPS_PER_WORKER)
        .max(1)
}

/// Slab offset of node `v`'s first port; `v = n` maps to the end of the
/// slab, so a chunk ending before node `n` owns the slab's tail.
fn port_start(topo: &Topology, v: usize) -> usize {
    if v < topo.len() {
        topo.port_base(v as NodeId)
    } else {
        topo.total_ports()
    }
}

/// What every chunk of a round reads shared: the topology, last round's
/// slab, and the inbox counts delivery left for this round.
struct RoundView<'a, M> {
    topo: &'a Topology,
    in_plane: &'a Slab<M>,
    inbox_count: &'a [u32],
    inbox_count_round: &'a [u64],
    round: u64,
    /// Generation this round's sends are stamped with.
    out_gen: u64,
}

impl<M> RoundView<'_, M> {
    /// Messages waiting for node `v` this round.
    #[inline]
    fn mail(&self, v: usize) -> u32 {
        if self.inbox_count_round[v] == self.round {
            self.inbox_count[v]
        } else {
            0
        }
    }
}

/// One worker's share of a round: nodes `first..first + nodes.len()`
/// (every per-node slice is indexed chunk-locally) and their ports of
/// the outgoing slab, which start at slab offset `port_base`.
struct Chunk<'a, P: Protocol> {
    first: usize,
    port_base: usize,
    nodes: &'a mut [P],
    rngs: &'a mut [SplitMix64],
    halted: &'a mut [bool],
    dozing: &'a mut [bool],
    stamp: &'a mut [u64],
    msg: &'a mut [Option<P::Msg>],
}

/// Detach and return the first `k` elements of `*s`, leaving the rest.
fn split_front<'a, T>(s: &mut &'a mut [T], k: usize) -> &'a mut [T] {
    let (head, tail) = std::mem::take(s).split_at_mut(k);
    *s = tail;
    head
}

impl<P: Protocol> Chunk<'_, P> {
    /// Detach and return the nodes before `end` with their ports;
    /// `self` keeps `end..`.
    fn take_front(&mut self, topo: &Topology, end: usize) -> Self {
        let port_end = port_start(topo, end);
        let nodes = end - self.first;
        let ports = port_end - self.port_base;
        let head = Chunk {
            first: self.first,
            port_base: self.port_base,
            nodes: split_front(&mut self.nodes, nodes),
            rngs: split_front(&mut self.rngs, nodes),
            halted: split_front(&mut self.halted, nodes),
            dozing: split_front(&mut self.dozing, nodes),
            stamp: split_front(&mut self.stamp, ports),
            msg: split_front(&mut self.msg, ports),
        };
        self.first = end;
        self.port_base = port_end;
        head
    }

    /// The node kernel: step chunk-local node `i`, which has `count`
    /// messages waiting, and record it in `scratch`. Returns whether
    /// the node stays awake (called neither halt nor sleep). Always
    /// inlined: both loops call it once per node step, and a call there
    /// measurably slowed rounds that step only a few nodes.
    #[inline(always)]
    fn step_node(
        &mut self,
        view: &RoundView<'_, P::Msg>,
        i: usize,
        count: u32,
        scratch: &mut WorkerScratch,
    ) -> bool {
        let v = (self.first + i) as NodeId;
        scratch.stepped += 1;
        self.dozing[i] = false;
        let inbox = Inbox::new(view.topo, v, view.in_plane, count);
        let base = view.topo.port_base(v) - self.port_base;
        let ports = base..base + view.topo.degree(v);
        let mut sent_any = false;
        let mut ctx = Ctx::new(
            v,
            view.round,
            view.topo,
            &mut self.rngs[i],
            &mut self.stamp[ports.clone()],
            &mut self.msg[ports],
            view.out_gen,
            &mut sent_any,
            &mut self.halted[i],
            &mut self.dozing[i],
        );
        self.nodes[i].on_round(&mut ctx, inbox);
        if sent_any {
            scratch.touched.push(v);
        }
        if self.halted[i] {
            scratch.halts += 1;
            return false;
        }
        !self.dozing[i]
    }

    /// Dense sweep of the chunk: step every live node that is awake or
    /// has mail.
    #[inline]
    fn run_dense(&mut self, view: &RoundView<'_, P::Msg>, scratch: &mut WorkerScratch) {
        scratch.prepare(self.nodes.len());
        for i in 0..self.nodes.len() {
            if self.halted[i] {
                continue;
            }
            let count = view.mail(self.first + i);
            if self.dozing[i] && count == 0 {
                continue; // asleep and no mail: contract says skip
            }
            self.step_node(view, i, count, scratch);
        }
    }

    /// Sparse drain of the wake list `wake` by the chunk spanning the
    /// network, whose chunk-local indices are node ids: step every
    /// valid entry, and stamp and push onto `next` the nodes that stay
    /// awake.
    #[inline]
    fn run_sparse(
        &mut self,
        view: &RoundView<'_, P::Msg>,
        wake: &[NodeId],
        wake_stamp: &mut [u64],
        next: &mut Vec<NodeId>,
        scratch: &mut WorkerScratch,
    ) {
        debug_assert_eq!(self.first, 0, "a sparse round is one chunk");
        scratch.prepare(wake.len());
        for &vid in wake {
            let v = vid as usize;
            if self.halted[v] || wake_stamp[v] != view.round {
                continue; // stale entry (e.g. woken then halted)
            }
            if self.step_node(view, v, view.mail(v), scratch) {
                // Staying awake is the default.
                wake_stamp[v] = view.round + 1;
                next.push(vid);
            }
        }
    }
}

/// A round opened on a network: the shared view, the chunk spanning
/// every node, the scratch of `workers` workers, and the wake list
/// state a sparse round reads and writes.
struct Round<'a, P: Protocol> {
    view: RoundView<'a, P::Msg>,
    whole: Chunk<'a, P>,
    scratch: &'a mut [WorkerScratch],
    wake_cur: &'a [NodeId],
    wake_stamp: &'a mut [u64],
    wake_next: &'a mut Vec<NodeId>,
}

/// Advance this round's out slab and split `net` into a [`Round`].
#[inline]
fn open_round<P: Protocol>(net: &mut Network<P>, workers: usize) -> Round<'_, P> {
    if net.workers.len() < workers {
        net.workers.resize_with(workers, WorkerScratch::default);
    }
    let round = net.round;
    let (out_plane, in_plane) = split_planes(&mut net.planes, round);
    out_plane.advance();
    Round {
        view: RoundView {
            topo: &net.topo,
            in_plane,
            inbox_count: &net.inbox_count,
            inbox_count_round: &net.inbox_count_round,
            round,
            out_gen: out_plane.gen,
        },
        whole: Chunk {
            first: 0,
            port_base: 0,
            nodes: &mut net.nodes,
            rngs: &mut net.rngs,
            halted: &mut net.halted,
            dozing: &mut net.dozing,
            stamp: &mut out_plane.stamp,
            msg: &mut out_plane.msg,
        },
        scratch: &mut net.workers[..workers],
        wake_cur: &net.wake_cur,
        wake_stamp: &mut net.wake_stamp,
        wake_next: &mut net.wake_next,
    }
}

/// Step `chunks` (id-ascending, at most one per scratch): chunk 0 on
/// the caller's thread, the rest on scoped threads. When a flight
/// recorder is installed, each worker stamps its span bounds into its
/// scratch against the recorder's clock base (workers cannot reach the
/// caller's thread-local recorder); the merge emits the events.
/// Returns the number of chunks stepped.
fn run_chunks<T: Send>(
    scratch: &mut [WorkerScratch],
    chunks: impl Iterator<Item = T>,
    step: impl Fn(T, &mut WorkerScratch) + Sync,
) -> usize {
    let trace_epoch = dobs::plane::epoch();
    let work = |chunk: T, s: &mut WorkerScratch| {
        if let Some(epoch) = trace_epoch {
            s.span_t0_ns = epoch.elapsed().as_nanos() as u64;
        }
        step(chunk, s);
        if let Some(epoch) = trace_epoch {
            s.span_t1_ns = epoch.elapsed().as_nanos() as u64;
        }
    };
    let mut stepped = 0usize;
    std::thread::scope(|scope| {
        let mut caller = None;
        for (chunk, s) in chunks.zip(scratch.iter_mut()) {
            stepped += 1;
            if caller.is_none() {
                caller = Some((chunk, s));
            } else {
                let work = &work;
                scope.spawn(move || work(chunk, s));
            }
        }
        if let Some((chunk, s)) = caller {
            work(chunk, s);
        }
    });
    stepped
}

/// Dense round with `workers` chunks of the id space `0..n`, cut at
/// roughly equal `ports + NODE_COST·nodes` weight (cut points found by
/// binary search over the CSR offsets — O(workers · log n), no
/// prefix-sum array).
#[inline]
pub(crate) fn step_dense<P: Protocol>(net: &mut Network<P>, workers: usize) -> u64 {
    let n = net.topo.len();
    let Round {
        view,
        mut whole,
        scratch,
        ..
    } = open_round(net, workers);
    let stepped = if workers == 1 {
        whole.run_dense(&view, &mut scratch[0]);
        settle_single_chunk(net)
    } else {
        let topo = view.topo;
        // Weighted prefix position of node v: ports before v plus the
        // fixed per-node cost. Monotone in v, so cuts binary-search it.
        let wpos = |v: usize| (port_start(topo, v) + NODE_COST * v) as u64;
        let total_w = wpos(n);
        let cut = |k: usize| -> usize {
            if k >= workers {
                return n;
            }
            let target = total_w * k as u64 / workers as u64;
            let (mut lo, mut hi) = (0usize, n);
            while lo < hi {
                let mid = (lo + hi) / 2;
                if wpos(mid) < target {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            lo
        };
        // A cut at or before the previous one yields no chunk (a hub
        // swallowed that cut's weight share).
        let chunks = (1..=workers).filter_map(|k| {
            let end = cut(k);
            (end > whole.first).then(|| whole.take_front(topo, end))
        });
        let spawned = run_chunks(scratch, chunks, |mut chunk, s| chunk.run_dense(&view, s));
        merge_worker_scratch(net, spawned)
    };
    net.finish_round(stepped, n as u64 - stepped)
}

/// Sparse round: one chunk on the caller's thread drains the wake list
/// (see *Fan-out* above for why it never fans out).
#[inline]
pub(crate) fn step_sparse<P: Protocol>(net: &mut Network<P>) -> u64 {
    // Auto-reschedules arrive in node order but delivery wake-ups do
    // not; one cheap mostly-sorted pass restores the ascending order
    // delivery (and the loss RNG stream) depends on.
    if !net.wake_cur.is_sorted() {
        net.wake_cur.sort_unstable();
    }
    let active = net.wake_cur.len();
    // Capacity n was reserved at construction, and a node is pushed at
    // most once per round, so the pushes never allocate.
    net.wake_next.clear();
    let Round {
        view,
        mut whole,
        scratch,
        wake_cur,
        wake_stamp,
        wake_next,
    } = open_round(net, 1);
    whole.run_sparse(&view, wake_cur, wake_stamp, wake_next, &mut scratch[0]);
    let stepped = settle_single_chunk(net);
    net.finish_round(stepped, active as u64 - stepped)
}

/// Settle a one-chunk round: its sender list is the round's, so it is
/// swapped in rather than copied.
#[inline]
fn settle_single_chunk<P: Protocol>(net: &mut Network<P>) -> u64 {
    let w = &mut net.workers[0];
    std::mem::swap(&mut net.touched, &mut w.touched);
    net.live -= w.halts as usize;
    w.stepped
}

/// Merge per-chunk sender buffers (concatenation — chunks are
/// id-ordered and internally ascending, so chunk order preserves the
/// global node order delivery depends on) and settle the halt counter.
fn merge_worker_scratch<P: Protocol>(net: &mut Network<P>, spawned: usize) -> u64 {
    // dlint::allow(wall-clock, "timing gauge only: merge duration feeds the histogram, never steers execution")
    let t0 = net.timing.then(Instant::now);
    let traced = dobs::plane::enabled();
    let merge_t0 = if traced { dobs::plane::now_ns() } else { 0 };
    // 1-based round number the spans belong to (`finish_round` has not
    // incremented `net.round` yet).
    let span_round = net.round + 1;
    net.touched.clear();
    let mut stepped = 0u64;
    // `workers` is borrowed disjointly from `touched`, but the borrow
    // checker cannot see that through `net`; split at the field level
    // instead.
    let workers = std::mem::take(&mut net.workers);
    for (k, w) in workers[..spawned].iter().enumerate() {
        net.touched.extend_from_slice(&w.touched);
        stepped += w.stepped;
        net.live -= w.halts as usize;
        if traced {
            dobs::plane::record(dobs::Event::WorkerSpan {
                round: span_round,
                worker: k as u32,
                t0_ns: w.span_t0_ns,
                t1_ns: w.span_t1_ns,
                nodes: w.stepped,
            });
        }
    }
    net.workers = workers;
    if let Some(t0) = t0 {
        net.stats
            .timings
            .record(timing::MERGE_NS, t0.elapsed().as_nanos() as u64);
    }
    if traced {
        dobs::plane::record(dobs::Event::MergeSpan {
            round: span_round,
            t0_ns: merge_t0,
            t1_ns: dobs::plane::now_ns(),
        });
    }
    stepped
}

#[cfg(test)]
mod tests {
    use super::{fan_out, hw_parallelism, MIN_STEPS_PER_WORKER};
    use crate::{Ctx, ExecCfg, FaultPlan, Inbox, Network, Protocol, Topology};

    /// A protocol with both randomness and message traffic, to stress
    /// determinism: nodes gossip random tokens and keep a running hash.
    #[derive(Clone)]
    struct Gossip {
        acc: u64,
    }
    impl Protocol for Gossip {
        type Msg = u64;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: Inbox<'_, u64>) {
            for e in inbox.iter() {
                self.acc = self.acc.rotate_left(7) ^ *e.msg;
            }
            if ctx.round() < 20 {
                let token = ctx.rng().next();
                ctx.send_all(token ^ self.acc);
            } else {
                ctx.halt();
            }
        }
    }

    fn random_topo(n: usize, seed: u64) -> Topology {
        let mut rng = crate::SplitMix64::new(seed);
        let mut edges = Vec::new();
        // Path for connectivity plus random chords.
        for i in 0..n as u32 - 1 {
            edges.push((i, i + 1));
        }
        for _ in 0..n {
            let u = rng.below(n as u64) as u32;
            let v = rng.below(n as u64) as u32;
            if u != v && u + 1 != v && v + 1 != u && !edges.contains(&(u.min(v), u.max(v))) {
                edges.push((u.min(v), u.max(v)));
            }
        }
        Topology::from_edges(n, &edges)
    }

    /// A star with `n-1` leaves: the degenerate hub workload that
    /// equal-count chunking mishandles (one chunk owns all the ports).
    fn star_topo(n: usize) -> Topology {
        let hub = (n / 2) as u32; // mid-id hub: cuts must split around it
        let edges: Vec<(u32, u32)> = (0..n as u32)
            .filter(|&v| v != hub)
            .map(|v| (v.min(hub), v.max(hub)))
            .collect();
        Topology::from_edges(n, &edges)
    }

    /// The judge, and each representation pinned for every round (the
    /// dense sweep is the wake list's test oracle).
    fn all_scheds() -> [(&'static str, Option<bool>); 3] {
        [
            ("judge", None),
            ("sparse", Some(false)),
            ("dense", Some(true)),
        ]
    }

    #[test]
    fn parallel_equals_sequential() {
        let topo = random_topo(64, 3);
        let mk = || (0..64).map(|_| Gossip { acc: 0 }).collect::<Vec<_>>();

        let mut seq = Network::new(topo.clone(), mk(), 17);
        seq.run_until_halt(100);

        for (sched, pin) in all_scheds() {
            for threads in [2, 3, 8] {
                let mut par = Network::new(topo.clone(), mk(), 17)
                    .with_cfg(ExecCfg::parallel(threads))
                    .pinned(pin);
                par.run_until_halt(100);
                for (a, b) in seq.nodes().iter().zip(par.nodes()) {
                    assert_eq!(a.acc, b.acc, "divergence with {threads} threads ({sched})");
                }
                assert_eq!(seq.stats().messages, par.stats().messages);
                assert_eq!(seq.stats().bits, par.stats().bits);
                assert_eq!(seq.stats().peak_inbox, par.stats().peak_inbox);
                assert_eq!(seq.stats().node_steps, par.stats().node_steps);
            }
        }
    }

    #[test]
    fn parallel_equals_sequential_under_loss() {
        let topo = random_topo(48, 5);
        let mk = || (0..48).map(|_| Gossip { acc: 0 }).collect::<Vec<_>>();

        let lossy = |cfg: ExecCfg| cfg.with_faults(FaultPlan::drop(0.15));
        let mut seq = Network::new(topo.clone(), mk(), 23).with_cfg(lossy(ExecCfg::sequential()));
        seq.run_until_halt(100);
        let mut par =
            Network::new(topo.clone(), mk(), 23).with_cfg(lossy(ExecCfg::parallel(4).forced()));
        par.run_until_halt(100);
        assert_eq!(seq.dropped(), par.dropped(), "loss RNG streams must align");
        for (a, b) in seq.nodes().iter().zip(par.nodes()) {
            assert_eq!(a.acc, b.acc);
        }
        assert_eq!(seq.stats(), par.stats());
    }

    #[test]
    fn more_threads_than_nodes() {
        let topo = Topology::from_edges(3, &[(0, 1), (1, 2)]);
        let nodes = vec![Gossip { acc: 0 }, Gossip { acc: 0 }, Gossip { acc: 0 }];
        let mut net = Network::new(topo, nodes, 9).with_cfg(ExecCfg::parallel(64).forced());
        net.run_until_halt(100);
        assert!(net.all_halted());
    }

    /// Force true multi-worker execution — the fan-out floor would
    /// otherwise keep every test-sized (and every single-core-machine)
    /// round on one chunk, leaving the cuts and the merge untested.
    /// `ExecCfg::forced` gives every dense round one worker per
    /// requested thread regardless of machine or workload; chunk 0 runs
    /// on the caller's thread. Sparse rounds stay on one chunk, so the
    /// run pinned to the wake list never fans out.
    #[test]
    fn forced_workers_stay_identical_in_all_modes() {
        let n = 64;
        let topo = random_topo(n, 11);
        let mk = || (0..n).map(|_| Gossip { acc: 0 }).collect::<Vec<_>>();
        let mut seq = Network::new(topo.clone(), mk(), 29);
        seq.run_until_halt(100);
        for (sched, pin) in all_scheds() {
            for threads in [2, 3, 7] {
                let mut par = Network::new(topo.clone(), mk(), 29)
                    .with_cfg(ExecCfg::parallel(threads).forced())
                    .pinned(pin);
                par.run_until_halt(100);
                assert!(
                    seq.nodes()
                        .iter()
                        .zip(par.nodes())
                        .all(|(a, b)| a.acc == b.acc),
                    "forced {threads}-worker {sched} diverged"
                );
                assert_eq!(seq.stats().messages, par.stats().messages);
                assert_eq!(seq.stats().node_steps, par.stats().node_steps);
                assert_eq!(seq.stats().peak_inbox, par.stats().peak_inbox);
                if pin == Some(false) {
                    assert_eq!(par.peak_workers(), 1, "a sparse round fanned out");
                } else {
                    assert!(par.peak_workers() >= 2, "no round actually fanned out");
                }
            }
        }
    }

    /// The degree-weighted chunker on the degenerate hub topology: the
    /// star's center owns ~all ports, so weighted cuts collapse most
    /// workers onto tiny id ranges around it. Results must still be
    /// bit-identical, in both representations and under the judge.
    #[test]
    fn forced_workers_balance_a_star() {
        let n = 65;
        let topo = star_topo(n);
        let mk = || (0..n).map(|_| Gossip { acc: 0 }).collect::<Vec<_>>();
        let mut seq = Network::new(topo.clone(), mk(), 41);
        seq.run_until_halt(100);
        for (sched, pin) in all_scheds() {
            for threads in [2, 4, 8] {
                let mut par = Network::new(topo.clone(), mk(), 41)
                    .with_cfg(ExecCfg::parallel(threads).forced())
                    .pinned(pin);
                par.run_until_halt(100);
                assert!(
                    seq.nodes()
                        .iter()
                        .zip(par.nodes())
                        .all(|(a, b)| a.acc == b.acc),
                    "star with {threads} workers ({sched}) diverged"
                );
                assert_eq!(seq.stats().messages, par.stats().messages);
                assert_eq!(seq.stats().node_steps, par.stats().node_steps);
            }
        }
    }

    /// Once nodes sleep or halt, the nodes a round steps leave gaps in
    /// the id range the dense cuts split. Mix sleepers (every third
    /// node parks between pings) and early-halting nodes into the
    /// gossip so forced multi-worker rounds must cut the slab around
    /// real gaps, and compare the full stats against one-chunk
    /// execution in the same representation.
    #[derive(Clone)]
    struct Patchy {
        acc: u64,
    }
    impl Protocol for Patchy {
        type Msg = u64;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: Inbox<'_, u64>) {
            for e in inbox.iter() {
                self.acc = self.acc.rotate_left(5) ^ *e.msg;
            }
            let id = ctx.id();
            if id % 5 == 4 && ctx.round() >= 3 {
                ctx.halt(); // punch permanent holes in the id space
                return;
            }
            if id.is_multiple_of(3) && !ctx.round().is_multiple_of(4) {
                ctx.sleep(); // transient holes: woken by gossip mail
                return;
            }
            if ctx.round() < 24 {
                let token = ctx.rng().next();
                ctx.send_all(token ^ self.acc);
            } else {
                ctx.halt();
            }
        }
    }

    #[test]
    fn forced_workers_cut_a_gappy_id_range() {
        let n = 97; // odd size: uneven chunks
        let topo = random_topo(n, 13);
        let mk = || (0..n).map(|_| Patchy { acc: 0 }).collect::<Vec<_>>();
        for (sched, pin) in [("judge", None), ("dense", Some(true))] {
            let mut seq = Network::new(topo.clone(), mk(), 31).pinned(pin);
            seq.run_rounds(30);
            for threads in [2, 5, 8] {
                let mut par = Network::new(topo.clone(), mk(), 31)
                    .with_cfg(ExecCfg::parallel(threads).forced())
                    .pinned(pin);
                par.run_rounds(30);
                assert!(
                    seq.nodes()
                        .iter()
                        .zip(par.nodes())
                        .all(|(a, b)| a.acc == b.acc),
                    "{threads} forced workers ({sched}) diverged on a gappy id range"
                );
                assert_eq!(
                    seq.stats(),
                    par.stats(),
                    "{threads} workers ({sched}): stats diverged"
                );
            }
        }
    }

    /// Gossip that ebbs: everyone talks for four rounds, then only every
    /// 32nd node stays awake and pings every fifth round, while the
    /// rest sleep until mail wakes them. The judge runs the loud rounds
    /// dense and most quiet ones sparse.
    #[derive(Clone)]
    struct Ebb {
        acc: u64,
    }
    impl Protocol for Ebb {
        type Msg = u64;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: Inbox<'_, u64>) {
            for e in inbox.iter() {
                self.acc = self.acc.rotate_left(3) ^ *e.msg;
            }
            let round = ctx.round();
            let pinger = ctx.id().is_multiple_of(32);
            if round < 4 || (pinger && round.is_multiple_of(5)) {
                let token = ctx.rng().next();
                ctx.send_all(token ^ self.acc);
            }
            if round >= 4 && !pinger {
                ctx.sleep();
            }
        }
    }

    /// Forced fan-out reaches dense rounds only: every sparse round of
    /// a traced run is one chunk on the caller's thread, dense rounds
    /// still split, and the run equals a sequential one.
    #[test]
    fn forced_sparse_rounds_stay_on_one_chunk() {
        let n = 256;
        let topo = random_topo(n, 17);
        let mk = || (0..n).map(|_| Ebb { acc: 0 }).collect::<Vec<_>>();
        let mut seq = Network::new(topo.clone(), mk(), 37);
        seq.run_rounds(40);
        let mut par = Network::new(topo.clone(), mk(), 37).with_cfg(ExecCfg::parallel(3).forced());
        let session = dobs::TraceSession::start(1 << 12);
        par.run_rounds(40);
        let spans: Vec<(bool, u32)> = session
            .finish()
            .events()
            .filter_map(|e| match *e {
                dobs::Event::RoundSpan { dense, workers, .. } => Some((dense, workers)),
                _ => None,
            })
            .collect();
        assert_eq!(spans.len(), 40);
        assert!(spans.iter().any(|&(dense, _)| !dense), "no sparse round");
        for &(dense, workers) in &spans {
            assert!(dense || workers == 0, "a sparse round fanned out");
        }
        assert!(
            spans.iter().any(|&(dense, workers)| dense && workers >= 2),
            "no dense round fanned out"
        );
        assert!(seq
            .nodes()
            .iter()
            .zip(par.nodes())
            .all(|(a, b)| a.acc == b.acc));
        assert_eq!(seq.stats(), par.stats());
    }

    #[test]
    fn dense_mode_wake_does_not_grow_the_wake_list() {
        let topo = Topology::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let nodes = (0..4).map(|_| Gossip { acc: 0 }).collect::<Vec<_>>();
        let mut net = Network::new(topo, nodes, 5).pinned(Some(true));
        let baseline = net.wake_cur.len();
        for _ in 0..50 {
            net.wake(2);
            net.step();
        }
        assert!(
            net.wake_cur.len() <= baseline,
            "dense-mode wake() must not accumulate wake-list entries"
        );
    }

    // -- The fan-out rule. ---------------------------------------------

    #[test]
    fn fan_out_rule_table() {
        let floor = MIN_STEPS_PER_WORKER;
        // ((threads, cores, expected), workers)
        let table = [
            ((1, 8, 100 * floor), 1), // one thread requested
            ((8, 1, 100 * floor), 1), // one core
            ((8, 8, 0), 1),           // an empty round
            ((8, 8, floor - 1), 1),   // below the floor
            ((8, 8, 2 * floor - 1), 1),
            ((8, 8, 2 * floor), 2),
            ((8, 8, 5 * floor + 1), 5), // the floor caps the fan-out
            ((8, 8, 100 * floor), 8),   // far above: min(threads, cores)
            ((4, 16, 100 * floor), 4),
            ((16, 4, 100 * floor), 4),
        ];
        for ((threads, cores, expected), workers) in table {
            assert_eq!(
                fan_out(threads, cores, expected),
                workers,
                "fan_out({threads}, {cores}, {expected})"
            );
        }
    }

    /// `G(n, p)` by one coin flip per node pair.
    fn gnp_topo(n: usize, p: f64, seed: u64) -> Topology {
        let mut rng = crate::SplitMix64::new(seed);
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for v in u + 1..n as u32 {
                if rng.bernoulli(p) {
                    edges.push((u, v));
                }
            }
        }
        Topology::from_edges(n, &edges)
    }

    /// Every round of a 3000-node network expects fewer steps than two
    /// workers' floor, so a fresh network never spawns — not even once
    /// to try a parallel round.
    #[test]
    fn fresh_network_below_the_floor_never_spawns() {
        let n = 3000;
        let nodes = (0..n).map(|_| Gossip { acc: 0 }).collect();
        let mut net =
            Network::new(gnp_topo(n, 8.0 / n as f64, 7), nodes, 5).with_cfg(ExecCfg::parallel(2));
        net.run_until_halt(100);
        assert_eq!(net.peak_workers(), 1);
    }

    /// Dense rounds that expect twice the floor fan out to two workers
    /// on any host with two cores, under the judge and pinned dense,
    /// and stay bit-identical to one-chunk rounds. Pinned sparse, the
    /// same rounds stay on one chunk.
    #[test]
    fn above_the_floor_fans_out() {
        let n = 2 * MIN_STEPS_PER_WORKER;
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|v| (v, v + 1)).collect();
        let topo = Topology::from_edges(n, &edges);
        let mk = || (0..n).map(|_| Gossip { acc: 0 }).collect::<Vec<_>>();
        let mut seq = Network::new(topo.clone(), mk(), 13);
        seq.run_rounds(3);
        for (sched, pin) in all_scheds() {
            let mut par = Network::new(topo.clone(), mk(), 13)
                .with_cfg(ExecCfg::parallel(2))
                .pinned(pin);
            par.run_rounds(3);
            let workers = if pin == Some(false) {
                1
            } else {
                2.min(hw_parallelism())
            };
            assert_eq!(par.peak_workers(), workers, "{sched}");
            assert!(seq
                .nodes()
                .iter()
                .zip(par.nodes())
                .all(|(a, b)| a.acc == b.acc));
            assert_eq!(seq.stats().messages, par.stats().messages);
            assert_eq!(seq.stats().node_steps, par.stats().node_steps);
        }
    }

    /// End-to-end: a config that *requests* 8 threads on a tiny
    /// workload must ride the sequential path (no worker ever spawned)
    /// while producing identical results — the seq-fallback contract
    /// benches rely on for the <5% overhead acceptance bound.
    #[test]
    fn requested_parallelism_on_tiny_workload_never_spawns() {
        let topo = random_topo(48, 19);
        let mk = || (0..48).map(|_| Gossip { acc: 0 }).collect::<Vec<_>>();
        let mut seq = Network::new(topo.clone(), mk(), 3);
        seq.run_until_halt(100);
        let mut par = Network::new(topo.clone(), mk(), 3).with_cfg(ExecCfg::parallel(8));
        par.run_until_halt(100);
        assert_eq!(par.peak_workers(), 1, "48 nodes can never pay for a spawn");
        assert_eq!(seq.stats(), par.stats());
    }
}
