//! Parallel node stepping: cost-modelled fan-out over degree-weighted
//! chunks.
//!
//! Within one synchronous round, nodes are independent: each reads only
//! its own inbox and state. This is embarrassingly parallel, so large
//! networks are stepped by partitioning nodes across scoped worker
//! threads. The message plane partitions with them: each worker's nodes
//! span a contiguous node-id range, so it owns a contiguous slice of
//! the outgoing slab (its nodes' port ranges) via `split_at_mut` — no
//! locks, no unsafe, no per-round allocation. The previous round's slab
//! is read shared by all workers.
//!
//! Three decisions shape a parallel round; none of them may influence
//! results (see *Determinism* below):
//!
//! 1. **Representation** — the hybrid judge in
//!    [`crate::Network::step`] picks the sparse wake list or the dense
//!    flag sweep *before* execution strategy is considered (threshold
//!    `active ≥ n / HYBRID_DENSE_DIV`, with hysteresis; see
//!    [`crate::SchedMode::Hybrid`]).
//! 2. **Fan-out** — the crate-private `CostModel` decides how many
//!    workers (if
//!    any) the round's workload pays for, from *measured* ns/work-unit
//!    EWMAs of the sequential and parallel paths plus a spawn-cost
//!    floor. A 1-core box, a tiny network, or a quiet tail never pays
//!    thread-spawn latency — the pathology an early
//!    `BENCH_step_plane.json` capture measured as a ~100x slowdown at
//!    small `n`, previously patched with a hardcoded
//!    `PAR_MIN_PER_THREAD` constant and now derived from the model.
//! 3. **Chunking** — the active list (sparse) or id space (dense) is
//!    cut into chunks of roughly equal *incident-edge* weight
//!    (`degree + NODE_COST` per node, prefix-summed), not equal node
//!    count. Equal-count contiguous ranges lose badly on heavy-tailed
//!    (Chung–Lu / Barabási–Albert) graphs, where one chunk owns the
//!    hub star and every other worker idles at the join barrier.
//!
//! Next-frontier collection is contention-free: each worker writes the
//! nodes it re-schedules into its own disjoint window of the shared,
//! round-sized `wake_next` buffer (a local queue bounded by the chunk's
//! active count — the bound is exact, so nothing ever spills), and
//! stamps its own id range of `wake_stamp` (chunks own disjoint id
//! ranges). After the join, the windows are compacted in chunk order,
//! which *is* node order, so delivery sees exactly the sequence the
//! sequential executor produces.
//!
//! # Determinism
//!
//! `step_parallel_*` produce bit-identical results to the sequential
//! path in every scheduling mode — a property asserted by the tests
//! below and by the workspace-level `prop_plane`/`conformance` suites —
//! because
//!
//! 1. every node draws from its own RNG stream,
//! 2. inbox order is positional (ports), independent of scheduling,
//! 3. delivery accounting (and the fault-injection RNG stream) runs
//!    sequentially after the join, walking senders in node order —
//!    workers record senders per chunk and chunks are merged in node
//!    order (chunks are id-sorted, so the merge is a concatenation),
//!    and
//! 4. the cost model and the hybrid judge only choose *how* the round
//!    executes, never *what* it computes; the judge is furthermore a
//!    pure function of node counts, so even the `sched_overhead` trace
//!    (the one gauge allowed to differ between representations) is
//!    reproducible run-to-run.

use crate::mailbox::Inbox;
use crate::network::{split_planes, Ctx, Network, Protocol};
use crate::stats::timing;
use crate::topology::{NodeId, Topology};
use std::time::Instant;

/// Fixed per-node step cost, in units of "one incident port", used by
/// the degree-weighted chunker: a node's weight is
/// `degree + NODE_COST`, so isolated or low-degree nodes still count
/// toward chunk balance (inbox setup, RNG, protocol dispatch are not
/// free) while hubs dominate, as they should.
const NODE_COST: usize = 8;

/// Prior estimate of thread spawn+join cost per worker, in ns. Scoped
/// threads are created and joined every parallel round; a worker is
/// only worth spawning when the work it carves off costs a multiple of
/// this (see [`CostModel::min_work_per_worker`]).
const SPAWN_COST_NS: f64 = 25_000.0;

/// Safety margin on the spawn-cost floor: a chunk must be predicted to
/// take at least `SPAWN_MARGIN · SPAWN_COST_NS` of sequential work
/// before a thread is dedicated to it.
const SPAWN_MARGIN: f64 = 2.0;

/// Prior ns per unit of work (one scheduled node in sparse rounds, one
/// id slot in dense rounds) before any round has been measured.
/// Deliberately on the cheap side: underestimating per-unit cost makes
/// the first fan-out *later* than optimal, which is the safe direction.
const PRIOR_NS_PER_UNIT: f64 = 100.0;

/// EWMA smoothing factor for the measured per-unit costs.
const EWMA_ALPHA: f64 = 0.25;

/// Every `PROBE_PERIOD`-th eligible decision re-runs the currently
/// losing path once, so the model tracks workload drift (a protocol
/// whose per-node work grows or shrinks over phases) instead of locking
/// in a stale verdict.
const PROBE_PERIOD: u64 = 256;

/// Machine parallelism, probed once (`available_parallelism` performs
/// affinity/cgroup syscalls; the core count cannot change meaningfully
/// mid-run).
pub(crate) fn hw_parallelism() -> usize {
    static HW: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    // dlint::allow(ambient-env, "the one sanctioned probe: CostModel's thread cap; results are bit-identical for every thread count by the parallel-equivalence suite")
    *HW.get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// Exponentially weighted moving average of ns per work unit.
#[derive(Debug, Clone, Copy, Default)]
struct Ewma {
    value: f64,
    samples: u64,
}

impl Ewma {
    fn observe(&mut self, x: f64) {
        self.samples += 1;
        self.value = if self.samples == 1 {
            x
        } else {
            EWMA_ALPHA * x + (1.0 - EWMA_ALPHA) * self.value
        };
    }

    fn known(&self) -> bool {
        self.samples > 0
    }

    fn or_prior(&self) -> f64 {
        if self.known() {
            self.value
        } else {
            PRIOR_NS_PER_UNIT
        }
    }
}

/// Per-round sequential-vs-parallel cost model.
///
/// Tracks measured ns per work unit for each (representation ×
/// execution path) pair — work units are scheduled nodes in sparse
/// rounds and id slots in dense rounds — and answers one question per
/// round: *how many workers does this workload pay for?* The answer is
/// purely a performance decision; both paths are bit-identical, so the
/// model is free to be heuristic and even to learn from wall-clock
/// noise without ever compromising reproducibility of results.
#[derive(Debug, Clone, Default)]
pub(crate) struct CostModel {
    /// Measured sequential cost, indexed by `dense as usize`.
    seq: [Ewma; 2],
    /// Measured parallel cost (spawn/join amortized in), same indexing.
    par: [Ewma; 2],
    /// Eligible decisions taken, for the periodic re-probe.
    decisions: u64,
}

impl CostModel {
    pub(crate) fn new() -> Self {
        CostModel::default()
    }

    /// The workload floor per worker, derived from the measured
    /// sequential per-unit cost: a worker must carve off at least
    /// `SPAWN_MARGIN · SPAWN_COST_NS` worth of predicted work. This is
    /// what replaced the old hardcoded `PAR_MIN_PER_THREAD = 1024`:
    /// cheap rounds (idle-heavy sweeps) raise the floor, expensive
    /// protocol rounds lower it.
    pub(crate) fn min_work_per_worker(&self, dense: bool) -> usize {
        let seq_unit = self.seq[dense as usize].or_prior();
        (((SPAWN_MARGIN * SPAWN_COST_NS) / seq_unit).ceil() as usize).max(1)
    }

    /// Workers worth spawning for `workload` units this round on a
    /// machine with `hw` cores, requested ceiling `requested`.
    /// Returns 1 for "run sequentially".
    pub(crate) fn plan(
        &mut self,
        requested: usize,
        hw: usize,
        workload: usize,
        dense: bool,
    ) -> usize {
        if requested <= 1 || hw <= 1 || workload == 0 {
            return 1;
        }
        let cap = requested
            .min(hw)
            .min(workload / self.min_work_per_worker(dense));
        if cap <= 1 {
            return 1;
        }
        self.decisions += 1;
        let i = dense as usize;
        if !self.par[i].known() {
            return cap; // explore: the model needs a parallel sample
        }
        if !self.seq[i].known() {
            return 1; // symmetric: measure the sequential path once
        }
        let seq_pred = self.seq[i].value * workload as f64;
        let par_pred = self.par[i].value * workload as f64;
        let par_better = par_pred < seq_pred;
        // Re-probe the losing path periodically so the verdict adapts;
        // `par_better XOR probe` flips the choice on probe ticks.
        let probe = self.decisions.is_multiple_of(PROBE_PERIOD);
        if par_better != probe {
            cap
        } else {
            1
        }
    }

    /// Feed one measured round back into the model.
    pub(crate) fn observe(&mut self, dense: bool, workers: usize, workload: usize, ns: u64) {
        if workload == 0 {
            return;
        }
        let per_unit = ns as f64 / workload as f64;
        let i = dense as usize;
        if workers > 1 {
            self.par[i].observe(per_unit);
        } else {
            self.seq[i].observe(per_unit);
        }
    }
}

/// Weight of node `v` for chunk balancing.
#[inline]
fn node_weight(topo: &Topology, v: NodeId) -> u64 {
    (topo.degree(v) + NODE_COST) as u64
}

/// Dense-mode parallel round: partition `0..n` into contiguous chunks
/// of roughly equal `ports + NODE_COST·nodes` weight (cut points found
/// by binary search over the CSR offsets — O(threads · log n), no
/// prefix-sum array).
pub(crate) fn step_parallel_dense<P: Protocol>(net: &mut Network<P>, threads: usize) -> u64 {
    let n = net.topo.len();
    debug_assert!(threads > 1);
    let round = net.round;
    while net.workers.len() < threads {
        net.workers.push(crate::network::WorkerScratch::default());
    }
    let (out_plane, in_plane) = split_planes(&mut net.planes, round);
    out_plane.advance();
    let out_gen = out_plane.gen;
    let topo = &net.topo;
    let inbox_count = &net.inbox_count[..];
    let inbox_count_round = &net.inbox_count_round[..];

    // Weighted prefix position of node v: ports before v plus the
    // fixed per-node cost. Monotone in v, so cuts binary-search it.
    let wpos = |v: usize| -> u64 {
        let ports = if v < n {
            topo.port_base(v as NodeId)
        } else {
            topo.total_ports()
        };
        ports as u64 + (NODE_COST * v) as u64
    };
    let total_w = wpos(n);
    let cut = |k: usize| -> usize {
        if k >= threads {
            return n;
        }
        let target = total_w * k as u64 / threads as u64;
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

    // When a flight recorder is installed, workers stamp their span
    // bounds into scratch against this shared clock base (they cannot
    // reach the main thread's recorder); the merge emits the events.
    let trace_epoch = dobs::plane::epoch();
    let mut spawned = 0usize;
    std::thread::scope(|scope| {
        let mut nodes_rest = &mut net.nodes[..];
        let mut rngs_rest = &mut net.rngs[..];
        let mut halted_rest = &mut net.halted[..];
        let mut dozing_rest = &mut net.dozing[..];
        let mut stamp_rest = &mut out_plane.stamp[..];
        let mut msg_rest = &mut out_plane.msg[..];
        let mut scratch_rest = &mut net.workers[..threads];
        let in_plane = &*in_plane;
        let mut base = 0usize;
        let mut port_base = 0usize;
        for k in 1..=threads {
            let end = cut(k);
            if end <= base {
                continue; // a hub swallowed this cut's weight share
            }
            let take = end - base;
            let (nodes_c, nr) = nodes_rest.split_at_mut(take);
            let (rngs_c, rr) = rngs_rest.split_at_mut(take);
            let (halted_c, hr) = halted_rest.split_at_mut(take);
            let (dozing_c, dr) = dozing_rest.split_at_mut(take);
            // Contiguous nodes own a contiguous slab range.
            let port_end = if end < n {
                topo.port_base(end as NodeId)
            } else {
                topo.total_ports()
            };
            let (stamp_c, sr) = stamp_rest.split_at_mut(port_end - port_base);
            let (msg_c, mr) = msg_rest.split_at_mut(port_end - port_base);
            let (scratch_c, tr) = scratch_rest.split_at_mut(1);
            nodes_rest = nr;
            rngs_rest = rr;
            halted_rest = hr;
            dozing_rest = dr;
            stamp_rest = sr;
            msg_rest = mr;
            scratch_rest = tr;
            let first = base;
            let chunk_port_base = port_base;
            base = end;
            port_base = port_end;
            spawned += 1;
            scope.spawn(move || {
                let scratch = &mut scratch_c[0];
                scratch.prepare(nodes_c.len());
                if let Some(epoch) = trace_epoch {
                    scratch.span_t0_ns = epoch.elapsed().as_nanos() as u64;
                }
                for i in 0..nodes_c.len() {
                    if halted_c[i] {
                        continue;
                    }
                    let v = (first + i) as NodeId;
                    let count = if inbox_count_round[v as usize] == round {
                        inbox_count[v as usize]
                    } else {
                        0
                    };
                    if dozing_c[i] && count == 0 {
                        continue; // asleep and no mail: contract says skip
                    }
                    scratch.stepped += 1;
                    dozing_c[i] = false;
                    let inbox = Inbox::new(topo, v, in_plane, count);
                    let nb = topo.port_base(v) - chunk_port_base;
                    let deg = topo.degree(v);
                    let mut sent_any = false;
                    let mut ctx = Ctx::new(
                        v,
                        round,
                        topo,
                        &mut rngs_c[i],
                        &mut stamp_c[nb..nb + deg],
                        &mut msg_c[nb..nb + deg],
                        out_gen,
                        &mut sent_any,
                        &mut halted_c[i],
                        &mut dozing_c[i],
                    );
                    nodes_c[i].on_round(&mut ctx, inbox);
                    if halted_c[i] {
                        scratch.halts += 1;
                    }
                    if sent_any {
                        scratch.touched.push(v);
                    }
                }
                if let Some(epoch) = trace_epoch {
                    scratch.span_t1_ns = epoch.elapsed().as_nanos() as u64;
                }
            });
        }
    });

    let stepped = merge_worker_scratch(net, spawned, false);
    net.finish_round(stepped, n as u64 - stepped)
}

/// Sparse-mode parallel round: partition the sorted **active list**
/// into contiguous segments of roughly equal degree weight
/// (`Σ degree + NODE_COST` per segment), so a Chung–Lu hub and its
/// star do not land on one worker while the rest idle.
pub(crate) fn step_parallel_sparse<P: Protocol>(net: &mut Network<P>, threads: usize) -> u64 {
    let round = net.round;
    debug_assert!(threads > 1);
    if !net.wake_cur.is_sorted() {
        net.wake_cur.sort_unstable();
    }
    let active = net.wake_cur.len();
    let n = net.topo.len();
    while net.workers.len() < threads {
        net.workers.push(crate::network::WorkerScratch::default());
    }
    let (out_plane, in_plane) = split_planes(&mut net.planes, round);
    out_plane.advance();
    let out_gen = out_plane.gen;
    // The shared next-frontier buffer: one slot per active node,
    // windowed per chunk. Capacity n was reserved at construction, so
    // this resize never allocates.
    net.wake_next.clear();
    net.wake_next.resize(active, 0);
    let topo = &net.topo;
    let inbox_count = &net.inbox_count[..];
    let inbox_count_round = &net.inbox_count_round[..];
    let wake_cur = &net.wake_cur[..];

    // Total degree weight of the active list (one O(active) pass);
    // chunk k ends once the running weight crosses k/threads of it.
    let total_w: u64 = wake_cur.iter().map(|&v| node_weight(topo, v)).sum();

    // Shared clock base for worker span stamps (see the dense path).
    let trace_epoch = dobs::plane::epoch();
    let mut spawned = 0usize;
    std::thread::scope(|scope| {
        let mut nodes_rest = &mut net.nodes[..];
        let mut rngs_rest = &mut net.rngs[..];
        let mut halted_rest = &mut net.halted[..];
        let mut dozing_rest = &mut net.dozing[..];
        let mut stamp_rest = &mut out_plane.stamp[..];
        let mut msg_rest = &mut out_plane.msg[..];
        let mut wake_stamp_rest = &mut net.wake_stamp[..];
        let mut wake_out_rest = &mut net.wake_next[..];
        let mut scratch_rest = &mut net.workers[..threads];
        let in_plane = &*in_plane;
        // Nodes/ports consumed so far (everything before the current
        // segment's first active node is skipped, not assigned).
        let mut consumed = 0usize;
        let mut port_consumed = 0usize;
        let mut lo = 0usize;
        let mut cum = 0u64;
        let mut k = 0usize;
        while lo < active {
            k += 1;
            let target = if k >= threads {
                u64::MAX // the last chunk absorbs the remainder
            } else {
                total_w * k as u64 / threads as u64
            };
            let mut hi = lo;
            while hi < active && (hi == lo || cum < target) {
                cum += node_weight(topo, wake_cur[hi]);
                hi += 1;
            }
            // The wake list is sorted and duplicate-free, so segment
            // id ranges are disjoint and ascending.
            let first = wake_cur[lo] as usize;
            let last = wake_cur[hi - 1] as usize;
            let skip = first - consumed;
            nodes_rest = nodes_rest.split_at_mut(skip).1;
            rngs_rest = rngs_rest.split_at_mut(skip).1;
            halted_rest = halted_rest.split_at_mut(skip).1;
            dozing_rest = dozing_rest.split_at_mut(skip).1;
            wake_stamp_rest = wake_stamp_rest.split_at_mut(skip).1;
            let seg_port_base = topo.port_base(first as NodeId);
            let port_skip = seg_port_base - port_consumed;
            stamp_rest = stamp_rest.split_at_mut(port_skip).1;
            msg_rest = msg_rest.split_at_mut(port_skip).1;
            let take = last - first + 1;
            let port_end = if last + 1 < n {
                topo.port_base((last + 1) as NodeId)
            } else {
                topo.total_ports()
            };
            let (nodes_c, nr) = nodes_rest.split_at_mut(take);
            let (rngs_c, rr) = rngs_rest.split_at_mut(take);
            let (halted_c, hr) = halted_rest.split_at_mut(take);
            let (dozing_c, dr) = dozing_rest.split_at_mut(take);
            let (wake_stamp_c, wsr) = wake_stamp_rest.split_at_mut(take);
            let (stamp_c, sr) = stamp_rest.split_at_mut(port_end - seg_port_base);
            let (msg_c, mr) = msg_rest.split_at_mut(port_end - seg_port_base);
            let (wake_out_c, wor) = wake_out_rest.split_at_mut(hi - lo);
            let (scratch_c, tr) = scratch_rest.split_at_mut(1);
            nodes_rest = nr;
            rngs_rest = rr;
            halted_rest = hr;
            dozing_rest = dr;
            wake_stamp_rest = wsr;
            stamp_rest = sr;
            msg_rest = mr;
            wake_out_rest = wor;
            scratch_rest = tr;
            consumed = last + 1;
            port_consumed = port_end;
            let wake_slice = &wake_cur[lo..hi];
            lo = hi;
            spawned += 1;
            scope.spawn(move || {
                let scratch = &mut scratch_c[0];
                scratch.prepare(wake_slice.len());
                if let Some(epoch) = trace_epoch {
                    scratch.span_t0_ns = epoch.elapsed().as_nanos() as u64;
                }
                scratch.wake_cap = wake_out_c.len();
                let mut wrote = 0usize;
                for &vid in wake_slice {
                    let v = vid as usize;
                    let i = v - first;
                    if halted_c[i] || wake_stamp_c[i] != round {
                        continue; // stale entry (e.g. woken then halted)
                    }
                    scratch.stepped += 1;
                    dozing_c[i] = false;
                    let count = if inbox_count_round[v] == round {
                        inbox_count[v]
                    } else {
                        0
                    };
                    let inbox = Inbox::new(topo, vid, in_plane, count);
                    let nb = topo.port_base(vid) - seg_port_base;
                    let deg = topo.degree(vid);
                    let mut sent_any = false;
                    let mut ctx = Ctx::new(
                        vid,
                        round,
                        topo,
                        &mut rngs_c[i],
                        &mut stamp_c[nb..nb + deg],
                        &mut msg_c[nb..nb + deg],
                        out_gen,
                        &mut sent_any,
                        &mut halted_c[i],
                        &mut dozing_c[i],
                    );
                    nodes_c[i].on_round(&mut ctx, inbox);
                    if halted_c[i] {
                        scratch.halts += 1;
                    } else if !dozing_c[i] {
                        // Staying awake is the default: stamp (this
                        // chunk owns the id range) and enqueue in the
                        // chunk-local window.
                        wake_stamp_c[i] = round + 1;
                        wake_out_c[wrote] = vid;
                        wrote += 1;
                    }
                    if sent_any {
                        scratch.touched.push(vid);
                    }
                }
                scratch.wake_len = wrote;
                if let Some(epoch) = trace_epoch {
                    scratch.span_t1_ns = epoch.elapsed().as_nanos() as u64;
                }
            });
        }
    });

    let stepped = merge_worker_scratch(net, spawned, true);
    net.finish_round(stepped, active as u64 - stepped)
}

/// Merge per-chunk sender buffers (concatenation — chunks are
/// id-ordered and internally ascending, so chunk order preserves the
/// global node order delivery depends on), compact the per-chunk wake
/// windows of `wake_next` in the same order, and settle the halt
/// counter. Stamps were already written by the owning workers.
fn merge_worker_scratch<P: Protocol>(net: &mut Network<P>, spawned: usize, sparse: bool) -> u64 {
    // dlint::allow(wall-clock, "timing gauge only: merge duration feeds the histogram, never steers execution")
    let t0 = net.timing.then(Instant::now);
    let traced = dobs::plane::enabled();
    let merge_t0 = if traced { dobs::plane::now_ns() } else { 0 };
    // 1-based round number the spans belong to (`finish_round` has not
    // incremented `net.round` yet).
    let span_round = net.round + 1;
    net.touched.clear();
    let mut stepped = 0u64;
    // `workers` is borrowed disjointly from `touched`/`wake_next`, but
    // the borrow checker cannot see that through `net`; split at the
    // field level instead.
    let workers = std::mem::take(&mut net.workers);
    let mut write = 0usize;
    let mut start = 0usize;
    for (k, w) in workers[..spawned].iter().enumerate() {
        net.touched.extend_from_slice(&w.touched);
        stepped += w.stepped;
        net.live -= w.halts as usize;
        if sparse {
            net.wake_next.copy_within(start..start + w.wake_len, write);
            write += w.wake_len;
            start += w.wake_cap;
        }
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
    if sparse {
        net.wake_next.truncate(write);
    }
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
    use super::CostModel;
    use crate::network::SchedMode;
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

    fn all_scheds() -> [SchedMode; 3] {
        [SchedMode::Sparse, SchedMode::Dense, SchedMode::Hybrid]
    }

    #[test]
    fn parallel_equals_sequential() {
        let topo = random_topo(64, 3);
        let mk = || (0..64).map(|_| Gossip { acc: 0 }).collect::<Vec<_>>();

        let mut seq = Network::new(topo.clone(), mk(), 17);
        seq.run_until_halt(100);

        for sched in all_scheds() {
            for threads in [2, 3, 8] {
                let mut par = Network::new(topo.clone(), mk(), 17)
                    .with_threads(threads)
                    .with_sched(sched);
                par.run_until_halt(100);
                for (a, b) in seq.nodes().iter().zip(par.nodes()) {
                    assert_eq!(a.acc, b.acc, "divergence with {threads} threads {sched:?}");
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

        let mut seq = Network::new(topo.clone(), mk(), 23).with_faults(FaultPlan::drop(0.15));
        seq.run_until_halt(100);
        let mut par = Network::new(topo.clone(), mk(), 23)
            .with_faults(FaultPlan::drop(0.15))
            .with_threads(4);
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
        let mut net = Network::new(topo, nodes, 9).with_threads(64);
        net.run_until_halt(100);
        assert!(net.all_halted());
    }

    /// Force true multi-worker execution — the cost model would
    /// otherwise route every test-sized (and every single-core-machine)
    /// round through the sequential path, leaving the partitioners
    /// untested. `force_parallel` spawns one worker per requested
    /// thread regardless of machine or workload.
    #[test]
    fn forced_workers_stay_identical_in_all_modes() {
        let n = 64;
        let topo = random_topo(n, 11);
        let mk = || (0..n).map(|_| Gossip { acc: 0 }).collect::<Vec<_>>();
        let mut seq = Network::new(topo.clone(), mk(), 29);
        seq.run_until_halt(100);
        for sched in all_scheds() {
            for threads in [2, 3, 7] {
                let mut par = Network::new(topo.clone(), mk(), 29)
                    .with_threads(threads)
                    .with_sched(sched);
                par.force_parallel = true;
                par.run_until_halt(100);
                assert!(
                    seq.nodes()
                        .iter()
                        .zip(par.nodes())
                        .all(|(a, b)| a.acc == b.acc),
                    "forced {threads}-worker {sched:?} diverged"
                );
                assert_eq!(seq.stats().messages, par.stats().messages);
                assert_eq!(seq.stats().node_steps, par.stats().node_steps);
                assert_eq!(seq.stats().peak_inbox, par.stats().peak_inbox);
                assert!(par.peak_workers() >= 2, "no round actually fanned out");
            }
        }
    }

    /// The degree-weighted chunker on the degenerate hub topology: the
    /// star's center owns ~all ports, so weighted cuts collapse most
    /// workers onto tiny id ranges around it. Results must still be
    /// bit-identical, in every scheduling mode.
    #[test]
    fn forced_workers_balance_a_star() {
        let n = 65;
        let topo = star_topo(n);
        let mk = || (0..n).map(|_| Gossip { acc: 0 }).collect::<Vec<_>>();
        let mut seq = Network::new(topo.clone(), mk(), 41);
        seq.run_until_halt(100);
        for sched in all_scheds() {
            for threads in [2, 4, 8] {
                let mut par = Network::new(topo.clone(), mk(), 41)
                    .with_threads(threads)
                    .with_sched(sched);
                par.force_parallel = true;
                par.run_until_halt(100);
                assert!(
                    seq.nodes()
                        .iter()
                        .zip(par.nodes())
                        .all(|(a, b)| a.acc == b.acc),
                    "star with {threads} workers {sched:?} diverged"
                );
                assert_eq!(seq.stats().messages, par.stats().messages);
                assert_eq!(seq.stats().node_steps, par.stats().node_steps);
            }
        }
    }

    /// The sparse partitioner slices the *active list*, whose node ids
    /// are non-contiguous once nodes sleep or halt. Mix sleepers (every
    /// third node parks between pings) and early-halting nodes into the
    /// gossip so forced multi-worker rounds must split the slab around
    /// real gaps, and compare against sequential execution.
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
    fn forced_workers_partition_a_gappy_active_list() {
        let n = 97; // odd size: uneven chunks + a trailing partial segment
        let topo = random_topo(n, 13);
        let mk = || (0..n).map(|_| Patchy { acc: 0 }).collect::<Vec<_>>();
        let mut seq = Network::new(topo.clone(), mk(), 31);
        seq.run_rounds(30);
        for sched in [SchedMode::Sparse, SchedMode::Hybrid] {
            for threads in [2, 5, 8] {
                let mut par = Network::new(topo.clone(), mk(), 31)
                    .with_threads(threads)
                    .with_sched(sched);
                par.force_parallel = true;
                par.run_rounds(30);
                assert!(
                    seq.nodes()
                        .iter()
                        .zip(par.nodes())
                        .all(|(a, b)| a.acc == b.acc),
                    "{threads} forced workers ({sched:?}) diverged on a gappy active list"
                );
                if sched == SchedMode::Sparse {
                    assert_eq!(
                        seq.stats(),
                        par.stats(),
                        "{threads} workers: stats diverged"
                    );
                } else {
                    // Hybrid may charge different sched_overhead.
                    assert_eq!(seq.stats().messages, par.stats().messages);
                    assert_eq!(seq.stats().node_steps, par.stats().node_steps);
                }
            }
        }
    }

    #[test]
    fn dense_mode_wake_does_not_grow_the_wake_list() {
        let topo = Topology::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let nodes = (0..4).map(|_| Gossip { acc: 0 }).collect::<Vec<_>>();
        let mut net = Network::new(topo, nodes, 5).with_sched(SchedMode::Dense);
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

    // -- Cost model: the seq-vs-par decision, tested directly. --------

    #[test]
    fn cost_model_never_spawns_on_one_core() {
        let mut m = CostModel::new();
        assert_eq!(m.plan(8, 1, 1 << 20, false), 1);
        assert_eq!(m.plan(8, 1, 1 << 20, true), 1);
    }

    #[test]
    fn cost_model_holds_small_workloads_sequential() {
        let mut m = CostModel::new();
        // With the default prior, a handful of nodes never covers the
        // spawn cost.
        assert_eq!(m.plan(8, 8, 10, false), 1);
        assert_eq!(m.plan(8, 8, 0, false), 1);
        // A huge workload fans out up to the requested/core ceiling.
        assert_eq!(m.plan(8, 8, 1 << 20, false), 8);
        assert_eq!(m.plan(4, 16, 1 << 20, false), 4);
        assert_eq!(m.plan(16, 4, 1 << 20, false), 4);
    }

    #[test]
    fn workload_floor_derives_from_measured_cost() {
        let mut m = CostModel::new();
        let prior_floor = m.min_work_per_worker(false);
        // Cheap measured rounds (5 ns/node: idle-skip sweeps) raise the
        // floor — more nodes are needed to pay for one spawn…
        for _ in 0..8 {
            m.observe(false, 1, 100_000, 500_000); // 5 ns/unit
        }
        assert!(m.min_work_per_worker(false) > prior_floor);
        // …and a workload that fanned out under the prior now stays
        // sequential.
        let w = prior_floor * 2;
        assert_eq!(m.plan(2, 8, w, false), 1);
        // Expensive rounds (10 µs/node) lower the floor instead.
        let mut m = CostModel::new();
        for _ in 0..8 {
            m.observe(false, 1, 100, 1_000_000); // 10 µs/unit
        }
        assert!(m.min_work_per_worker(false) < prior_floor);
    }

    #[test]
    fn cost_model_falls_back_when_parallel_measures_slower() {
        let mut m = CostModel::new();
        let w = 1 << 20;
        // Parallel measured 2x slower per unit than sequential.
        for _ in 0..8 {
            m.observe(false, 1, w, 100 * w as u64);
            m.observe(false, 8, w, 200 * w as u64);
        }
        // Decisions 1..=255 all pick sequential; 256 is a probe tick.
        for _ in 0..100 {
            assert_eq!(m.plan(8, 8, w, false), 1);
        }
        // And the reverse: parallel measured faster keeps fanning out.
        let mut m = CostModel::new();
        for _ in 0..8 {
            m.observe(false, 1, w, 100 * w as u64);
            m.observe(false, 8, w, 25 * w as u64);
        }
        for _ in 0..100 {
            assert_eq!(m.plan(8, 8, w, false), 8);
        }
    }

    #[test]
    fn cost_model_probes_the_losing_path_periodically() {
        let mut m = CostModel::new();
        let w = 1 << 20;
        for _ in 0..8 {
            m.observe(false, 1, w, 100 * w as u64);
            m.observe(false, 8, w, 200 * w as u64); // par loses
        }
        let plans: Vec<usize> = (0..600).map(|_| m.plan(8, 8, w, false)).collect();
        let probes = plans.iter().filter(|&&p| p > 1).count();
        assert!(
            (2..=3).contains(&probes),
            "expected ~2 probe fan-outs in 600 decisions, got {probes}"
        );
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
