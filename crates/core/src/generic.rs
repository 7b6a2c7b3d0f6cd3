//! The generic `(1-ε)`-MCM algorithm — Algorithms 1 and 2, Theorem 3.1.
//!
//! Phases `ℓ = 1, 3, …, 2k-1`. In phase `ℓ`:
//!
//! 1. **Ball gathering (Algorithm 2, simulated rounds).** For `2ℓ+1`
//!    rounds every node floods the *delta* of its local view (edges
//!    with matched flags, free-vertex flags). After the phase, node `v`
//!    knows its distance-`2ℓ` ball — enough to see every augmenting
//!    path through `v` *and* every path conflicting with one of those.
//!    Fault-free, the delta a node sends in round `r` is exactly its
//!    distance-`r` shell, so the network carries *sized tokens*: one
//!    message per port and round, whose bit size is the encoded size of
//!    that shell — the `O(|V|+|E|)`-bit messages Theorem 3.1 allows.
//!    The shell sizes come from one multi-source BFS per batch of 64
//!    participants (MS-BFS, Then et al., PVLDB 2014), one bit of a
//!    `u64` per source; an edge lies in the shell of the nearer of its
//!    endpoints. Batches follow graph locality, not ids, so a batch's
//!    balls overlap (see `shell_table`).
//!    Under an active adversary plan, which decides what arrives, the
//!    nodes flood their real view deltas instead.
//! 2. **Conflict-graph MIS (Step 5, emulated).** The paper runs an MIS
//!    on the conflict graph `C_M(ℓ)`, each conflict-graph round costing
//!    `O(ℓ)` routing rounds in `G` (Lemma 3.3). Theorem 3.1 needs only
//!    *some* maximal set of paths, so each path keeps one seeded rank
//!    for the whole phase (`rank_key`) and the MIS is the greedy one
//!    in rank order: a path is chosen iff no conflicting path of better
//!    rank is chosen. We run it centrally as rounds of random-order
//!    greedy (every alive path that beats its alive conflicts joins),
//!    which end in `O(log n)` rounds whp (Fischer–Noever, SODA 2018),
//!    and *charge* each round `ℓ` network rounds and one token of
//!    `O(ℓ log n)` bits per alive path per hop, per Lemma 3.3's
//!    accounting. (A faithful per-message implementation of this step
//!    is exponential in `ℓ` in traffic; the paper itself only bounds it
//!    through the lemma.)
//! 3. **Augmentation (Step 7).** `M ← M ⊕ P`, charged `ℓ` rounds
//!    (leaders notify along their paths).
//!
//! Because every phase applies a *maximal* set of (automatically
//! shortest — see Lemma 3.4's invariant, asserted in debug builds)
//! augmenting paths of length `ℓ`, the final matching is a
//! `(1 - 1/(k+1))`-MCM **deterministically**, not just in expectation.

use dgraph::augmenting::{enumerate_augmenting_paths, is_maximal_disjoint};
use dgraph::subgraph::bfs_distances;
use dgraph::{Graph, Matching, NodeId};
use simnet::rng::streams;
use simnet::{BitSize, Ctx, ExecCfg, Inbox, NetStats, Network, Protocol, SplitMix64};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Wire size of a [`ViewItem::Edge`]: tag, two ids, matched flag.
const EDGE_ITEM_BITS: u64 = 1 + 32 + 32 + 1;
/// Wire size of a [`ViewItem::Free`]: tag and id.
const FREE_ITEM_BITS: u64 = 1 + 32;
/// Length prefix of every delta message.
const DELTA_HEADER_BITS: u64 = 64;

/// One knowledge item of the flooded view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum ViewItem {
    /// An edge and whether it is currently matched.
    Edge(NodeId, NodeId, bool),
    /// A vertex known to be free.
    Free(NodeId),
}

impl BitSize for ViewItem {
    fn bit_size(&self) -> u64 {
        match self {
            ViewItem::Edge(..) => EDGE_ITEM_BITS,
            ViewItem::Free(_) => FREE_ITEM_BITS,
        }
    }
}

/// A delta message: the items learned in the previous round, shared via
/// `Arc` so that sending to all neighbors does not copy the payload.
#[derive(Debug, Clone)]
pub(crate) struct DeltaMsg(pub(crate) Arc<Vec<ViewItem>>);

impl BitSize for DeltaMsg {
    fn bit_size(&self) -> u64 {
        DELTA_HEADER_BITS + self.0.iter().map(BitSize::bit_size).sum::<u64>()
    }
}

/// Ball-gathering protocol node (Algorithm 2), flooding real views.
struct GatherNode {
    // Ordered set: the first-round flood serializes the whole view
    // into a message, so its iteration order must not depend on hash
    // state.
    view: BTreeSet<ViewItem>,
    rounds: u64,
    /// Non-participants (outside the repair region of an incremental
    /// run) take no part at all: they halt in round 0, so with the
    /// sparse scheduler a repair's gathering rounds cost O(|ball|),
    /// not O(n). (Their merged views are never consulted — every
    /// augmenting path, and every view the phase inspects, lives
    /// inside the region by the repair precondition; see
    /// `session::apply_batch`.)
    participating: bool,
}

impl Protocol for GatherNode {
    type Msg = DeltaMsg;

    fn on_round(&mut self, ctx: &mut Ctx<'_, DeltaMsg>, inbox: Inbox<'_, DeltaMsg>) {
        if !self.participating {
            ctx.halt();
            return;
        }
        // Merge what arrived, keeping only genuinely new items.
        let mut learned: Vec<ViewItem> = Vec::new();
        for env in inbox.iter() {
            for &item in env.msg.0.iter() {
                if self.view.insert(item) {
                    learned.push(item);
                }
            }
        }
        let r = ctx.round();
        if r + 1 < self.rounds {
            let outgoing = if r == 0 {
                // First round: flood the initial local knowledge.
                self.view.iter().copied().collect::<Vec<_>>()
            } else {
                std::mem::take(&mut learned)
            };
            if !outgoing.is_empty() {
                ctx.send_all(DeltaMsg(Arc::new(outgoing)));
            }
        } else {
            ctx.halt();
        }
    }
}

/// The size of a [`DeltaMsg`] without its items: every count a
/// fault-free gather produces depends on message sizes alone.
#[derive(Debug, Clone, Copy)]
struct SizedDelta(u64);

impl BitSize for SizedDelta {
    fn bit_size(&self) -> u64 {
        self.0
    }
}

/// [`GatherNode`]'s schedule with each payload replaced by its size:
/// in round `r` a participant sends the delta it would have flooded,
/// shell `r` of its ball, as a [`SizedDelta`].
struct ShellNode<'a> {
    /// Item bits of the node's distance-`r` shell, `r < radius`: its
    /// row of [`shell_table`].
    shells: &'a [u64],
    /// As in [`GatherNode`]: a non-participant halts in round 0.
    participating: bool,
}

impl Protocol for ShellNode<'_> {
    type Msg = SizedDelta;

    fn on_round(&mut self, ctx: &mut Ctx<'_, SizedDelta>, _inbox: Inbox<'_, SizedDelta>) {
        match self.shells.get(ctx.round() as usize) {
            Some(&bits) if self.participating => {
                if bits > 0 {
                    ctx.send_all(SizedDelta(DELTA_HEADER_BITS + bits));
                }
            }
            _ => ctx.halt(),
        }
    }
}

/// Sources per batch of [`shell_table`]: one bit of a `u64` each.
const LANES: usize = 64;

/// Planes of the edge tally in [`shell_table`], which stays in
/// registers: it counts up to `2^NIBBLE − 1` edges of one node before
/// it joins the level's counter.
const NIBBLE: usize = 4;

/// One node's lane masks in a [`shell_table`] batch at level `d`: bit
/// `b` stands for the batch's `b`-th source.
#[derive(Debug, Clone, Copy, Default)]
struct Lanes {
    /// Sources at distance `≤ d` from the node.
    seen: u64,
    /// Sources at distance exactly `d`.
    front: u64,
    /// Sources found at distance `d + 1` while level `d` runs.
    next: u64,
}

/// The flood's delta sizes, computed instead of sent: row `v` (entries
/// `v·radius .. (v+1)·radius`) holds, for each round `r < radius`, the
/// item bits participant `v` learns in round `r − 1` (its initial view
/// for `r = 0`) and floods in round `r`.
///
/// Distances run over participating nodes only, since nothing else
/// forwards. A free node's flag lies at the node's distance. An edge
/// lies at the smaller distance of its endpoints, a non-participating
/// or unreached endpoint counting as infinitely far, and it is one
/// item however many endpoints share that distance. Items at distance
/// `≥ radius` are never sent, so a BFS from each participant to depth
/// `radius − 1` fills its row.
///
/// Those BFSs run [`LANES`] sources at a time as one multi-source BFS
/// (MS-BFS: Then et al., "The More the Merrier: Efficient Multi-Source
/// Graph Traversal", PVLDB 2014). Every node holds [`Lanes`] masks, and
/// one visit of an edge `x–y` from level `d` settles the edge for every
/// source of the batch: it lies at level `d` for the sources in
/// `front[x] & !seen[y]` (`y` is farther than `x`, or never reached),
/// and, when `x < y`, also for those in `front[x] & front[y]` (the tie,
/// counted once). A free `x` counts for `front[x]`. Each level's
/// per-source counts are bit-sliced, plane `p` holding bit `p` of all
/// 64 counts, so a few word operations count a mask for every source.
/// The edge masks of one node first go to a [`NIBBLE`]-plane tally,
/// which joins the level's counter every 15 edges, so the carry
/// through all planes is paid per node, not per edge.
///
/// Sources are batched in [`locality_order`], not by id. A batch costs
/// the union of its sources' balls, and on bounded-growth graphs, whose
/// ids are scattered in space, batches of consecutive ids have nearly
/// disjoint balls.
fn shell_table(g: &Graph, m: &Matching, radius: usize, region: Option<&[bool]>) -> Vec<u64> {
    let n = g.n();
    let mut table = vec![0u64; n * radius];
    if radius == 0 {
        return table;
    }
    let participating = |v: usize| region.is_none_or(|r| r[v]);
    // A level holds at most n free flags and m edges per source.
    let planes = (usize::BITS - (n + g.m()).leading_zeros()) as usize;
    let (mut frees, mut edges) = (vec![0u64; planes], vec![0u64; planes]);
    let mut lanes = vec![Lanes::default(); n];
    let (mut level, mut next_level, mut touched) = (Vec::new(), Vec::new(), Vec::new());
    for batch in locality_order(g, region).chunks(LANES) {
        for (b, &s) in batch.iter().enumerate() {
            lanes[s] = Lanes {
                seen: 1 << b,
                front: 1 << b,
                next: 0,
            };
        }
        level.extend_from_slice(batch);
        touched.extend_from_slice(batch);
        for d in 0..radius {
            let expand = d + 1 < radius;
            for &x in &level {
                let front = lanes[x].front;
                if m.is_free(x as NodeId) {
                    add_sliced(&mut frees, [front, 0, 0, 0]);
                }
                for chunk in g.incident(x as NodeId).chunks((1 << NIBBLE) - 1) {
                    let mut tally = [0u64; NIBBLE];
                    for &(y, _) in chunk {
                        let y = y as usize;
                        let ly = &mut lanes[y];
                        let farther = front & !ly.seen;
                        let tie = if x < y { front & ly.front } else { 0 };
                        add_nibble(&mut tally, farther | tie);
                        if expand && farther != 0 && participating(y) {
                            if ly.next == 0 {
                                next_level.push(y);
                            }
                            ly.next |= farther;
                        }
                    }
                    add_sliced(&mut edges, tally);
                }
            }
            for (b, &s) in batch.iter().enumerate() {
                table[s * radius + d] =
                    FREE_ITEM_BITS * lane_count(&frees, b) + EDGE_ITEM_BITS * lane_count(&edges, b);
            }
            frees.fill(0);
            edges.fill(0);
            for &x in &level {
                lanes[x].front = 0;
            }
            for &y in &next_level {
                let ly = &mut lanes[y];
                if ly.seen == 0 {
                    touched.push(y);
                }
                ly.seen |= ly.next;
                ly.front = ly.next;
                ly.next = 0;
            }
            std::mem::swap(&mut level, &mut next_level);
            next_level.clear();
            if level.is_empty() {
                break;
            }
        }
        level.clear();
        for &v in &touched {
            lanes[v] = Lanes::default();
        }
        touched.clear();
    }
    table
}

/// The participants in [`shell_table`]'s batch order. Each batch of
/// [`LANES`] grows by BFS over unplaced participants from the smallest
/// unplaced one, and restarts there whenever the BFS runs dry, so a
/// batch's sources lie close together and their balls overlap. Every
/// participant is placed once and scanned at most once: `O(n + m)`.
fn locality_order(g: &Graph, region: Option<&[bool]>) -> Vec<usize> {
    let participating = |v: usize| region.is_none_or(|r| r[v]);
    let mut placed = vec![false; g.n()];
    let mut roots = (0..g.n()).filter(|&v| participating(v));
    let mut order = Vec::with_capacity(g.n());
    let mut head = 0;
    loop {
        if head == order.len() || order.len() % LANES == 0 {
            let Some(root) = roots.find(|&v| !placed[v]) else {
                return order;
            };
            placed[root] = true;
            head = order.len();
            order.push(root);
        }
        let x = order[head];
        head += 1;
        for &(y, _) in g.incident(x as NodeId) {
            let y = y as usize;
            if !placed[y] && participating(y) && order.len() % LANES != 0 {
                placed[y] = true;
                order.push(y);
            }
        }
    }
}

/// Add 1 to the count of every lane set in `mask` in a bit-sliced
/// tally, `tally[p]` holding bit `p` of each lane's count. It runs
/// without branches: the carry chain's length varies from add to add,
/// and a mispredicted early exit costs more than the planes it skips.
fn add_nibble(tally: &mut [u64; NIBBLE], mut mask: u64) {
    for plane in tally {
        let carry = *plane & mask;
        *plane ^= mask;
        mask = carry;
    }
    debug_assert_eq!(mask, 0, "a lane's tally overflowed");
}

/// Add a [`NIBBLE`]-plane tally to a bit-sliced counter, lane by lane.
fn add_sliced(planes: &mut [u64], tally: [u64; NIBBLE]) {
    let mut carry = 0;
    for (p, plane) in planes.iter_mut().enumerate() {
        if p >= NIBBLE && carry == 0 {
            return;
        }
        let addend = tally.get(p).copied().unwrap_or(0);
        let half = *plane ^ addend;
        let next_carry = (*plane & addend) | (half & carry);
        *plane = half ^ carry;
        carry = next_carry;
    }
    debug_assert_eq!(carry, 0, "a lane's count overflowed its planes");
}

/// Lane `b`'s count in a bit-sliced counter.
fn lane_count(planes: &[u64], b: usize) -> u64 {
    planes
        .iter()
        .enumerate()
        .map(|(p, &plane)| ((plane >> b) & 1) << p)
        .sum()
}

/// The initial views of [`GatherNode`]s and the real flood over them:
/// afterwards node `v`'s view holds every edge/free flag whose origin
/// is within distance `radius`. The reference model of the sized path,
/// and the gather itself whenever an adversary plan is active.
fn flood_views(
    g: &Graph,
    m: &Matching,
    radius: usize,
    seed: u64,
    cfg: ExecCfg,
    region: Option<&[bool]>,
) -> (Vec<BTreeSet<ViewItem>>, NetStats) {
    let rounds = radius as u64 + 1;
    let nodes: Vec<GatherNode> = (0..g.n() as NodeId)
        .map(|v| {
            let mut view = BTreeSet::new();
            for &(_, e) in g.incident(v) {
                let (a, b) = g.endpoints(e);
                view.insert(ViewItem::Edge(a, b, m.contains(g, e)));
            }
            if m.is_free(v) {
                view.insert(ViewItem::Free(v));
            }
            GatherNode {
                view,
                rounds,
                participating: region.is_none_or(|r| r[v as usize]),
            }
        })
        .collect();
    let mut net = Network::new(crate::state::topology_of(g), nodes, seed).with_cfg(cfg);
    if cfg.faults.breaks_synchrony() {
        // Crashed nodes never step (and so never halt), and delayed
        // payloads keep the plane busy past the schedule: run the fixed
        // window and take whatever views the survivors gathered.
        net.run_rounds(rounds + 2);
    } else {
        net.run_until_halt(rounds + 2);
    }
    let (nodes, stats) = net.into_parts();
    (nodes.into_iter().map(|n| n.view).collect(), stats)
}

/// Run the ball-gathering phase (Algorithm 2) over `radius` hops and
/// return its traffic. With a `region`, node `v` takes part only where
/// `region[v]` is true (elsewhere its knowledge stays local and does
/// not propagate); incremental repair uses this to keep gathering
/// traffic inside the damage neighborhood.
///
/// Fault-free, the nodes send [`SizedDelta`] tokens sized from the
/// [`shell_table`], on the same ports in the same rounds as the flood,
/// so every `NetStats` field is the flood's. Under an active adversary
/// plan (CONGEST budgets included) the adversary decides what arrives,
/// and the nodes flood their real views.
pub(crate) fn gather_balls_region(
    g: &Graph,
    m: &Matching,
    radius: usize,
    seed: u64,
    cfg: ExecCfg,
    region: Option<&[bool]>,
) -> NetStats {
    if cfg.faults.is_active() {
        return flood_views(g, m, radius, seed, cfg, region).1;
    }
    let shells = shell_table(g, m, radius, region);
    let nodes: Vec<ShellNode> = (0..g.n())
        .map(|v| ShellNode {
            shells: &shells[v * radius..(v + 1) * radius],
            participating: region.is_none_or(|r| r[v]),
        })
        .collect();
    let mut net = Network::new(crate::state::topology_of(g), nodes, seed).with_cfg(cfg);
    net.run_until_halt(radius as u64 + 3);
    net.into_parts().1
}

/// Result of the central rank-order MIS on the conflict graph.
pub(crate) struct ConflictMis {
    /// Indices of the chosen (independent, maximal) paths.
    pub(crate) chosen: Vec<usize>,
    /// Rounds of the greedy process (each costs `O(ℓ)` rounds in `G`).
    pub(crate) iterations: u64,
    /// Alive-path count summed over rounds (for bit charging).
    alive_work: u64,
}

/// The canonical key of an augmenting path: a scrambled fold of its
/// (global) vertex sequence, direction-normalized so both traversal
/// orders hash alike. Keys — not enumeration indices — address paths
/// in the rank draws, which is what makes the MIS a pure function of
/// the path set (see [`rank_key`]).
pub(crate) fn path_key(path: &[NodeId]) -> u64 {
    let mut acc = path.len() as u64;
    let fold = |acc: u64, v: NodeId| {
        let mut s = SplitMix64::for_node(acc, v as u64);
        s.next()
    };
    if path.last() < path.first() {
        for &v in path.iter().rev() {
            acc = fold(acc, v);
        }
    } else {
        for &v in path {
            acc = fold(acc, v);
        }
    }
    acc
}

/// Rank of the path with canonical key `key` in the phase-`ell`
/// conflict-graph MIS; smaller is better. A pure function of
/// `(seed, ell, key)` anchored at the frozen [`streams::GENERIC_MIS`]
/// stream — *not* a draw from a shared sequential stream, so the value
/// does not depend on how many other paths exist or in which order they
/// were enumerated.
pub(crate) fn path_rank(seed: u64, ell: usize, key: u64) -> u64 {
    let mut base = SplitMix64::for_node(seed, streams::GENERIC_MIS);
    let mut rank = SplitMix64::for_node(base.next() ^ ell as u64, key);
    rank.next()
}

/// Where a path stands in the phase-`ell` rank order: the smaller
/// tuple is the better rank. Ascending [`path_rank`], ties broken by
/// key and then by vertex sequence, so the order depends on the path
/// set alone. The one definition of the order: [`conflict_graph_mis`]
/// chooses by it, and `dmatch::oracle`'s rank recursion decides paths
/// by it. `key` and `path` are over the graph's own (global) ids, and
/// `path` is oriented as `enumerate_augmenting_paths` reports it.
pub(crate) fn rank_key(seed: u64, ell: usize, key: u64, path: &[NodeId]) -> (u64, u64, &[NodeId]) {
    (path_rank(seed, ell, key), key, path)
}

/// The greedy MIS of the conflict graph of `paths` (two paths conflict
/// iff they share a vertex) in the phase-`ell` rank order of
/// [`rank_key`], path `i` keyed by `keys[i]`: a path is chosen iff no
/// conflicting path of better rank is chosen.
///
/// It runs as the parallel process Step 5 charges for: in each round,
/// every alive path that outranks all its alive conflicts joins, and
/// its conflicts die. A path dies only when a better-ranked conflict
/// joins, so the rounds choose the greedy set exactly, and since ranks
/// address paths by key, the set is a deterministic function of the
/// path *set*: enumeration order is irrelevant.
pub(crate) fn conflict_graph_mis(
    n: usize,
    paths: &[Vec<NodeId>],
    keys: &[u64],
    seed: u64,
    ell: usize,
) -> ConflictMis {
    let p = paths.len();
    debug_assert_eq!(keys.len(), p);
    let rank: Vec<_> = (0..p)
        .map(|i| rank_key(seed, ell, keys[i], &paths[i]))
        .collect();
    let mut vertex_paths: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, path) in paths.iter().enumerate() {
        for &v in path {
            vertex_paths[v as usize].push(i);
        }
    }
    let mut alive = vec![true; p];
    let mut alive_count = p;
    let mut chosen = Vec::new();
    let mut iterations = 0u64;
    let mut alive_work = 0u64;
    while alive_count > 0 {
        iterations += 1;
        alive_work += alive_count as u64;
        let mut winners = Vec::new();
        'paths: for i in 0..p {
            if !alive[i] {
                continue;
            }
            for &v in &paths[i] {
                for &j in &vertex_paths[v as usize] {
                    if alive[j] && rank[j] < rank[i] {
                        continue 'paths;
                    }
                }
            }
            winners.push(i);
        }
        for &w in &winners {
            chosen.push(w);
            // Winners are mutually non-conflicting by construction, so
            // killing neighbors cannot kill another winner.
            for &v in &paths[w] {
                for &j in &vertex_paths[v as usize] {
                    if alive[j] {
                        alive[j] = false;
                        alive_count -= 1;
                    }
                }
            }
        }
    }
    ConflictMis {
        chosen,
        iterations,
        alive_work,
    }
}

/// What one phase reports to the session driver.
#[derive(Debug, Clone)]
pub(crate) struct PhaseLog {
    /// Path length `ℓ` of the phase.
    pub(crate) ell: usize,
    /// Paths applied (size of the MIS).
    pub(crate) applied: usize,
    /// Rounds of the rank-order MIS on the conflict graph.
    pub(crate) mis_iterations: u64,
}

/// `region[v]` = v is within `radius` hops of a seed. The session
/// driver ([`crate::session::Session::rewire`]) restricts repair
/// gathering to `B(damage, 4k+2)` with it.
pub(crate) fn ball(g: &Graph, seeds: &[NodeId], radius: usize) -> Vec<bool> {
    bfs_distances(
        g.n(),
        |v| g.incident(v).iter().map(|&(u, _)| u),
        seeds,
        radius,
    )
    .into_iter()
    .map(|d| d != usize::MAX)
    .collect()
}

/// One phase of Algorithm 1 (`ℓ = 2·phase_idx + 1`): ball gathering,
/// conflict-graph MIS, augmentation — the unit the `dmatch::session`
/// Generic driver steps.
///
/// MIS ranks are keyed by `(seed, ell, path key)` (see [`path_rank`]),
/// so the phase carries no RNG state between calls.
pub(crate) fn phase_step(
    g: &Graph,
    m: &mut Matching,
    phase_idx: usize,
    seed: u64,
    cfg: ExecCfg,
    region: Option<&[bool]>,
    stats: &mut NetStats,
) -> PhaseLog {
    let ell = 2 * phase_idx + 1;
    let id_bits = simnet::id_bits(g.n());
    // Step 4 (Algorithm 2): gather distance-2ℓ balls.
    stats.absorb(&gather_balls_region(
        g,
        m,
        2 * ell,
        seed.wrapping_add(ell as u64),
        cfg,
        region,
    ));

    // Enumerate the conflict-graph nodes. (Each node could do this
    // from its view — the tests verify that every path and its
    // conflicts are visible in the gathered balls — but we run the
    // enumeration once globally for speed.)
    let paths = enumerate_augmenting_paths(g, m, ell);
    if let Some(region) = region {
        // Incremental runs: every augmenting path must live inside
        // the damage ball (see `session::apply_batch`). A path outside it means
        // the pre-batch matching violated the precondition (it still
        // had short augmenting paths away from the damage) — silently
        // skipping such paths would return a matching below the
        // promised bound, so fail loudly instead.
        assert!(
            paths.iter().all(|p| p.iter().all(|&v| region[v as usize])),
            "phase {ell}: an augmenting path escaped the damage ball — \
             incremental repair requires a matching with no augmenting \
             path of length ≤ 2k-1 outside the churned region"
        );
    }
    debug_assert!(
        paths.iter().all(|p| p.len() == ell + 1),
        "phase {ell}: all augmenting paths must have length exactly ℓ (Lemma 3.4 invariant)"
    );

    // Step 5: the rank-order MIS on C_M(ℓ), charged per Lemma 3.3.
    let keys: Vec<u64> = paths.iter().map(|p| path_key(p)).collect();
    let cm = conflict_graph_mis(g.n(), &paths, &keys, seed, ell);
    debug_assert!({
        let chosen = cm.chosen.clone();
        is_maximal_disjoint(g, &paths, &chosen)
    });
    // Charging: each conflict-graph round is emulated by O(ℓ)
    // routing rounds in G; each alive path moves one token of
    // O(ℓ·log n) bits per hop.
    let token_bits = (ell as u64) * (id_bits + 64);
    for _ in 0..cm.iterations * ell as u64 {
        stats.record_round(0);
    }
    stats.record_messages(cm.alive_work * ell as u64, token_bits);

    // Step 7: apply the augmentations; leaders notify along paths.
    for &i in &cm.chosen {
        m.augment_path(g, &paths[i]);
    }
    for _ in 0..ell {
        stats.record_round(cm.chosen.len() as u64);
    }

    PhaseLog {
        ell,
        applied: cm.chosen.len(),
        mis_iterations: cm.iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Algorithm, RunReport, Session};
    use dgraph::generators::random::{barabasi_albert, bipartite_gnp, gnp};
    use dgraph::generators::structured::{cycle, p4_chain, path};
    use dgraph::generators::zoo::{chung_lu, d_regular, random_geometric, zipf_bipartite};

    fn run(g: &Graph, k: usize, seed: u64) -> RunReport {
        let s = Session::on(g)
            .algorithm(Algorithm::Generic { k })
            .seed(seed);
        s.build().run_to_completion()
    }

    fn ratio(g: &Graph, m: &Matching) -> f64 {
        let opt = dgraph::blossom::max_matching(g).size();
        if opt == 0 {
            1.0
        } else {
            m.size() as f64 / opt as f64
        }
    }

    #[test]
    fn k1_is_maximal_matching() {
        let g = gnp(40, 0.1, 1);
        let r = run(&g, 1, 7);
        assert!(r.matching.is_maximal(&g));
        assert!(ratio(&g, &r.matching) >= 0.5);
    }

    #[test]
    fn guarantee_holds_per_k() {
        for seed in 0..6 {
            let g = gnp(30, 0.12, seed);
            for k in 1..=3 {
                let r = run(&g, k, seed * 10 + k as u64);
                assert!(r.matching.validate(&g).is_ok());
                let bound = 1.0 - 1.0 / (k as f64 + 1.0);
                assert!(
                    ratio(&g, &r.matching) >= bound - 1e-9,
                    "seed {seed}, k {k}: ratio {} < {bound}",
                    ratio(&g, &r.matching)
                );
            }
        }
    }

    #[test]
    fn no_short_augmenting_path_after_phase() {
        use dgraph::augmenting::has_augmenting_path_within;
        for seed in 0..5 {
            let g = gnp(24, 0.15, 40 + seed);
            for k in 1..=3usize {
                let r = run(&g, k, seed);
                assert!(
                    !has_augmenting_path_within(&g, &r.matching, 2 * k - 1),
                    "seed {seed}, k {k}: an augmenting path of length ≤ {} survived",
                    2 * k - 1
                );
            }
        }
    }

    #[test]
    fn p4_chain_needs_k2() {
        // On P4 chains, k=1 can stop at the ½ trap; k=2 must reach the
        // optimum (shortest surviving augmenting path would have
        // length 3 = 2k-1, which phase 2 eliminates).
        let g = p4_chain(8);
        let r = run(&g, 2, 3);
        assert_eq!(r.matching.size(), 16);
    }

    #[test]
    fn exact_on_paths_and_cycles_with_moderate_k() {
        let g = path(13); // optimum 6
        let r = run(&g, 6, 1);
        assert_eq!(r.matching.size(), 6);
        let g = cycle(9); // optimum 4
        let r = run(&g, 4, 2);
        assert_eq!(r.matching.size(), 4);
    }

    #[test]
    fn bipartite_ratio_tracks_k() {
        let (g, _) = bipartite_gnp(25, 25, 0.1, 5);
        let r1 = run(&g, 1, 1);
        let r3 = run(&g, 3, 1);
        assert!(r3.matching.size() >= r1.matching.size());
        assert!(ratio(&g, &r3.matching) >= 0.75 - 1e-9);
    }

    #[test]
    fn phase_log_is_coherent() {
        let g = gnp(30, 0.1, 9);
        let mut s = Session::on(&g)
            .algorithm(Algorithm::Generic { k: 3 })
            .seed(4)
            .build();
        let r = s.run_to_completion();
        let phases = s.phase_log();
        assert_eq!(phases.len(), 3);
        assert_eq!(phases[0].ell, 1);
        assert_eq!(phases[2].ell, 5);
        assert_eq!(phases.last().unwrap().matching_size, r.matching.size());
        // Every applied path grows the (initially empty) matching by one.
        let mut size = 0;
        for p in phases {
            size += p.applied as usize;
            assert_eq!(p.matching_size, size);
        }
    }

    #[test]
    fn stats_reflect_large_messages() {
        let g = gnp(30, 0.15, 2);
        let r = run(&g, 2, 8);
        // Ball gathering ships whole subgraphs: messages far larger
        // than CONGEST's O(log n).
        assert!(r.stats.max_msg_bits > 64, "max = {}", r.stats.max_msg_bits);
        assert!(r.stats.rounds > 0);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = Graph::new(0, vec![]);
        let r = run(&g, 3, 0);
        assert_eq!(r.matching.size(), 0);
    }

    #[test]
    fn mis_ranks_are_enumeration_order_independent() {
        // The keyed ranks must make the chosen set a function of the
        // path *set*: reversing the enumeration order cannot change it.
        let g = gnp(30, 0.12, 17);
        let m = Matching::new(g.n());
        let paths = enumerate_augmenting_paths(&g, &m, 1);
        assert!(paths.len() > 2, "fixture needs a real conflict graph");
        let keys: Vec<u64> = paths.iter().map(|p| path_key(p)).collect();
        let fwd = conflict_graph_mis(g.n(), &paths, &keys, 3, 1);
        let rev_paths: Vec<Vec<NodeId>> = paths.iter().rev().cloned().collect();
        let rev_keys: Vec<u64> = keys.iter().rev().copied().collect();
        let rev = conflict_graph_mis(g.n(), &rev_paths, &rev_keys, 3, 1);
        let mut a: Vec<&Vec<NodeId>> = fwd.chosen.iter().map(|&i| &paths[i]).collect();
        let mut b: Vec<&Vec<NodeId>> = rev.chosen.iter().map(|&i| &rev_paths[i]).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    /// The reference of Step 5: first fit (`greedy_disjoint_paths`)
    /// over the paths sorted best rank first, with the rank order
    /// spelled out here on its own. Indices into `paths`, ascending.
    fn greedy_in_rank_order(
        g: &Graph,
        paths: &[Vec<NodeId>],
        keys: &[u64],
        seed: u64,
        ell: usize,
    ) -> Vec<usize> {
        let rank = |i: usize| (path_rank(seed, ell, keys[i]), keys[i], &paths[i]);
        let mut by_rank: Vec<usize> = (0..paths.len()).collect();
        by_rank.sort_by(|&i, &j| rank(i).cmp(&rank(j)));
        let sorted: Vec<Vec<NodeId>> = by_rank.iter().map(|&i| paths[i].clone()).collect();
        let mut chosen: Vec<usize> = dgraph::augmenting::greedy_disjoint_paths(g, &sorted)
            .into_iter()
            .map(|r| by_rank[r])
            .collect();
        chosen.sort();
        chosen
    }

    /// Step 5's rounds choose exactly the greedy set in rank order, on
    /// every zoo family at three sizes, for three seeds and phases
    /// ℓ = 1, 3, 5, each from the matching the earlier phases left.
    /// Each phase also runs on the reversed enumeration, and with keys
    /// folded to two values, so that ranks tie and the vertex sequence
    /// decides.
    #[test]
    fn conflict_graph_mis_is_greedy_in_rank_order() {
        // Phases per ℓ where some path lost to a conflict.
        let mut contested = [0; 3];
        for n in [30, 120, 400] {
            for (family, g) in zoo(n).iter().enumerate() {
                for seed in 0..3u64 {
                    let mut m = Matching::new(n);
                    for (phase_idx, contested) in contested.iter_mut().enumerate() {
                        let ell = 2 * phase_idx + 1;
                        let paths = enumerate_augmenting_paths(g, &m, ell);
                        let keys: Vec<u64> = paths.iter().map(|p| path_key(p)).collect();
                        let reversed: Vec<Vec<NodeId>> = paths.iter().rev().cloned().collect();
                        let rev_keys: Vec<u64> = keys.iter().rev().copied().collect();
                        for (paths, keys) in [(&paths, keys.clone()), (&reversed, rev_keys)] {
                            let folded: Vec<u64> = keys.iter().map(|k| k & 1).collect();
                            for keys in [keys, folded] {
                                let mut got = conflict_graph_mis(n, paths, &keys, seed, ell).chosen;
                                got.sort();
                                assert_eq!(
                                    got,
                                    greedy_in_rank_order(g, paths, &keys, seed, ell),
                                    "n {n}, family {family}, seed {seed}, ell {ell}"
                                );
                            }
                        }
                        let chosen = conflict_graph_mis(n, &paths, &keys, seed, ell).chosen;
                        *contested += usize::from(chosen.len() < paths.len());
                        for &i in &chosen {
                            m.augment_path(g, &paths[i]);
                        }
                    }
                }
            }
        }
        assert!(
            contested.iter().all(|&c| c > 0),
            "vacuous phase: {contested:?}"
        );
    }

    #[test]
    fn path_key_is_direction_invariant() {
        let p: Vec<NodeId> = vec![3, 9, 4, 12];
        let mut q = p.clone();
        q.reverse();
        assert_eq!(path_key(&p), path_key(&q));
        assert_ne!(path_key(&p), path_key(&[3, 9, 4]));
    }

    #[test]
    fn repair_localizes_and_keeps_bound() {
        use dgraph::augmenting::has_augmenting_path_within;
        for seed in 0..4 {
            let g = gnp(40, 0.08, 90 + seed);
            let k = 2;
            let mut s = Session::on(&g)
                .algorithm(Algorithm::Generic { k })
                .seed(seed)
                .build();
            let full = s.run_to_completion();
            // Damage the instance: remove one matched edge (both
            // endpoints become free) — the classic churn event.
            let Some(&e) = full.matching.edge_ids(&g).first() else {
                continue;
            };
            s.rewire(&[g.endpoints(e)], &[]);
            let g2 = s.graph().clone();
            let r = s.run_to_completion();
            let repair_messages = r.stats.messages - full.stats.messages;
            assert!(r.matching.validate(&g2).is_ok());
            assert!(
                !has_augmenting_path_within(&g2, &r.matching, 2 * k - 1),
                "seed {seed}: repair left a short augmenting path"
            );
            // Localized repair must cost far fewer messages than a
            // cold run on the same instance (epoch 1 seeds as seed + 1).
            let cold = run(&g2, k, seed + 1);
            assert!(
                repair_messages <= cold.stats.messages,
                "seed {seed}: repair sent {repair_messages} messages vs cold {}",
                cold.stats.messages
            );
        }
    }

    /// Random geometric graph on `n` points with expected degree about
    /// `deg` away from the boundary.
    fn geometric(n: usize, deg: f64, seed: u64) -> Graph {
        random_geometric(n, (deg / (std::f64::consts::PI * n as f64)).sqrt(), seed)
    }

    /// One graph of each zoo family on `n` nodes, average degree about 8.
    fn zoo(n: usize) -> [Graph; 6] {
        let (nx, ny) = (2 * n / 5, n - 2 * n / 5);
        [
            gnp(n, 8.0 / n as f64, 1),
            barabasi_albert(n, 4, 2),
            chung_lu(n, 2.5, 8.0, 3),
            geometric(n, 8.0, 4),
            d_regular(n, 8, 5),
            zipf_bipartite(nx, ny, (4 * n).min(nx * ny / 2), 1.1, 6).0,
        ]
    }

    /// The sized tokens carry the flood's traffic exactly: every
    /// `NetStats` field, `per_round` included, on every zoo family,
    /// with and without a repair region. At n = 40 every table is one
    /// partial batch of [`LANES`] sources, on both executors. At
    /// n = 130 a table takes up to three batches; the real flood is
    /// slow there, so that size runs radius 2 (the first with a BFS
    /// level past the sources) on the sequential executor only.
    #[test]
    fn sized_gather_equals_the_flood() {
        let seq = [ExecCfg::sequential()];
        let both = [ExecCfg::sequential(), ExecCfg::parallel(3).forced()];
        let sizes = [
            (40, &[0, 1, 2, 6][..], &both[..]),
            (130, &[2][..], &seq[..]),
        ];
        for (n, radii, cfgs) in sizes {
            for (family, g) in zoo(n).iter().enumerate() {
                let seed = family as u64;
                let region = ball(g, &[0, n as NodeId / 2], 2);
                for m in [Matching::new(n), dgraph::greedy::greedy_maximal(g)] {
                    for &radius in radii {
                        for region in [None, Some(&region[..])] {
                            for &cfg in cfgs {
                                let sized = gather_balls_region(g, &m, radius, seed, cfg, region);
                                let (_, flood) = flood_views(g, &m, radius, seed, cfg, region);
                                assert_eq!(
                                    sized,
                                    flood,
                                    "n {n}, family {family}, matching size {}, radius {radius}, \
                                     region {}, threads {}",
                                    m.size(),
                                    region.is_some(),
                                    cfg.threads
                                );
                                assert_eq!(radius == 0, flood.messages == 0);
                            }
                        }
                    }
                }
            }
        }
    }

    /// [`shell_table`]'s reference model: one BFS per participant.
    fn shell_table_per_source(
        g: &Graph,
        m: &Matching,
        radius: usize,
        region: Option<&[bool]>,
    ) -> Vec<u64> {
        let n = g.n();
        let mut table = vec![0u64; n * radius];
        if radius == 0 {
            return table;
        }
        let participating = |v: NodeId| region.is_none_or(|r| r[v as usize]);
        // `seen_by[x] == s` marks `dist[x]` as valid for source `s`.
        let mut seen_by = vec![usize::MAX; n];
        let mut dist = vec![0usize; n];
        let mut queue: Vec<NodeId> = Vec::with_capacity(n);
        for (s, row) in table.chunks_exact_mut(radius).enumerate() {
            if !participating(s as NodeId) {
                continue;
            }
            seen_by[s] = s;
            dist[s] = 0;
            queue.clear();
            queue.push(s as NodeId);
            let mut head = 0;
            while let Some(&x) = queue.get(head) {
                head += 1;
                let dx = dist[x as usize];
                if m.is_free(x) {
                    row[dx] += FREE_ITEM_BITS;
                }
                for &(y, _) in g.incident(x) {
                    let y = y as usize;
                    if seen_by[y] != s {
                        // Unreached so far: farther than `x`, or never.
                        row[dx] += EDGE_ITEM_BITS;
                        if dx + 1 < radius && participating(y as NodeId) {
                            seen_by[y] = s;
                            dist[y] = dx + 1;
                            queue.push(y as NodeId);
                        }
                    } else if dist[y] > dx || (dist[y] == dx && (x as usize) < y) {
                        row[dx] += EDGE_ITEM_BITS;
                    }
                }
            }
        }
        table
    }

    /// The batched table equals one BFS per source: on every zoo family
    /// at one partial batch (n = 12, 40), several batches (n = 130) and
    /// a partial last batch (n = 200), over radii up to 10, empty and
    /// maximal matchings, with and without a region that fragments the
    /// participants, and on the degenerate graphs.
    #[test]
    fn batched_shell_table_equals_per_source() {
        let check = |g: &Graph, m: &Matching, radius: usize, region: Option<&[bool]>| {
            let table = shell_table(g, m, radius, region);
            assert_eq!(
                table,
                shell_table_per_source(g, m, radius, region),
                "n {}, matching size {}, radius {radius}, region {}",
                g.n(),
                m.size(),
                region.is_some()
            );
            table
        };
        let isolated = Graph::new(70, vec![(0, 1), (1, 2), (2, 0), (5, 6), (40, 69)]);
        for g in [Graph::new(0, vec![]), Graph::new(1, vec![]), isolated] {
            for radius in [0, 1, 3] {
                check(&g, &Matching::new(g.n()), radius, None);
            }
        }
        // Some level holds more than 255 edges for one source, so its
        // count carries into the ninth plane.
        let mut ninth_plane = false;
        for n in [12, 40, 130, 200] {
            for g in zoo(n) {
                let region = ball(&g, &[0, n as NodeId / 2], 2);
                for m in [Matching::new(n), dgraph::greedy::greedy_maximal(&g)] {
                    for radius in [0, 1, 2, 3, 6, 10] {
                        for region in [None, Some(&region[..])] {
                            let table = check(&g, &m, radius, region);
                            let most_frees = n as u64 * FREE_ITEM_BITS;
                            ninth_plane |= table
                                .iter()
                                .any(|&bits| bits > 255 * EDGE_ITEM_BITS + most_frees);
                        }
                    }
                }
            }
        }
        assert!(ninth_plane, "no level count reached 256");
    }

    /// Does `view` show `q` as an augmenting path: its edges with their
    /// matched flags, and both endpoints free?
    fn sees(g: &Graph, m: &Matching, view: &BTreeSet<ViewItem>, q: &[NodeId]) -> bool {
        let free_ends = [q[0], q[q.len() - 1]].map(ViewItem::Free);
        free_ends.iter().all(|item| view.contains(item))
            && q.windows(2).all(|w| {
                let e = g.edge_between(w[0], w[1]).unwrap();
                let (a, b) = g.endpoints(e);
                view.contains(&ViewItem::Edge(a, b, m.contains(g, e)))
            })
    }

    /// Algorithm 2's premise: after the phase-`ℓ` gather over radius
    /// `2ℓ`, every node of an augmenting path of length `ℓ` sees that
    /// path, and every path conflicting with it, in its view. Each
    /// phase starts from the matching the earlier phases left.
    #[test]
    fn gathered_views_hold_every_path_and_its_conflicts() {
        let cfg = ExecCfg::sequential();
        let graphs = [
            gnp(80, 0.04, 11),
            d_regular(80, 3, 12),
            geometric(80, 4.0, 13),
        ];
        let mut found = [0usize; 3];
        for g in graphs {
            let (mut m, mut stats) = (Matching::new(g.n()), NetStats::default());
            for (phase_idx, found) in found.iter_mut().enumerate() {
                let ell = 2 * phase_idx + 1;
                let (views, _) = flood_views(&g, &m, 2 * ell, 0, cfg, None);
                let paths = enumerate_augmenting_paths(&g, &m, ell);
                *found += paths.len();
                let mut through = vec![Vec::new(); g.n()];
                for (i, p) in paths.iter().enumerate() {
                    for &v in p {
                        through[v as usize].push(i);
                    }
                }
                for p in &paths {
                    for &v in p {
                        // `p` itself and every path sharing a vertex with it.
                        for &j in p.iter().flat_map(|&u| &through[u as usize]) {
                            assert!(
                                sees(&g, &m, &views[v as usize], &paths[j]),
                                "phase {ell}: node {v} cannot see path {:?}",
                                paths[j]
                            );
                        }
                    }
                }
                phase_step(&g, &mut m, phase_idx, 7, cfg, None, &mut stats);
            }
        }
        assert!(found.iter().all(|&f| f > 0), "vacuous phase: {found:?}");
    }
}
