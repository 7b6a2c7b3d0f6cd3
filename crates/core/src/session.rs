//! # The unified `Session` driver
//!
//! The one builder-first surface that runs every algorithm of the
//! paper, whatever the knobs (execution config, termination charging,
//! observers):
//!
//! ```
//! use dgraph::generators::random::gnp;
//! use dmatch::session::Session;
//! use dmatch::{Algorithm, TerminationMode};
//! use simnet::ExecCfg;
//!
//! let g = gnp(60, 0.1, 1);
//! let report = Session::on(&g)
//!     .algorithm(Algorithm::Generic { k: 3 })
//!     .seed(42)
//!     .exec(ExecCfg::sequential())
//!     .termination(TerminationMode::Honest)
//!     .build()
//!     .run_to_completion();
//! assert!(report.matching.validate(&g).is_ok());
//! assert!(report.mcm_ratio(&g) >= 0.75 - 1e-9);
//! ```
//!
//! A [`Session`] owns its graph and matching, starts from the empty
//! matching, and advances in **phases** — the algorithm-specific unit
//! of progress the paper's analyses are written in (a `ℓ`-phase of
//! Algorithm 1, one `Aug` phase of Theorem 3.8, one sampling iteration
//! of Algorithm 4, one black-box iteration of Algorithm 5, one full
//! Israeli–Itai run). This is exactly the probe/step/observe cost
//! interface of the LCA line of work the experiments benchmark against.
//! Between phases the run is read through its accessors:
//! [`Session::matching`], [`Session::stats`] (every simulated or
//! charged round is a row of its `per_round`), [`Session::phase_log`]
//! and [`Session::oracle_checks`]. An [`Observer`] receives a callback
//! per phase.
//!
//! A completed `Algorithm::Generic` session can absorb a churn batch
//! `(removed, added)` and repair in place: [`Session::rewire`] patches
//! the graph, unmatches the destroyed pairs, derives the damage set
//! ([`apply_batch`]) and restricts all gathering traffic of the repair
//! epoch to the damage ball `B(damage, 4k+2)`. `dchurn::DynEngine`
//! drives its generic arm through this path; its Israeli–Itai arm
//! repairs on one persistent network of its own.
//!
//! Each driver arm is the only implementation of its algorithm's phase
//! loop, built on the per-phase primitives of the algorithm modules;
//! `tests/prop_session.rs` pins every arm's outputs (matching, rounds,
//! messages, bits, oracle checks) to a golden table.

use crate::runner::{Algorithm, RunReport, TerminationMode};
use crate::weighted::MwmBox;
use crate::{bipartite, general, generic, israeli_itai, weighted};
use dgraph::{Graph, Matching, NodeId};
use simnet::{ExecCfg, NetStats, SplitMix64};
use std::cell::RefCell;
use std::rc::Rc;

// ---------------------------------------------------------------------
// Observer plane
// ---------------------------------------------------------------------

/// Verdict an [`Observer`] callback returns: keep going, or abort the
/// session at the end of the current phase (phases are atomic — an
/// abort can never leave a half-applied augmentation behind).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Continue the run.
    Continue,
    /// Stop after the current phase; [`Session::step`] then reports
    /// [`Phase::Aborted`] and the session keeps its partial result.
    Abort,
}

/// A completed phase, as seen by an observer.
#[derive(Debug)]
pub struct PhaseEvent<'a> {
    /// The phase that just ran.
    pub phase: &'a PhaseInfo,
    /// The session's graph (current epoch).
    pub graph: &'a Graph,
    /// The matching after the phase.
    pub matching: &'a Matching,
    /// Cumulative statistics after the phase.
    pub stats: &'a NetStats,
}

/// Per-phase callbacks into a running [`Session`].
///
/// Phase events carry the phase's log entry, the matching and the
/// cumulative [`NetStats`] (whose `per_round` rows hold every round so
/// far). A callback may return [`Control::Abort`] to stop the session
/// at this phase boundary.
pub trait Observer {
    /// Called at every phase boundary.
    fn on_phase(&mut self, ev: &PhaseEvent<'_>) -> Control;
}

/// One point of a convergence curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Cumulative rounds when the point was taken.
    pub round: u64,
    /// Matching cardinality at that point.
    pub matching_size: usize,
    /// Matching weight at that point (equals the cardinality on
    /// unweighted graphs).
    pub weight: f64,
}

/// Records the matching size / weight after every phase — the
/// ratio-vs-round series the E-experiments plot. The handle is shared:
/// clone it, hand one clone to [`SessionBuilder::observe`], and read
/// [`ConvergenceCurve::points`] from the other whenever you like
/// (mid-run included).
#[derive(Debug, Clone, Default)]
pub struct ConvergenceCurve {
    inner: Rc<RefCell<Vec<CurvePoint>>>,
}

impl ConvergenceCurve {
    /// New, empty curve.
    pub fn new() -> Self {
        Self::default()
    }

    /// The points recorded so far.
    pub fn points(&self) -> Vec<CurvePoint> {
        self.inner.borrow().clone()
    }
}

impl Observer for ConvergenceCurve {
    fn on_phase(&mut self, ev: &PhaseEvent<'_>) -> Control {
        self.inner.borrow_mut().push(CurvePoint {
            round: ev.stats.rounds,
            matching_size: ev.matching.size(),
            weight: ev.matching.weight(ev.graph),
        });
        Control::Continue
    }
}

// ---------------------------------------------------------------------
// Phases
// ---------------------------------------------------------------------

/// What one [`Session::step`] call did.
#[derive(Debug)]
pub enum Phase {
    /// A phase ran; here is its log entry.
    Ran(PhaseInfo),
    /// The algorithm has completed (idempotent).
    Done,
    /// An observer aborted the run (idempotent).
    Aborted,
}

/// Log entry of one phase (the algorithm-specific unit of progress).
#[derive(Debug, Clone)]
pub struct PhaseInfo {
    /// 0-based sequence number within the session (epochs continue the
    /// numbering).
    pub index: usize,
    /// Human-readable phase label.
    pub label: String,
    /// Augmenting-path length `ℓ` for phase-structured algorithms, 0
    /// where the notion does not apply.
    pub ell: usize,
    /// Augmenting paths applied (phase-structured algorithms) / net
    /// edges gained (Israeli–Itai, Weighted, DeltaMwm) during the phase.
    pub applied: u64,
    /// Inner iterations consumed (MIS iterations, count+token loops,
    /// Israeli–Itai iterations, …).
    pub iterations: u64,
    /// Rounds consumed by this phase.
    pub rounds: u64,
    /// Matching cardinality after the phase.
    pub matching_size: usize,
}

/// What a churn batch did to a matching, as [`apply_batch`] derives it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Damage {
    /// Matched edges the batch destroyed (each frees two nodes).
    pub invalidated: usize,
    /// The damage set, ascending and distinct: the endpoints of the
    /// inserted edges and of the destroyed matched edges.
    pub nodes: Vec<NodeId>,
}

/// Apply a churn batch (deletions `removed`, then insertions `added`)
/// to a graph and a matching on it: unmatch every matched pair in
/// `removed`, patch the graph into `spare`'s buffers
/// ([`Graph::patch_into`], whose panics apply) and swap the two, so
/// `spare` keeps the retired graph for the next batch. Returns the
/// damage: the endpoints of inserted edges and of destroyed matched
/// edges. [`Session::rewire`] and `dchurn`'s Israeli–Itai arm share
/// this one damage rule.
///
/// Why repair may stay at the damage: removing an unmatched edge only
/// destroys augmenting paths, so an augmenting path of the new instance
/// that was not one before has a freed endpoint or uses an inserted
/// edge. After an epoch that left no augmenting path of length
/// `≤ 2k-1` (Theorem 3.1), every such path, and every vertex whose
/// matched status the repair changes, stays within distance `O(k)` of
/// the damage; after a maximal matching, every free–free edge has a
/// damaged endpoint. No damage keeps the old guarantee: a free epoch.
pub fn apply_batch(
    g: &mut Graph,
    spare: &mut Graph,
    m: &mut Matching,
    removed: &[(NodeId, NodeId)],
    added: &[(NodeId, NodeId)],
) -> Damage {
    let mut damage = Damage::default();
    for &(u, v) in removed {
        if m.mate(u) == Some(v) {
            let e = g.edge_between(u, v).expect("matched pairs are edges");
            m.remove(g, e);
            damage.invalidated += 1;
            damage.nodes.extend([u, v]);
        }
    }
    damage.nodes.extend(added.iter().flat_map(|&(u, v)| [u, v]));
    // Ascending and distinct: the damage set is iterated into wake-up
    // schedules and BFS seeds, so its order must come from node ids.
    damage.nodes.sort_unstable();
    damage.nodes.dedup();
    g.patch_into(removed, added, spare);
    std::mem::swap(g, spare);
    debug_assert!(
        m.validate(g).is_ok(),
        "surviving matching must stay valid on the new graph"
    );
    damage
}

/// Honest termination convergecasts over the whole graph.
fn assert_honest_connected(termination: TerminationMode, g: &Graph) {
    assert!(
        termination != TerminationMode::Honest || g.n() < 2 || g.components() == 1,
        "TerminationMode::Honest needs a connected graph, but this one has {} components",
        g.components()
    );
}

// ---------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------

/// Builder for a [`Session`]; start from [`Session::on`].
pub struct SessionBuilder<'a> {
    g: &'a Graph,
    sides: Option<&'a [bool]>,
    alg: Algorithm,
    seed: u64,
    cfg: ExecCfg,
    termination: TerminationMode,
    observers: Vec<Box<dyn Observer>>,
    round_limit: Option<u64>,
}

impl<'a> SessionBuilder<'a> {
    /// Which algorithm to run (default: [`Algorithm::IsraeliItai`]).
    pub fn algorithm(mut self, alg: Algorithm) -> Self {
        self.alg = alg;
        self
    }

    /// Bipartition for [`Algorithm::Bipartite`] (`false` = X side).
    pub fn sides(mut self, sides: &'a [bool]) -> Self {
        self.sides = Some(sides);
        self
    }

    /// Master RNG seed (default 0). Identical seeds give bit-identical
    /// runs regardless of [`ExecCfg::threads`].
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Execution knobs: worker threads, timing, and fault injection —
    /// the adversary plan lives in [`ExecCfg::faults`], so
    /// `.exec(cfg.with_faults(plan))` runs every simulated round through
    /// the adversary plane (drops, delays, stalls, crashes, CONGEST
    /// budgets — see `simnet::adversary`). Same seed + same plan ⇒
    /// bit-identical runs at any thread count.
    pub fn exec(mut self, cfg: ExecCfg) -> Self {
        self.cfg = cfg;
        self
    }

    /// Cap the simulation at exactly `rounds` rounds and extract the
    /// *agreed* matching (pairs in which both endpoints claim each
    /// other) instead of running to quiescence. Only meaningful for
    /// [`Algorithm::IsraeliItai`]: fault-free, a short cap is the
    /// constant-round truncated regime (experiment E14); under a drop
    /// plan, it is the fixed-budget lossy regime. `build` panics for
    /// other algorithms.
    pub fn round_limit(mut self, rounds: u64) -> Self {
        self.round_limit = Some(rounds);
        self
    }

    /// How termination detection is charged (default: Oracle).
    pub fn termination(mut self, termination: TerminationMode) -> Self {
        self.termination = termination;
        self
    }

    /// Attach an observer (may be called repeatedly; all observers see
    /// every phase).
    pub fn observe(mut self, obs: impl Observer + 'static) -> Self {
        self.observers.push(Box::new(obs));
        self
    }

    /// Validate the configuration and construct the [`Session`]
    /// (cloning the graph into it; the matching starts empty).
    ///
    /// # Panics
    ///
    /// On invalid combinations: `Bipartite` without `sides`,
    /// `round_limit` for a non-`IsraeliItai` algorithm, `k == 0`, or
    /// [`TerminationMode::Honest`] on a disconnected graph.
    pub fn build(self) -> Session {
        assert_honest_connected(self.termination, self.g);
        let g = self.g.clone();
        assert!(
            self.round_limit.is_none() || matches!(self.alg, Algorithm::IsraeliItai),
            "round_limit only applies to Algorithm::IsraeliItai"
        );
        let m = Matching::new(g.n());
        let driver = match self.alg {
            Algorithm::IsraeliItai => Driver::IsraeliItai { done: false },
            Algorithm::Generic { k } => {
                assert!(k >= 1, "k must be positive");
                Driver::Generic {
                    k,
                    region: None,
                    next: 0,
                }
            }
            Algorithm::Bipartite { k } => {
                assert!(k >= 1, "k must be positive");
                let sides = self.sides.expect("Bipartite algorithm requires sides");
                Driver::Bipartite {
                    k,
                    spec: bipartite::SubgraphSpec::full_bipartite(&g, sides),
                    next: 0,
                    aug: bipartite::AugNets::default(),
                }
            }
            Algorithm::General { k, early_stop } => {
                assert!(k >= 1, "k must be positive");
                Driver::General {
                    ell: 2 * k - 1,
                    rng: general::color_rng(self.seed),
                    budget: general::iteration_bound(k),
                    early_stop,
                    it: 0,
                    idle_streak: 0,
                    stopped: false,
                    aug: bipartite::AugNets::default(),
                }
            }
            Algorithm::Weighted { epsilon, mwm_box } => Driver::Weighted {
                mwm_box,
                iters: weighted::iteration_bound(mwm_box.nominal_delta(), epsilon),
                it: 0,
            },
            Algorithm::DeltaMwm { mwm_box } => Driver::DeltaMwm {
                mwm_box,
                done: false,
            },
        };
        Session {
            g,
            spare: None,
            alg: self.alg,
            seed: self.seed,
            cfg: self.cfg,
            termination: self.termination,
            round_limit: self.round_limit,
            observers: self.observers,
            driver,
            m,
            stats: NetStats::default(),
            oracle_checks: 0,
            honest_charged: 0,
            finish_bumped: false,
            phases: Vec::new(),
            status: Status::Running,
            epoch: 0,
        }
    }
}

// ---------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Running,
    Done,
    Aborted,
}

/// Per-algorithm phase cursor: each arm is its algorithm's phase loop
/// (schedule and per-phase seed derivations), stepping the per-phase
/// primitives of the algorithm modules.
enum Driver {
    IsraeliItai {
        done: bool,
    },
    Generic {
        k: usize,
        /// Gathering region (damage ball) for repair epochs; `None` on
        /// the initial run.
        region: Option<Vec<bool>>,
        next: usize,
    },
    Bipartite {
        k: usize,
        spec: bipartite::SubgraphSpec,
        next: usize,
        aug: bipartite::AugNets,
    },
    General {
        ell: usize,
        rng: SplitMix64,
        budget: u64,
        early_stop: Option<u64>,
        it: u64,
        idle_streak: u64,
        stopped: bool,
        aug: bipartite::AugNets,
    },
    Weighted {
        mwm_box: MwmBox,
        iters: u64,
        it: u64,
    },
    DeltaMwm {
        mwm_box: MwmBox,
        done: bool,
    },
}

/// The unified driver: owns the graph, the matching, the statistics,
/// and the observer plane; see the [module docs](self) for the tour.
pub struct Session {
    g: Graph,
    /// The graph the previous rewire retired; the next batch is patched
    /// into its buffers. Allocated by the first rewire.
    spare: Option<Graph>,
    alg: Algorithm,
    seed: u64,
    cfg: ExecCfg,
    termination: TerminationMode,
    round_limit: Option<u64>,
    observers: Vec<Box<dyn Observer>>,
    driver: Driver,
    m: Matching,
    stats: NetStats,
    oracle_checks: u64,
    /// Oracle consultations already surcharged under Honest mode (so a
    /// resumed epoch only charges its fresh consultations).
    honest_charged: u64,
    /// Whether the Bipartite completion bump (`+k` schedule consults)
    /// has been applied.
    finish_bumped: bool,
    phases: Vec<PhaseInfo>,
    status: Status,
    /// Rewire epochs absorbed so far; epoch `e` derives its seeds as
    /// `seed + e` (matching the dynamic engine's convention).
    epoch: u64,
}

impl Session {
    /// Start building a session over `g` (the graph is cloned into the
    /// session at `build`; the paper's communication graph is the input
    /// graph itself).
    pub fn on(g: &Graph) -> SessionBuilder<'_> {
        SessionBuilder {
            g,
            sides: None,
            alg: Algorithm::IsraeliItai,
            seed: 0,
            cfg: ExecCfg::default(),
            termination: TerminationMode::default(),
            observers: Vec::new(),
            round_limit: None,
        }
    }

    /// The algorithm this session runs.
    pub fn algorithm(&self) -> Algorithm {
        self.alg
    }

    /// The session's current graph (post-churn after a rewire).
    pub fn graph(&self) -> &Graph {
        &self.g
    }

    /// The current matching (valid after every phase).
    pub fn matching(&self) -> &Matching {
        &self.m
    }

    /// Cumulative statistics across all phases and epochs.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Oracle consultations so far.
    pub fn oracle_checks(&self) -> u64 {
        self.oracle_checks
    }

    /// Log of every completed phase (all epochs).
    pub fn phase_log(&self) -> &[PhaseInfo] {
        &self.phases
    }

    /// Rewire epochs absorbed so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Has the current epoch's run completed?
    pub fn is_done(&self) -> bool {
        self.status == Status::Done
    }

    /// Did an observer abort the run?
    pub fn is_aborted(&self) -> bool {
        self.status == Status::Aborted
    }

    /// Advance the session by one phase. Idempotent once the run is
    /// [`Phase::Done`] or [`Phase::Aborted`].
    pub fn step(&mut self) -> Phase {
        match self.status {
            Status::Done => return Phase::Done,
            Status::Aborted => return Phase::Aborted,
            Status::Running => {}
        }
        let epoch_seed = self.seed.wrapping_add(self.epoch);
        let before_size = self.m.size();
        let before_rounds = self.stats.rounds;
        let info = match &mut self.driver {
            Driver::IsraeliItai { done } => {
                if *done {
                    None
                } else {
                    let (m, s) = israeli_itai::run(&self.g, epoch_seed, self.cfg, self.round_limit);
                    // Each 3-round iteration ends with a maximality
                    // consult.
                    self.oracle_checks += s.rounds.div_ceil(3);
                    let iterations = s.rounds.div_ceil(3);
                    self.m = m;
                    self.stats.absorb(&s);
                    *done = true;
                    Some(PhaseInfo {
                        index: 0,
                        label: "maximal-matching".into(),
                        ell: 1,
                        applied: self.m.size().saturating_sub(before_size) as u64,
                        iterations,
                        rounds: 0,
                        matching_size: 0,
                    })
                }
            }
            Driver::Generic { k, region, next } => {
                if *next >= *k || self.g.n() == 0 {
                    None
                } else {
                    let log = generic::phase_step(
                        &self.g,
                        &mut self.m,
                        *next,
                        epoch_seed,
                        self.cfg,
                        region.as_deref(),
                        &mut self.stats,
                    );
                    *next += 1;
                    self.oracle_checks += log.mis_iterations;
                    Some(PhaseInfo {
                        index: 0,
                        label: format!("augment \u{2113}={}", log.ell),
                        ell: log.ell,
                        applied: log.applied as u64,
                        iterations: log.mis_iterations,
                        rounds: 0,
                        matching_size: 0,
                    })
                }
            }
            Driver::Bipartite { k, spec, next, aug } => {
                if *next >= *k {
                    None
                } else {
                    let ell = 2 * *next + 1;
                    let out = aug.aug_until_maximal(
                        &self.g,
                        &self.m,
                        spec,
                        ell,
                        epoch_seed.wrapping_add(0x1000 * ell as u64),
                        self.cfg,
                    );
                    *next += 1;
                    self.m = out.matching;
                    self.stats.absorb(&out.stats);
                    self.oracle_checks += out.iterations;
                    Some(PhaseInfo {
                        index: 0,
                        label: format!("aug \u{2113}={ell}"),
                        ell,
                        applied: out.applied as u64,
                        iterations: out.iterations,
                        rounds: 0,
                        matching_size: 0,
                    })
                }
            }
            Driver::General {
                ell,
                rng,
                budget,
                early_stop,
                it,
                idle_streak,
                stopped,
                aug,
            } => {
                if *stopped || *it >= *budget {
                    None
                } else {
                    let applied = general::sample_iteration(
                        &self.g,
                        &mut self.m,
                        *ell,
                        *it,
                        epoch_seed,
                        self.cfg,
                        rng,
                        &mut self.stats,
                        aug,
                    );
                    *it += 1;
                    self.oracle_checks += 1;
                    if applied == 0 {
                        *idle_streak += 1;
                        if early_stop.is_some_and(|s| *idle_streak >= s) {
                            *stopped = true;
                        }
                    } else {
                        *idle_streak = 0;
                    }
                    Some(PhaseInfo {
                        index: 0,
                        label: format!("sample {}", *it - 1),
                        ell: *ell,
                        applied: applied as u64,
                        iterations: 1,
                        rounds: 0,
                        matching_size: 0,
                    })
                }
            }
            Driver::Weighted { mwm_box, iters, it } => {
                if *it >= *iters {
                    None
                } else {
                    weighted::iteration(
                        &self.g,
                        &mut self.m,
                        *mwm_box,
                        *it,
                        epoch_seed,
                        self.cfg,
                        &mut self.stats,
                    );
                    *it += 1;
                    self.oracle_checks += 1;
                    Some(PhaseInfo {
                        index: 0,
                        label: format!("box iteration {}", *it - 1),
                        ell: 0,
                        applied: self.m.size().saturating_sub(before_size) as u64,
                        iterations: 1,
                        rounds: 0,
                        matching_size: 0,
                    })
                }
            }
            Driver::DeltaMwm { mwm_box, done } => {
                if *done {
                    None
                } else {
                    let (m, s) = mwm_box.run_cfg(&self.g, epoch_seed, self.cfg);
                    self.m = m;
                    self.stats.absorb(&s);
                    // One global "is the box done" consult.
                    self.oracle_checks += 1;
                    *done = true;
                    Some(PhaseInfo {
                        index: 0,
                        label: "\u{3b4}-box".into(),
                        ell: 0,
                        applied: self.m.size().saturating_sub(before_size) as u64,
                        iterations: 1,
                        rounds: 0,
                        matching_size: 0,
                    })
                }
            }
        };
        match info {
            None => {
                self.finish_epoch();
                self.status = Status::Done;
                Phase::Done
            }
            Some(mut info) => {
                info.index = self.phases.len();
                info.rounds = self.stats.rounds - before_rounds;
                info.matching_size = self.m.size();
                let ev = PhaseEvent {
                    phase: &info,
                    graph: &self.g,
                    matching: &self.m,
                    stats: &self.stats,
                };
                let mut abort = false;
                for obs in &mut self.observers {
                    abort |= obs.on_phase(&ev) == Control::Abort;
                }
                if dobs::plane::enabled() {
                    dobs::plane::record(dobs::Event::Phase {
                        t_ns: dobs::plane::now_ns(),
                        index: info.index as u32,
                        label: dobs::Name::new(&info.label),
                        rounds: self.stats.rounds,
                        matching: info.matching_size as u64,
                        aborted: abort,
                    });
                }
                self.phases.push(info.clone());
                if abort {
                    self.status = Status::Aborted;
                    Phase::Aborted
                } else {
                    Phase::Ran(info)
                }
            }
        }
    }

    /// Step until the epoch completes (or an observer aborts) and
    /// return the [`RunReport`] — bit-identical to stepping the same
    /// configuration phase by phase.
    pub fn run_to_completion(&mut self) -> RunReport {
        while let Phase::Ran(_) = self.step() {}
        self.report()
    }

    /// The report for the work done so far (clones the matching and
    /// statistics; the session remains usable, e.g. for
    /// [`Session::rewire`]).
    pub fn report(&self) -> RunReport {
        RunReport::new(
            self.alg.name(),
            self.m.clone(),
            self.stats.clone(),
            self.oracle_checks,
        )
    }

    /// Absorb a churn batch (deletions `removed`, then insertions
    /// `added`, as for [`Graph::patch_into`]) into a *completed*
    /// `Algorithm::Generic { k }` session: [`apply_batch`] patches the
    /// graph, unmatches the destroyed pairs and derives the damage set,
    /// which is returned. The next [`Session::step`] /
    /// [`Session::run_to_completion`] runs the repair epoch, whose
    /// gathering traffic all stays inside `B(damage, 4k+2)` (no damage
    /// makes the epoch free); epoch `e` derives its seeds as `seed + e`.
    ///
    /// Panics for the other algorithms (`dchurn`'s
    /// `RepairAlgo::IncrementalMaximal` repairs Israeli–Itai on its own
    /// persistent network), before the epoch has completed, on the
    /// batches `Graph::patch_into` rejects, and under
    /// [`TerminationMode::Honest`] when the batch disconnects the graph.
    pub fn rewire(&mut self, removed: &[(NodeId, NodeId)], added: &[(NodeId, NodeId)]) -> Damage {
        let Driver::Generic { k, region, next } = &mut self.driver else {
            panic!(
                "rewire repairs Algorithm::Generic only, not {}: dchurn repairs \
                 Israeli–Itai on its own persistent network",
                self.alg
            );
        };
        assert!(
            self.status == Status::Done,
            "rewire requires a completed epoch (status: {:?})",
            self.status
        );
        let spare = self.spare.get_or_insert_with(|| Graph::new(0, Vec::new()));
        let damage = apply_batch(&mut self.g, spare, &mut self.m, removed, added);
        assert_honest_connected(self.termination, &self.g);
        self.epoch += 1;
        if damage.nodes.is_empty() {
            // No damage ⇒ the previous guarantee still holds and the
            // repair is free.
            *region = None;
            *next = *k;
        } else {
            let radius = 4 * *k + 2;
            let ball = generic::ball(&self.g, &damage.nodes, radius);
            if dobs::plane::enabled() {
                // The LCA-style locality probe: how big a region did
                // this damage set force the repair to read?
                dobs::plane::record(dobs::Event::RepairBall {
                    t_ns: dobs::plane::now_ns(),
                    damage_nodes: damage.nodes.len() as u64,
                    radius: radius as u64,
                    ball: ball.iter().filter(|&&b| b).count() as u64,
                });
            }
            *region = Some(ball);
            *next = 0;
        }
        self.status = Status::Running;
        damage
    }

    /// End-of-epoch bookkeeping: the Bipartite schedule bump and the
    /// Honest-mode termination surcharge for this epoch's fresh oracle
    /// consultations.
    fn finish_epoch(&mut self) {
        if let Algorithm::Bipartite { k } = self.alg {
            if !self.finish_bumped {
                // The phase schedule itself consults the oracle once
                // per phase.
                self.oracle_checks += k as u64;
                self.finish_bumped = true;
            }
        }
        if self.termination == TerminationMode::Honest && self.g.n() > 0 {
            let fresh = self.oracle_checks - self.honest_charged;
            if fresh > 0 {
                let topo = crate::state::topology_of(&self.g);
                let (_, agg) = simnet::tree::aggregate(
                    &topo,
                    &vec![0u64; self.g.n()],
                    simnet::tree::AggOp::Max,
                );
                for _ in 0..fresh {
                    self.stats.absorb(&agg);
                }
                self.honest_charged = self.oracle_checks;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgraph::generators::random::{bipartite_gnp, gnp};

    impl Session {
        /// Make a `Bipartite` or `General` session construct every pass's
        /// networks afresh: the reference its kept substrate must equal.
        pub(crate) fn fresh_substrate_each_pass(mut self) -> Self {
            match &mut self.driver {
                Driver::Bipartite { aug, .. } | Driver::General { aug, .. } => {
                    aug.fresh_each_pass = true;
                }
                _ => panic!("only Bipartite and General sessions hold a substrate"),
            }
            self
        }
    }

    #[test]
    fn builder_defaults_run_israeli_itai() {
        let g = gnp(30, 0.1, 1);
        let r = Session::on(&g).seed(7).build().run_to_completion();
        assert_eq!(r.name, "israeli-itai");
        assert!(r.matching.is_maximal(&g));
        assert!(r.oracle_checks > 0);
    }

    #[test]
    fn stepwise_equals_one_shot() {
        let g = gnp(24, 0.15, 2);
        let mut stepwise = Session::on(&g)
            .algorithm(Algorithm::Generic { k: 3 })
            .seed(9)
            .build();
        let mut phases = 0;
        while let Phase::Ran(_) = stepwise.step() {
            phases += 1;
        }
        assert_eq!(phases, 3);
        let one_shot = Session::on(&g)
            .algorithm(Algorithm::Generic { k: 3 })
            .seed(9)
            .build()
            .run_to_completion();
        assert_eq!(stepwise.matching(), &one_shot.matching);
        assert_eq!(stepwise.stats(), &one_shot.stats);
    }

    #[test]
    fn convergence_curve_records_phases() {
        let g = gnp(30, 0.12, 5);
        let curve = ConvergenceCurve::new();
        let mut s = Session::on(&g)
            .algorithm(Algorithm::Generic { k: 3 })
            .seed(11)
            .observe(curve.clone())
            .build();
        s.run_to_completion();
        let pts = curve.points();
        assert_eq!(pts.len(), 3);
        assert!(pts
            .windows(2)
            .all(|w| w[0].matching_size <= w[1].matching_size));
    }

    #[test]
    fn bipartite_requires_sides() {
        let (g, sides) = bipartite_gnp(8, 8, 0.3, 1);
        let r = Session::on(&g)
            .algorithm(Algorithm::Bipartite { k: 2 })
            .sides(&sides)
            .seed(3)
            .build()
            .run_to_completion();
        assert!(r.matching.validate(&g).is_ok());
    }

    #[test]
    #[should_panic(expected = "requires sides")]
    fn bipartite_without_sides_panics() {
        let g = gnp(8, 0.3, 1);
        let _ = Session::on(&g)
            .algorithm(Algorithm::Bipartite { k: 2 })
            .build();
    }

    #[test]
    #[should_panic(expected = "round_limit only applies to Algorithm::IsraeliItai")]
    fn round_limit_rejected_for_other_algorithms() {
        let g = gnp(8, 0.3, 1);
        let _ = Session::on(&g)
            .algorithm(Algorithm::Generic { k: 2 })
            .round_limit(6)
            .build();
    }

    #[test]
    fn rewire_repairs_with_generic() {
        use dgraph::augmenting::has_augmenting_path_within;
        let g = gnp(40, 0.08, 9);
        let k = 2;
        let mut s = Session::on(&g)
            .algorithm(Algorithm::Generic { k })
            .seed(5)
            .build();
        s.run_to_completion();
        // Destroy one matched edge (a, b) and insert a non-edge at `a`:
        // `a` is an endpoint twice, but the damage set holds it once.
        let e = s.matching().edge_ids(&g)[0];
        let (a, b) = g.endpoints(e);
        let c = (0..g.n() as NodeId)
            .find(|&c| c != a && g.edge_between(a, c).is_none())
            .expect("a non-neighbor of a");
        let trace = dobs::plane::TraceSession::start(64);
        let damage = s.rewire(&[(a, b)], &[(a.min(c), a.max(c))]);
        let rec = trace.finish();
        let mut nodes = vec![a, b, c];
        nodes.sort_unstable();
        assert_eq!(
            damage,
            Damage {
                invalidated: 1,
                nodes
            }
        );
        let gauge = rec
            .events()
            .find_map(|ev| match ev {
                dobs::Event::RepairBall { damage_nodes, .. } => Some(*damage_nodes),
                _ => None,
            })
            .expect("repair must record a RepairBall event");
        assert_eq!(gauge, 3, "the gauge counts each damage node once");
        let r = s.run_to_completion();
        let g2 = s.graph();
        assert_eq!(g2.m(), g.m());
        assert!(g2.edge_between(a, b).is_none() && g2.edge_between(a, c).is_some());
        assert!(r.matching.validate(g2).is_ok());
        assert!(!has_augmenting_path_within(g2, &r.matching, 2 * k - 1));
        assert_eq!(s.epoch(), 1);
    }

    #[test]
    fn rewire_with_no_damage_is_free() {
        let g = gnp(20, 0.15, 3);
        let mut s = Session::on(&g)
            .algorithm(Algorithm::Generic { k: 2 })
            .seed(1)
            .build();
        let before = s.run_to_completion();
        let rounds0 = s.stats().rounds;
        assert_eq!(s.rewire(&[], &[]), Damage::default());
        let after = s.run_to_completion();
        assert_eq!(before.matching, after.matching);
        assert_eq!(s.stats().rounds, rounds0, "no damage ⇒ free epoch");
        // Removing an unmatched edge only destroys augmenting paths.
        let e = (0..g.m() as dgraph::EdgeId)
            .find(|&e| !s.matching().contains(&g, e))
            .expect("an unmatched edge");
        assert_eq!(s.rewire(&[g.endpoints(e)], &[]), Damage::default());
        let after = s.run_to_completion();
        assert_eq!(before.matching, after.matching);
        assert_eq!(s.stats().rounds, rounds0, "no damage ⇒ free epoch");
    }

    #[test]
    #[should_panic(expected = "TerminationMode::Honest needs a connected graph")]
    fn honest_rejects_a_disconnected_graph() {
        let g = Graph::new(4, vec![(0, 1), (2, 3)]);
        let _ = Session::on(&g)
            .termination(TerminationMode::Honest)
            .seed(1)
            .build();
    }

    #[test]
    #[should_panic(
        expected = "rewire repairs Algorithm::Generic only, not israeli-itai: \
                    dchurn repairs Israeli–Itai on its own persistent network"
    )]
    fn rewire_rejects_israeli_itai() {
        let g = gnp(20, 0.15, 3);
        let mut s = Session::on(&g).seed(1).build();
        s.run_to_completion();
        s.rewire(&[], &[]);
    }

    #[test]
    #[should_panic(expected = "rewire requires a completed epoch")]
    fn rewire_rejects_a_running_epoch() {
        let g = gnp(20, 0.15, 3);
        let mut s = Session::on(&g)
            .algorithm(Algorithm::Generic { k: 2 })
            .seed(1)
            .build();
        assert!(matches!(s.step(), Phase::Ran(_)));
        s.rewire(&[], &[]);
    }

    #[test]
    #[should_panic(expected = "TerminationMode::Honest needs a connected graph")]
    fn honest_rewire_rejects_a_disconnecting_batch() {
        let g = dgraph::generators::structured::path(4);
        let mut s = Session::on(&g)
            .algorithm(Algorithm::Generic { k: 2 })
            .termination(TerminationMode::Honest)
            .seed(1)
            .build();
        s.run_to_completion();
        s.rewire(&[(1, 2)], &[]);
    }
}
