//! Switch schedulers.
//!
//! Every scheduler receives the VOQ occupancy matrix and must return a
//! partial permutation (a matching of inputs to outputs, restricted to
//! non-empty VOQs). The lineup spans the history the paper sketches:
//!
//! * [`Pim`] — Parallel Iterative Matching (Anderson et al. \[3\]),
//!   the AN2 scheduler built on Israeli–Itai's ideas;
//! * [`Islip`] — iSLIP (McKeown \[23\]), PIM with round-robin pointers,
//!   "the algorithm of choice in many of today's routers";
//! * [`SessionScheduler`] — a distributed matching run on the request
//!   graph each cycle: Israeli–Itai itself
//!   ([`SchedulerKind::DistMaximal`]), the paper's Theorem 3.8
//!   `(1-1/k)`-MCM ([`SchedulerKind::LpsBipartite`]) or its Theorem 4.5
//!   `(½-ε)`-MWM on queue lengths, longest-queue-first flavored
//!   ([`SchedulerKind::LpsWeighted`]);
//! * [`MaxCardinality`] / [`MaxWeight`] — centralized oracles
//!   (Hopcroft–Karp / Hungarian) bounding what any scheduler can do.

use dgraph::{Graph, GraphBuilder, NodeId};
use dmatch::session::Session;
use dmatch::weighted::MwmBox;
use dmatch::Algorithm;
use simnet::rng::streams;
use simnet::SplitMix64;

/// A scheduling decision: `out[input] = Some(output)`.
pub type Decision = Vec<Option<usize>>;

/// Common scheduler interface.
pub trait Scheduler {
    /// Label for tables.
    fn name(&self) -> String;
    /// Compute a partial permutation for this cycle.
    fn schedule(&mut self, occ: &[Vec<usize>]) -> Decision;
    /// Simulated distributed rounds consumed so far (0 for centralized
    /// and constant-time hardware schedulers).
    fn rounds_used(&self) -> u64 {
        0
    }
}

/// Factory enum so experiments can sweep schedulers uniformly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedulerKind {
    /// PIM with the given number of iterations.
    Pim { iterations: usize },
    /// iSLIP with the given number of iterations.
    Islip { iterations: usize },
    /// Israeli–Itai maximal matching on the request graph.
    DistMaximal,
    /// The paper's bipartite `(1-1/k)`-MCM.
    LpsBipartite { k: usize },
    /// The paper's `(½-ε)`-MWM on queue lengths.
    LpsWeighted { epsilon: f64 },
    /// Centralized maximum-cardinality oracle.
    MaxCardinality,
    /// Centralized maximum-weight (queue-length) oracle.
    MaxWeight,
    /// Iterative longest-queue-first (iLQF): PIM-style iterations in
    /// which grants and accepts both prefer the longest VOQ.
    Ilqf { iterations: usize },
}

impl SchedulerKind {
    /// Instantiate for an `n`-port switch.
    pub fn build(self, n: usize, seed: u64) -> Box<dyn Scheduler> {
        let session = |name: String, alg: Algorithm| -> Box<dyn Scheduler> {
            Box::new(SessionScheduler {
                name,
                alg,
                seed,
                cycle: 0,
                rounds: 0,
            })
        };
        match self {
            SchedulerKind::Pim { iterations } => Box::new(Pim::new(n, iterations, seed)),
            SchedulerKind::Islip { iterations } => Box::new(Islip::new(n, iterations)),
            SchedulerKind::DistMaximal => session("II-maximal".into(), Algorithm::IsraeliItai),
            SchedulerKind::LpsBipartite { k } => {
                let k = k.max(1);
                session(format!("LPS-MCM(k={k})"), Algorithm::Bipartite { k })
            }
            SchedulerKind::LpsWeighted { epsilon } => session(
                format!("LPS-MWM(ε={epsilon})"),
                Algorithm::Weighted {
                    epsilon,
                    mwm_box: MwmBox::SeqClass,
                },
            ),
            SchedulerKind::MaxCardinality => Box::new(MaxCardinality),
            SchedulerKind::MaxWeight => Box::new(MaxWeight),
            SchedulerKind::Ilqf { iterations } => Box::new(Ilqf::new(n, iterations)),
        }
    }
}

/// Check that a decision is a partial permutation over non-empty VOQs.
pub fn is_valid_decision(occ: &[Vec<usize>], d: &Decision) -> bool {
    let n = occ.len();
    let mut used = vec![false; n];
    d.iter().enumerate().all(|(i, &o)| match o {
        None => true,
        Some(o) => {
            let fresh = o < n && !used[o] && occ[i][o] > 0;
            if fresh {
                used[o] = true;
            }
            fresh
        }
    })
}

// ---------------------------------------------------------------- PIM

/// Parallel Iterative Matching \[3\].
pub struct Pim {
    n: usize,
    iterations: usize,
    rng: SplitMix64,
}

impl Pim {
    /// New PIM scheduler.
    pub fn new(n: usize, iterations: usize, seed: u64) -> Self {
        Pim {
            n,
            iterations: iterations.max(1),
            rng: SplitMix64::for_node(seed, streams::SWITCH_SCHED),
        }
    }
}

impl Scheduler for Pim {
    fn name(&self) -> String {
        format!("PIM({})", self.iterations)
    }

    fn schedule(&mut self, occ: &[Vec<usize>]) -> Decision {
        let n = self.n;
        let mut in_match: Decision = vec![None; n];
        let mut out_match: Vec<Option<usize>> = vec![None; n];
        for _ in 0..self.iterations {
            // Grant: each unmatched output picks a random requesting
            // unmatched input.
            let mut grants: Vec<Option<usize>> = vec![None; n];
            for (o, grant) in grants.iter_mut().enumerate() {
                if out_match[o].is_some() {
                    continue;
                }
                let requesters: Vec<usize> = (0..n)
                    .filter(|&i| in_match[i].is_none() && occ[i][o] > 0)
                    .collect();
                if !requesters.is_empty() {
                    *grant = Some(requesters[self.rng.below(requesters.len() as u64) as usize]);
                }
            }
            // Accept: each input picks a random grant addressed to it.
            #[allow(clippy::needless_range_loop)]
            for i in 0..n {
                if in_match[i].is_some() {
                    continue;
                }
                let offers: Vec<usize> = (0..n).filter(|&o| grants[o] == Some(i)).collect();
                if !offers.is_empty() {
                    let o = offers[self.rng.below(offers.len() as u64) as usize];
                    in_match[i] = Some(o);
                    out_match[o] = Some(i);
                }
            }
        }
        in_match
    }
}

// -------------------------------------------------------------- iSLIP

/// iSLIP \[23\]: PIM with deterministic round-robin pointers.
pub struct Islip {
    n: usize,
    iterations: usize,
    grant_ptr: Vec<usize>,
    accept_ptr: Vec<usize>,
}

impl Islip {
    /// New iSLIP scheduler, pointers at 0. iSLIP is deterministic, so
    /// it takes no seed.
    pub fn new(n: usize, iterations: usize) -> Self {
        Islip {
            n,
            iterations: iterations.max(1),
            grant_ptr: vec![0; n],
            accept_ptr: vec![0; n],
        }
    }
}

impl Scheduler for Islip {
    fn name(&self) -> String {
        format!("iSLIP({})", self.iterations)
    }

    fn schedule(&mut self, occ: &[Vec<usize>]) -> Decision {
        let n = self.n;
        let mut in_match: Decision = vec![None; n];
        let mut out_match: Vec<Option<usize>> = vec![None; n];
        for iter in 0..self.iterations {
            let mut grants: Vec<Option<usize>> = vec![None; n];
            for (o, grant) in grants.iter_mut().enumerate() {
                if out_match[o].is_some() {
                    continue;
                }
                // Round-robin from the grant pointer.
                for k in 0..n {
                    let i = (self.grant_ptr[o] + k) % n;
                    if in_match[i].is_none() && occ[i][o] > 0 {
                        *grant = Some(i);
                        break;
                    }
                }
            }
            #[allow(clippy::needless_range_loop)]
            for i in 0..n {
                if in_match[i].is_some() {
                    continue;
                }
                // Accept the first grant from the accept pointer.
                let mut chosen: Option<usize> = None;
                for k in 0..n {
                    let o = (self.accept_ptr[i] + k) % n;
                    if grants[o] == Some(i) {
                        chosen = Some(o);
                        break;
                    }
                }
                if let Some(o) = chosen {
                    in_match[i] = Some(o);
                    out_match[o] = Some(i);
                    // Pointers advance only on first-iteration accepts
                    // (the standard rule that gives iSLIP its
                    // desynchronization property).
                    if iter == 0 {
                        self.grant_ptr[o] = (i + 1) % n;
                        self.accept_ptr[i] = (o + 1) % n;
                    }
                }
            }
        }
        in_match
    }
}

// ------------------------------------------- request-graph scheduling

/// Build the bipartite request graph: inputs `0..n`, outputs `n..2n`,
/// an edge wherever the VOQ is non-empty, weighted by queue length.
fn request_graph(occ: &[Vec<usize>]) -> (Graph, Vec<bool>) {
    let n = occ.len();
    let mut b = GraphBuilder::new(2 * n);
    for (i, row) in occ.iter().enumerate() {
        for (o, &q) in row.iter().enumerate() {
            if q > 0 {
                b.add_weighted(i as NodeId, (n + o) as NodeId, q as f64);
            }
        }
    }
    let sides = (0..2 * n).map(|v| v >= n).collect();
    (b.build(), sides)
}

/// Translate a matching on the request graph back to a decision.
fn decision_from_matching(n: usize, m: &dgraph::Matching) -> Decision {
    (0..n as NodeId)
        .map(|i| m.mate(i).map(|o| o as usize - n))
        .collect()
}

/// A distributed matching algorithm as a scheduler: every cycle runs
/// one [`Session`] of `alg` on the request graph, seeded `seed + cycle`.
/// [`SchedulerKind::build`] makes one for Israeli–Itai and for the
/// paper's two algorithms.
pub struct SessionScheduler {
    name: String,
    alg: Algorithm,
    seed: u64,
    cycle: u64,
    rounds: u64,
}

impl Scheduler for SessionScheduler {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn schedule(&mut self, occ: &[Vec<usize>]) -> Decision {
        self.cycle += 1;
        let (g, sides) = request_graph(occ);
        let r = Session::on(&g)
            .algorithm(self.alg)
            .sides(&sides)
            .seed(self.seed.wrapping_add(self.cycle))
            .build()
            .run_to_completion();
        self.rounds += r.stats.rounds;
        decision_from_matching(occ.len(), &r.matching)
    }

    fn rounds_used(&self) -> u64 {
        self.rounds
    }
}

/// Iterative longest-queue-first: the greedy weighted cousin of PIM
/// (grants and accepts prefer the longest queue, ties by lower index).
/// A classical practical approximation of max-weight scheduling.
pub struct Ilqf {
    n: usize,
    iterations: usize,
}

impl Ilqf {
    /// New iLQF scheduler.
    pub fn new(n: usize, iterations: usize) -> Self {
        Ilqf {
            n,
            iterations: iterations.max(1),
        }
    }
}

impl Scheduler for Ilqf {
    fn name(&self) -> String {
        format!("iLQF({})", self.iterations)
    }

    fn schedule(&mut self, occ: &[Vec<usize>]) -> Decision {
        let n = self.n;
        let mut in_match: Decision = vec![None; n];
        let mut out_match: Vec<Option<usize>> = vec![None; n];
        for _ in 0..self.iterations {
            // Grant: each free output to its longest requesting queue.
            let mut grants: Vec<Option<usize>> = vec![None; n];
            for (o, grant) in grants.iter_mut().enumerate() {
                if out_match[o].is_some() {
                    continue;
                }
                *grant = (0..n)
                    .filter(|&i| in_match[i].is_none() && occ[i][o] > 0)
                    .max_by_key(|&i| (occ[i][o], std::cmp::Reverse(i)));
            }
            // Accept: each free input its longest granted queue.
            #[allow(clippy::needless_range_loop)]
            for i in 0..n {
                if in_match[i].is_some() {
                    continue;
                }
                let best = (0..n)
                    .filter(|&o| grants[o] == Some(i))
                    .max_by_key(|&o| (occ[i][o], std::cmp::Reverse(o)));
                if let Some(o) = best {
                    in_match[i] = Some(o);
                    out_match[o] = Some(i);
                }
            }
        }
        in_match
    }
}

/// Centralized maximum-cardinality oracle (Hopcroft–Karp).
pub struct MaxCardinality;

impl Scheduler for MaxCardinality {
    fn name(&self) -> String {
        "max-cardinality".into()
    }

    fn schedule(&mut self, occ: &[Vec<usize>]) -> Decision {
        let (g, sides) = request_graph(occ);
        let m = dgraph::hopcroft_karp::max_matching(&g, &sides);
        decision_from_matching(occ.len(), &m)
    }
}

/// Centralized maximum-weight oracle (Hungarian on queue lengths) —
/// the classical throughput-optimal MWM scheduler.
pub struct MaxWeight;

impl Scheduler for MaxWeight {
    fn name(&self) -> String {
        "max-weight".into()
    }

    fn schedule(&mut self, occ: &[Vec<usize>]) -> Decision {
        let (g, sides) = request_graph(occ);
        let m = dgraph::hungarian::max_weight_matching(&g, &sides);
        decision_from_matching(occ.len(), &m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_occ(n: usize) -> Vec<Vec<usize>> {
        vec![vec![1; n]; n]
    }

    fn sparse_occ() -> Vec<Vec<usize>> {
        // 4 ports; a few non-empty VOQs.
        vec![
            vec![0, 2, 0, 0],
            vec![1, 0, 0, 3],
            vec![0, 0, 0, 0],
            vec![0, 5, 0, 0],
        ]
    }

    #[test]
    fn all_schedulers_return_valid_decisions() {
        let occ = sparse_occ();
        for kind in [
            SchedulerKind::Pim { iterations: 2 },
            SchedulerKind::Islip { iterations: 2 },
            SchedulerKind::DistMaximal,
            SchedulerKind::LpsBipartite { k: 2 },
            SchedulerKind::LpsWeighted { epsilon: 0.2 },
            SchedulerKind::MaxCardinality,
            SchedulerKind::MaxWeight,
            SchedulerKind::Ilqf { iterations: 2 },
        ] {
            let mut s = kind.build(4, 7);
            for _ in 0..5 {
                let d = s.schedule(&occ);
                assert!(is_valid_decision(&occ, &d), "{} invalid", s.name());
            }
        }
    }

    /// E8 and the `switch_scheduling` example print these labels.
    #[test]
    fn every_scheduler_kind_keeps_its_label() {
        for (kind, label) in [
            (SchedulerKind::Pim { iterations: 1 }, "PIM(1)"),
            (SchedulerKind::Islip { iterations: 3 }, "iSLIP(3)"),
            (SchedulerKind::DistMaximal, "II-maximal"),
            (SchedulerKind::LpsBipartite { k: 2 }, "LPS-MCM(k=2)"),
            (SchedulerKind::LpsBipartite { k: 0 }, "LPS-MCM(k=1)"),
            (
                SchedulerKind::LpsWeighted { epsilon: 0.2 },
                "LPS-MWM(ε=0.2)",
            ),
            (SchedulerKind::MaxCardinality, "max-cardinality"),
            (SchedulerKind::MaxWeight, "max-weight"),
            (SchedulerKind::Ilqf { iterations: 2 }, "iLQF(2)"),
        ] {
            assert_eq!(kind.build(8, 1).name(), label);
        }
    }

    #[test]
    fn oracle_matches_everything_on_full_occupancy() {
        let occ = full_occ(6);
        let mut s = MaxCardinality;
        let d = s.schedule(&occ);
        assert_eq!(d.iter().flatten().count(), 6, "perfect matching expected");
    }

    #[test]
    fn islip_desynchronizes_under_full_load() {
        // After a warm-up, iSLIP with 1 iteration achieves a perfect
        // rotation on full occupancy (its celebrated property).
        let occ = full_occ(4);
        let mut s = Islip::new(4, 1);
        let mut last = 0;
        for _ in 0..10 {
            last = s.schedule(&occ).iter().flatten().count();
        }
        assert_eq!(
            last, 4,
            "iSLIP should desynchronize to 100% on uniform full load"
        );
    }

    #[test]
    fn max_weight_prefers_long_queues() {
        // Input 0 can go to output 1 (queue 2); input 3 also wants
        // output 1 with queue 5 — MWM must give output 1 to input 3
        // and let input 0 take nothing... except input 0 has no other
        // choice, so the matching is {(1,0) or (1,3)} etc. Check weight.
        let occ = sparse_occ();
        let mut s = MaxWeight;
        let d = s.schedule(&occ);
        assert!(is_valid_decision(&occ, &d));
        let weight: usize = d
            .iter()
            .enumerate()
            .filter_map(|(i, &o)| o.map(|o| occ[i][o]))
            .sum();
        // Optimum: (3,1)=5 + (1,3)=3 + (0, ...) 0? plus (0,1) blocked.
        // Best total = 5 + 3 = 8 with input 0 unmatched… but (0,1)
        // conflicts with (3,1). Check the exact optimum by hand: 8.
        assert_eq!(weight, 8);
    }

    #[test]
    fn pim_converges_with_more_iterations() {
        let occ = full_occ(8);
        let mut one = Pim::new(8, 1, 3);
        let mut four = Pim::new(8, 4, 3);
        let m1: usize = (0..20)
            .map(|_| one.schedule(&occ).iter().flatten().count())
            .sum();
        let m4: usize = (0..20)
            .map(|_| four.schedule(&occ).iter().flatten().count())
            .sum();
        assert!(m4 >= m1, "more PIM iterations cannot hurt: {m4} < {m1}");
    }

    #[test]
    fn ilqf_prefers_longest_queues() {
        let occ = sparse_occ();
        let mut s = Ilqf::new(4, 2);
        let d = s.schedule(&occ);
        assert!(is_valid_decision(&occ, &d));
        // Output 1's longest requester is input 3 (queue 5 beats 2).
        assert_eq!(d[3], Some(1));
    }

    #[test]
    fn request_graph_shape() {
        let (g, sides) = request_graph(&sparse_occ());
        assert_eq!(g.n(), 8);
        assert_eq!(g.m(), 4);
        assert!(dgraph::bipartite::is_valid_bipartition(&g, &sides));
        let e = g.edge_between(3, 4 + 1).expect("(3, out 1) requested");
        assert_eq!(g.weight(e), 5.0);
    }
}
