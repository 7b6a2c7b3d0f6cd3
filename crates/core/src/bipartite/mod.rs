//! Bipartite matching with `O(log Δ)`-bit messages — Section 3.2 of the
//! paper (Algorithm 3, the token-walk MIS emulation, Theorem 3.8).
//!
//! The machinery is parameterized by a [`SubgraphSpec`]: a role
//! assignment (X side / Y side / not participating) plus an active-edge
//! mask. Theorem 3.8 uses the trivial spec (the whole bipartite graph);
//! Algorithm 4 (general graphs) calls the same machinery on the random
//! bipartite subgraph `Ĝ`, which is exactly why the paper needs the
//! "`length at most ℓ`" variant — implemented here natively by
//! distance-staggered token launches.
//!
//! One **augmentation iteration** is
//!
//! 1. a counting pass ([`count`], Algorithm 3 / Figure 1): a layered
//!    BFS from all free X nodes records, per node, the number of
//!    shortest half-augmenting paths arriving on each port;
//! 2. a token pass ([`token`]): every reached free Y node draws a
//!    random priority and walks a token backward, sampling predecessor
//!    edges proportionally to the counts; tokens meeting at a node keep
//!    only the maximum priority (one emulated Luby iteration on the
//!    path conflict graph); surviving tokens reach free X nodes and
//!    flip their paths.
//!
//! [`AugNets::aug_until_maximal`] repeats iterations until no
//! augmenting path of length ≤ ℓ remains, which is the postcondition
//! `Aug(H, M, ℓ)` needs. Every pass runs on an [`AugNets`] substrate, a
//! count and a token network over the graph's topology: a pass re-arms
//! its network and overwrites each node's state in place, and the token
//! pass reads the count results from the count network's nodes. A
//! `Session` keeps one substrate for all the passes of its run. It runs
//! the phase schedule `ℓ = 1, 3, …, 2k-1` of Theorem 3.8 over the loop:
//!
//! ```
//! use dgraph::generators::random::bipartite_gnp;
//! use dmatch::{Algorithm, Session};
//! let (g, sides) = bipartite_gnp(30, 30, 0.1, 5);
//! let out = Session::on(&g)
//!     .algorithm(Algorithm::Bipartite { k: 3 })
//!     .sides(&sides)
//!     .seed(42)
//!     .build()
//!     .run_to_completion();
//! let opt = dgraph::hopcroft_karp::max_matching(&g, &sides).size();
//! assert!(out.matching.size() as f64 >= (1.0 - 1.0 / 3.0) * opt as f64);
//! ```

pub mod count;
pub mod token;

use crate::state;
use count::CountNode;
use dgraph::{EdgeId, Graph, Matching, NodeId};
use simnet::{ExecCfg, NetStats, Network};
use token::TokenNode;

/// Role of a node within the (sub)graph the pass operates on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Role {
    /// X side (BFS sources when free).
    X,
    /// Y side (path endpoints when free).
    Y,
    /// Not participating (outside `V̂`).
    #[default]
    Out,
}

/// Which nodes and edges participate in a pass.
#[derive(Debug, Clone)]
pub struct SubgraphSpec {
    /// Per-node role.
    pub role: Vec<Role>,
    /// Per-edge participation mask.
    pub active: Vec<bool>,
}

impl SubgraphSpec {
    /// The whole bipartite graph: `sides[v] == false` is the X side.
    pub fn full_bipartite(g: &Graph, sides: &[bool]) -> Self {
        assert!(
            dgraph::bipartite::is_valid_bipartition(g, sides),
            "full_bipartite requires a valid bipartition"
        );
        SubgraphSpec {
            role: sides
                .iter()
                .map(|&s| if s { Role::Y } else { Role::X })
                .collect(),
            active: vec![true; g.m()],
        }
    }

    /// The random bipartite subgraph `Ĝ` of Algorithm 4, Line 4:
    /// `V̂` = free nodes plus bichromatically matched pairs; `Ê` =
    /// bichromatic edges within `V̂`. Red (`false`) plays X.
    pub fn from_coloring(g: &Graph, m: &Matching, colors: &[bool]) -> Self {
        assert_eq!(colors.len(), g.n());
        let eligible: Vec<bool> = (0..g.n() as NodeId)
            .map(|v| match m.mate(v) {
                None => true,
                Some(w) => colors[v as usize] != colors[w as usize],
            })
            .collect();
        let role = (0..g.n())
            .map(|v| {
                if !eligible[v] {
                    Role::Out
                } else if colors[v] {
                    Role::Y
                } else {
                    Role::X
                }
            })
            .collect();
        let active = (0..g.m() as EdgeId)
            .map(|e| {
                let (u, v) = g.endpoints(e);
                eligible[u as usize]
                    && eligible[v as usize]
                    && colors[u as usize] != colors[v as usize]
            })
            .collect();
        SubgraphSpec { role, active }
    }
}

/// Outcome of one `Aug`-style maximality loop.
#[derive(Debug)]
pub struct AugOutcome {
    /// The matching after augmentation.
    pub matching: Matching,
    /// Total augmenting paths applied.
    pub applied: usize,
    /// Count+token iterations executed.
    pub iterations: u64,
    /// Accumulated network statistics.
    pub stats: NetStats,
}

/// The augmentation substrate of one graph under one [`ExecCfg`]: a
/// count network and a token network over its topology, built by the
/// first pass and re-armed ([`Network::rearm`]) by every later one.
#[derive(Default)]
pub struct AugNets {
    nets: Option<Nets>,
    /// Test reference: construct every pass's networks afresh.
    #[cfg(test)]
    pub(crate) fresh_each_pass: bool,
}

struct Nets {
    count: Network<CountNode>,
    token: Network<TokenNode>,
}

impl AugNets {
    /// The two networks for `g` (always the same graph), built on
    /// first use.
    fn nets(&mut self, g: &Graph, cfg: ExecCfg) -> &mut Nets {
        let nets = self.nets.get_or_insert_with(|| {
            let (topo, n) = (state::topology_of(g), g.n());
            Nets {
                count: Network::new(topo.clone(), vec![CountNode::default(); n], 0).with_cfg(cfg),
                token: Network::new(topo, vec![TokenNode::default(); n], 0).with_cfg(cfg),
            }
        });
        debug_assert_eq!(nets.count.topology().total_ports(), 2 * g.m());
        nets
    }

    /// Repeat count+token iterations on this substrate until no
    /// augmenting path of length ≤ `ell` remains in the subgraph — the
    /// contract of `Aug(H, M, ℓ)` used by Algorithms 1 (bipartite
    /// instantiation) and 4.
    ///
    /// Termination is detected with the simulator oracle (are there
    /// any reached free Y nodes after a counting pass?); the paper, as
    /// usual, does not charge for termination detection. The loop is
    /// capped at `4·n` iterations, far beyond the whp `O(log n)` bound
    /// — reaching the cap would indicate a bug and panics.
    pub fn aug_until_maximal(
        &mut self,
        g: &Graph,
        m0: &Matching,
        spec: &SubgraphSpec,
        ell: usize,
        seed: u64,
        cfg: ExecCfg,
    ) -> AugOutcome {
        assert!(ell % 2 == 1, "augmenting path lengths are odd");
        let faulty = cfg.faults.is_active();
        let mut m = m0.clone();
        let mut stats = NetStats::default();
        let mut applied = 0usize;
        let mut iterations = 0u64;
        let cap = 4 * g.n() as u64 + 16;
        loop {
            #[cfg(test)]
            if self.fresh_each_pass {
                self.nets = None;
            }
            let pass_seed = seed.wrapping_add(iterations * 2);
            let (leaders, pass_stats) = count::run_on(self, g, &m, spec, ell, pass_seed, cfg);
            stats.absorb(&pass_stats);
            if leaders == 0 {
                break; // no augmenting path of length ≤ ℓ remains
            }
            let tok = token::run_cfg(self, g, ell, seed.wrapping_add(iterations * 2 + 1), cfg);
            stats.absorb(&tok.stats);
            // Fault-free, a reached leader always yields an
            // augmentation and the loop converges whp. Under an active
            // fault plan the adversary can eat every token of an
            // iteration, or keep the counting pass seeing paths the
            // token pass cannot complete: stop making progress instead
            // of panicking — the matching so far is valid, liveness
            // just degrades.
            if faulty && tok.applied == 0 {
                m = tok.matching;
                break;
            }
            assert!(
                tok.applied > 0,
                "a reached leader must yield at least one augmentation"
            );
            applied += tok.applied;
            m = tok.matching;
            iterations += 1;
            if faulty && iterations >= cap {
                break;
            }
            assert!(iterations < cap, "augmentation loop failed to converge");
        }
        AugOutcome {
            matching: m,
            applied,
            iterations,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Algorithm, RunReport, Session};
    use dgraph::generators::random::{bipartite_gnp, bipartite_regular, gnp};
    use dgraph::generators::structured::{complete_bipartite, path};
    use dgraph::generators::zoo::{chung_lu, d_regular, random_geometric, zipf_bipartite};
    use dgraph::hopcroft_karp;
    use simnet::FaultPlan;

    /// Run phases with growing `ℓ` until **no augmenting path of any
    /// length remains** — an exact distributed maximum matching (the
    /// distributed analogue of full Hopcroft–Karp; `O(√opt)` phases by
    /// Lemma 3.5's standard corollary): a self-check of the loop, whose
    /// paper schedule stops at `ℓ = 2k-1` instead.
    fn run_to_optimal(g: &Graph, sides: &[bool], seed: u64) -> Matching {
        let spec = SubgraphSpec::full_bipartite(g, sides);
        let mut nets = AugNets::default();
        let mut m = Matching::new(g.n());
        let mut ell = 1usize;
        loop {
            let seed = seed.wrapping_add(0x2000 * ell as u64);
            m = nets
                .aug_until_maximal(g, &m, &spec, ell, seed, ExecCfg::default())
                .matching;
            match dgraph::augmenting::shortest_augmenting_path_len_bipartite(g, sides, &m) {
                None => return m,
                Some(l) => {
                    debug_assert!(l > ell, "phase ℓ={ell} left a shorter path {l}");
                    ell = l;
                }
            }
        }
    }

    fn run(g: &Graph, sides: &[bool], k: usize, seed: u64) -> RunReport {
        let s = Session::on(g)
            .algorithm(Algorithm::Bipartite { k })
            .sides(sides);
        s.seed(seed).build().run_to_completion()
    }

    fn check_ratio(g: &Graph, sides: &[bool], k: usize, seed: u64) {
        let out = run(g, sides, k, seed);
        assert!(out.matching.validate(g).is_ok());
        let opt = hopcroft_karp::max_matching(g, sides).size();
        let bound = 1.0 - 1.0 / k as f64;
        let got = if opt == 0 {
            1.0
        } else {
            out.matching.size() as f64 / opt as f64
        };
        assert!(
            got >= bound - 1e-9,
            "k={k} seed={seed}: ratio {got} < {bound} (|M|={}, opt={opt})",
            out.matching.size()
        );
        // The theorem's postcondition: no augmenting path of length ≤ 2k-1.
        assert!(
            dgraph::augmenting::shortest_augmenting_path_len_bipartite(g, sides, &out.matching)
                .is_none_or(|l| l > 2 * k - 1),
            "k={k} seed={seed}: short augmenting path survived"
        );
    }

    #[test]
    fn ratio_on_random_bipartite() {
        for seed in 0..5 {
            let (g, sides) = bipartite_gnp(20, 20, 0.12, seed);
            for k in 1..=3 {
                check_ratio(&g, &sides, k, seed + 100 * k as u64);
            }
        }
    }

    #[test]
    fn perfect_on_complete_bipartite_with_k2() {
        let (g, sides) = complete_bipartite(8, 8);
        let out = run(&g, &sides, 2, 3);
        // K_{8,8} has no augmenting path of length ≥ 3 left after ℓ=1
        // phases reach maximality... but ratio ≥ 1/2 guaranteed; with
        // k=2 ratio ≥ 3/4 ⇒ ≥ 6 edges.
        assert!(out.matching.size() >= 6);
    }

    #[test]
    fn exact_on_path_with_large_k() {
        let g = path(11); // opt = 5
        let sides = dgraph::bipartite::two_color(&g).unwrap();
        let out = run(&g, &sides, 5, 9);
        assert_eq!(out.matching.size(), 5);
    }

    #[test]
    fn regular_graphs_reach_high_ratio() {
        let (g, sides) = bipartite_regular(32, 3, 4);
        check_ratio(&g, &sides, 4, 11);
    }

    #[test]
    fn messages_stay_small() {
        let (g, sides) = bipartite_gnp(40, 40, 0.08, 2);
        let out = run(&g, &sides, 3, 5);
        // Counts are ≤ Δ^{(ℓ+1)/2}: with Δ ≤ ~10 and ℓ ≤ 5, values fit
        // comfortably in O(ℓ log Δ) bits; tokens carry O(log n) bits.
        assert!(
            out.stats.max_msg_bits <= 8 + 128,
            "max message = {} bits",
            out.stats.max_msg_bits
        );
    }

    #[test]
    fn subgraph_spec_from_coloring() {
        // Path 0-1-2-3, edge (1,2) matched, colors R,B,B,R.
        let g = path(4);
        let m = Matching::from_edges(&g, &[1]);
        let colors = vec![false, true, true, false];
        let spec = SubgraphSpec::from_coloring(&g, &m, &colors);
        // Pair (1,2) is monochromatic → both Out; 0 and 3 free.
        assert_eq!(spec.role[0], Role::X);
        assert_eq!(spec.role[1], Role::Out);
        assert_eq!(spec.role[2], Role::Out);
        assert_eq!(spec.role[3], Role::X);
        assert!(
            spec.active.iter().all(|&a| !a),
            "all edges touch Out or monochromatic nodes"
        );

        // Colors R,B,R,B: pair (1,2) bichromatic → all in V̂.
        let colors = vec![false, true, false, true];
        let spec = SubgraphSpec::from_coloring(&g, &m, &colors);
        assert_eq!(spec.role, vec![Role::X, Role::Y, Role::X, Role::Y]);
        assert_eq!(spec.active, vec![true, true, true]);
    }

    #[test]
    fn deterministic_in_seed() {
        let (g, sides) = bipartite_gnp(15, 15, 0.2, 8);
        let a = run(&g, &sides, 2, 77);
        let b = run(&g, &sides, 2, 77);
        assert_eq!(a.matching, b.matching);
        assert_eq!(a.stats.rounds, b.stats.rounds);
    }

    #[test]
    fn run_to_optimal_matches_hopcroft_karp() {
        for seed in 0..6 {
            let (g, sides) = bipartite_gnp(15, 18, 0.18, seed);
            let m = run_to_optimal(&g, &sides, seed);
            let opt = hopcroft_karp::max_matching(&g, &sides).size();
            assert_eq!(m.size(), opt, "seed {seed}");
            assert!(m.validate(&g).is_ok());
        }
    }

    #[test]
    fn phase_log_tracks_invariants() {
        let (g, sides) = bipartite_gnp(20, 20, 0.15, 12);
        let mut s = Session::on(&g)
            .algorithm(Algorithm::Bipartite { k: 3 })
            .sides(&sides)
            .seed(5)
            .build();
        let out = s.run_to_completion();
        let phases = s.phase_log();
        assert_eq!(phases.len(), 3);
        assert_eq!(phases[0].ell, 1);
        assert_eq!(phases[2].ell, 5);
        assert_eq!(phases.last().unwrap().matching_size, out.matching.size());
        // Matching size is non-decreasing across phases; rounds sum up.
        for w in phases.windows(2) {
            assert!(w[1].matching_size >= w[0].matching_size);
        }
        assert_eq!(
            phases.iter().map(|p| p.rounds).sum::<u64>(),
            out.stats.rounds
        );
        // Every applied path grows the (initially empty) matching by one.
        assert_eq!(
            phases.iter().map(|p| p.applied).sum::<u64>(),
            out.matching.size() as u64
        );
    }

    #[test]
    fn phase_postcondition_no_short_paths() {
        // After the ℓ-phase completes, no augmenting path of length ≤ ℓ
        // may remain (the Lemma 3.4 driver of Theorem 3.8).
        let (g, sides) = bipartite_gnp(16, 16, 0.2, 21);
        let spec = SubgraphSpec::full_bipartite(&g, &sides);
        let mut m = Matching::new(g.n());
        for ell in [1usize, 3, 5] {
            let out =
                AugNets::default().aug_until_maximal(&g, &m, &spec, ell, 9, ExecCfg::default());
            m = out.matching;
            let sl = dgraph::augmenting::shortest_augmenting_path_len_bipartite(&g, &sides, &m);
            assert!(
                sl.is_none_or(|l| l > ell),
                "phase ℓ={ell} left a path of length {sl:?}"
            );
        }
    }

    /// Whole `General` (k ∈ {2, 3}) and `Bipartite` (k ∈ {2, 3}) runs
    /// on small zoo graphs, each on one kept substrate and on networks
    /// constructed afresh for every pass: the matchings, the phase logs
    /// and every statistic but the plane-allocation gauge must agree.
    /// Returns the kept runs' statistics and the fresh runs'
    /// `plane_allocs`.
    fn kept_substrate_matches_fresh(cfg: ExecCfg) -> Vec<(NetStats, u64)> {
        let general = |k| Algorithm::General {
            k,
            early_stop: Some(6),
        };
        let mut cases: Vec<(Graph, Option<Vec<bool>>, Algorithm)> = Vec::new();
        for k in [2, 3] {
            cases.push((gnp(60, 0.08, k as u64), None, general(k)));
            cases.push((chung_lu(60, 2.5, 4.0, k as u64), None, general(k)));
            cases.push((d_regular(60, 3, k as u64), None, general(k)));
            cases.push((random_geometric(60, 0.2, k as u64), None, general(k)));
            let (g, sides) = zipf_bipartite(30, 30, 90, 1.2, k as u64);
            cases.push((g, Some(sides), Algorithm::Bipartite { k }));
            let (g, sides) = bipartite_gnp(30, 30, 0.08, k as u64);
            cases.push((g, Some(sides), Algorithm::Bipartite { k }));
        }
        let blank_allocs = |mut s: NetStats| {
            s.plane_allocs = 0;
            s.per_round.iter_mut().for_each(|r| r.plane_allocs = 0);
            s
        };
        let phases = |s: &Session| {
            s.phase_log()
                .iter()
                .map(|p| (p.applied, p.iterations, p.rounds, p.matching_size))
                .collect::<Vec<_>>()
        };
        let mut runs = Vec::new();
        for (i, (g, sides, alg)) in cases.iter().enumerate() {
            let build = || {
                let b = Session::on(g).algorithm(*alg).seed(31 + i as u64).exec(cfg);
                match sides {
                    Some(sides) => b.sides(sides).build(),
                    None => b.build(),
                }
            };
            let mut kept = build();
            let mut fresh = build().fresh_substrate_each_pass();
            let (a, b) = (kept.run_to_completion(), fresh.run_to_completion());
            let what = format!("case {i}: {alg} under {cfg:?}");
            assert_eq!(a.matching, b.matching, "{what}");
            assert_eq!(a.oracle_checks, b.oracle_checks, "{what}");
            assert_eq!(phases(&kept), phases(&fresh), "{what}");
            runs.push((a.stats.clone(), b.stats.plane_allocs));
            assert_eq!(blank_allocs(a.stats), blank_allocs(b.stats), "{what}");
        }
        runs
    }

    #[test]
    fn kept_substrate_equals_fresh_per_pass() {
        for cfg in [ExecCfg::sequential(), ExecCfg::parallel(3).forced()] {
            for (kept, fresh) in kept_substrate_matches_fresh(cfg) {
                // Two constructions (2 slabs × 2 buffers + 7 frontier
                // arrays each), however many passes re-armed them.
                assert_eq!(kept.plane_allocs, 2 * 11);
                assert!(fresh > 2 * 11, "every run takes more than one iteration");
            }
        }
    }

    #[test]
    fn kept_substrate_equals_fresh_per_pass_under_faults() {
        let plan = FaultPlan::drop(0.05).with_delay(2).with_crash(0.01, 3);
        for cfg in [ExecCfg::sequential(), ExecCfg::parallel(3).forced()] {
            let runs = kept_substrate_matches_fresh(cfg.with_faults(plan));
            let hit = |f: fn(&NetStats) -> u64| runs.iter().map(|(s, _)| f(s)).sum::<u64>() > 0;
            assert!(hit(|s| s.dropped) && hit(|s| s.delayed) && hit(|s| s.crashed));
        }
    }
}
