//! The zoo conformance matrix: every `Algorithm` variant × every zoo
//! topology family × {Oracle, Honest} termination × {sequential,
//! 4 forced threads} execution.
//!
//! Per cell the suite asserts the full conformance contract:
//!
//! * **validity** — the output is a matching of the input graph;
//! * **the paper's approximation bound** against the exact oracle
//!   (Edmonds blossom for cardinality, exact/Hungarian MWM for
//!   weight) — the *graph-universal* guarantees of Theorems 3.1,
//!   3.8, 4.5 and maximality, now exercised on heavy-tailed,
//!   geometric, regular, and Zipf-skewed inputs instead of only
//!   Erdős–Rényi;
//! * **executor bit-identity** — the sequential and the 4-thread run
//!   agree on the matching *and* the full `NetStats` trace, in both
//!   termination modes. The 4-thread run is `forced()`: the fan-out
//!   floor would otherwise run every round of these 26-node fixtures
//!   as one chunk, the same code as the sequential run. No run enables
//!   `ExecCfg::timing`, so the wall-clock `timings` registry, the one
//!   `NetStats` field outside the contract, stays empty and the
//!   comparison is `==` on everything.
//!
//! `Algorithm::Bipartite` needs a bipartition; on families that do
//! not carry one it runs on the family's *bipartite double cover*
//! ([`bipartite::double_cover`]), which preserves every degree — the
//! hub of a heavy-tailed family stays a hub in the cover.
//!
//! Honest termination runs a convergecast over the whole topology, so
//! fixtures are restricted to their giant component (Zipf columns and
//! sparse geometric samples leave isolated vertices behind).

use bench_harness::workloads::Family;
use distributed_matching::dgraph::generators::weights::{apply_weights, WeightModel};
use distributed_matching::dgraph::{bipartite, blossom, Graph, NodeId};
use distributed_matching::dmatch::runner::mwm_reference;
use distributed_matching::dmatch::weighted::MwmBox;
use distributed_matching::dmatch::{Algorithm, RunReport, Session, TerminationMode};
use distributed_matching::simnet::ExecCfg;

/// Node budget of the cardinality fixtures.
const N: usize = 26;
/// Node budget of the weighted fixtures — small enough for the exact
/// (bitmask-DP) MWM oracle on non-bipartite families.
const N_WEIGHTED: usize = 16;

/// Restrict `g` (and `sides`) to its largest connected component,
/// relabelling nodes in increasing old-id order.
fn giant_component(g: &Graph, sides: Option<&[bool]>) -> (Graph, Option<Vec<bool>>) {
    let n = g.n();
    let mut comp = vec![usize::MAX; n];
    let mut comps = 0usize;
    for s in 0..n {
        if comp[s] != usize::MAX {
            continue;
        }
        comp[s] = comps;
        let mut queue = std::collections::VecDeque::from([s as NodeId]);
        while let Some(v) = queue.pop_front() {
            for &(u, _) in g.incident(v) {
                if comp[u as usize] == usize::MAX {
                    comp[u as usize] = comps;
                    queue.push_back(u);
                }
            }
        }
        comps += 1;
    }
    let mut sizes = vec![0usize; comps];
    for &c in &comp {
        sizes[c] += 1;
    }
    let big = (0..comps).max_by_key(|&c| sizes[c]).expect("non-empty");
    let mut remap = vec![UNMAPPED; n];
    let mut kept = 0u32;
    for v in 0..n {
        if comp[v] == big {
            remap[v] = kept;
            kept += 1;
        }
    }
    const UNMAPPED: u32 = u32::MAX;
    let mut edges = Vec::new();
    let mut weights = Vec::new();
    for (e, &(u, v)) in g.edge_list().iter().enumerate() {
        if remap[u as usize] != UNMAPPED && remap[v as usize] != UNMAPPED {
            edges.push((remap[u as usize], remap[v as usize]));
            weights.push(g.weight(e as u32));
        }
    }
    let new_sides = sides.map(|s| {
        (0..n)
            .filter(|&v| remap[v] != UNMAPPED)
            .map(|v| s[v])
            .collect()
    });
    (
        Graph::with_weights(kept as usize, edges, weights),
        new_sides,
    )
}

/// Deterministic fixture for a family: instantiated at `n`, restricted
/// to the giant component (Honest mode convergecasts over the whole
/// topology, so the fixture must be connected).
fn fixture(family: Family, n: usize, seed: u64) -> (Graph, Option<Vec<bool>>) {
    let w = family.instantiate(n, seed);
    let (g, sides) = giant_component(&w.graph, w.sides.as_deref());
    assert!(
        g.n() >= n / 2,
        "{family}: giant component too small ({} of {n}) for a meaningful fixture",
        g.n()
    );
    (g, sides)
}

fn run(
    g: &Graph,
    sides: Option<&[bool]>,
    alg: Algorithm,
    seed: u64,
    termination: TerminationMode,
    cfg: ExecCfg,
) -> RunReport {
    let mut b = Session::on(g)
        .algorithm(alg)
        .seed(seed)
        .termination(termination)
        .exec(cfg);
    if let Some(sides) = sides {
        b = b.sides(sides);
    }
    b.build().run_to_completion()
}

/// One conformance cell: validity + bound + seq/4-thread bit-identity
/// in both termination modes. `bound` is a fraction of `opt` (the
/// exact cardinality optimum); weighted cells assert separately.
fn assert_cell(
    label: &str,
    g: &Graph,
    sides: Option<&[bool]>,
    alg: Algorithm,
    bound: f64,
    opt: usize,
) {
    for termination in [TerminationMode::Oracle, TerminationMode::Honest] {
        let seq = run(g, sides, alg, 7, termination, ExecCfg::sequential());
        assert!(
            seq.matching.validate(g).is_ok(),
            "{label} [{termination:?}]: invalid matching"
        );
        assert!(
            seq.matching.size() as f64 >= bound * opt as f64 - 1e-9,
            "{label} [{termination:?}]: {} below {bound}·{opt}",
            seq.matching.size()
        );
        let par = run(g, sides, alg, 7, termination, ExecCfg::parallel(4).forced());
        assert_eq!(
            seq.matching, par.matching,
            "{label} [{termination:?}]: executor changed the matching"
        );
        assert_eq!(
            seq.stats, par.stats,
            "{label} [{termination:?}]: executor changed the statistics trace"
        );
        assert_eq!(
            seq.oracle_checks, par.oracle_checks,
            "{label} [{termination:?}]"
        );
    }
}

/// The cardinality algorithm matrix on one family.
fn conformance_for(family: Family) {
    let (g, sides) = fixture(family, N, 3);
    let opt = blossom::max_matching(&g).size();

    // Maximality ⇒ ½; Theorem 3.1 ⇒ 1 - 1/(k+1); Algorithm 4 is ½ by
    // maximality (its (1-1/k) claim is only whp, so the suite pins
    // the deterministic floor and relies on E18 for the typical case).
    let cardinality: [(Algorithm, f64); 5] = [
        (Algorithm::IsraeliItai, 0.5),
        (Algorithm::Generic { k: 2 }, 2.0 / 3.0),
        (Algorithm::Generic { k: 3 }, 3.0 / 4.0),
        (
            Algorithm::General {
                k: 2,
                early_stop: Some(8),
            },
            0.5,
        ),
        (
            Algorithm::General {
                k: 3,
                early_stop: Some(8),
            },
            0.5,
        ),
    ];
    for (alg, bound) in cardinality {
        assert_cell(
            &format!("{family}/{alg}"),
            &g,
            sides.as_deref(),
            alg,
            bound,
            opt,
        );
    }

    // Theorem 3.8 needs a bipartition: native for bipartite families,
    // the degree-preserving double cover otherwise.
    let (bg, bsides) = match &sides {
        Some(s) => (g.clone(), s.clone()),
        None => bipartite::double_cover(&g),
    };
    let bopt = blossom::max_matching(&bg).size();
    for k in [2usize, 3] {
        assert_cell(
            &format!("{family}/bipartite(k={k})"),
            &bg,
            Some(&bsides),
            Algorithm::Bipartite { k },
            1.0 - 1.0 / k as f64,
            bopt,
        );
    }

    // The weighted algorithms, against the exact MWM oracle (bitmask
    // DP / Hungarian — hence the smaller fixture).
    let (gw0, wsides) = fixture(family, N_WEIGHTED, 3);
    let gw = apply_weights(&gw0, WeightModel::Uniform(0.5, 4.0), 11);
    let wopt = mwm_reference(&gw, wsides.as_deref());
    let eps = 0.25;
    let weighted: [(Algorithm, f64); 2] = [
        (
            Algorithm::Weighted {
                epsilon: eps,
                mwm_box: MwmBox::SeqClass,
            },
            0.5 - eps,
        ),
        (
            Algorithm::DeltaMwm {
                mwm_box: MwmBox::LocalDominant,
            },
            MwmBox::LocalDominant.nominal_delta(),
        ),
    ];
    for (alg, bound) in weighted {
        for termination in [TerminationMode::Oracle, TerminationMode::Honest] {
            let label = format!("{family}/{alg} [{termination:?}]");
            let seq = run(
                &gw,
                wsides.as_deref(),
                alg,
                7,
                termination,
                ExecCfg::sequential(),
            );
            assert!(seq.matching.validate(&gw).is_ok(), "{label}: invalid");
            assert!(
                seq.matching.weight(&gw) >= bound * wopt - 1e-9,
                "{label}: weight {} below {bound}·{wopt}",
                seq.matching.weight(&gw)
            );
            let par = run(
                &gw,
                wsides.as_deref(),
                alg,
                7,
                termination,
                ExecCfg::parallel(4).forced(),
            );
            assert_eq!(seq.matching, par.matching, "{label}: executor identity");
            assert_eq!(seq.stats, par.stats, "{label}: stats identity");
        }
    }
}

#[test]
fn conformance_barabasi_albert() {
    conformance_for(Family::BarabasiAlbert);
}

#[test]
fn conformance_chung_lu() {
    conformance_for(Family::ChungLu);
}

#[test]
fn conformance_geometric() {
    conformance_for(Family::Geometric);
}

#[test]
fn conformance_d_regular() {
    conformance_for(Family::DRegular);
}

#[test]
fn conformance_zipf_bipartite() {
    conformance_for(Family::ZipfBipartite);
}

/// The legacy baseline stays in the matrix so a zoo regression can be
/// told apart from an algorithm regression.
#[test]
fn conformance_gnp_baseline() {
    conformance_for(Family::Gnp);
}

/// The executor matrix on the Chung–Lu hub fixture: {2, 3, 8} forced
/// threads must agree with the sequential reference on the matching and
/// on the complete `NetStats` trace. Forcing real fan-out makes the
/// degree-weighted chunker split around the hub, which is the case
/// contiguous equal-count chunking got wrong.
#[test]
fn chung_lu_hub_scheduler_matrix() {
    let (g, sides) = fixture(Family::ChungLu, N, 3);
    let hub_deg = g.max_degree();
    assert!(
        hub_deg * g.n() >= 2 * 2 * g.m(),
        "fixture hub too mild (max degree {hub_deg}, avg {:.1})",
        2.0 * g.m() as f64 / g.n() as f64
    );
    for alg in [Algorithm::IsraeliItai, Algorithm::Generic { k: 2 }] {
        let reference = run(
            &g,
            sides.as_deref(),
            alg,
            7,
            TerminationMode::Oracle,
            ExecCfg::sequential(),
        );
        assert!(reference.matching.validate(&g).is_ok(), "{alg}");
        for threads in [2, 3, 8] {
            let cfg = ExecCfg::parallel(threads).forced();
            let r = run(&g, sides.as_deref(), alg, 7, TerminationMode::Oracle, cfg);
            let label = format!("chung-lu hub / {alg} / {threads} threads");
            assert_eq!(reference.matching, r.matching, "{label}: matching");
            assert_eq!(reference.stats, r.stats, "{label}: stats");
        }
    }
}

/// Double covers preserve the degree sequence — the property that
/// makes them a faithful bipartite incarnation of heavy-tailed
/// families for Theorem 3.8.
#[test]
fn double_cover_keeps_the_hubs() {
    let (g, _) = fixture(Family::ChungLu, N, 3);
    let (cover, sides) = bipartite::double_cover(&g);
    assert!(bipartite::is_valid_bipartition(&cover, &sides));
    assert_eq!(cover.max_degree(), g.max_degree());
    assert_eq!(cover.m(), 2 * g.m());
}

/// The adversary axis of the conformance matrix: zoo families ×
/// representative fault plans. Per cell: the output is still a valid
/// matching (safety survives on heavy-tailed and geometric topologies,
/// not just Erdős–Rényi), and the sequential and 4 forced-thread
/// executions stay bit-identical under the active adversary (the fault
/// RNG streams are executor-invariant). Kept to two families × two
/// plans × two algorithms so the matrix stays CI-cheap.
#[test]
fn adversary_axis_on_the_zoo() {
    use distributed_matching::simnet::FaultPlan;
    let plans: [(&str, FaultPlan); 2] = [
        ("drop-0.2", FaultPlan::drop(0.2)),
        (
            "delay-2+crash-1%",
            FaultPlan::NONE.with_delay(2).with_crash(0.01, 5),
        ),
    ];
    for family in [Family::BarabasiAlbert, Family::Geometric] {
        let (g, sides) = fixture(family, N, 3);
        for alg in [Algorithm::IsraeliItai, Algorithm::Generic { k: 2 }] {
            for (plan_label, plan) in &plans {
                let mk = |threads: usize| ExecCfg::parallel(threads).forced().with_faults(*plan);
                let seq = run(&g, sides.as_deref(), alg, 7, TerminationMode::Oracle, mk(1));
                let label = format!("{family}/{alg}/{plan_label}");
                assert!(
                    seq.matching.validate(&g).is_ok(),
                    "{label}: invalid matching under faults"
                );
                let par = run(&g, sides.as_deref(), alg, 7, TerminationMode::Oracle, mk(4));
                assert_eq!(
                    seq.matching, par.matching,
                    "{label}: executor changed the faulty matching"
                );
                assert_eq!(
                    seq.stats, par.stats,
                    "{label}: executor changed the faulty statistics trace"
                );
            }
        }
    }
}
