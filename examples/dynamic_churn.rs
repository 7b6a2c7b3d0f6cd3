//! Dynamic-network quickstart: a matching that survives churn.
//!
//! ```bash
//! cargo run --release --example dynamic_churn
//! ```
//!
//! Builds a random network, bootstraps a maximal matching, then churns
//! 5% of the edges every epoch while the `dchurn` engine repairs the
//! matching incrementally — printing what each epoch's repair cost
//! compared to recomputing from scratch.

use distributed_matching::dchurn::{ChurnModel, DynEngine, RepairAlgo};
use distributed_matching::dgraph::augmenting::has_augmenting_path_within;
use distributed_matching::dgraph::generators::random::gnp;
use distributed_matching::dmatch::{Algorithm, Session};

fn main() {
    let n = 1000;
    let g = gnp(n, 8.0 / n as f64, 7);
    println!(
        "network: {} nodes, {} edges; churn: 5% of edges per epoch\n",
        g.n(),
        g.m()
    );

    let mut eng = DynEngine::new(
        g,
        ChurnModel::EdgeChurn { rate: 0.05 },
        RepairAlgo::IncrementalMaximal,
        42,
    );
    let boot = eng.bootstrap().clone();
    println!(
        "bootstrap: |M| = {} in {} rounds / {} messages\n",
        boot.matching_size, boot.rounds, boot.messages
    );

    println!("epoch  ±edges  freed  woken  radius  repair rnds/msgs  recompute rnds/msgs");
    for _ in 0..10 {
        let rep = eng.step_epoch().clone();
        let (_, recompute) = eng.recompute_baseline();
        assert!(rep.maximal, "repair restores maximality every epoch");
        println!(
            "{:>5}  {:>6}  {:>5}  {:>5}  {:>6}  {:>7}/{:<8}  {:>9}/{:<8}",
            rep.epoch,
            rep.added + rep.removed,
            rep.invalidated,
            rep.woken,
            rep.locality_radius.map_or("-".into(), |r| r.to_string()),
            rep.rounds,
            rep.messages,
            recompute.rounds,
            recompute.messages,
        );
    }
    println!(
        "\nfinal matching: |M| = {} (valid: {}, maximal: {})",
        eng.matching().size(),
        eng.matching().validate(eng.graph()).is_ok(),
        eng.matching().is_maximal(eng.graph()),
    );

    // The same epoch loop, hand-driven through the Session API (how the
    // engine's generic arm works internally): complete a run, then
    // rewire it with a churn batch and pay only for the damage ball.
    println!("\n-- hand-driven Session repair (generic k=2, one lost edge) --");
    let k = 2;
    let g = gnp(400, 8.0 / 400.0, 11);
    let mut session = Session::on(&g)
        .algorithm(Algorithm::Generic { k })
        .seed(3)
        .build();
    let boot = session.run_to_completion();
    let full_rounds = boot.stats.rounds;
    let (a, b) = g.endpoints(boot.matching.edge_ids(&g)[0]);
    session.rewire(&[(a, b)], &[]);
    let repaired = session.run_to_completion();
    assert!(
        !has_augmenting_path_within(session.graph(), &repaired.matching, 2 * k - 1),
        "repair must leave no augmenting path of length <= 2k-1"
    );
    println!(
        "bootstrap: {} rounds; repair after losing ({a},{b}): {} rounds, |M| = {}",
        full_rounds,
        repaired.stats.rounds - full_rounds,
        repaired.matching.size(),
    );
}
