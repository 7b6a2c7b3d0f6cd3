//! Fault injection demo: what happens to Israeli–Itai when the
//! adversary plane breaks the paper's fault-free synchronous model.
//!
//! The example shows the separation the robustness suite verifies:
//! under any [`FaultPlan`] the protocol keeps *safety* (the returned
//! pairs always form a valid matching) while *liveness* (maximality,
//! size) degrades gracefully with the fault intensity. The last run is
//! traced through the observability plane, so the exported Chrome
//! trace carries per-fault instants (drop/delay/crash/rejoin) on the
//! adversary track — load `fault_injection.trace.json` at
//! <https://ui.perfetto.dev>.
//!
//! ```sh
//! cargo run --release --example fault_injection
//! ```

use distributed_matching::dgraph::blossom;
use distributed_matching::dgraph::generators::random::gnp;
use distributed_matching::dmatch::{Algorithm, Session};
use distributed_matching::dobs::TraceSession;
use distributed_matching::simnet::{ExecCfg, FaultPlan};

/// One adversarial session: the unified driver with `plan` installed.
fn run(g: &distributed_matching::dgraph::Graph, seed: u64, plan: FaultPlan) -> (usize, u64) {
    let r = Session::on(g)
        .algorithm(Algorithm::IsraeliItai)
        .seed(seed)
        .exec(ExecCfg::default().with_faults(plan))
        .build()
        .run_to_completion();
    // Safety: whatever the adversary did, the agreed pairs validate.
    r.matching
        .validate(g)
        .expect("faults must never break safety");
    (r.matching.size(), r.stats.dropped)
}

fn main() {
    let g = gnp(300, 0.03, 5);
    let opt = blossom::max_matching(&g).size();
    println!(
        "graph: n = {}, m = {}; maximum matching = {opt}\n",
        g.n(),
        g.m()
    );

    // Fault-free reference: the matching quality the adversarial runs
    // below degrade from.
    let (base, _) = run(&g, 0, FaultPlan::NONE);
    println!(
        "fault-free session reference: {base} pairs ({:.1}% of opt)\n",
        100.0 * base as f64 / opt as f64
    );
    println!(
        "{:>10} {:>14} {:>12} {:>12}",
        "loss", "agreed pairs", "% of opt", "dropped msgs"
    );
    for &loss in &[0.0, 0.05, 0.1, 0.25, 0.5, 0.75] {
        let mut pairs = 0usize;
        let mut dropped = 0u64;
        let runs = 5;
        for seed in 0..runs {
            let (size, d) = run(&g, seed, FaultPlan::drop(loss));
            pairs += size;
            dropped += d;
        }
        println!(
            "{:>10.2} {:>14.1} {:>12.1} {:>12}",
            loss,
            pairs as f64 / runs as f64,
            100.0 * pairs as f64 / (runs as usize * opt) as f64,
            dropped / runs
        );
    }

    // Other fault classes from the same plane, one line each.
    println!("\n{:>22} {:>14} {:>12}", "plan", "agreed pairs", "% of opt");
    for (label, plan) in [
        ("delay <= 3 rounds", FaultPlan::NONE.with_delay(3)),
        ("crash 2%, rejoin 5", FaultPlan::NONE.with_crash(0.02, 5)),
        (
            "combined storm",
            FaultPlan::drop(0.1).with_delay(2).with_crash(0.01, 4),
        ),
    ] {
        let (size, _) = run(&g, 1, plan);
        println!(
            "{label:>22} {size:>14} {:>12.1}",
            100.0 * size as f64 / opt as f64
        );
    }

    // Traced adversarial run: the flight recorder captures every fault
    // the plane injects as an instant on the adversary track.
    let session = TraceSession::start(65536);
    let _ = run(&g, 2, FaultPlan::drop(0.2).with_crash(0.02, 5));
    let rec = session.finish();
    let trace = distributed_matching::dobs::export::chrome_trace(&rec);
    std::fs::write("fault_injection.trace.json", &trace).expect("write trace");
    println!(
        "\nwrote fault_injection.trace.json ({} events) — the adversary track\n\
         shows each drop/crash/rejoin instant next to the round spans",
        rec.len()
    );

    println!(
        "\nReading: safety never breaks (every run produced a valid matching);\n\
         the matched fraction decays smoothly as faults intensify — and the\n\
         paper's fault-free guarantees (the session reference above) are\n\
         recovered under FaultPlan::NONE. All runs route through the same\n\
         Session surface; the adversary plane is one ExecCfg::with_faults(plan) away."
    );
}
