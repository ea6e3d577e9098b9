//! The same protocol, genuinely concurrent.
//!
//! Every protocol in `triad` draws its randomness from the shared public
//! string and none from scheduling, so running the players as real OS
//! threads (`std::sync::mpsc` channels to the coordinator) produces a transcript
//! bit-for-bit identical to the sequential reference runtime. This
//! example proves it on the unrestricted tester.
//!
//! ```text
//! cargo run --example distributed_threads
//! ```

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use triad::comm::{CostModel, Runtime, SharedRandomness};
use triad::graph::generators::far_graph;
use triad::graph::partition::random_disjoint;
use triad::protocols::{Tuning, UnrestrictedTester};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let g = far_graph(600, 6.0, 0.2, &mut rng)?;
    let parts = random_disjoint(&g, 8, &mut rng);
    let tester = UnrestrictedTester::new(Tuning::practical(0.2));
    let shared = SharedRandomness::new(42);

    let mut local = Runtime::local(
        g.vertex_count(),
        parts.shares(),
        shared,
        CostModel::Coordinator,
    );
    let local_outcome = tester.run_on(&mut local);

    let mut threaded = Runtime::threaded(
        g.vertex_count(),
        parts.shares(),
        shared,
        CostModel::Coordinator,
    );
    let threaded_outcome = tester.run_on(&mut threaded);

    println!(
        "sequential runtime: {:?} — {} bits",
        local_outcome,
        local.stats().total_bits
    );
    println!(
        "threaded runtime:   {:?} — {} bits",
        threaded_outcome,
        threaded.stats().total_bits
    );
    assert_eq!(local_outcome, threaded_outcome, "verdicts must agree");
    assert_eq!(
        local.stats(),
        threaded.stats(),
        "transcripts must agree bit-for-bit"
    );
    println!(
        "transcripts identical across {} messages ✓",
        local.stats().messages
    );
    Ok(())
}
