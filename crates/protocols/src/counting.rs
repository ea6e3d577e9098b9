//! Approximate triangle *counting* — the companion problem the paper's
//! related-work section traces through streaming (\[27\]) and distributed
//! computing.
//!
//! The one-round estimator reuses the induced-sampler: expose the
//! subgraph on a public `Bernoulli(p)` vertex sample, count its
//! triangles `T_S`, and return `T̂ = T_S / p³` — unbiased, since each
//! triangle survives with probability exactly `p³`. Concentration needs
//! `p³·T = Ω(1)` and bounded triangle overlap, mirroring the variance
//! bookkeeping of Theorem 3.26.

use crate::outcome::ProtocolError;
use triad_comm::{
    run_simultaneous, CommStats, Payload, PlayerState, SharedRandomness, SimMessage,
    SimultaneousProtocol,
};
use triad_graph::partition::Partition;
use triad_graph::{triangles, Graph, GraphBuilder};

/// Shared-randomness tag naming the counting sample.
const COUNT_TAG: u64 = 0x434E_5452; // "CNTR"

/// The one-round triangle-count estimator at sampling probability `p`.
#[derive(Debug, Clone, Copy)]
pub struct TriangleCounter {
    p: f64,
    /// Per-player edge cap (Markov cutoff; `usize::MAX` disables).
    cap: usize,
}

impl TriangleCounter {
    /// An estimator sampling each vertex with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p ≤ 1`.
    pub fn new(p: f64) -> Self {
        assert!(
            p > 0.0 && p <= 1.0,
            "sampling probability must be in (0, 1]"
        );
        TriangleCounter { p, cap: usize::MAX }
    }

    /// Caps each player's message at `cap` edges.
    pub fn with_cap(mut self, cap: usize) -> Self {
        self.cap = cap;
        self
    }

    /// The sampling probability.
    pub fn probability(&self) -> f64 {
        self.p
    }
}

impl SimultaneousProtocol for TriangleCounter {
    type Output = CountOutput;

    fn message<'a>(&self, player: &'a PlayerState, shared: &SharedRandomness) -> SimMessage<'a> {
        let mut out = Vec::new();
        for e in player.share() {
            if shared.vertex_sampled(COUNT_TAG, e.u(), self.p)
                && shared.vertex_sampled(COUNT_TAG, e.v(), self.p)
            {
                out.push(*e);
                if out.len() >= self.cap {
                    break;
                }
            }
        }
        SimMessage::of(Payload::Edges(out.into()))
    }

    fn referee(
        &self,
        n: usize,
        messages: &[SimMessage],
        _shared: &SharedRandomness,
    ) -> CountOutput {
        let mut b = GraphBuilder::new(n);
        for m in messages {
            for e in m.edges() {
                b.add_edge(e);
            }
        }
        let sampled = triangles::count_triangles(&b.build());
        CountOutput {
            sampled_triangles: sampled,
            estimate: sampled as f64 / (self.p * self.p * self.p),
        }
    }
}

/// The referee's count output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CountOutput {
    /// Triangles visible in the exposed subgraph.
    pub sampled_triangles: u64,
    /// The unbiased estimate `T_S / p³`.
    pub estimate: f64,
}

/// A completed counting run.
#[derive(Debug, Clone)]
pub struct CountRun {
    /// The estimate and raw sample count.
    pub output: CountOutput,
    /// Communication statistics (one round).
    pub stats: CommStats,
}

/// Runs the estimator over a partitioned input.
///
/// # Errors
///
/// Returns [`ProtocolError::InvalidInput`] on malformed shares.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use triad_graph::generators::shifted_triangles;
/// use triad_graph::partition::random_disjoint;
/// use triad_protocols::counting::estimate_triangles;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = shifted_triangles(90, 2)?; // 60 planted triangles
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let parts = random_disjoint(&g, 3, &mut rng);
/// let run = estimate_triangles(&g, &parts, 1.0, 0)?; // p = 1: exact
/// assert_eq!(run.output.sampled_triangles, 60);
/// # Ok(())
/// # }
/// ```
pub fn estimate_triangles(
    g: &Graph,
    partition: &Partition,
    p: f64,
    seed: u64,
) -> Result<CountRun, ProtocolError> {
    let n = g.vertex_count();
    crate::outcome::validate_shares(g, partition)?;
    let counter = TriangleCounter::new(p);
    let run = run_simultaneous(&counter, n, partition.shares(), SharedRandomness::new(seed));
    Ok(CountRun {
        output: run.output,
        stats: run.stats,
    })
}

/// Averages the estimator over `trials` seeds — the standard variance
/// reduction, multiplying the cost by `trials` and dividing the variance
/// by it.
///
/// # Errors
///
/// Propagates the first failing run's error.
pub fn estimate_triangles_averaged(
    g: &Graph,
    partition: &Partition,
    p: f64,
    trials: u64,
    base_seed: u64,
) -> Result<(f64, CommStats), ProtocolError> {
    let mut sum = 0.0;
    let mut stats = CommStats::default();
    for t in 0..trials.max(1) {
        let run = estimate_triangles(g, partition, p, base_seed.wrapping_add(t * 7919))?;
        sum += run.output.estimate;
        stats = stats.merged(run.stats);
    }
    Ok((sum / trials.max(1) as f64, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use triad_graph::generators::shifted_triangles;
    use triad_graph::partition::random_disjoint;

    #[test]
    fn full_probability_is_exact() {
        let g = shifted_triangles(60, 3).unwrap();
        let truth = triangles::count_triangles(&g);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let parts = random_disjoint(&g, 4, &mut rng);
        let run = estimate_triangles(&g, &parts, 1.0, 5).unwrap();
        assert_eq!(run.output.sampled_triangles, truth);
        assert!((run.output.estimate - truth as f64).abs() < 1e-9);
    }

    #[test]
    fn estimator_is_unbiased_in_the_mean() {
        let g = shifted_triangles(120, 6).unwrap();
        let truth = triangles::count_triangles(&g) as f64;
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let parts = random_disjoint(&g, 4, &mut rng);
        let (mean, _) = estimate_triangles_averaged(&g, &parts, 0.5, 40, 3).unwrap();
        let rel = (mean - truth).abs() / truth;
        assert!(
            rel < 0.25,
            "mean estimate {mean} vs truth {truth} (rel {rel:.2})"
        );
    }

    #[test]
    fn cost_scales_with_p_squared() {
        let g = shifted_triangles(600, 20).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let parts = random_disjoint(&g, 4, &mut rng);
        let low = estimate_triangles(&g, &parts, 0.1, 1)
            .unwrap()
            .stats
            .total_bits as f64;
        let high = estimate_triangles(&g, &parts, 0.4, 1)
            .unwrap()
            .stats
            .total_bits as f64;
        // Exposed edges ∝ p²: 16× expected; allow wide slack.
        let ratio = high / low.max(1.0);
        assert!(ratio > 6.0 && ratio < 40.0, "cost ratio {ratio}");
    }

    #[test]
    fn zero_triangles_estimates_zero() {
        let g = Graph::from_edges(40, (0..39).map(|i| (i as u32, i as u32 + 1)));
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let parts = random_disjoint(&g, 3, &mut rng);
        let run = estimate_triangles(&g, &parts, 0.8, 1).unwrap();
        assert_eq!(run.output.sampled_triangles, 0);
        assert_eq!(run.output.estimate, 0.0);
    }

    #[test]
    #[should_panic(expected = "in (0, 1]")]
    fn rejects_bad_probability() {
        let _ = TriangleCounter::new(0.0);
    }

    #[test]
    fn cap_limits_messages() {
        let g = shifted_triangles(300, 10).unwrap();
        let counter = TriangleCounter::new(1.0).with_cap(5);
        let player = PlayerState::new(0, 300, g.edges());
        let msg = counter.message(&player, &SharedRandomness::new(1));
        assert_eq!(msg.edges().count(), 5);
    }
}
