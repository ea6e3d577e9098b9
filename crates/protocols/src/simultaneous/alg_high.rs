//! Algorithm 7/9: the high-degree simultaneous tester.

use super::referee_find_triangle;
use crate::config::Tuning;
use triad_comm::{Payload, PlayerState, SharedRandomness, SimMessage, SimultaneousProtocol};
use triad_graph::Triangle;

/// Shared-randomness tag naming AlgHigh's vertex sample `S`.
const S_TAG: u64 = 0x414C_4748; // "ALGH"

/// The `d = Ω(√n)` one-round tester ([Alon–Kaufman–Krivelevich–Ron]'s
/// dense sampler, implemented the cheap way): a public vertex sample `S`
/// of size `c·(n²/εd)^{1/3}`, each player posting the edges of its input
/// induced by `S`, capped by the Markov cutoff; the referee searches the
/// union for a triangle.
///
/// Communication `O(k·(nd)^{1/3}·log n)` with constant one-sided error
/// (Theorem 3.24).
#[derive(Debug, Clone, Copy)]
pub struct AlgHigh {
    tuning: Tuning,
    avg_degree: f64,
}

impl AlgHigh {
    /// A tester for a graph of (known) average degree `avg_degree`.
    pub fn new(tuning: Tuning, avg_degree: f64) -> Self {
        AlgHigh { tuning, avg_degree }
    }

    /// The per-vertex sampling probability `|S|/n`.
    pub fn sample_probability(&self, n: usize) -> f64 {
        (self.tuning.high_sample_size(n, self.avg_degree) / n as f64).min(1.0)
    }

    /// The per-player edge cap (Markov cutoff of step 2).
    pub fn cap(&self, n: usize) -> usize {
        self.tuning.high_cap(n, self.avg_degree)
    }
}

impl SimultaneousProtocol for AlgHigh {
    type Output = Option<Triangle>;

    fn message<'a>(&self, player: &'a PlayerState, shared: &SharedRandomness) -> SimMessage<'a> {
        let n = player.n();
        let p = self.sample_probability(n);
        let cap = self.cap(n);
        let mut out = Vec::new();
        for e in player.share() {
            if shared.vertex_sampled(S_TAG, e.u(), p) && shared.vertex_sampled(S_TAG, e.v(), p) {
                out.push(*e);
                if out.len() >= cap {
                    break;
                }
            }
        }
        SimMessage::of_phased(
            Payload::edge_set(self.tuning.repr, n, out.into()),
            "induced-sample",
        )
    }

    fn referee(
        &self,
        n: usize,
        messages: &[SimMessage],
        _shared: &SharedRandomness,
    ) -> Option<Triangle> {
        referee_find_triangle(n, messages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triad_comm::run_simultaneous;
    use triad_graph::{Edge, VertexId};

    #[test]
    fn message_contains_only_induced_edges() {
        let edges: Vec<Edge> = (0..50u32)
            .map(|i| Edge::new(VertexId(i), VertexId((i + 1) % 100)))
            .collect();
        let player = PlayerState::new(0, 100, &edges);
        let shared = SharedRandomness::new(5);
        let alg = AlgHigh::new(Tuning::practical(0.2), 20.0);
        let msg = alg.message(&player, &shared);
        let p = alg.sample_probability(100);
        for e in msg.edges() {
            assert!(shared.vertex_sampled(S_TAG, e.u(), p));
            assert!(shared.vertex_sampled(S_TAG, e.v(), p));
            assert!(player.has_edge(e));
        }
    }

    #[test]
    fn cap_limits_message_size() {
        let edges: Vec<Edge> = (1..=500u32)
            .map(|i| Edge::new(VertexId(0), VertexId(i)))
            .collect();
        let player = PlayerState::new(0, 501, &edges);
        let shared = SharedRandomness::new(9);
        // Tiny scale forces a small cap even at p close to 1.
        let tuning = Tuning::practical(0.2).with_scale(0.2);
        let alg = AlgHigh::new(tuning, 2.0);
        let msg = alg.message(&player, &shared);
        assert!(msg.edges().count() <= alg.cap(501));
    }

    #[test]
    fn full_probability_run_finds_planted_triangle() {
        // With p = 1 (huge sample size from tiny n / small d), the referee
        // must see every edge and find the triangle.
        let shares = vec![
            vec![Edge::new(VertexId(0), VertexId(1))],
            vec![
                Edge::new(VertexId(1), VertexId(2)),
                Edge::new(VertexId(0), VertexId(2)),
            ],
        ];
        let alg = AlgHigh::new(Tuning::practical(0.3), 1.0);
        let run = run_simultaneous(&alg, 3, &shares, SharedRandomness::new(1));
        assert!(run.output.is_some());
        assert_eq!(run.stats.rounds, 1);
    }
}
