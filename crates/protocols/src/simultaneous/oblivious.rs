//! Algorithm 11: the degree-oblivious simultaneous tester (§3.4.3).
//!
//! Nobody knows the global average degree `d`, and in one round nobody
//! can ask. The trick: a player holding an `Ω(ε/k)`-fraction of the edges
//! (a *relevant* player) knows that `d ∈ [d̄_j, (4k/ε)·d̄_j]` where `d̄_j`
//! is the average degree of its own share — and irrelevant players can be
//! ignored entirely, since deleting their edges keeps the graph
//! `(ε/2)`-far. Every player therefore runs `O(log k)` capped instances
//! of [`AlgHigh`](super::AlgHigh)/[`AlgLow`](super::AlgLow)-style
//! sampling, one per power-of-two density guess in its personal range,
//! and the referee unions all posted edges. Per-instance caps keyed to
//! `d̄_j` (not to the guess!) prevent the low guesses from blowing up the
//! message size (Lemmas 3.30–3.31).

use super::referee_find_triangle;
use crate::config::Tuning;
use triad_comm::{Payload, PlayerState, SharedRandomness, SimMessage, SimultaneousProtocol};
use triad_graph::Triangle;

/// Tag base for per-guess high-degree samples (`S` of AlgHigh, one
/// independent sample per guess exponent).
const HIGH_TAG_BASE: u64 = 0x4F42_4800; // "OBH."
/// Tag base for per-guess low-degree large sets (`S` of AlgLow).
const LOW_S_TAG_BASE: u64 = 0x4F42_5300; // "OBS."
/// Single shared tag for the small set `R` — the paper notes all low
/// instances can reuse one `R`.
const LOW_R_TAG: u64 = 0x4F42_5252; // "OBRR"

/// The degree-oblivious one-round tester (Theorem 3.32):
/// `O(k√n·polylog)` bits for `d = O(√n)` and `O(k(nd)^{1/3}·polylog)`
/// for `d = Ω(√n)`, with constant one-sided error — within polylog
/// factors of the degree-aware protocols.
#[derive(Debug, Clone, Copy)]
pub struct Oblivious {
    tuning: Tuning,
    k: usize,
}

impl Oblivious {
    /// A tester for `k` players.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(tuning: Tuning, k: usize) -> Self {
        assert!(k >= 1, "need at least one player");
        Oblivious { tuning, k }
    }

    /// The power-of-two guess exponents player `j` participates in:
    /// all `i` with `2^i ∈ [max(1, d̄_j), min(n, (4k/ε)·d̄_j)]`.
    pub fn guess_exponents(&self, n: usize, local_avg_degree: f64) -> Vec<u32> {
        if local_avg_degree <= 0.0 {
            return Vec::new(); // empty input: certainly irrelevant
        }
        let lo = local_avg_degree.max(1.0);
        let hi = (4.0 * self.k as f64 / self.tuning.epsilon * local_avg_degree)
            .min(n as f64)
            .max(lo);
        let first = lo.log2().floor().max(0.0) as u32;
        let last = hi.log2().ceil().max(0.0) as u32;
        (first..=last).collect()
    }
}

impl SimultaneousProtocol for Oblivious {
    type Output = Option<Triangle>;

    fn message<'a>(&self, player: &'a PlayerState, shared: &SharedRandomness) -> SimMessage<'a> {
        let n = player.n();
        let sqrt_n = (n as f64).sqrt();
        let d_bar = player.local_average_degree();
        let mut msg = SimMessage::empty();
        for i in self.guess_exponents(n, d_bar) {
            let guess = 2f64.powi(i as i32);
            if guess >= sqrt_n {
                // AlgHigh-style instance at density guess `guess`.
                let p = (self.tuning.high_sample_size(n, guess) / n as f64).min(1.0);
                let cap = self.tuning.oblivious_high_cap(n, d_bar, self.k);
                let tag = HIGH_TAG_BASE + u64::from(i);
                let mut out = Vec::new();
                for e in player.share() {
                    if shared.vertex_sampled(tag, e.u(), p) && shared.vertex_sampled(tag, e.v(), p)
                    {
                        out.push(*e);
                        if out.len() >= cap {
                            break;
                        }
                    }
                }
                msg.push_phased(
                    Payload::edge_set(self.tuning.repr, n, out.into()),
                    "oblivious-high-guess",
                );
            } else {
                // AlgLow-style instance at density guess `guess`.
                let c = self.tuning.low_c();
                let p1 = (c / guess).min(1.0);
                let p2 = (c / sqrt_n).min(1.0);
                let cap = self.tuning.oblivious_low_cap(n, self.k);
                let s_tag = LOW_S_TAG_BASE + u64::from(i);
                let mut out = Vec::new();
                for e in player.share() {
                    let (u, v) = e.endpoints();
                    let ru = shared.vertex_sampled(LOW_R_TAG, u, p2);
                    let rv = shared.vertex_sampled(LOW_R_TAG, v, p2);
                    let qualifies = (ru && (rv || shared.vertex_sampled(s_tag, v, p1)))
                        || (rv && (ru || shared.vertex_sampled(s_tag, u, p1)));
                    if qualifies {
                        out.push(*e);
                        if out.len() >= cap {
                            break;
                        }
                    }
                }
                msg.push_phased(
                    Payload::edge_set(self.tuning.repr, n, out.into()),
                    "oblivious-low-guess",
                );
            }
        }
        msg
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
    fn guess_range_brackets_true_density_for_relevant_players() {
        let tuning = Tuning::practical(0.2);
        let alg = Oblivious::new(tuning, 8);
        // A relevant player sees d̄_j ≥ (ε/4k)·d; with d = 32 and the
        // worst allowed d̄_j = 0.2/32·32 = 0.2 the range must still
        // contain 32.
        let d_true: f64 = 32.0;
        let worst_dbar = tuning.epsilon / (4.0 * 8.0) * d_true;
        let exps = alg.guess_exponents(1 << 14, worst_dbar);
        let contains = exps.iter().any(|i| {
            let g = 2f64.powi(*i as i32);
            g >= d_true / 2.0 && g <= d_true * 2.0
        });
        assert!(contains, "guesses {exps:?} must bracket d = {d_true}");
    }

    #[test]
    fn number_of_instances_is_logarithmic_in_k() {
        let tuning = Tuning::practical(0.2);
        let small = Oblivious::new(tuning, 2)
            .guess_exponents(1 << 14, 8.0)
            .len();
        let large = Oblivious::new(tuning, 64)
            .guess_exponents(1 << 14, 8.0)
            .len();
        assert!(large > small);
        assert!(
            large - small <= 6,
            "32× more players adds ~log₂32 = 5 guesses, got {small} → {large}"
        );
    }

    #[test]
    fn empty_player_sends_nothing() {
        let player = PlayerState::new(0, 64, &[]);
        let alg = Oblivious::new(Tuning::practical(0.2), 4);
        let msg = alg.message(&player, &SharedRandomness::new(1));
        assert_eq!(msg.bit_len(64).get(), 0);
    }

    #[test]
    fn run_exposes_triangle_without_degree_knowledge() {
        let e = |a, b| Edge::new(VertexId(a), VertexId(b));
        // A clique on 6 vertices split over 2 players, n = 64.
        let mut all = Vec::new();
        for a in 0..6u32 {
            for b in (a + 1)..6 {
                all.push(e(a, b));
            }
        }
        let shares = vec![all[..7].to_vec(), all[7..].to_vec()];
        let alg = Oblivious::new(Tuning::practical(0.2), 2);
        let mut hits = 0;
        for seed in 0..10 {
            let run = run_simultaneous(&alg, 64, &shares, SharedRandomness::new(seed));
            if run.output.is_some() {
                hits += 1;
            }
        }
        assert!(hits >= 7, "clique found in only {hits}/10 runs");
    }

    #[test]
    #[should_panic(expected = "at least one player")]
    fn zero_players_rejected() {
        let _ = Oblivious::new(Tuning::practical(0.2), 0);
    }
}
