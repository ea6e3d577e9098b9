//! The one-way communication model (§4.2.2).
//!
//! Players speak once each, in a fixed order; player `j` sees the
//! messages of players `0..j` before composing its own, and the *last*
//! player outputs the answer without sending. This sits strictly between
//! simultaneous (nobody sees anything) and unrestricted communication,
//! and is the model of the paper's `Ω(n^{1/4})` bound — and, via the
//! standard reduction, of streaming space lower bounds
//! (see [`crate::streaming`]).

use crate::player::{players_from_shares, PlayerState};
use crate::rand::SharedRandomness;
use crate::simultaneous::SimMessage;
use crate::transcript::CommStats;
use triad_graph::Edge;

/// A protocol in the one-way model.
pub trait OneWayProtocol {
    /// What the last player outputs.
    type Output;

    /// The message player `j` sends, given its private input and the
    /// messages of all earlier players. The message is owned
    /// (`'static`): one-way messages outlive their sender's turn, being
    /// relayed down the whole chain.
    fn message(
        &self,
        player: &PlayerState,
        prior: &[SimMessage],
        shared: &SharedRandomness,
    ) -> SimMessage<'static>;

    /// The last player's output, computed from its private input and
    /// every earlier message (it sends nothing).
    fn output(
        &self,
        last: &PlayerState,
        prior: &[SimMessage],
        shared: &SharedRandomness,
    ) -> Self::Output;
}

/// The result of a one-way execution.
#[derive(Debug, Clone)]
pub struct OneWayRun<O> {
    /// The last player's output.
    pub output: O,
    /// Bits of each sent message, in player order (`k − 1` entries).
    pub hop_bits: Vec<u64>,
    /// Aggregate statistics (total = Σ hop bits).
    pub stats: CommStats,
}

/// Runs a one-way protocol over per-player edge shares (≥ 2 players).
///
/// # Panics
///
/// Panics if fewer than two shares are given.
///
/// # Example
///
/// ```
/// use triad_comm::{run_one_way, OneWayProtocol, Payload, PlayerState,
///     SharedRandomness, SimMessage};
/// use triad_graph::{Edge, VertexId};
///
/// /// Forward your edge count; the last player sums.
/// struct CountChain;
/// impl OneWayProtocol for CountChain {
///     type Output = u64;
///     fn message(&self, p: &PlayerState, prior: &[SimMessage],
///                _s: &SharedRandomness) -> SimMessage<'static> {
///         let before = prior.last().and_then(|m| match m.payloads()[0] {
///             Payload::Count(c) => Some(c), _ => None }).unwrap_or(0);
///         SimMessage::of(Payload::Count(before + p.edge_count() as u64))
///     }
///     fn output(&self, last: &PlayerState, prior: &[SimMessage],
///               _s: &SharedRandomness) -> u64 {
///         let before = prior.last().and_then(|m| match m.payloads()[0] {
///             Payload::Count(c) => Some(c), _ => None }).unwrap_or(0);
///         before + last.edge_count() as u64
///     }
/// }
///
/// let e = |a, b| Edge::new(VertexId(a), VertexId(b));
/// let shares = vec![vec![e(0, 1)], vec![e(1, 2), e(2, 3)], vec![e(0, 3)]];
/// let run = run_one_way(&CountChain, 4, &shares, SharedRandomness::new(0));
/// assert_eq!(run.output, 4);
/// assert_eq!(run.hop_bits.len(), 2);
/// ```
pub fn run_one_way<P: OneWayProtocol>(
    protocol: &P,
    n: usize,
    shares: &[Vec<Edge>],
    shared: SharedRandomness,
) -> OneWayRun<P::Output> {
    assert!(
        shares.len() >= 2,
        "one-way model needs at least two players"
    );
    let players = players_from_shares(n, shares);
    let mut messages: Vec<SimMessage<'static>> = Vec::with_capacity(players.len() - 1);
    let mut hop_bits = Vec::with_capacity(players.len() - 1);
    for player in &players[..players.len() - 1] {
        let msg = protocol.message(player, &messages, &shared);
        hop_bits.push(msg.bit_len(n).get());
        messages.push(msg);
    }
    let last = players.last().expect("at least two players");
    let output = protocol.output(last, &messages, &shared);
    let total: u64 = hop_bits.iter().sum();
    OneWayRun {
        output,
        stats: CommStats {
            total_bits: total,
            rounds: hop_bits.len() as u64,
            messages: hop_bits.len() as u64,
            max_player_sent_bits: hop_bits.iter().copied().max().unwrap_or(0),
        },
        hop_bits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Payload;
    use triad_graph::VertexId;

    /// Forward everything you hold plus everything you heard; the last
    /// player reports the total number of distinct edges.
    struct Relay;

    impl OneWayProtocol for Relay {
        type Output = usize;

        fn message(
            &self,
            player: &PlayerState,
            prior: &[SimMessage],
            _shared: &SharedRandomness,
        ) -> SimMessage<'static> {
            let mut edges = player.share().to_vec();
            for m in prior {
                edges.extend(m.edges());
            }
            edges.sort_unstable();
            edges.dedup();
            SimMessage::of(Payload::Edges(edges.into()))
        }

        fn output(
            &self,
            last: &PlayerState,
            prior: &[SimMessage],
            _shared: &SharedRandomness,
        ) -> usize {
            let mut edges = last.share().to_vec();
            for m in prior {
                edges.extend(m.edges());
            }
            edges.sort_unstable();
            edges.dedup();
            edges.len()
        }
    }

    fn e(a: u32, b: u32) -> Edge {
        Edge::new(VertexId(a), VertexId(b))
    }

    #[test]
    fn relay_counts_union() {
        let shares = vec![vec![e(0, 1)], vec![e(1, 2), e(0, 1)], vec![e(2, 3)]];
        let run = run_one_way(&Relay, 4, &shares, SharedRandomness::new(1));
        assert_eq!(run.output, 3);
        assert_eq!(run.hop_bits.len(), 2);
        // Second hop carries 2 distinct edges: it must cost more than the
        // first hop's single edge.
        assert!(run.hop_bits[1] > run.hop_bits[0]);
        assert_eq!(run.stats.total_bits, run.hop_bits.iter().sum::<u64>());
        assert_eq!(run.stats.messages, 2);
    }

    #[test]
    fn last_player_sends_nothing() {
        let shares = vec![vec![e(0, 1)], vec![]];
        let run = run_one_way(&Relay, 3, &shares, SharedRandomness::new(2));
        assert_eq!(run.hop_bits.len(), 1);
        assert_eq!(run.output, 1);
    }

    #[test]
    #[should_panic(expected = "at least two players")]
    fn rejects_single_player() {
        let _ = run_one_way(&Relay, 3, &[vec![]], SharedRandomness::new(0));
    }
}
