//! The one-round (simultaneous) testers of §3.4.
//!
//! * [`AlgHigh`] — for `d = Ω(√n)`: publicly sample
//!   `|S| = Θ((n²/εd)^{1/3})` vertices; players post the induced edges
//!   they hold (Algorithm 7/9). Cost `Õ(k·(nd)^{1/3})`.
//! * [`AlgLow`] — for `d = O(√n)`: sample a large set `S`
//!   (`p₁ = c/d`, catching rare high-degree triangle hubs) and a small
//!   set `R` (`p₂ = c/√n`); players post edges in `R × (R ∪ S)`
//!   (Algorithm 8/10). Cost `Õ(k·√n)`.
//! * [`Oblivious`] — no knowledge of `d`: every player brackets the true
//!   density inside `D_j = [d̄_j, (4k/ε)·d̄_j]` from its own input (if it
//!   is *relevant* — holds an `Ω(ε/k)` fraction of the edges), runs
//!   `O(log k)` capped instances of the two protocols across its guess
//!   range, and the referee unions everything (Algorithm 11,
//!   Theorem 3.32).

mod alg_high;
mod alg_low;
mod oblivious;

pub use alg_high::AlgHigh;
pub use alg_low::AlgLow;
pub use oblivious::Oblivious;

use crate::amplify::{PreparedInput, Repeatable};
use crate::chaos::ChaosRep;
use crate::config::Tuning;
use crate::outcome::{ProtocolError, ProtocolRun, TallyRun, TestOutcome};
use triad_comm::player::players_from_shares;
use triad_comm::{
    run_simultaneous_chaos, run_simultaneous_prepared, ChaosFailure, FaultPlan, FaultStats,
    Payload, PlayerState, SharedRandomness, SimMessage, SimultaneousProtocol, Tally,
};
use triad_graph::kernels::{bitset, EdgeBitset};
use triad_graph::partition::Partition;
use triad_graph::{triangles, Graph, GraphBuilder, Triangle};

/// The referee of every §3.4 protocol: union all posted edges and look
/// for a triangle in the exposed subgraph.
///
/// Representation-aware: when every payload is an edge list, the union
/// builds a [`Graph`] and the search runs on the `O(m^{3/2})` forward
/// kernel. When any player posted a bitset payload, the union stays in
/// bitset space (word-parallel ORs, `O(words)` per dense row) and the
/// search runs the AND-popcount kernel instead. The two kernels return
/// the **same witness** on the same edge set (pinned in `triad-graph`),
/// so payload representation can never change the verdict — the
/// `tests/payload_differential.rs` contract.
pub(crate) fn referee_find_triangle(n: usize, messages: &[SimMessage]) -> Option<Triangle> {
    let any_bits = messages
        .iter()
        .flat_map(|m| m.payloads().iter())
        .any(|p| matches!(p, Payload::EdgeBits(_)));
    if any_bits {
        let mut set = EdgeBitset::new(n);
        for m in messages {
            for p in m.payloads() {
                if let Payload::EdgeBits(b) = p {
                    if b.n() == n {
                        set.union_with(b);
                        continue;
                    }
                }
                for e in p.iter_edges() {
                    set.insert(e);
                }
            }
        }
        return bitset::find_triangle(&set);
    }
    let mut b = GraphBuilder::new(n);
    for m in messages {
        for e in m.edges() {
            b.add_edge(e);
        }
    }
    triangles::find_triangle(&b.build())
}

/// Which simultaneous protocol to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimProtocolKind {
    /// Algorithm 7/9, given the average degree.
    High {
        /// The (known) average degree `d`.
        avg_degree: f64,
    },
    /// Algorithm 8/10, given the average degree.
    Low {
        /// The (known) average degree `d`.
        avg_degree: f64,
    },
    /// Algorithm 11: degree-oblivious.
    Oblivious,
}

/// Top-level driver for the simultaneous testers.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use triad_graph::generators::far_graph;
/// use triad_graph::partition::random_disjoint;
/// use triad_protocols::{SimProtocolKind, SimultaneousTester, Tuning};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
/// let g = far_graph(300, 8.0, 0.2, &mut rng)?;
/// let parts = random_disjoint(&g, 4, &mut rng);
/// let tester = SimultaneousTester::new(
///     Tuning::practical(0.2),
///     SimProtocolKind::Low { avg_degree: 8.0 },
/// );
/// let run = tester.run(&g, &parts, 3)?;
/// println!("one round, {} bits", run.stats.total_bits);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SimultaneousTester {
    tuning: Tuning,
    kind: SimProtocolKind,
}

impl SimultaneousTester {
    /// A tester for the chosen protocol variant.
    pub fn new(tuning: Tuning, kind: SimProtocolKind) -> Self {
        SimultaneousTester { tuning, kind }
    }

    /// The protocol variant.
    pub fn kind(&self) -> SimProtocolKind {
        self.kind
    }

    /// Runs one simultaneous round over the partitioned input.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidInput`] on malformed shares or a
    /// degree hint that is not finite and positive.
    pub fn run(
        &self,
        g: &Graph,
        partition: &Partition,
        seed: u64,
    ) -> Result<ProtocolRun, ProtocolError> {
        let n = g.vertex_count();
        crate::outcome::validate_shares(g, partition)?;
        let protocol = self.protocol(partition.players())?;
        let players = players_from_shares(n, partition.shares());
        let run = run_simultaneous_prepared(&protocol, n, &players, SharedRandomness::new(seed));
        Ok(ProtocolRun {
            outcome: TestOutcome::from(run.output),
            stats: run.stats,
            transcript: run.transcript,
        })
    }

    /// The protocol this tester's kind selects for `k` players — the one
    /// place a degree hint is checked.
    fn protocol(&self, k: usize) -> Result<Chosen, ProtocolError> {
        let degree = |avg_degree: f64| {
            if avg_degree.is_finite() && avg_degree > 0.0 {
                Ok(avg_degree)
            } else {
                Err(ProtocolError::InvalidInput(
                    "average degree must be finite and positive".into(),
                ))
            }
        };
        Ok(match self.kind {
            SimProtocolKind::High { avg_degree } => {
                Chosen::High(AlgHigh::new(self.tuning, degree(avg_degree)?))
            }
            SimProtocolKind::Low { avg_degree } => {
                Chosen::Low(AlgLow::new(self.tuning, degree(avg_degree)?))
            }
            SimProtocolKind::Oblivious => Chosen::Oblivious(Oblivious::new(self.tuning, k)),
        })
    }
}

impl Repeatable for SimultaneousTester {
    fn run_once(
        &self,
        g: &Graph,
        partition: &Partition,
        seed: u64,
    ) -> Result<ProtocolRun, ProtocolError> {
        self.run(g, partition, seed)
    }

    fn run_repetition(
        &self,
        input: &PreparedInput<'_>,
        seed: u64,
        faults: Option<(&FaultPlan, u32)>,
    ) -> Result<ChaosRep, Box<ChaosFailure<Tally>>> {
        match self.protocol(input.k()) {
            Ok(protocol) => one_round(&protocol, input, seed, faults),
            Err(ProtocolError::InvalidInput(reason)) => {
                Err(Box::new(ChaosFailure::aborted(reason, input.k())))
            }
        }
    }
}

/// The §3.4 protocol a [`SimProtocolKind`] selects, degree-checked and
/// built.
enum Chosen {
    High(AlgHigh),
    Low(AlgLow),
    Oblivious(Oblivious),
}

impl SimultaneousProtocol for Chosen {
    type Output = Option<Triangle>;

    fn message<'a>(&self, player: &'a PlayerState, shared: &SharedRandomness) -> SimMessage<'a> {
        match self {
            Chosen::High(p) => p.message(player, shared),
            Chosen::Low(p) => p.message(player, shared),
            Chosen::Oblivious(p) => p.message(player, shared),
        }
    }

    fn referee(
        &self,
        n: usize,
        messages: &[SimMessage],
        shared: &SharedRandomness,
    ) -> Option<Triangle> {
        match self {
            Chosen::High(p) => p.referee(n, messages, shared),
            Chosen::Low(p) => p.referee(n, messages, shared),
            Chosen::Oblivious(p) => p.referee(n, messages, shared),
        }
    }
}

/// One repetition of a one-round protocol over a prepared input —
/// shared by every simultaneous tester and the exact baseline. Under a
/// plan, one-round protocols cannot retry (each player speaks exactly
/// once), so a dropped, crashed or corrupted message kills the
/// repetition with its bits preserved; duplicate deliveries survive
/// with the extra copy charged under [`triad_comm::RETRANSMIT_LABEL`].
pub(crate) fn one_round<P: SimultaneousProtocol<Output = Option<Triangle>>>(
    protocol: &P,
    input: &PreparedInput<'_>,
    seed: u64,
    faults: Option<(&FaultPlan, u32)>,
) -> Result<ChaosRep, Box<ChaosFailure<Tally>>> {
    let shared = SharedRandomness::new(seed);
    let (run, injected) = match faults {
        None => (
            run_simultaneous_prepared::<_, Tally>(protocol, input.n(), input.players(), shared),
            FaultStats::default(),
        ),
        Some((plan, rep)) => {
            let chaos =
                run_simultaneous_chaos(protocol, input.n(), input.players(), shared, plan, rep)
                    .map_err(Box::new)?;
            (chaos.run, chaos.injected)
        }
    };
    Ok(ChaosRep {
        run: TallyRun {
            outcome: TestOutcome::from(run.output),
            stats: run.stats,
            transcript: run.transcript,
        },
        injected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use triad_graph::generators::far_graph;
    use triad_graph::partition::random_disjoint;

    fn success_rate(kind: impl Fn(f64) -> SimProtocolKind, n: usize, d: f64) -> f64 {
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let g = far_graph(n, d, 0.2, &mut rng).unwrap();
        let parts = random_disjoint(&g, 4, &mut rng);
        let tester = SimultaneousTester::new(Tuning::practical(0.2), kind(d));
        let mut hits = 0u32;
        let trials = 20u64;
        for seed in 0..trials {
            let run = tester.run(&g, &parts, seed).unwrap();
            if let Some(t) = run.outcome.triangle() {
                assert!(t.exists_in(&g), "one-sided error violated");
                hits += 1;
            }
            assert_eq!(run.stats.rounds, 1, "simultaneous means one round");
        }
        f64::from(hits) / trials as f64
    }

    #[test]
    fn low_variant_finds_triangles_reliably() {
        let rate = success_rate(|d| SimProtocolKind::Low { avg_degree: d }, 360, 8.0);
        assert!(rate >= 0.8, "AlgLow success rate {rate}");
    }

    #[test]
    fn high_variant_finds_triangles_reliably() {
        let rate = success_rate(|d| SimProtocolKind::High { avg_degree: d }, 400, 40.0);
        assert!(rate >= 0.8, "AlgHigh success rate {rate}");
    }

    #[test]
    fn oblivious_variant_finds_triangles_reliably() {
        let rate = success_rate(|_| SimProtocolKind::Oblivious, 360, 8.0);
        assert!(rate >= 0.8, "Oblivious success rate {rate}");
    }

    #[test]
    fn triangle_free_inputs_always_accept() {
        let g = Graph::from_edges(100, (0..99).map(|i| (i as u32, i as u32 + 1)));
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let parts = random_disjoint(&g, 3, &mut rng);
        for kind in [
            SimProtocolKind::High { avg_degree: 2.0 },
            SimProtocolKind::Low { avg_degree: 2.0 },
            SimProtocolKind::Oblivious,
        ] {
            let tester = SimultaneousTester::new(Tuning::practical(0.2), kind);
            for seed in 0..5 {
                assert!(tester.run(&g, &parts, seed).unwrap().outcome.accepts());
            }
        }
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let g = Graph::from_edges(4, [(0, 1)]);
        let parts = Partition::new(vec![vec![triad_graph::Edge::new(
            triad_graph::VertexId(9),
            triad_graph::VertexId(10),
        )]]);
        let tester = SimultaneousTester::new(
            Tuning::practical(0.2),
            SimProtocolKind::Low { avg_degree: 2.0 },
        );
        assert!(tester.run(&g, &parts, 0).is_err());
        let ok_parts = Partition::new(vec![vec![triad_graph::Edge::new(
            triad_graph::VertexId(0),
            triad_graph::VertexId(1),
        )]]);
        let input = PreparedInput::new(&g, &ok_parts).unwrap();
        let plan = triad_comm::FaultPlan::fault_free(0);
        for d in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for kind in [
                SimProtocolKind::High { avg_degree: d },
                SimProtocolKind::Low { avg_degree: d },
            ] {
                let bad = SimultaneousTester::new(Tuning::practical(0.2), kind);
                assert!(
                    matches!(
                        bad.run(&g, &ok_parts, 0),
                        Err(ProtocolError::InvalidInput(_))
                    ),
                    "{kind:?}"
                );
                // Fault-free sweeps see the same typed rejection…
                let swept = crate::amplify::run_amplified_prepared(
                    &triad_comm::Pool::serial(),
                    &bad,
                    &input,
                    2,
                    0,
                );
                assert!(
                    matches!(swept, Err(ProtocolError::InvalidInput(_))),
                    "{kind:?}"
                );
                // …and chaos repetitions abort before anything is sent.
                let fail = bad.run_repetition(&input, 0, Some((&plan, 0))).unwrap_err();
                assert!(
                    matches!(fail.error, triad_comm::RunError::Aborted { .. }),
                    "{kind:?}"
                );
                assert_eq!(fail.stats.total_bits, 0);
            }
        }
    }

    #[test]
    fn referee_unions_messages() {
        use triad_comm::Payload;
        let e = |a, b| triad_graph::Edge::new(triad_graph::VertexId(a), triad_graph::VertexId(b));
        let m1 = SimMessage::of(Payload::Edges(vec![e(0, 1), e(1, 2)].into()));
        let m2 = SimMessage::of(Payload::Edges(vec![e(0, 2)].into()));
        let t = referee_find_triangle(3, &[m1, m2]).unwrap();
        assert_eq!(t.vertices().len(), 3);
        let empty = referee_find_triangle(3, &[]);
        assert!(empty.is_none());
    }

    #[test]
    fn referee_witness_is_representation_independent() {
        use std::borrow::Cow;
        use triad_comm::Payload;
        let e = |a, b| triad_graph::Edge::new(triad_graph::VertexId(a), triad_graph::VertexId(b));
        // A graph with several triangles, split across two players.
        let half_a = vec![e(0, 1), e(1, 2), e(3, 4), e(4, 5), e(1, 3)];
        let half_b = vec![e(0, 2), e(3, 5), e(2, 3), e(1, 4)];
        let n = 6;
        let as_edges =
            |es: &[triad_graph::Edge]| SimMessage::of(Payload::Edges(es.to_vec().into()));
        let as_bits = |es: &[triad_graph::Edge]| {
            SimMessage::of(Payload::EdgeBits(Cow::Owned(EdgeBitset::from_edges(
                n,
                es.iter().copied(),
            ))))
        };
        let pure = referee_find_triangle(n, &[as_edges(&half_a), as_edges(&half_b)]);
        let bits = referee_find_triangle(n, &[as_bits(&half_a), as_bits(&half_b)]);
        let mixed = referee_find_triangle(n, &[as_edges(&half_a), as_bits(&half_b)]);
        assert!(pure.is_some());
        assert_eq!(pure, bits, "bitset referee must return the same witness");
        assert_eq!(pure, mixed, "mixed representations must agree too");
    }
}
