//! Property-based tests for the extension machinery: subgraph search is
//! checked against brute force, IO against roundtrips, streaming against
//! its spec, CONGEST against the bandwidth cap.

use proptest::prelude::*;
use std::collections::HashSet;
use triad::comm::streaming::{run_stream, EdgeReservoir};
use triad::comm::SharedRandomness;
use triad::graph::subgraphs::{find_copy, Pattern};
use triad::graph::{io, Edge, Graph, GraphBuilder, VertexId};

fn edge_list(n: u32, max_edges: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0..n, 0..n), 0..max_edges)
        .prop_map(|pairs| pairs.into_iter().filter(|(a, b)| a != b).collect())
}

fn build(n: usize, pairs: &[(u32, u32)]) -> Graph {
    let mut b = GraphBuilder::new(n);
    for (a, bb) in pairs {
        b.add_edge(Edge::new(VertexId(*a), VertexId(*bb)));
    }
    b.build()
}

/// Brute-force (non-induced) subgraph containment: try every injective
/// assignment of pattern vertices to host vertices.
fn brute_force_contains(g: &Graph, h: &Pattern) -> bool {
    let hv = h.vertices();
    let n = g.vertex_count();
    let mut assignment = vec![VertexId(0); hv];
    fn rec(g: &Graph, h: &Pattern, depth: usize, assignment: &mut Vec<VertexId>, n: usize) -> bool {
        if depth == assignment.len() {
            return h.graph().edges().iter().all(|e| {
                g.has_edge(Edge::new(
                    assignment[e.u().index()],
                    assignment[e.v().index()],
                ))
            });
        }
        for cand in 0..n as u32 {
            let cand = VertexId(cand);
            if assignment[..depth].contains(&cand) {
                continue;
            }
            assignment[depth] = cand;
            if rec(g, h, depth + 1, assignment, n) {
                return true;
            }
        }
        false
    }
    rec(g, h, 0, &mut assignment, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn find_copy_matches_brute_force(pairs in edge_list(7, 16)) {
        let g = build(7, &pairs);
        for pattern in [Pattern::triangle(), Pattern::cycle(4), Pattern::clique(4)] {
            let fast = find_copy(&g, &pattern).is_some();
            let slow = brute_force_contains(&g, &pattern);
            prop_assert_eq!(fast, slow, "pattern {:?} on {:?}", pattern, g.edges());
        }
    }

    #[test]
    fn find_copy_witness_is_valid(pairs in edge_list(10, 30)) {
        let g = build(10, &pairs);
        for pattern in [Pattern::triangle(), Pattern::cycle(5)] {
            if let Some(hosts) = find_copy(&g, &pattern) {
                let uniq: HashSet<_> = hosts.iter().collect();
                prop_assert_eq!(uniq.len(), hosts.len(), "mapping must be injective");
                for e in pattern.graph().edges() {
                    prop_assert!(g.has_edge(Edge::new(
                        hosts[e.u().index()],
                        hosts[e.v().index()]
                    )));
                }
            }
        }
    }

    #[test]
    fn io_roundtrip_is_identity(pairs in edge_list(50, 120)) {
        let g = build(50, &pairs);
        let mut buf = Vec::new();
        io::write_edge_list(&g, &mut buf).unwrap();
        let back = io::read_edge_list(buf.as_slice()).unwrap();
        prop_assert_eq!(g, back);
    }

    #[test]
    fn reservoir_keeps_lowest_ranks(
        pairs in edge_list(40, 60),
        capacity in 1usize..12,
        seed in any::<u64>(),
    ) {
        let g = build(40, &pairs);
        let shared = SharedRandomness::new(seed);
        let tag = 3;
        let alg = EdgeReservoir::new(shared, tag, capacity);
        let run = run_stream(alg, 40, g.edges().iter().copied());
        // Spec: exactly the min(capacity, m) lowest-ranked distinct edges.
        let mut ranks: Vec<(u64, Edge)> =
            g.edges().iter().map(|e| (shared.edge_rank(tag, *e).0, *e)).collect();
        ranks.sort_unstable();
        let expected: HashSet<Edge> =
            ranks.iter().take(capacity).map(|(_, e)| *e).collect();
        let got: HashSet<Edge> = run.output.into_iter().collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn counting_estimator_never_negative_and_exact_at_one(pairs in edge_list(24, 60)) {
        let g = build(24, &pairs);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        use rand::SeedableRng;
        let parts = triad::graph::partition::random_disjoint(&g, 3, &mut rng);
        let run =
            triad::protocols::counting::estimate_triangles(&g, &parts, 1.0, 7).unwrap();
        prop_assert_eq!(
            run.output.sampled_triangles,
            triad::graph::triangles::count_triangles(&g)
        );
        let run =
            triad::protocols::counting::estimate_triangles(&g, &parts, 0.5, 7).unwrap();
        prop_assert!(run.output.estimate >= 0.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn congest_tester_sound_on_arbitrary_graphs(pairs in edge_list(30, 80), seed in 0u64..500) {
        use triad::congest::{network::Network, triangle::TriangleTester};
        let g = build(30, &pairs);
        let mut net = Network::new(&g, seed);
        // run_until asserts witness validity and the bandwidth cap
        // internally; soundness additionally demands silence on
        // triangle-free inputs.
        let out = net.run_until(&TriangleTester::new(), 30);
        if !triad::graph::triangles::contains_triangle(&g) {
            prop_assert!(out.witness.is_none());
        }
        prop_assert!(
            out.max_edge_round_bits <= triad::congest::message::Msg::bandwidth_cap(30)
        );
    }

    #[test]
    fn one_way_relay_conserves_information(pairs in edge_list(20, 40), k in 2usize..5) {
        use triad::comm::{run_one_way, OneWayProtocol, SimMessage, PlayerState, Payload};
        struct Forward;
        impl OneWayProtocol for Forward {
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
        let g = build(20, &pairs);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        use rand::SeedableRng;
        let parts = triad::graph::partition::random_disjoint(&g, k, &mut rng);
        let run = run_one_way(&Forward, 20, parts.shares(), SharedRandomness::new(0));
        prop_assert_eq!(run.output, g.edge_count());
        prop_assert_eq!(run.hop_bits.len(), k - 1);
    }
}
