//! Differential suite for `PlayerState`'s sorted-state handlers.
//!
//! The handlers answer from sorted slices: a degree-ordered occupied
//! list for the suspect windows, a sorted share, sorted adjacency rows
//! searched by bisection. Each property here recomputes the answer the
//! slow, obvious way over the raw share (scan every vertex then sort,
//! probe a set, try every triple) and demands the same result on random
//! shares.

use proptest::prelude::*;
use std::collections::HashSet;
use triad::comm::{Payload, PlayerRequest, PlayerState, SharedRandomness};
use triad::graph::{Edge, Triangle, VertexId};

const KS: [usize; 5] = [0, 1, 2, 4, 9];

/// Strategy: `(n, share)` — random pairs over `n` vertices (duplicates
/// kept, loops dropped) plus a star of random size at vertex 0, so the
/// local degrees reach past the first few buckets.
fn share() -> impl Strategy<Value = (usize, Vec<Edge>)> {
    (
        (2..80u32, 0..80u32),
        prop::collection::vec((0..80u32, 0..80u32), 0..240),
    )
        .prop_map(|((n, hub), pairs)| {
            let mut edges: Vec<Edge> = pairs
                .into_iter()
                .map(|(a, b)| (a % n, b % n))
                .filter(|(a, b)| a != b)
                .map(|(a, b)| Edge::new(VertexId(a), VertexId(b)))
                .collect();
            edges.extend((1..hub.min(n)).map(|v| Edge::new(VertexId(0), VertexId(v))));
            (n as usize, edges)
        })
}

fn distinct(share: &[Edge]) -> HashSet<Edge> {
    share.iter().copied().collect()
}

/// Local degrees recomputed from the distinct edges.
fn degrees(n: usize, edges: &HashSet<Edge>) -> Vec<usize> {
    let mut d = vec![0; n];
    for e in edges {
        d[e.u().index()] += 1;
        d[e.v().index()] += 1;
    }
    d
}

/// `B̃_i^j` by scanning every vertex, sorted by rank under `perm_tag`.
fn naive_suspects(
    deg: &[usize],
    bucket: usize,
    k: usize,
    shared: &SharedRandomness,
    perm_tag: u64,
) -> Vec<VertexId> {
    let lo = 3f64.powi(bucket as i32) / k as f64;
    let hi = 3f64.powi(bucket as i32 + 1);
    let mut all: Vec<VertexId> = (0..deg.len())
        .filter(|v| deg[*v] > 0 && deg[*v] as f64 >= lo && deg[*v] as f64 <= hi)
        .map(VertexId::from_index)
        .collect();
    all.sort_by_key(|v| shared.vertex_rank(perm_tag, *v));
    all
}

/// Does some vee of `candidates` close through an edge of `edges`?
fn naive_closable(candidates: &[Edge], edges: &HashSet<Edge>) -> bool {
    candidates.iter().any(|x| {
        candidates.iter().any(|y| {
            x != y
                && [x.u(), x.v()].into_iter().any(|s| {
                    y.is_incident_to(s) && {
                        let a = if x.u() == s { x.v() } else { x.u() };
                        let b = if y.u() == s { y.v() } else { y.u() };
                        a != b && edges.contains(&Edge::new(a, b))
                    }
                })
        })
    })
}

/// A returned witness must be a vee of `candidates` closed by `edges`.
fn witness_is_sound(t: Triangle, candidates: &[Edge], edges: &HashSet<Edge>) -> bool {
    let sides = t.edges();
    (0..3).any(|c| {
        edges.contains(&sides[c])
            && (0..3)
                .filter(|&i| i != c)
                .all(|i| candidates.contains(&sides[i]))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn suspect_handlers_match_scan_then_sort(input in share(), seed in 0..1_000u64) {
        let (n, raw) = input;
        let p = PlayerState::new(0, n, &raw);
        let deg = degrees(n, &distinct(&raw));
        let shared = SharedRandomness::new(seed);
        for k in KS {
            for bucket in 0..=8 {
                let perm_tag = (bucket * 31 + k) as u64;
                let want = naive_suspects(&deg, bucket, k, &shared, perm_tag);
                let first = p.handle(
                    &PlayerRequest::FirstSuspectInBucket { bucket, k, perm_tag },
                    &shared,
                );
                prop_assert_eq!(first, Payload::Vertex(want.first().copied()), "k={} bucket={}", k, bucket);
                let len = want.len();
                for count in [0, 1, len.saturating_sub(1), len, len + 5] {
                    let got = p.handle(
                        &PlayerRequest::SuspectSample { bucket, k, perm_tag, count },
                        &shared,
                    );
                    let prefix = want[..count.min(len)].to_vec();
                    prop_assert_eq!(got, Payload::Vertices(prefix), "k={} bucket={} count={}", k, bucket, count);
                }
            }
        }
    }

    #[test]
    fn has_edge_matches_set_membership(input in share(), probes in prop::collection::vec((0..90u32, 0..90u32), 0..120)) {
        let (n, raw) = input;
        let p = PlayerState::new(0, n, &raw);
        let edges = distinct(&raw);
        prop_assert_eq!(p.edge_count(), edges.len());
        for e in &edges {
            prop_assert!(p.has_edge(*e));
        }
        // Probes range past `n`: an endpoint outside the graph holds nothing.
        for (a, b) in probes {
            if a != b {
                let e = Edge::new(VertexId(a), VertexId(b));
                prop_assert_eq!(p.has_edge(e), edges.contains(&e), "{:?}", e);
            }
        }
    }

    #[test]
    fn close_any_vee_matches_brute_force_triples(
        input in share(),
        picks in prop::collection::vec((0..80u32, 0..80u32), 0..24),
        hub in 0..80u32,
    ) {
        let (n, raw) = input;
        let p = PlayerState::new(0, n, &raw);
        let edges = distinct(&raw);
        // Random candidate edges, duplicates and all.
        let random: Vec<Edge> = picks
            .into_iter()
            .map(|(a, b)| (a as usize % n, b as usize % n))
            .filter(|(a, b)| a != b)
            .map(|(a, b)| Edge::new(VertexId::from_index(a), VertexId::from_index(b)))
            .collect();
        // Hub-shaped candidates, as the unrestricted tester sends them:
        // every pair at one vertex, in a scrambled order.
        let h = VertexId(hub % n as u32);
        let mut star: Vec<Edge> = (0..n)
            .map(VertexId::from_index)
            .filter(|v| *v != h && (v.0 * 7 + hub) % 3 != 0)
            .map(|v| Edge::new(h, v))
            .collect();
        star.sort_by_key(|e| e.other(h).map(|v| v.0.wrapping_mul(2_654_435_761)));
        for cands in [&random, &star] {
            let got = p.close_any_vee(cands);
            prop_assert_eq!(got.is_some(), naive_closable(cands, &edges), "{:?}", cands);
            if let Some(t) = got {
                prop_assert!(witness_is_sound(t, cands, &edges), "{:?} from {:?}", t, cands);
            }
        }
        // On a star the witness is the first closable pair in candidate order.
        let first_pair = star.iter().enumerate().find_map(|(i, x)| {
            star[i + 1..].iter().find_map(|y| {
                let (a, b) = (x.other(h)?, y.other(h)?);
                edges.contains(&Edge::new(a, b)).then(|| Triangle::new(h, a, b))
            })
        });
        prop_assert_eq!(p.close_any_vee(&star), first_pair);
    }
}
