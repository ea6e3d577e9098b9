//! A player's private state and its request handlers.

use crate::message::Payload;
use crate::rand::SharedRandomness;
use crate::request::PlayerRequest;
use std::sync::OnceLock;
use triad_graph::kernels::EdgeBitset;
use triad_graph::{Edge, Triangle, VertexId};

/// One player's private input `E_j` with precomputed local adjacency.
///
/// Players never see each other's state; all interaction flows through
/// [`PlayerRequest`]s (unrestricted protocols) or one-shot messages
/// (simultaneous protocols). Every handler reads sorted slices — the
/// share, the adjacency rows, the degree-ordered occupied list — so no
/// answer depends on a hash seed.
#[derive(Debug, Clone)]
pub struct PlayerState {
    id: usize,
    n: usize,
    /// The deduplicated share in sorted order — the player's one edge
    /// set, and a stable slice the simultaneous baselines can borrow into
    /// a [`Payload::Edges`] without cloning (see `docs/RUNTIME.md`).
    share: Vec<Edge>,
    /// Local neighbors of each vertex, sorted by id.
    adj: Vec<Vec<VertexId>>,
    /// Vertices with positive local degree, in `(local degree, id)`
    /// order: a suspect bucket's degree window is one contiguous slice.
    occupied: Vec<VertexId>,
    /// The share packed as an [`EdgeBitset`], built lazily on first use
    /// and reused for every repetition — the bitset counterpart of the
    /// borrowable [`share`](Self::share) slice, so dense-representation
    /// baselines stay allocation-free per run too.
    share_bits: OnceLock<EdgeBitset>,
}

impl PlayerState {
    /// Builds player `id`'s state over a graph on `n` vertices from its
    /// edge share (duplicates within the share are collapsed).
    ///
    /// # Panics
    ///
    /// Panics if an edge endpoint is `>= n`.
    pub fn new(id: usize, n: usize, share: &[Edge]) -> Self {
        let mut share = share.to_vec();
        share.sort_unstable();
        share.dedup();
        let mut adj = vec![Vec::new(); n];
        // Walking the sorted share pushes each row in ascending order: a
        // vertex's lower neighbors arrive (as `v`) before its higher ones
        // (as `u`), each group by ascending id.
        for e in &share {
            assert!(e.v().index() < n, "edge endpoint out of range");
            adj[e.u().index()].push(e.v());
            adj[e.v().index()].push(e.u());
        }
        let mut occupied: Vec<VertexId> = (0..n)
            .filter(|v| !adj[*v].is_empty())
            .map(VertexId::from_index)
            .collect();
        // Stable, so equal degrees stay in id order.
        occupied.sort_by_key(|v| adj[v.index()].len());
        PlayerState {
            id,
            n,
            share,
            adj,
            occupied,
            share_bits: OnceLock::new(),
        }
    }

    /// The player's distinct edges, sorted — borrowable for zero-copy
    /// message construction.
    pub fn share(&self) -> &[Edge] {
        &self.share
    }

    /// The share as a packed [`EdgeBitset`], built once per player and
    /// borrowable into a [`crate::Payload::EdgeBits`]
    /// without cloning — the dense-representation twin of
    /// [`share`](Self::share).
    pub fn share_bitset(&self) -> &EdgeBitset {
        self.share_bits
            .get_or_init(|| EdgeBitset::from_edges(self.n, self.share.iter().copied()))
    }

    /// The player's index `j ∈ 0..k`.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The number of vertices in the (global) graph.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of distinct edges this player holds.
    pub fn edge_count(&self) -> usize {
        self.share.len()
    }

    /// The player's local degree `d_j(v)`.
    pub fn local_degree(&self, v: VertexId) -> usize {
        self.adj[v.index()].len()
    }

    /// The player's local neighbors of `v`, sorted.
    pub fn local_neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.adj[v.index()]
    }

    /// The average degree `d̄_j` of the player's own input — the quantity
    /// the degree-oblivious simultaneous protocol keys its guesses on.
    pub fn local_average_degree(&self) -> f64 {
        2.0 * self.share.len() as f64 / self.n.max(1) as f64
    }

    /// Does the player hold `e`? A binary search in the shorter of the
    /// two endpoints' rows.
    pub fn has_edge(&self, e: Edge) -> bool {
        let (u, v) = e.endpoints();
        let (ru, rv) = (self.row(u), self.row(v));
        if ru.len() <= rv.len() {
            ru.binary_search(&v).is_ok()
        } else {
            rv.binary_search(&u).is_ok()
        }
    }

    /// `v`'s sorted local neighbors, empty for a vertex outside `0..n`:
    /// membership tests answer "no" for an edge the player cannot hold.
    fn row(&self, v: VertexId) -> &[VertexId] {
        self.adj.get(v.index()).map_or(&[], Vec::as_slice)
    }

    /// Handles one coordinator request. Pure with respect to the player's
    /// state; all randomness comes from the shared string. The response is
    /// owned (`'static`): it crosses the transport boundary, possibly over
    /// a channel to another thread.
    pub fn handle(&self, req: &PlayerRequest, shared: &SharedRandomness) -> Payload<'static> {
        match req {
            PlayerRequest::HasEdge(e) => Payload::Bit(self.has_edge(*e)),
            PlayerRequest::FirstIncidentEdge { v, perm_tag } => {
                let best = self.adj[v.index()]
                    .iter()
                    .map(|u| Edge::new(*v, *u))
                    .min_by_key(|e| shared.edge_rank(*perm_tag, *e));
                Payload::Edge(best)
            }
            PlayerRequest::FirstEdge { perm_tag } => {
                let best = self
                    .share
                    .iter()
                    .copied()
                    .min_by_key(|e| shared.edge_rank(*perm_tag, *e));
                Payload::Edge(best)
            }
            PlayerRequest::LocalDegree { v } => Payload::Count(self.local_degree(*v) as u64),
            PlayerRequest::LocalEdgeCount => Payload::Count(self.share.len() as u64),
            PlayerRequest::EdgeCountMsb => {
                let c = self.share.len() as u64;
                Payload::Count(if c == 0 {
                    0
                } else {
                    64 - c.leading_zeros() as u64
                })
            }
            PlayerRequest::GlobalSampleHit { tag, p } => {
                Payload::Bit(self.share.iter().any(|e| shared.edge_sampled(*tag, *e, *p)))
            }
            PlayerRequest::DegreeMsb { v } => {
                let d = self.local_degree(*v) as u64;
                Payload::Count(if d == 0 {
                    0
                } else {
                    64 - d.leading_zeros() as u64
                })
            }
            PlayerRequest::DegreePrefix { v, prefix_bits } => {
                let d = self.local_degree(*v) as u64;
                let width: u64 = 64 - u64::from(d.leading_zeros().min(63));
                let truncated = if width > u64::from(*prefix_bits) {
                    let drop = width - u64::from(*prefix_bits);
                    (d >> drop) << drop
                } else {
                    d
                };
                // Cost: the kept prefix plus the exponent (≈ loglog d).
                let cost = u64::from(*prefix_bits) + crate::bits::bits_for_count(width.max(1));
                Payload::Bits(truncated, cost as u32)
            }
            PlayerRequest::SampleHit { v, tag, p } => {
                let hit = self.adj[v.index()]
                    .iter()
                    .any(|u| shared.vertex_sampled(*tag, *u, *p));
                Payload::Bit(hit)
            }
            PlayerRequest::FirstSuspectInBucket {
                bucket,
                k,
                perm_tag,
            } => {
                let best = self
                    .suspects(*bucket, *k)
                    .iter()
                    .copied()
                    .min_by_key(|v| shared.vertex_rank(*perm_tag, *v));
                Payload::Vertex(best)
            }
            PlayerRequest::SuspectSample {
                bucket,
                k,
                perm_tag,
                count,
            } => {
                // Rank each suspect once, keep the `count` lowest, and sort
                // only those. A rank ends in the vertex id, so it is a total
                // order and the id can be read back from it.
                let mut ranked: Vec<(u64, u32)> = self
                    .suspects(*bucket, *k)
                    .iter()
                    .map(|v| shared.vertex_rank(*perm_tag, *v))
                    .collect();
                if *count < ranked.len() {
                    ranked.select_nth_unstable(*count);
                    ranked.truncate(*count);
                }
                ranked.sort_unstable();
                Payload::Vertices(ranked.into_iter().map(|(_, id)| VertexId(id)).collect())
            }
            PlayerRequest::IncidentEdgesSampled { v, tag, p, cap } => {
                let mut out = Vec::new();
                for u in &self.adj[v.index()] {
                    if shared.vertex_sampled(*tag, *u, *p) {
                        out.push(Edge::new(*v, *u));
                        if out.len() >= *cap {
                            break;
                        }
                    }
                }
                Payload::Edges(out.into())
            }
            PlayerRequest::FindClosingTriangle { edges } => {
                Payload::Triangle(self.close_any_vee(edges))
            }
            PlayerRequest::InducedEdges { tag, p, cap } => {
                let mut out = Vec::new();
                for e in &self.share {
                    if shared.vertex_sampled(*tag, e.u(), *p)
                        && shared.vertex_sampled(*tag, e.v(), *p)
                    {
                        out.push(*e);
                        if out.len() >= *cap {
                            break;
                        }
                    }
                }
                Payload::Edges(out.into())
            }
            PlayerRequest::RsEdges {
                r_tag,
                p_r,
                s_tag,
                p_s,
                cap,
            } => {
                let in_r = |v: VertexId| shared.vertex_sampled(*r_tag, v, *p_r);
                let in_rs = |v: VertexId| in_r(v) || shared.vertex_sampled(*s_tag, v, *p_s);
                let mut out = Vec::new();
                for e in &self.share {
                    let (u, v) = e.endpoints();
                    if (in_r(u) && in_rs(v)) || (in_r(v) && in_rs(u)) {
                        out.push(*e);
                        if out.len() >= *cap {
                            break;
                        }
                    }
                }
                Payload::Edges(out.into())
            }
        }
    }

    /// The player's suspect set `B̃_i^j = {v : 3^i/k ≤ d_j(v) ≤ 3^{i+1}}`
    /// for bucket `i`, as a slice of the degree-ordered occupied list
    /// (so only vertices of positive local degree qualify).
    ///
    /// Requests arrive off the wire, so hostile windows are empty rather
    /// than panics: `k = 0` puts the lower cutoff at infinity, and a
    /// bucket past `i32::MAX` saturates to an infinite cutoff instead of
    /// wrapping.
    fn suspects(&self, bucket: usize, k: usize) -> &[VertexId] {
        let i = i32::try_from(bucket).unwrap_or(i32::MAX);
        let lo = 3f64.powi(i) / k as f64;
        let hi = 3f64.powi(i.saturating_add(1));
        let degree = |v: &VertexId| self.local_degree(*v) as f64;
        let start = self.occupied.partition_point(|v| degree(v) < lo);
        let end = self.occupied.partition_point(|v| degree(v) <= hi);
        self.occupied.get(start..end).unwrap_or(&[])
    }

    /// Scans candidate edges for a vee whose closing edge is in this
    /// player's input; returns the completed triangle if found.
    ///
    /// Vees are tried source by source in ascending id, and inside a
    /// source in candidate order, so the witness is a function of the
    /// candidate list alone.
    ///
    /// Local computation is free in the model; this is the step that makes
    /// vee-finding sufficient for triangle-finding in the communication
    /// setting (§3.3's key observation).
    pub fn close_any_vee(&self, candidates: &[Edge]) -> Option<Triangle> {
        // Group candidate edges by endpoint (a stable sort keeps candidate
        // order inside each group), then try to close each pair.
        let mut ends: Vec<(VertexId, VertexId)> = Vec::with_capacity(2 * candidates.len());
        for e in candidates {
            ends.push((e.u(), e.v()));
            ends.push((e.v(), e.u()));
        }
        ends.sort_by_key(|&(s, _)| s);
        // Edges have no loops, so `a` and `b` differ from `s`, and `a` is
        // not in its own row, so a hit also means `a ≠ b`.
        for group in ends.chunk_by(|x, y| x.0 == y.0) {
            let s = group[0].0;
            for (i, &(_, a)) in group.iter().enumerate() {
                let row = self.row(a);
                if let Some(&(_, b)) = group[i + 1..]
                    .iter()
                    .find(|(_, b)| row.binary_search(b).is_ok())
                {
                    return Some(Triangle::new(s, a, b));
                }
            }
        }
        None
    }
}

/// Builds the `k` player states from a partition's shares.
pub fn players_from_shares(n: usize, shares: &[Vec<Edge>]) -> Vec<PlayerState> {
    shares
        .iter()
        .enumerate()
        .map(|(j, s)| PlayerState::new(j, n, s))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(a: u32, b: u32) -> Edge {
        Edge::new(VertexId(a), VertexId(b))
    }

    fn player() -> PlayerState {
        PlayerState::new(0, 6, &[e(0, 1), e(1, 2), e(0, 2), e(3, 4), e(0, 1)])
    }

    #[test]
    fn dedups_and_indexes() {
        let p = player();
        assert_eq!(p.edge_count(), 4);
        assert_eq!(p.local_degree(VertexId(0)), 2);
        assert_eq!(p.local_degree(VertexId(5)), 0);
        assert_eq!(p.local_neighbors(VertexId(1)), &[VertexId(0), VertexId(2)]);
        assert!(p.has_edge(e(1, 0)));
        assert!(!p.has_edge(e(0, 3)));
        assert_eq!(p.id(), 0);
        assert_eq!(p.n(), 6);
        assert!((p.local_average_degree() - 8.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn share_bitset_is_the_share_built_once() {
        let p = player();
        assert_eq!(p.share_bitset().to_edges(), p.share());
        assert_eq!(p.share_bitset().len(), p.edge_count());
        assert!(
            std::ptr::eq(p.share_bitset(), p.share_bitset()),
            "the bitset is cached, not rebuilt"
        );
    }

    #[test]
    fn handle_has_edge_and_degrees() {
        let p = player();
        let s = SharedRandomness::new(1);
        assert_eq!(
            p.handle(&PlayerRequest::HasEdge(e(0, 1)), &s),
            Payload::Bit(true)
        );
        assert_eq!(
            p.handle(&PlayerRequest::LocalDegree { v: VertexId(0) }, &s),
            Payload::Count(2)
        );
        assert_eq!(
            p.handle(&PlayerRequest::LocalEdgeCount, &s),
            Payload::Count(4)
        );
        // degree 2 ⇒ MSB index+1 = 2
        assert_eq!(
            p.handle(&PlayerRequest::DegreeMsb { v: VertexId(0) }, &s),
            Payload::Count(2)
        );
        assert_eq!(
            p.handle(&PlayerRequest::DegreeMsb { v: VertexId(5) }, &s),
            Payload::Count(0)
        );
    }

    #[test]
    fn degree_prefix_truncates() {
        // Degree 13 = 0b1101; keep top 2 bits → 0b1100 = 12.
        let edges: Vec<Edge> = (1..=13).map(|i| e(0, i)).collect();
        let p = PlayerState::new(0, 20, &edges);
        let s = SharedRandomness::new(0);
        match p.handle(
            &PlayerRequest::DegreePrefix {
                v: VertexId(0),
                prefix_bits: 2,
            },
            &s,
        ) {
            Payload::Bits(v, _) => assert_eq!(v, 12),
            other => panic!("unexpected payload {other:?}"),
        }
    }

    #[test]
    fn first_incident_edge_is_min_rank_and_consistent() {
        let p = player();
        let s = SharedRandomness::new(99);
        let r1 = p.handle(
            &PlayerRequest::FirstIncidentEdge {
                v: VertexId(0),
                perm_tag: 5,
            },
            &s,
        );
        let r2 = p.handle(
            &PlayerRequest::FirstIncidentEdge {
                v: VertexId(0),
                perm_tag: 5,
            },
            &s,
        );
        assert_eq!(r1, r2);
        match r1 {
            Payload::Edge(Some(edge)) => assert!(edge.is_incident_to(VertexId(0))),
            other => panic!("unexpected {other:?}"),
        }
        // vertex with no incident edges → None
        assert_eq!(
            p.handle(
                &PlayerRequest::FirstIncidentEdge {
                    v: VertexId(5),
                    perm_tag: 5
                },
                &s
            ),
            Payload::Edge(None)
        );
    }

    #[test]
    fn sample_hit_respects_probability_extremes() {
        let p = player();
        let s = SharedRandomness::new(2);
        assert_eq!(
            p.handle(
                &PlayerRequest::SampleHit {
                    v: VertexId(0),
                    tag: 1,
                    p: 1.0
                },
                &s
            ),
            Payload::Bit(true)
        );
        assert_eq!(
            p.handle(
                &PlayerRequest::SampleHit {
                    v: VertexId(0),
                    tag: 1,
                    p: 0.0
                },
                &s
            ),
            Payload::Bit(false)
        );
        // isolated vertex never hits
        assert_eq!(
            p.handle(
                &PlayerRequest::SampleHit {
                    v: VertexId(5),
                    tag: 1,
                    p: 1.0
                },
                &s
            ),
            Payload::Bit(false)
        );
    }

    #[test]
    fn suspect_set_respects_local_degree_window() {
        // Player sees only 1 of hub's 9 edges: hub is suspect for bucket 2
        // ([9,27)) only because 9/k ≤ 1 when k ≥ 9.
        let edges: Vec<Edge> = vec![e(0, 1)];
        let p = PlayerState::new(0, 30, &edges);
        let s = SharedRandomness::new(1);
        let with_k9 = p.handle(
            &PlayerRequest::FirstSuspectInBucket {
                bucket: 2,
                k: 9,
                perm_tag: 0,
            },
            &s,
        );
        assert!(matches!(with_k9, Payload::Vertex(Some(_))));
        let with_k2 = p.handle(
            &PlayerRequest::FirstSuspectInBucket {
                bucket: 2,
                k: 2,
                perm_tag: 0,
            },
            &s,
        );
        assert_eq!(with_k2, Payload::Vertex(None));
    }

    #[test]
    fn incident_edges_sampled_caps() {
        let edges: Vec<Edge> = (1..=20).map(|i| e(0, i)).collect();
        let p = PlayerState::new(0, 30, &edges);
        let s = SharedRandomness::new(8);
        match p.handle(
            &PlayerRequest::IncidentEdgesSampled {
                v: VertexId(0),
                tag: 3,
                p: 1.0,
                cap: 5,
            },
            &s,
        ) {
            Payload::Edges(es) => assert_eq!(es.len(), 5),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn close_any_vee_finds_triangle() {
        // Player holds the closing edge (1,2); candidates form a vee at 0.
        let p = PlayerState::new(0, 4, &[e(1, 2)]);
        let found = p.close_any_vee(&[e(0, 1), e(0, 2)]);
        assert_eq!(
            found,
            Some(Triangle::new(VertexId(0), VertexId(1), VertexId(2)))
        );
        assert_eq!(p.close_any_vee(&[e(0, 1), e(0, 3)]), None);
        assert_eq!(p.close_any_vee(&[]), None);
    }

    #[test]
    fn close_any_vee_witness_is_pinned() {
        // Two closable vees: at source 3 (closed by (4,5)) and at source 0
        // (closed by (1,2)). The vee at 3 comes first in candidate order,
        // but sources are tried in ascending id.
        let p = PlayerState::new(0, 8, &[e(1, 2), e(4, 5)]);
        let cands = [e(3, 4), e(3, 5), e(0, 1), e(0, 2)];
        let t012 = Some(Triangle::new(VertexId(0), VertexId(1), VertexId(2)));
        assert_eq!(p.close_any_vee(&cands), t012);
        // Inside one source, pairs go in candidate order: at hub 0 the
        // (3,4) vee precedes the (1,2) vee.
        let p = PlayerState::new(0, 8, &[e(1, 2), e(3, 4)]);
        let hub = [e(0, 3), e(0, 4), e(0, 1), e(0, 2)];
        assert_eq!(
            p.close_any_vee(&hub),
            Some(Triangle::new(VertexId(0), VertexId(3), VertexId(4)))
        );
    }

    #[test]
    fn capped_answers_do_not_depend_on_the_instance() {
        let path: Vec<Edge> = (0..59).map(|i| e(i, i + 1)).collect();
        let a = PlayerState::new(0, 60, &path);
        let b = PlayerState::new(0, 60, &path);
        let s = SharedRandomness::new(0);
        let induced = PlayerRequest::InducedEdges {
            tag: 0,
            p: 1.0,
            cap: 5,
        };
        let rs = PlayerRequest::RsEdges {
            r_tag: 1,
            p_r: 1.0,
            s_tag: 2,
            p_s: 0.0,
            cap: 5,
        };
        for req in [induced, rs] {
            let answer = a.handle(&req, &s);
            assert_eq!(answer, b.handle(&req, &s), "{req:?}");
            // The first `cap` qualifying edges of the sorted share.
            assert_eq!(answer.as_edges(), &path[..5], "{req:?}");
        }
    }

    #[test]
    fn hostile_suspect_windows_are_empty() {
        let p = PlayerState::new(0, 30, &[e(0, 1), e(0, 2), e(3, 4)]);
        let s = SharedRandomness::new(5);
        for (bucket, k) in [
            (0, 0),
            (3, 0),
            (i32::MAX as usize - 1, 4),
            (i32::MAX as usize, 4),
            (1 << 40, 4),
            (usize::MAX, 4),
            (usize::MAX, usize::MAX),
        ] {
            let first = PlayerRequest::FirstSuspectInBucket {
                bucket,
                k,
                perm_tag: 0,
            };
            assert_eq!(p.handle(&first, &s), Payload::Vertex(None), "{bucket} {k}");
            let sample = PlayerRequest::SuspectSample {
                bucket,
                k,
                perm_tag: 0,
                count: usize::MAX,
            };
            assert_eq!(p.handle(&sample, &s), Payload::Vertices(Vec::new()));
        }
    }

    #[test]
    fn membership_outside_the_graph_is_false() {
        // Candidates and probes arrive off the wire and may name any id:
        // an edge off the graph is not held, never an out-of-bounds index.
        let p = player();
        let far = 1 << 20;
        assert!(!p.has_edge(e(0, far)));
        assert_eq!(p.close_any_vee(&[e(0, far), e(0, far + 1)]), None);
    }

    #[test]
    fn induced_and_rs_handlers_filter() {
        let p = player();
        let s = SharedRandomness::new(4);
        match p.handle(
            &PlayerRequest::InducedEdges {
                tag: 0,
                p: 1.0,
                cap: 100,
            },
            &s,
        ) {
            Payload::Edges(es) => assert_eq!(es.len(), 4),
            other => panic!("unexpected {other:?}"),
        }
        match p.handle(
            &PlayerRequest::InducedEdges {
                tag: 0,
                p: 0.0,
                cap: 100,
            },
            &s,
        ) {
            Payload::Edges(es) => assert!(es.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
        // R = everything ⇒ all edges qualify.
        match p.handle(
            &PlayerRequest::RsEdges {
                r_tag: 1,
                p_r: 1.0,
                s_tag: 2,
                p_s: 0.0,
                cap: 100,
            },
            &s,
        ) {
            Payload::Edges(es) => assert_eq!(es.len(), 4),
            other => panic!("unexpected {other:?}"),
        }
        // R = nothing ⇒ no edge has an R endpoint.
        match p.handle(
            &PlayerRequest::RsEdges {
                r_tag: 1,
                p_r: 0.0,
                s_tag: 2,
                p_s: 1.0,
                cap: 100,
            },
            &s,
        ) {
            Payload::Edges(es) => assert!(es.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn players_from_shares_builds_all() {
        let shares = vec![vec![e(0, 1)], vec![e(1, 2), e(2, 3)]];
        let ps = players_from_shares(5, &shares);
        assert_eq!(ps.len(), 2);
        assert_eq!(ps[0].id(), 0);
        assert_eq!(ps[1].edge_count(), 2);
    }
}
