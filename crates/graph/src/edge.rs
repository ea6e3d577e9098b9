use crate::VertexId;

/// An undirected edge, stored canonically with `u() < v()`.
///
/// Canonical storage means two `Edge` values over the same endpoint pair are
/// always equal and hash identically, regardless of construction order —
/// essential for the paper's model where several players may hold duplicate
/// copies of the same edge.
///
/// # Example
///
/// ```
/// use triad_graph::{Edge, VertexId};
/// let e1 = Edge::new(VertexId(5), VertexId(2));
/// let e2 = Edge::new(VertexId(2), VertexId(5));
/// assert_eq!(e1, e2);
/// assert_eq!(e1.u(), VertexId(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Edge {
    u: VertexId,
    v: VertexId,
}

impl Edge {
    /// Creates an edge between two distinct vertices, canonicalizing order.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` (self-loops are not part of the model).
    #[inline]
    pub fn new(a: VertexId, b: VertexId) -> Self {
        assert!(a != b, "self-loops are not allowed");
        if a < b {
            Edge { u: a, v: b }
        } else {
            Edge { u: b, v: a }
        }
    }

    /// The smaller endpoint.
    #[inline]
    pub fn u(self) -> VertexId {
        self.u
    }

    /// The larger endpoint.
    #[inline]
    pub fn v(self) -> VertexId {
        self.v
    }

    /// Both endpoints, smaller first.
    #[inline]
    pub fn endpoints(self) -> (VertexId, VertexId) {
        (self.u, self.v)
    }

    /// Returns `true` if `w` is one of the endpoints.
    #[inline]
    pub fn is_incident_to(self, w: VertexId) -> bool {
        self.u == w || self.v == w
    }

    /// Given one endpoint, returns the other; `None` if `w` is not an endpoint.
    #[inline]
    pub fn other(self, w: VertexId) -> Option<VertexId> {
        if self.u == w {
            Some(self.v)
        } else if self.v == w {
            Some(self.u)
        } else {
            None
        }
    }

    /// Returns the shared endpoint of two distinct edges, if any.
    ///
    /// Two distinct edges can share at most one endpoint; this is what makes
    /// a pair of edges a *vee* (the paper's Definition 2 precondition).
    pub fn shared_endpoint(self, other: Edge) -> Option<VertexId> {
        if self == other {
            return None;
        }
        [self.u, self.v]
            .into_iter()
            .find(|&a| other.is_incident_to(a))
    }
}

impl std::fmt::Display for Edge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})", self.u, self.v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(a: u32, b: u32) -> Edge {
        Edge::new(VertexId(a), VertexId(b))
    }

    #[test]
    fn canonical_order() {
        assert_eq!(e(5, 2), e(2, 5));
        assert_eq!(e(5, 2).u(), VertexId(2));
        assert_eq!(e(5, 2).v(), VertexId(5));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn rejects_self_loop() {
        let _ = e(3, 3);
    }

    #[test]
    fn incidence_and_other() {
        let ed = e(1, 4);
        assert!(ed.is_incident_to(VertexId(1)));
        assert!(ed.is_incident_to(VertexId(4)));
        assert!(!ed.is_incident_to(VertexId(2)));
        assert_eq!(ed.other(VertexId(1)), Some(VertexId(4)));
        assert_eq!(ed.other(VertexId(4)), Some(VertexId(1)));
        assert_eq!(ed.other(VertexId(9)), None);
    }

    #[test]
    fn shared_endpoint() {
        assert_eq!(e(1, 2).shared_endpoint(e(2, 3)), Some(VertexId(2)));
        assert_eq!(e(1, 2).shared_endpoint(e(3, 4)), None);
        // identical edges: not a vee
        assert_eq!(e(1, 2).shared_endpoint(e(1, 2)), None);
    }

    #[test]
    fn display() {
        assert_eq!(e(7, 3).to_string(), "(3, 7)");
    }
}
