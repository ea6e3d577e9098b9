/// Identifier of a vertex: an index in `0..n`.
///
/// A newtype over `u32` so vertex indices cannot be confused with counts,
/// player ids or bit budgets elsewhere in the workspace.
///
/// # Example
///
/// ```
/// use triad_graph::VertexId;
/// let v = VertexId(7);
/// assert_eq!(v.index(), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
#[repr(transparent)] // the store casts `&[u32]` mapped slices to `&[VertexId]`
pub struct VertexId(pub u32);

impl VertexId {
    /// The vertex index as a `usize`, for indexing adjacency arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a vertex id from a `usize` index.
    ///
    /// # Panics
    ///
    /// Panics if `i` does not fit in `u32`.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        VertexId(u32::try_from(i).expect("vertex index exceeds u32::MAX"))
    }
}

impl std::fmt::Display for VertexId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for VertexId {
    fn from(v: u32) -> Self {
        VertexId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_index() {
        assert_eq!(VertexId::from_index(42).index(), 42);
        assert_eq!(VertexId::from(3u32), VertexId(3));
    }

    #[test]
    fn ordering_follows_indices() {
        assert!(VertexId(1) < VertexId(2));
        assert_eq!(VertexId(5).to_string(), "5");
    }
}
