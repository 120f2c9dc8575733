//! Tensor shapes and row-major index arithmetic.

use std::fmt;

/// The extents of a tensor, e.g. `[N, H]` for a per-node hidden-state table.
///
/// Shapes are small (models in the paper use rank ≤ 4), so they are stored
/// inline in a `Vec` and cloned freely.
///
/// # Example
///
/// ```
/// use cortex_tensor::Shape;
///
/// let s = Shape::new(&[4, 256]);
/// assert_eq!(s.rank(), 2);
/// assert_eq!(s.len(), 1024);
/// assert_eq!(s.linearize(&[1, 3]), 259);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from its extents.
    ///
    /// A rank-0 (scalar) shape is allowed and has `len() == 1`.
    pub fn new(dims: &[usize]) -> Self {
        Shape {
            dims: dims.to_vec(),
        }
    }

    /// Creates a scalar (rank-0) shape.
    pub fn scalar() -> Self {
        Shape { dims: Vec::new() }
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Extent of dimension `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d >= rank()`.
    pub fn dim(&self, d: usize) -> usize {
        self.dims[d]
    }

    /// All extents as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Total number of elements (product of extents; 1 for scalars).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// Whether any extent is zero.
    pub fn is_empty(&self) -> bool {
        self.dims.contains(&0)
    }

    /// Converts a multi-dimensional index to a flat row-major offset.
    ///
    /// # Panics
    ///
    /// Panics if the index rank does not match or any coordinate is out of
    /// bounds (debug builds assert per-coordinate bounds).
    pub fn linearize(&self, index: &[usize]) -> usize {
        assert_eq!(
            index.len(),
            self.dims.len(),
            "index rank {} does not match shape rank {}",
            index.len(),
            self.dims.len()
        );
        let mut flat = 0usize;
        for (d, (&i, &extent)) in index.iter().zip(&self.dims).enumerate() {
            debug_assert!(
                i < extent,
                "index {i} out of bounds for dim {d} (extent {extent})"
            );
            flat = flat * extent + i;
        }
        flat
    }

    /// Converts a flat row-major offset back to a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if `flat >= len()`.
    pub fn delinearize(&self, mut flat: usize) -> Vec<usize> {
        assert!(
            flat < self.len().max(1),
            "flat index {flat} out of bounds for {self:?}"
        );
        let mut index = vec![0usize; self.dims.len()];
        for d in (0..self.dims.len()).rev() {
            index[d] = flat % self.dims[d];
            flat /= self.dims[d];
        }
        index
    }

    /// Iterator over all multi-dimensional indices in row-major order.
    pub fn indices(&self) -> Indices {
        Indices {
            shape: self.clone(),
            next: 0,
            total: self.len(),
        }
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.dims)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, "×")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape { dims }
    }
}

/// Iterator over all indices of a [`Shape`] in row-major order.
///
/// Produced by [`Shape::indices`].
#[derive(Debug, Clone)]
pub struct Indices {
    shape: Shape,
    next: usize,
    total: usize,
}

impl Iterator for Indices {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        if self.next >= self.total || self.shape.rank() == 0 && self.next > 0 {
            return None;
        }
        let ix = self.shape.delinearize(self.next);
        self.next += 1;
        Some(ix)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.total - self.next;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Indices {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linearize_round_trips() {
        let s = Shape::new(&[3, 4, 5]);
        for flat in 0..s.len() {
            let ix = s.delinearize(flat);
            assert_eq!(s.linearize(&ix), flat);
        }
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.linearize(&[]), 0);
    }

    #[test]
    fn indices_cover_whole_space_in_order() {
        let s = Shape::new(&[2, 3]);
        let all: Vec<_> = s.indices().collect();
        assert_eq!(all.len(), 6);
        assert_eq!(all[0], vec![0, 0]);
        assert_eq!(all[1], vec![0, 1]);
        assert_eq!(all[5], vec![1, 2]);
    }

    #[test]
    fn empty_extent_shape() {
        let s = Shape::new(&[0, 4]);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.indices().count(), 0);
    }

    #[test]
    #[should_panic(expected = "index rank")]
    fn linearize_rank_mismatch_panics() {
        Shape::new(&[2, 2]).linearize(&[1]);
    }

    #[test]
    fn display_format() {
        assert_eq!(Shape::new(&[4, 256]).to_string(), "(4×256)");
    }
}
