//! Owned dense `f32` tensors.

use std::error::Error;
use std::fmt;

use cortex_rng::Rng;

use crate::shape::Shape;

/// Error type for fallible tensor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Two shapes that had to agree did not.
    ShapeMismatch {
        /// What the operation expected.
        expected: String,
        /// What it was given.
        found: String,
    },
    /// A data buffer's length did not match the shape.
    LengthMismatch {
        /// Elements implied by the shape.
        expected: usize,
        /// Elements provided.
        found: usize,
    },
    /// An axis argument was out of range.
    AxisOutOfRange {
        /// The offending axis.
        axis: usize,
        /// The tensor's rank.
        rank: usize,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { expected, found } => {
                write!(f, "shape mismatch: expected {expected}, found {found}")
            }
            TensorError::LengthMismatch { expected, found } => {
                write!(
                    f,
                    "buffer length {found} does not match shape ({expected} elements)"
                )
            }
            TensorError::AxisOutOfRange { axis, rank } => {
                write!(f, "axis {axis} out of range for rank-{rank} tensor")
            }
        }
    }
}

impl Error for TensorError {}

/// An owned, row-major dense tensor of `f32` values.
///
/// This is deliberately simple: all the clever layout work in Cortex happens
/// in the compiler (the ILIR), while runtime storage is a flat buffer.
///
/// # Example
///
/// ```
/// use cortex_tensor::Tensor;
///
/// let t = Tensor::from_fn(&[2, 2], |ix| (ix[0] + ix[1]) as f32);
/// assert_eq!(t[[0, 1]], 1.0);
/// assert_eq!(t[[1, 1]], 2.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let len = shape.len();
        Tensor {
            shape,
            data: vec![0.0; len],
        }
    }

    /// Creates a tensor filled with a constant.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let len = shape.len();
        Tensor {
            shape,
            data: vec![value; len],
        }
    }

    /// Creates a rank-0 tensor holding one value.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: Shape::scalar(),
            data: vec![value],
        }
    }

    /// Creates a tensor by evaluating `f` at every index (row-major order).
    pub fn from_fn(dims: &[usize], mut f: impl FnMut(&[usize]) -> f32) -> Self {
        let shape = Shape::new(dims);
        let mut data = Vec::with_capacity(shape.len());
        if shape.rank() == 0 {
            data.push(f(&[]));
        } else {
            for ix in shape.indices() {
                data.push(f(&ix));
            }
        }
        Tensor { shape, data }
    }

    /// Creates a tensor from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` does not equal
    /// the number of elements implied by `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> crate::Result<Self> {
        let shape = Shape::new(dims);
        if data.len() != shape.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.len(),
                found: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a tensor with uniform values in `[-bound, bound)`, seeded
    /// deterministically so experiments are reproducible.
    pub fn random(dims: &[usize], bound: f32, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let shape = Shape::new(dims);
        let data = (0..shape.len()).map(|_| rng.uniform_f32(bound)).collect();
        Tensor { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The tensor's rank.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total number of elements.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Flat row-major view of the data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major view of the data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning the flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reads the element at `index`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.linearize(index)]
    }

    /// Writes the element at `index`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let flat = self.shape.linearize(index);
        self.data[flat] = value;
    }

    /// Borrows row `i` of a rank-2 tensor as a slice.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or `i` is out of bounds.
    pub fn row(&self, i: usize) -> &[f32] {
        assert_eq!(self.rank(), 2, "row() requires a rank-2 tensor");
        let w = self.shape.dim(1);
        &self.data[i * w..(i + 1) * w]
    }

    /// Applies `f` elementwise, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Combines two same-shaped tensors elementwise.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> crate::Result<Self> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                expected: format!("{}", self.shape),
                found: format!("{}", other.shape),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Tensor {
            shape: self.shape.clone(),
            data,
        })
    }

    /// Maximum absolute difference against another tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> crate::Result<f32> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                expected: format!("{}", self.shape),
                found: format!("{}", other.shape),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0f32, f32::max))
    }

    /// Whether all elements are within `tol` of the other tensor's.
    ///
    /// Intended for tests; shape mismatch counts as "not close".
    pub fn all_close(&self, other: &Tensor, tol: f32) -> bool {
        self.max_abs_diff(other).map(|d| d <= tol).unwrap_or(false)
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, "{:?}", self.data)
        } else {
            write!(
                f,
                "[{:?}, {:?}, … ; {} elems]",
                self.data[0],
                self.data[1],
                self.data.len()
            )
        }
    }
}

impl<const N: usize> std::ops::Index<[usize; N]> for Tensor {
    type Output = f32;

    fn index(&self, index: [usize; N]) -> &f32 {
        &self.data[self.shape.linearize(&index)]
    }
}

impl<const N: usize> std::ops::IndexMut<[usize; N]> for Tensor {
    fn index_mut(&mut self, index: [usize; N]) -> &mut f32 {
        let flat = self.shape.linearize(&index);
        &mut self.data[flat]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_row_major_order() {
        let t = Tensor::from_fn(&[2, 3], |ix| (ix[0] * 10 + ix[1]) as f32);
        assert_eq!(t.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0; 5], &[2, 3]).is_err());
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
    }

    #[test]
    fn indexing_and_set() {
        let mut t = Tensor::zeros(&[3, 3]);
        t.set(&[2, 1], 7.0);
        assert_eq!(t[[2, 1]], 7.0);
        t[[0, 0]] = 1.5;
        assert_eq!(t.at(&[0, 0]), 1.5);
    }

    #[test]
    fn rows_are_contiguous() {
        let t = Tensor::from_fn(&[2, 4], |ix| ix[1] as f32 + 10.0 * ix[0] as f32);
        assert_eq!(t.row(1), &[10.0, 11.0, 12.0, 13.0]);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let a = Tensor::random(&[16], 0.5, 42);
        let b = Tensor::random(&[16], 0.5, 42);
        let c = Tensor::random(&[16], 0.5, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.as_slice().iter().all(|&x| (-0.5..0.5).contains(&x)));
    }

    #[test]
    fn zip_shape_mismatch_errors() {
        let a = Tensor::zeros(&[2, 2]);
        let b = Tensor::zeros(&[4]);
        assert!(matches!(
            a.zip(&b, |x, y| x + y),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn scalar_tensor() {
        let s = Tensor::scalar(3.5);
        assert_eq!(s.rank(), 0);
        assert_eq!(s.at(&[]), 3.5);
    }

    #[test]
    fn all_close_tolerance() {
        let a = Tensor::full(&[4], 1.0);
        let b = Tensor::full(&[4], 1.0 + 1e-6);
        assert!(a.all_close(&b, 1e-5));
        assert!(!a.all_close(&b, 1e-7));
    }

    #[test]
    fn error_display_messages() {
        let err = TensorError::LengthMismatch {
            expected: 6,
            found: 5,
        };
        assert_eq!(
            err.to_string(),
            "buffer length 5 does not match shape (6 elements)"
        );
    }
}
