//! Tensor shapes, strides, and multi-index arithmetic.
//!
//! Entries are stored mode-0-fastest ("generalized column-major"), matching
//! TuckerMPI's local layout: the linear offset of index `(i_0, …, i_{d-1})`
//! is `Σ_k i_k · stride_k` with `stride_k = Π_{m<k} n_m`.

use std::fmt;

/// The dimensions of a `d`-way tensor.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from its per-mode dimensions.
    ///
    /// # Panics
    /// Panics if `dims` is empty or any dimension is zero: degenerate
    /// tensors are never meaningful in the Tucker algorithms and allowing
    /// them would litter every kernel with guards.
    pub fn new(dims: &[usize]) -> Self {
        assert!(!dims.is_empty(), "tensor must have at least one mode");
        assert!(
            dims.iter().all(|&n| n > 0),
            "tensor dimensions must be positive, got {dims:?}"
        );
        Shape(dims.to_vec())
    }

    /// Number of modes (`d`).
    #[inline]
    pub fn order(&self) -> usize {
        self.0.len()
    }

    /// Dimension of mode `j`.
    #[inline]
    pub fn dim(&self, mode: usize) -> usize {
        self.0[mode]
    }

    /// All dimensions as a slice.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Total number of entries `Π_k n_k`.
    #[inline]
    pub fn num_entries(&self) -> usize {
        self.0.iter().product()
    }

    /// Stride of mode `j` in the linear layout: `Π_{m<j} n_m`.
    #[inline]
    pub fn stride(&self, mode: usize) -> usize {
        self.0[..mode].iter().product()
    }

    /// Product of dimensions strictly before `mode` (the "left" extent of
    /// the `[left, n_j, right]` slab view used by the TTM/Gram kernels).
    #[inline]
    pub fn left(&self, mode: usize) -> usize {
        self.stride(mode)
    }

    /// Product of dimensions strictly after `mode` (the "right" extent).
    #[inline]
    pub fn right(&self, mode: usize) -> usize {
        self.0[mode + 1..].iter().product()
    }

    /// Returns a copy with mode `j` replaced by `new_dim`.
    pub fn with_dim(&self, mode: usize, new_dim: usize) -> Shape {
        let mut dims = self.0.clone();
        dims[mode] = new_dim;
        Shape::new(&dims)
    }

    /// Linear offset of a multi-index.
    #[inline]
    pub fn linear_index(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.order());
        let mut off = 0;
        let mut stride = 1;
        for (k, &i) in idx.iter().enumerate() {
            debug_assert!(i < self.0[k], "index {i} out of bounds in mode {k}");
            off += i * stride;
            stride *= self.0[k];
        }
        off
    }

    /// Inverse of [`Shape::linear_index`].
    pub fn multi_index(&self, mut linear: usize) -> Vec<usize> {
        let mut idx = vec![0; self.order()];
        for (k, &n) in self.0.iter().enumerate() {
            idx[k] = linear % n;
            linear /= n;
        }
        debug_assert_eq!(linear, 0);
        idx
    }

    /// Column index of the multi-index in the mode-`j` unfolding, following
    /// Kolda's convention: the remaining modes vary with the *lower* modes
    /// fastest (mode `j` excluded).
    pub fn unfold_col(&self, mode: usize, idx: &[usize]) -> usize {
        let mut col = 0;
        let mut stride = 1;
        for (k, &i) in idx.iter().enumerate() {
            if k == mode {
                continue;
            }
            col += i * stride;
            stride *= self.0[k];
        }
        col
    }

    /// Calls `f` on every multi-index in layout (mode-0-fastest) order,
    /// like [`Shape::indices`] but advancing one index buffer in place
    /// instead of allocating a `Vec` per entry.
    pub fn for_each_index(&self, mut f: impl FnMut(&[usize])) {
        let mut idx = vec![0usize; self.order()];
        loop {
            f(&idx);
            let mut k = 0;
            loop {
                if k == idx.len() {
                    return;
                }
                idx[k] += 1;
                if idx[k] < self.0[k] {
                    break;
                }
                idx[k] = 0;
                k += 1;
            }
        }
    }

    /// Iterator over all multi-indices in layout (mode-0-fastest) order.
    pub fn indices(&self) -> IndexIter {
        IndexIter {
            shape: self.0.clone(),
            next: Some(vec![0; self.order()]),
        }
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.0)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let strs: Vec<String> = self.0.iter().map(|n| n.to_string()).collect();
        write!(f, "{}", strs.join("x"))
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl<const D: usize> From<[usize; D]> for Shape {
    fn from(dims: [usize; D]) -> Self {
        Shape::new(&dims)
    }
}

/// Iterator produced by [`Shape::indices`].
pub struct IndexIter {
    shape: Vec<usize>,
    next: Option<Vec<usize>>,
}

impl Iterator for IndexIter {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        let current = self.next.take()?;
        let mut succ = current.clone();
        for k in 0..self.shape.len() {
            succ[k] += 1;
            if succ[k] < self.shape[k] {
                self.next = Some(succ);
                break;
            }
            succ[k] = 0;
        }
        Some(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_properties() {
        let s = Shape::new(&[3, 4, 5]);
        assert_eq!(s.order(), 3);
        assert_eq!(s.num_entries(), 60);
        assert_eq!(s.stride(0), 1);
        assert_eq!(s.stride(1), 3);
        assert_eq!(s.stride(2), 12);
        assert_eq!(s.left(1), 3);
        assert_eq!(s.right(1), 5);
        assert_eq!(s.with_dim(1, 7).dims(), &[3, 7, 5]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_dim() {
        Shape::new(&[3, 0, 5]);
    }

    #[test]
    #[should_panic(expected = "at least one mode")]
    fn rejects_empty() {
        Shape::new(&[]);
    }

    #[test]
    fn linear_index_roundtrip() {
        let s = Shape::new(&[2, 3, 4]);
        for lin in 0..s.num_entries() {
            let idx = s.multi_index(lin);
            assert_eq!(s.linear_index(&idx), lin);
        }
    }

    #[test]
    fn indices_cover_all_in_layout_order() {
        let s = Shape::new(&[2, 3]);
        let all: Vec<Vec<usize>> = s.indices().collect();
        assert_eq!(
            all,
            vec![
                vec![0, 0],
                vec![1, 0],
                vec![0, 1],
                vec![1, 1],
                vec![0, 2],
                vec![1, 2]
            ]
        );
    }

    #[test]
    fn unfold_col_mode0_matches_strides() {
        // For mode 0, the column index must equal the linear index of the
        // remaining modes in their own layout.
        let s = Shape::new(&[4, 3, 2]);
        assert_eq!(s.unfold_col(0, &[2, 1, 1]), 1 + 3);
        assert_eq!(s.unfold_col(1, &[2, 1, 1]), 2 + 4);
        assert_eq!(s.unfold_col(2, &[2, 1, 0]), 2 + 4);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(Shape::new(&[10, 20]).to_string(), "10x20");
    }
}
