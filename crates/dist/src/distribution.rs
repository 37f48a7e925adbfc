//! Block distributions of tensor modes over a processor grid.
//!
//! Mode `k` of global extent `n_k` is split into `P_k` contiguous blocks;
//! the first `n_k mod P_k` blocks get one extra element (TuckerMPI's
//! near-even division — the paper notes the resulting load imbalance for
//! small modes in §4). A rank at grid coordinate `q` in mode `k` owns the
//! `q`-th block.

use ratucker_tensor::shape::Shape;

/// The contiguous index range a coordinate owns in one mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockRange {
    /// First global index owned.
    pub offset: usize,
    /// Number of indices owned.
    pub len: usize,
}

/// Size of block `q` when `n` indices split over `p` blocks.
pub fn block_len(n: usize, p: usize, q: usize) -> usize {
    debug_assert!(q < p);
    n / p + usize::from(q < n % p)
}

/// Offset of block `q`.
pub fn block_offset(n: usize, p: usize, q: usize) -> usize {
    debug_assert!(q < p);
    let base = n / p;
    let rem = n % p;
    q * base + q.min(rem)
}

/// The block range of coordinate `q`.
pub fn block_range(n: usize, p: usize, q: usize) -> BlockRange {
    BlockRange {
        offset: block_offset(n, p, q),
        len: block_len(n, p, q),
    }
}

/// The coordinate owning global index `i`.
pub fn owner_of(n: usize, p: usize, i: usize) -> usize {
    debug_assert!(i < n);
    let base = n / p;
    let rem = n % p;
    let boundary = rem * (base + 1);
    if i < boundary {
        i / (base + 1)
    } else {
        rem + (i - boundary) / base.max(1)
    }
}

/// A full tensor distribution: global shape × grid dimensions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TensorDist {
    global: Shape,
    grid_dims: Vec<usize>,
}

impl TensorDist {
    /// Creates a distribution; every mode must have at least one index per
    /// grid slice (`n_k ≥ P_k`) so local tensors are never empty.
    pub fn new(global: Shape, grid_dims: &[usize]) -> TensorDist {
        assert_eq!(
            global.order(),
            grid_dims.len(),
            "grid order must match tensor order"
        );
        for (k, (&n, &p)) in global.dims().iter().zip(grid_dims).enumerate() {
            assert!(p >= 1, "grid dims must be positive");
            assert!(
                n >= p,
                "mode {k}: extent {n} smaller than grid dimension {p} would leave empty ranks"
            );
        }
        TensorDist {
            global,
            grid_dims: grid_dims.to_vec(),
        }
    }

    /// The global shape.
    pub fn global(&self) -> &Shape {
        &self.global
    }

    /// The grid dimensions.
    pub fn grid_dims(&self) -> &[usize] {
        &self.grid_dims
    }

    /// The index range owned in mode `k` at grid coordinate `q`.
    pub fn range(&self, mode: usize, q: usize) -> BlockRange {
        block_range(self.global.dim(mode), self.grid_dims[mode], q)
    }

    /// The block at the given grid coordinates as per-mode global
    /// `(offsets, lens)` — the form the run-copy primitives take.
    pub fn block_of(&self, coords: &[usize]) -> (Vec<usize>, Vec<usize>) {
        (0..self.global.order())
            .map(|k| {
                let r = self.range(k, coords[k]);
                (r.offset, r.len)
            })
            .unzip()
    }

    /// The local shape at the given grid coordinates.
    pub fn local_shape(&self, coords: &[usize]) -> Shape {
        let dims: Vec<usize> = (0..self.global.order())
            .map(|k| self.range(k, coords[k]).len)
            .collect();
        Shape::new(&dims)
    }

    /// Replaces mode `k`'s global extent (the TTM output distribution).
    pub fn with_dim(&self, mode: usize, new_dim: usize) -> TensorDist {
        TensorDist::new(self.global.with_dim(mode, new_dim), &self.grid_dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_partition_exactly() {
        for (n, p) in [(10, 3), (7, 7), (16, 4), (5, 2), (100, 7)] {
            let mut covered = 0;
            for q in 0..p {
                let r = block_range(n, p, q);
                assert_eq!(r.offset, covered, "n={n} p={p} q={q}");
                covered += r.len;
            }
            assert_eq!(covered, n);
        }
    }

    #[test]
    fn near_even_division() {
        // 10 over 3 → 4, 3, 3.
        assert_eq!(block_len(10, 3, 0), 4);
        assert_eq!(block_len(10, 3, 1), 3);
        assert_eq!(block_len(10, 3, 2), 3);
    }

    #[test]
    fn owner_matches_ranges() {
        for (n, p) in [(10, 3), (7, 2), (12, 5)] {
            for i in 0..n {
                let q = owner_of(n, p, i);
                let r = block_range(n, p, q);
                assert!(i >= r.offset && i < r.offset + r.len, "n={n} p={p} i={i}");
            }
        }
    }

    #[test]
    fn local_shapes_cover_global() {
        let dist = TensorDist::new(Shape::new(&[10, 7, 5]), &[3, 2, 1]);
        let mut total = 0usize;
        for c0 in 0..3 {
            for c1 in 0..2 {
                let ls = dist.local_shape(&[c0, c1, 0]);
                total += ls.num_entries();
            }
        }
        assert_eq!(total, 350);
    }

    #[test]
    #[should_panic(expected = "empty ranks")]
    fn rejects_oversubscribed_mode() {
        TensorDist::new(Shape::new(&[2, 8]), &[4, 1]);
    }

    #[test]
    fn with_dim_redistributes_mode() {
        let dist = TensorDist::new(Shape::new(&[10, 8]), &[2, 2]);
        let t = dist.with_dim(1, 4);
        assert_eq!(t.global().dims(), &[10, 4]);
        assert_eq!(t.range(1, 0).len, 2);
    }
}
