//! The distributed dense tensor.
//!
//! A [`DistTensor`] is one rank's view of a block-distributed tensor: the
//! distribution metadata plus the local block stored as an ordinary
//! [`DenseTensor`]. Collective constructors/gathers take the
//! [`CartGrid`] explicitly; every rank of the grid must call them together.

use crate::distribution::TensorDist;
use ratucker_mpi::{CartGrid, Comm, CommError};
use ratucker_tensor::dense::{append_block, copy_block, DenseTensor};
use ratucker_tensor::scalar::Scalar;
use ratucker_tensor::shape::Shape;

/// One rank's block of a distributed tensor.
#[derive(Clone, Debug)]
pub struct DistTensor<T: Scalar> {
    dist: TensorDist,
    coords: Vec<usize>,
    local: DenseTensor<T>,
}

impl<T: Scalar> DistTensor<T> {
    /// Wraps an already-extracted local block.
    pub fn from_parts(dist: TensorDist, coords: Vec<usize>, local: DenseTensor<T>) -> Self {
        assert_eq!(
            dist.local_shape(&coords),
            *local.shape(),
            "local block shape does not match the distribution"
        );
        DistTensor {
            dist,
            coords,
            local,
        }
    }

    /// Builds the distributed tensor from a global index function; each
    /// rank evaluates only its own block. Collective.
    pub fn from_fn(grid: &CartGrid, global: Shape, mut f: impl FnMut(&[usize]) -> T) -> Self {
        let dist = TensorDist::new(global, grid.dims());
        let coords = grid.coords().to_vec();
        let ranges: Vec<_> = (0..dist.global().order())
            .map(|k| dist.range(k, coords[k]))
            .collect();
        let local_shape = dist.local_shape(&coords);
        let mut gidx = vec![0usize; local_shape.order()];
        let local = DenseTensor::from_fn(local_shape, |lidx| {
            for (k, (&li, r)) in lidx.iter().zip(&ranges).enumerate() {
                gidx[k] = r.offset + li;
            }
            f(&gidx)
        });
        DistTensor {
            dist,
            coords,
            local,
        }
    }

    /// Extracts this rank's block from a replicated global tensor.
    pub fn scatter_from_replicated(grid: &CartGrid, global: &DenseTensor<T>) -> Self {
        let dist = TensorDist::new(global.shape().clone(), grid.dims());
        let coords = grid.coords().to_vec();
        let (offsets, lens) = dist.block_of(&coords);
        let mut data = Vec::new();
        append_block(
            global.data(),
            global.shape().dims(),
            &offsets,
            &lens,
            &mut data,
        );
        DistTensor {
            local: DenseTensor::from_vec(Shape::new(&lens), data),
            dist,
            coords,
        }
    }

    /// The distribution metadata.
    pub fn dist(&self) -> &TensorDist {
        &self.dist
    }

    /// The global shape.
    pub fn global_shape(&self) -> &Shape {
        self.dist.global()
    }

    /// This rank's grid coordinates.
    pub fn coords(&self) -> &[usize] {
        &self.coords
    }

    /// The local block.
    pub fn local(&self) -> &DenseTensor<T> {
        &self.local
    }

    /// Global squared norm: sum of local squared norms, allreduced.
    /// Collective.
    pub fn try_squared_norm(&self, grid: &CartGrid) -> Result<f64, CommError> {
        let local = self.local.squared_norm_f64();
        let summed = grid.comm.try_allreduce(vec![local], ratucker_mpi::sum_op)?;
        Ok(summed[0])
    }

    /// Assembles the full tensor on every rank (allgather of all blocks).
    /// Collective; cost `O(N)` words per rank — used for the (small) core
    /// tensor in the rank-adaptive core analysis and in tests.
    pub fn try_gather_replicated(&self, grid: &CartGrid) -> Result<DenseTensor<T>, CommError> {
        let origin = vec![0; self.coords.len()];
        let coords_of = |rank| CartGrid::rank_to_coords(rank, grid.dims());
        self.try_gather_box(&grid.comm, coords_of, &origin, self.dist.global().dims())
    }

    /// Assembles this rank's block widened to all of `mode`, on every
    /// rank of the mode's fiber (allgather along `grid.mode_comm(mode)`).
    /// Collective over the fiber; cost `(local size)·(P_mode − 1)` words
    /// per rank.
    pub(crate) fn try_gather_fiber(
        &self,
        grid: &CartGrid,
        mode: usize,
    ) -> Result<DenseTensor<T>, CommError> {
        let (mut origin, mut dims) = self.dist.block_of(&self.coords);
        origin[mode] = 0;
        dims[mode] = self.dist.global().dim(mode);
        let coords_of = |q| {
            let mut c = self.coords.clone();
            c[mode] = q;
            c
        };
        self.try_gather_box(grid.mode_comm(mode), coords_of, &origin, &dims)
    }

    /// Allgathers the blocks of `comm`'s ranks (rank `q` sits at grid
    /// coordinates `coords_of(q)`) into the box of the global tensor at
    /// `origin` with extents `dims`, which those blocks tile.
    fn try_gather_box(
        &self,
        comm: &Comm,
        coords_of: impl Fn(usize) -> Vec<usize>,
        origin: &[usize],
        dims: &[usize],
    ) -> Result<DenseTensor<T>, CommError> {
        let blocks = comm.try_allgatherv(self.local.data().to_vec())?;
        let mut out = DenseTensor::zeros(Shape::new(dims));
        let zeros = vec![0; dims.len()];
        for (rank, block) in blocks.into_iter().enumerate() {
            let (mut offsets, lens) = self.dist.block_of(&coords_of(rank));
            let expected: usize = lens.iter().product();
            if block.len() != expected {
                // Channel desync from a dropped message: typed and
                // failure-class rather than an untyped panic.
                return Err(CommError::SizeMismatch {
                    src: comm.world_rank_of(rank),
                    dst: comm.world_rank_of(comm.rank()),
                    expected,
                    got: block.len(),
                });
            }
            for (o, base) in offsets.iter_mut().zip(origin) {
                *o -= base;
            }
            copy_block(&block, &lens, &zeros, out.data_mut(), dims, &offsets, &lens);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ratucker_mpi::Universe;

    fn global_value(idx: &[usize]) -> f64 {
        idx.iter()
            .enumerate()
            .map(|(k, &i)| ((k + 1) * 100 + i) as f64)
            .sum::<f64>()
            .sin()
    }

    #[test]
    fn scatter_gather_roundtrip() {
        for grid_dims in [vec![1, 1, 1], vec![2, 1, 2], vec![4, 1, 1], vec![2, 2, 2]] {
            let p: usize = grid_dims.iter().product();
            let gd = grid_dims.clone();
            let results = Universe::launch(p, move |c| {
                let grid = CartGrid::new(c, &gd);
                let x = DistTensor::from_fn(&grid, Shape::new(&[6, 5, 4]), global_value);
                x.try_gather_replicated(&grid).unwrap()
            });
            let reference = DenseTensor::from_fn([6, 5, 4], global_value);
            for r in results {
                assert_eq!(r.max_abs_diff(&reference), 0.0, "grid {grid_dims:?}");
            }
        }
    }

    #[test]
    fn local_blocks_tile_global_norm() {
        let results = Universe::launch(4, |c| {
            let grid = CartGrid::new(c, &[2, 2]);
            let x = DistTensor::from_fn(&grid, Shape::new(&[7, 5]), global_value);
            x.try_squared_norm(&grid).unwrap()
        });
        let reference = DenseTensor::from_fn([7, 5], global_value).squared_norm_f64();
        for r in results {
            assert!((r - reference).abs() < 1e-9);
        }
    }

    #[test]
    fn scatter_from_replicated_matches_from_fn() {
        let results = Universe::launch(2, |c| {
            let grid = CartGrid::new(c, &[2, 1]);
            let reference = DenseTensor::from_fn([4, 3], global_value);
            let a = DistTensor::scatter_from_replicated(&grid, &reference);
            let b = DistTensor::from_fn(&grid, Shape::new(&[4, 3]), global_value);
            a.local().max_abs_diff(b.local())
        });
        for r in results {
            assert_eq!(r, 0.0);
        }
    }
}
