//! Cartesian processor grids.
//!
//! TuckerMPI distributes a `d`-way tensor over a `P_1 × … × P_d` processor
//! grid; per-mode collectives (the TTM reduce-scatter, the Gram allgather)
//! run on "fiber" sub-communicators in which only one grid coordinate
//! varies. This module builds those from a world communicator, mirroring
//! `MPI_Cart_create` + `MPI_Cart_sub`.
//!
//! Coordinate order matches the tensor layout: coordinate 0 varies fastest
//! with rank, so rank ↔ coords is the same mode-0-fastest mapping used for
//! tensor entries.

use crate::comm::Comm;
use crate::fault::CommError;

impl std::fmt::Debug for CartGrid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CartGrid")
            .field("dims", &self.dims)
            .field("coords", &self.coords)
            .field("rank", &self.comm.rank())
            .finish_non_exhaustive()
    }
}

/// A Cartesian view of a communicator.
#[derive(Clone)]
pub struct CartGrid {
    /// The full-grid communicator.
    pub comm: Comm,
    dims: Vec<usize>,
    coords: Vec<usize>,
    /// `mode_comms[k]`: the sub-communicator of ranks sharing all
    /// coordinates except `k`; its rank equals `coords[k]`.
    mode_comms: Vec<Comm>,
}

impl CartGrid {
    /// Builds a grid of the given dimensions over `comm`.
    ///
    /// # Panics
    /// Panics if `Π dims != comm.size()` or on a communication error
    /// while building the fiber communicators (see [`CartGrid::try_new`]
    /// for the fallible variant).
    pub fn new(comm: Comm, dims: &[usize]) -> CartGrid {
        Self::try_new(comm, dims).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`CartGrid::new`]: communication failures
    /// while splitting into fiber communicators — and a grid volume that
    /// does not match the communicator size — surface as a typed
    /// [`CommError`] instead of a panic. The size check matters on the
    /// recovery path: after a shrink, a caller-supplied grid shape can
    /// legitimately disagree with the survivor count, and the solver
    /// wants to classify that like any other sizing fault rather than
    /// die inside grid construction.
    pub fn try_new(comm: Comm, dims: &[usize]) -> Result<CartGrid, CommError> {
        let p: usize = dims.iter().product();
        if p != comm.size() {
            // Self-referential src/dst: the mismatch is between this
            // rank's configuration and its communicator, not a peer.
            let me = comm.world_rank_of(comm.rank());
            return Err(CommError::SizeMismatch {
                src: me,
                dst: me,
                expected: p,
                got: comm.size(),
            });
        }
        let coords = Self::rank_to_coords(comm.rank(), dims);
        // Build one fiber communicator per mode. All ranks perform the
        // same sequence of splits, as the collective contract requires.
        let mut mode_comms = Vec::with_capacity(dims.len());
        for k in 0..dims.len() {
            // Color = flattened coordinates with mode k removed.
            let mut color = 0usize;
            let mut stride = 1usize;
            for (m, (&c, &d)) in coords.iter().zip(dims).enumerate() {
                if m == k {
                    continue;
                }
                color += c * stride;
                stride *= d;
            }
            mode_comms.push(comm.try_split(color, coords[k])?);
        }
        Ok(CartGrid {
            comm,
            dims: dims.to_vec(),
            coords,
            mode_comms,
        })
    }

    /// Grid dimensions.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of modes.
    pub fn order(&self) -> usize {
        self.dims.len()
    }

    /// This rank's grid coordinates.
    pub fn coords(&self) -> &[usize] {
        &self.coords
    }

    /// Grid coordinate of this rank in mode `k`.
    pub fn coord(&self, k: usize) -> usize {
        self.coords[k]
    }

    /// The fiber sub-communicator of mode `k` (rank within it equals
    /// `coords[k]`).
    pub fn mode_comm(&self, k: usize) -> &Comm {
        &self.mode_comms[k]
    }

    /// Converts a grid rank to coordinates (coordinate 0 fastest).
    pub fn rank_to_coords(mut rank: usize, dims: &[usize]) -> Vec<usize> {
        let mut coords = Vec::with_capacity(dims.len());
        for &d in dims {
            coords.push(rank % d);
            rank /= d;
        }
        coords
    }

    /// Converts coordinates to a grid rank.
    pub fn coords_to_rank(coords: &[usize], dims: &[usize]) -> usize {
        let mut rank = 0;
        let mut stride = 1;
        for (&c, &d) in coords.iter().zip(dims) {
            debug_assert!(c < d);
            rank += c * stride;
            stride *= d;
        }
        rank
    }
}

/// Result of rebuilding a Cartesian grid over a shrunken communicator
/// (see [`try_rebuild_grid`]). When the survivor count does not factor
/// into a grid elementwise ≤ the original one, the excess survivors
/// become **spares**: they hold no tensor block and sit out the
/// computation, but keep their replicas warm for future failures.
pub enum ShrinkOutcome {
    /// This rank is part of the shrunken grid.
    Active(Box<CartGrid>),
    /// This rank is a spare; the communicator groups all spares.
    Spare(Comm),
}

/// Chooses the dimensions of the shrunken grid: the elementwise-largest
/// grid with `dims[k] <= orig[k]` for every mode and `Π dims <=
/// survivors`, maximizing the rank count used; ties prefer shrinking
/// the *last* modes first (lexicographically largest dims vector), so
/// mode-0 data layout is disturbed least.
///
/// The elementwise bound is what lets recovery match the fault-free
/// run: truncation ranks are floored at the *original* grid dimensions,
/// and any grid ≤ the original keeps those floors valid, so the
/// rank-adaptation trajectory is unchanged by the shrink.
pub fn choose_shrunk_dims(orig: &[usize], survivors: usize) -> Vec<usize> {
    assert!(survivors > 0, "no survivors to build a grid from");
    let mut best: Vec<usize> = vec![1; orig.len()];
    let mut best_product = 1usize;
    let mut cur = vec![1usize; orig.len()];
    fn rec(
        orig: &[usize],
        survivors: usize,
        mode: usize,
        product: usize,
        cur: &mut Vec<usize>,
        best: &mut Vec<usize>,
        best_product: &mut usize,
    ) {
        if mode == orig.len() {
            if product > *best_product || (product == *best_product && cur[..] > best[..]) {
                *best_product = product;
                best.copy_from_slice(cur);
            }
            return;
        }
        for d in 1..=orig[mode] {
            if product * d > survivors {
                break;
            }
            cur[mode] = d;
            rec(
                orig,
                survivors,
                mode + 1,
                product * d,
                cur,
                best,
                best_product,
            );
        }
        cur[mode] = 1;
    }
    rec(
        orig,
        survivors,
        0,
        1,
        &mut cur,
        &mut best,
        &mut best_product,
    );
    best
}

/// Rebuilds the Cartesian grid over a shrunken communicator: picks the
/// shrunken dimensions via [`choose_shrunk_dims`], splits `comm` into an
/// active part (the first `Π dims` ranks, which form the new grid with
/// remapped per-mode sub-communicators) and a spare part (the rest).
/// Collective over `comm` — every survivor must call it.
pub fn try_rebuild_grid(comm: Comm, orig_dims: &[usize]) -> Result<ShrinkOutcome, CommError> {
    let dims = choose_shrunk_dims(orig_dims, comm.size());
    let q: usize = dims.iter().product();
    let active = comm.rank() < q;
    let part = comm.try_split(usize::from(!active), comm.rank())?;
    if active {
        Ok(ShrinkOutcome::Active(Box::new(CartGrid::try_new(
            part, &dims,
        )?)))
    } else {
        Ok(ShrinkOutcome::Spare(part))
    }
}

/// Enumerates every factorization of `p` into `d` grid dimensions
/// (used by the experiment harness to search over grids, as the paper
/// "test[s] all algorithms on a variety of grids … and report[s] the
/// fastest observed running times").
pub fn enumerate_grids(p: usize, d: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut current = vec![1usize; d];
    fn rec(p: usize, mode: usize, d: usize, current: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if mode == d - 1 {
            current[mode] = p;
            out.push(current.clone());
            return;
        }
        let mut f = 1;
        while f <= p {
            if p.is_multiple_of(f) {
                current[mode] = f;
                rec(p / f, mode + 1, d, current, out);
            }
            f += 1;
        }
    }
    rec(p, 0, d, &mut current, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Universe;

    #[test]
    fn coords_roundtrip() {
        let dims = [3, 2, 4];
        for r in 0..24 {
            let c = CartGrid::rank_to_coords(r, &dims);
            assert_eq!(CartGrid::coords_to_rank(&c, &dims), r);
        }
        assert_eq!(CartGrid::rank_to_coords(0, &dims), vec![0, 0, 0]);
        assert_eq!(CartGrid::rank_to_coords(1, &dims), vec![1, 0, 0]);
        assert_eq!(CartGrid::rank_to_coords(3, &dims), vec![0, 1, 0]);
    }

    #[test]
    fn fiber_comms_have_right_shape() {
        let results = Universe::launch(12, |c| {
            let grid = CartGrid::new(c, &[3, 2, 2]);
            let sizes: Vec<usize> = (0..3).map(|k| grid.mode_comm(k).size()).collect();
            let ranks: Vec<usize> = (0..3).map(|k| grid.mode_comm(k).rank()).collect();
            (grid.coords().to_vec(), sizes, ranks)
        });
        for (coords, sizes, ranks) in results {
            assert_eq!(sizes, vec![3, 2, 2]);
            assert_eq!(ranks, coords);
        }
    }

    #[test]
    fn fiber_allreduce_sums_along_one_mode_only() {
        // Sum of coord-0 along the mode-0 fiber = 0+1+2 = 3 everywhere.
        let results = Universe::launch(12, |c| {
            let grid = CartGrid::new(c, &[3, 2, 2]);
            let v = vec![grid.coord(0) as u64];
            let s = grid
                .mode_comm(0)
                .try_allreduce(v, crate::comm::sum_op)
                .unwrap();
            s[0]
        });
        assert!(results.iter().all(|&s| s == 3));
    }

    #[test]
    fn enumerate_grids_is_complete() {
        let grids = enumerate_grids(8, 3);
        // Factorizations of 8 into 3 ordered factors: (1,1,8),(1,2,4),
        // (1,4,2),(1,8,1),(2,1,4),(2,2,2),(2,4,1),(4,1,2),(4,2,1),(8,1,1).
        assert_eq!(grids.len(), 10);
        for g in &grids {
            assert_eq!(g.iter().product::<usize>(), 8);
        }
        assert!(grids.contains(&vec![2, 2, 2]));
    }

    #[test]
    fn shrunk_dims_prefer_late_modes_and_respect_bounds() {
        // 7 survivors of [2,2,2]: best product ≤ 7 with dims ≤ [2,2,2]
        // is 4; ties resolved toward keeping early modes intact.
        assert_eq!(choose_shrunk_dims(&[2, 2, 2], 7), vec![2, 2, 1]);
        assert_eq!(choose_shrunk_dims(&[2, 2, 2], 8), vec![2, 2, 2]);
        assert_eq!(choose_shrunk_dims(&[2, 2, 2], 6), vec![2, 2, 1]);
        assert_eq!(choose_shrunk_dims(&[2, 2, 2], 3), vec![2, 1, 1]);
        assert_eq!(choose_shrunk_dims(&[4, 2], 6), vec![3, 2]);
        assert_eq!(choose_shrunk_dims(&[4, 2], 7), vec![3, 2]);
        assert_eq!(choose_shrunk_dims(&[3], 2), vec![2]);
        assert_eq!(choose_shrunk_dims(&[2, 2], 1), vec![1, 1]);
        // Survivors beyond the original grid never grow a mode.
        assert_eq!(choose_shrunk_dims(&[2, 2], 100), vec![2, 2]);
    }

    #[test]
    fn rebuild_grid_splits_active_and_spares() {
        // 7 ranks rebuilding an original [2,2,2] grid: 4 active on
        // [2,2,1], 3 spares.
        let out = Universe::launch(7, |c| {
            match crate::grid::try_rebuild_grid(c, &[2, 2, 2]).unwrap() {
                ShrinkOutcome::Active(g) => {
                    // The active grid must be fully functional: fiber
                    // communicators remapped, collectives working.
                    let s = g
                        .mode_comm(0)
                        .try_allreduce(vec![1u64], crate::comm::sum_op)
                        .unwrap()[0];
                    (true, g.dims().to_vec(), g.comm.size(), s)
                }
                ShrinkOutcome::Spare(s) => (false, Vec::new(), s.size(), 0),
            }
        });
        let active: Vec<_> = out.iter().filter(|t| t.0).collect();
        let spares: Vec<_> = out.iter().filter(|t| !t.0).collect();
        assert_eq!(active.len(), 4);
        assert_eq!(spares.len(), 3);
        for t in &active {
            assert_eq!(t.1, vec![2, 2, 1]);
            assert_eq!(t.2, 4);
            assert_eq!(t.3, 2, "mode-0 fiber has 2 ranks");
        }
        for t in &spares {
            assert_eq!(t.2, 3, "spares share a communicator");
        }
    }

    #[test]
    #[should_panic(expected = "rank 0 panicked")]
    fn grid_size_must_match() {
        Universe::launch(4, |c| {
            CartGrid::new(c, &[3, 2]);
        });
    }

    #[test]
    fn grid_size_mismatch_is_a_typed_error() {
        use crate::fault::CommError;
        let results = Universe::launch(4, |c| match CartGrid::try_new(c, &[3, 2]) {
            Err(CommError::SizeMismatch { expected, got, .. }) => (expected, got),
            Err(other) => panic!("expected SizeMismatch, got {other:?}"),
            Ok(_) => panic!("grid construction should have failed"),
        });
        // No communication happens before the size check, so every rank
        // observes the mismatch locally and identically.
        assert!(results.into_iter().all(|r| r == (6, 4)));
    }
}
