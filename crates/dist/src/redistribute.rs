//! Re-blocking a distributed tensor onto a new (shrunken) grid.
//!
//! After a rank failure the survivors hold the global tensor as a set of
//! *pieces* — their own original blocks plus in-memory buddy replicas of
//! the dead ranks' blocks (see [`crate::replica`]). [`try_redistribute`]
//! moves those pieces onto the block distribution of the shrunken grid
//! with two all-to-alls (metadata, then data) and a pure-copy assembly,
//! so redistribution preserves the global tensor **bit-exactly** — an
//! invariant checked by a proptest in `tests/redistribute_prop.rs`.
//!
//! The operation is collective over a communicator that may be *larger*
//! than the destination grid: spare ranks (survivors that do not fit the
//! shrunken grid, see [`ratucker_mpi::ShrinkOutcome`]) contribute their
//! pieces but receive no block and get `Ok(None)`.

use crate::distribution::{owner_of, BlockRange, TensorDist};
use crate::dtensor::DistTensor;
use crate::ops::budget_error;
use ratucker_mem::{self as mem, MemPhase};
use ratucker_mpi::{CartGrid, Comm, CommError};
use ratucker_tensor::dense::{append_block, for_each_run, DenseTensor};
use ratucker_tensor::scalar::Scalar;

/// A contiguous axis-aligned brick of the global tensor: the per-mode
/// global index ranges it covers plus its entries in mode-0-fastest
/// layout. The unit of currency of [`try_redistribute`].
#[derive(Clone, Debug)]
pub struct BlockPiece<T: Scalar> {
    ranges: Vec<BlockRange>,
    data: Vec<T>,
}

impl<T: Scalar> BlockPiece<T> {
    /// Wraps per-mode ranges and matching dense data.
    pub fn new(ranges: Vec<BlockRange>, data: Vec<T>) -> Self {
        let n: usize = ranges.iter().map(|r| r.len).product();
        assert_eq!(n, data.len(), "piece data must exactly fill its ranges");
        BlockPiece { ranges, data }
    }

    /// The piece owned by grid coordinate `coords` under `dist`, taking
    /// the block contents from `block`.
    pub fn from_block(dist: &TensorDist, coords: &[usize], block: &DenseTensor<T>) -> Self {
        let ranges: Vec<BlockRange> = (0..dist.global().order())
            .map(|k| dist.range(k, coords[k]))
            .collect();
        Self::new(ranges, block.data().to_vec())
    }

    /// The per-mode global ranges this piece covers.
    pub fn ranges(&self) -> &[BlockRange] {
        &self.ranges
    }
}

/// Extracts the sub-brick of `piece` covering the (global) intersection
/// ranges `inter` (which must lie within the piece's ranges). Fallible:
/// the sub-brick is ledger-checked before it is allocated.
fn extract_sub<T: Scalar>(
    piece: &BlockPiece<T>,
    inter: &[BlockRange],
) -> Result<Vec<T>, mem::BudgetExceeded> {
    let piece_dims: Vec<usize> = piece.ranges.iter().map(|r| r.len).collect();
    let offsets: Vec<usize> = inter
        .iter()
        .zip(&piece.ranges)
        .map(|(i, p)| i.offset - p.offset)
        .collect();
    let lens: Vec<usize> = inter.iter().map(|r| r.len).collect();
    let n: usize = lens.iter().product();
    mem::ensure_headroom(mem::bytes_of::<T>(n))?;
    let mut out = Vec::with_capacity(n);
    append_block(&piece.data, &piece_dims, &offsets, &lens, &mut out);
    Ok(out)
}

/// Redistributes block pieces onto the distribution `new_dist`, whose
/// grid occupies the first `Π new_dist.grid_dims()` ranks of `comm`
/// (the layout [`ratucker_mpi::try_rebuild_grid`] produces).
///
/// Collective over `comm`. Across all callers the pieces must tile the
/// global tensor exactly — every global entry covered once; gaps and
/// overlaps are protocol bugs and panic. Active ranks get
/// `Ok(Some(block))` with their new local block; spares get `Ok(None)`.
///
/// Assembly is a pure copy (no arithmetic), so the redistributed tensor
/// equals the original bit-for-bit.
pub fn try_redistribute<T: Scalar>(
    comm: &Comm,
    new_dist: &TensorDist,
    pieces: Vec<BlockPiece<T>>,
) -> Result<Option<DistTensor<T>>, CommError> {
    let _span = ratucker_obs::span(comm, "Redistribute");
    let _mem = mem::with_phase(MemPhase::Redistribute);
    let d = new_dist.global().order();
    let dims = new_dist.grid_dims();
    let q: usize = dims.iter().product();
    let p = comm.size();
    if q > p {
        // A destination grid bigger than the communicator is a sizing
        // fault the recovery driver should see as typed (it chose the
        // grid; it can choose again), not a panic inside the exchange.
        let me = comm.world_rank_of(comm.rank());
        return Err(CommError::SizeMismatch {
            src: me,
            dst: me,
            expected: q,
            got: p,
        });
    }

    // Route every piece: slice it against the destination blocks it
    // touches (per-mode owner ranges give the bounding box of
    // destination coordinates). The routed staging totals one copy of
    // this rank's pieces; charge it up front so a budgeted rank refuses
    // typed instead of aborting on OOM mid-exchange.
    let piece_entries: usize = pieces.iter().map(|pc| pc.data.len()).sum();
    let _stage = mem::Charge::try_new(mem::bytes_of::<T>(piece_entries))
        .map_err(|e| budget_error(comm, e))?;
    let mut meta: Vec<Vec<u64>> = (0..p).map(|_| Vec::new()).collect();
    let mut data: Vec<Vec<T>> = (0..p).map(|_| Vec::new()).collect();
    for piece in &pieces {
        let coord_lo_hi: Vec<(usize, usize)> = (0..d)
            .map(|k| {
                let r = piece.ranges[k];
                debug_assert!(r.len > 0, "empty piece range in mode {k}");
                let n = new_dist.global().dim(k);
                (
                    owner_of(n, dims[k], r.offset),
                    owner_of(n, dims[k], r.offset + r.len - 1),
                )
            })
            .collect();
        // Odometer over the destination-coordinate bounding box.
        let mut coords: Vec<usize> = coord_lo_hi.iter().map(|&(lo, _)| lo).collect();
        'dests: loop {
            let dest = CartGrid::coords_to_rank(&coords, dims);
            let inter: Vec<BlockRange> = (0..d)
                .map(|k| {
                    let a = piece.ranges[k];
                    let b = new_dist.range(k, coords[k]);
                    let offset = a.offset.max(b.offset);
                    let end = (a.offset + a.len).min(b.offset + b.len);
                    debug_assert!(end > offset, "bounding box produced empty intersection");
                    BlockRange {
                        offset,
                        len: end - offset,
                    }
                })
                .collect();
            for r in &inter {
                meta[dest].push(r.offset as u64);
                meta[dest].push(r.len as u64);
            }
            data[dest].extend(extract_sub(piece, &inter).map_err(|e| budget_error(comm, e))?);
            // Advance the odometer.
            for k in 0..d {
                if coords[k] < coord_lo_hi[k].1 {
                    coords[k] += 1;
                    break;
                }
                if k == d - 1 {
                    break 'dests;
                }
                coords[k] = coord_lo_hi[k].0;
            }
            if d == 0 {
                break;
            }
        }
    }

    let meta_in = comm.try_alltoallv(meta)?;
    let data_in = comm.try_alltoallv(data)?;

    if comm.rank() >= q {
        return Ok(None); // spare: contributed pieces, owns no block
    }

    // Assemble my block from the received sub-bricks, checking exact
    // single coverage.
    let my_coords = CartGrid::rank_to_coords(comm.rank(), dims);
    let my_ranges: Vec<BlockRange> = (0..d).map(|k| new_dist.range(k, my_coords[k])).collect();
    let local_shape = new_dist.local_shape(&my_coords);
    let mut local =
        DenseTensor::<T>::try_zeros(local_shape.clone()).map_err(|e| budget_error(comm, e))?;
    let mut written = mem::TrackedBuf::try_filled(local_shape.num_entries(), false)
        .map_err(|e| budget_error(comm, e))?;
    let local_dims = local_shape.dims();
    let header = 2 * d;
    for (src, (meta_s, data_s)) in meta_in.into_iter().zip(data_in).enumerate() {
        if !meta_s.len().is_multiple_of(header.max(1)) {
            // Truncated or misrouted metadata payload: typed, so the
            // caller can trigger recovery instead of unwinding.
            let h = header.max(1);
            return Err(CommError::SizeMismatch {
                src: comm.world_rank_of(src),
                dst: comm.world_rank_of(comm.rank()),
                expected: meta_s.len() / h * h,
                got: meta_s.len(),
            });
        }
        let mut cursor = 0usize;
        for chunk in meta_s.chunks(header.max(1)) {
            let inter: Vec<BlockRange> = chunk
                .chunks(2)
                .map(|pair| BlockRange {
                    offset: pair[0] as usize,
                    len: pair[1] as usize,
                })
                .collect();
            let lens: Vec<usize> = inter.iter().map(|r| r.len).collect();
            let n: usize = lens.iter().product();
            if cursor + n > data_s.len() {
                return Err(CommError::SizeMismatch {
                    src: comm.world_rank_of(src),
                    dst: comm.world_rank_of(comm.rank()),
                    expected: cursor + n,
                    got: data_s.len(),
                });
            }
            let sub = &data_s[cursor..cursor + n];
            cursor += n;
            let offsets: Vec<usize> = inter
                .iter()
                .zip(&my_ranges)
                .map(|(i, m)| i.offset - m.offset)
                .collect();
            let zeros = vec![0; d];
            let dst = local.data_mut();
            for_each_run(&lens, &zeros, local_dims, &offsets, &lens, |s, t, len| {
                assert!(
                    !written[t..t + len].contains(&true),
                    "redistribute: overlapping pieces (entry written twice, src rank {src})"
                );
                written[t..t + len].fill(true);
                dst[t..t + len].copy_from_slice(&sub[s..s + len]);
            });
        }
        if cursor != data_s.len() {
            // The data payload disagrees with its own metadata — a
            // wrong-sized message from `src` in all but name.
            return Err(CommError::SizeMismatch {
                src: comm.world_rank_of(src),
                dst: comm.world_rank_of(comm.rank()),
                expected: cursor,
                got: data_s.len(),
            });
        }
    }
    assert!(
        written.iter().all(|&w| w),
        "redistribute: pieces do not cover the destination block"
    );
    Ok(Some(DistTensor::from_parts(
        new_dist.clone(),
        my_coords,
        local,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ratucker_mpi::Universe;
    use ratucker_tensor::shape::Shape;

    fn val(idx: &[usize]) -> f64 {
        idx.iter()
            .enumerate()
            .map(|(k, &i)| ((k + 1) * 37 + i * 3) as f64)
            .sum::<f64>()
            .cos()
    }

    #[test]
    fn identity_redistribution_is_bit_exact() {
        // Same grid in and out: every rank keeps exactly its own block.
        let results = Universe::launch(4, |c| {
            let grid = CartGrid::new(c, &[2, 2]);
            let x = DistTensor::from_fn(&grid, Shape::new(&[6, 5]), val);
            let piece = BlockPiece::from_block(x.dist(), x.coords(), x.local());
            let y = try_redistribute(&grid.comm, x.dist(), vec![piece])
                .unwrap()
                .expect("all ranks active");
            x.local().max_abs_diff(y.local())
        });
        assert!(results.into_iter().all(|r| r == 0.0));
    }

    #[test]
    fn reblocking_to_smaller_grid_with_spares() {
        // 4 ranks holding a [2,2] layout re-block onto a [2,1] grid; the
        // last 2 ranks become spares. The reassembled global tensor must
        // match the original exactly.
        let results = Universe::launch(4, |c| {
            let grid = CartGrid::new(c, &[2, 2]);
            let x = DistTensor::from_fn(&grid, Shape::new(&[6, 5]), val);
            let piece = BlockPiece::from_block(x.dist(), x.coords(), x.local());
            let new_dist = TensorDist::new(Shape::new(&[6, 5]), &[2, 1]);
            let got = try_redistribute(&grid.comm, &new_dist, vec![piece]).unwrap();
            match got {
                Some(block) => {
                    // Rebuild a 2-rank view to gather: compare locally
                    // against the reference block instead.
                    let reference = DenseTensor::from_fn([6, 5], val);
                    let coords = block.coords().to_vec();
                    let ranges: Vec<_> = (0..2).map(|k| new_dist.range(k, coords[k])).collect();
                    let mut diff = 0.0f64;
                    for idx in block.local().shape().clone().indices() {
                        let gidx = [ranges[0].offset + idx[0], ranges[1].offset + idx[1]];
                        diff = diff.max((block.local().get(&idx) - reference.get(&gidx)).abs());
                    }
                    Some(diff)
                }
                None => None,
            }
        });
        let active: Vec<_> = results.iter().filter(|r| r.is_some()).collect();
        assert_eq!(active.len(), 2, "2 active + 2 spares");
        assert!(results.into_iter().flatten().all(|r| r == 0.0));
    }

    #[test]
    #[should_panic(expected = "overlapping pieces")]
    fn overlapping_pieces_are_refused() {
        // Rows 0..4 and rows 2..6 of a 6×5 tensor: every column run of
        // the second piece lands partly on entries the first one wrote.
        Universe::launch(1, |c| {
            let dist = TensorDist::new(Shape::new(&[6, 5]), &[1, 1]);
            let reference = DenseTensor::from_fn([6, 5], val);
            let rows = |offset: usize| {
                let ranges = vec![
                    BlockRange { offset, len: 4 },
                    BlockRange { offset: 0, len: 5 },
                ];
                let mut data = Vec::new();
                append_block(reference.data(), &[6, 5], &[offset, 0], &[4, 5], &mut data);
                BlockPiece::new(ranges, data)
            };
            let _ = try_redistribute(&c, &dist, vec![rows(0), rows(2)]);
        });
    }

    #[test]
    fn oversized_destination_grid_is_a_typed_error() {
        // A [2,2] destination grid needs 4 ranks; the communicator has 2.
        // This used to be a bare assert — the recovery driver needs the
        // typed class so it can pick a feasible grid and retry.
        let results = Universe::launch(2, |c| {
            let grid = CartGrid::new(c, &[2, 1]);
            let x = DistTensor::from_fn(&grid, Shape::new(&[6, 5]), val);
            let piece = BlockPiece::from_block(x.dist(), x.coords(), x.local());
            let new_dist = TensorDist::new(Shape::new(&[6, 5]), &[2, 2]);
            match try_redistribute(&grid.comm, &new_dist, vec![piece]) {
                Err(CommError::SizeMismatch { expected, got, .. }) => (expected, got),
                Err(other) => panic!("expected SizeMismatch, got {other:?}"),
                Ok(_) => panic!("oversized grid should have failed"),
            }
        });
        assert!(results.into_iter().all(|r| r == (4, 2)));
    }
}
