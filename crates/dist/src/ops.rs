//! Distributed tensor kernels: TTM, unfolding Gram, and the
//! subspace-iteration contraction.
//!
//! These are the parallel kernels of TuckerMPI plus the new contraction
//! the paper adds (§3.4). Communication patterns follow the paper's cost
//! analysis:
//!
//! - **TTM** ([`try_dist_ttm`]): local multiply against the owned row/column
//!   block of the (replicated) matrix, then a *reduce-scatter* along the
//!   mode's fiber sub-communicator — cost `(local size)·(P_j − 1)` words,
//!   the Table 2 TTM term. One reduce-scatter at degradation rung 0;
//!   under memory pressure (rung ≥ 1) about `2·P_j` pipelined slabs,
//!   each charged only while in flight (DESIGN.md §17).
//! - **Gram** ([`try_dist_gram`]): *all-to-all* along the fiber to a 1D column
//!   layout (cost `(local size)·(P_j − 1)/P_j`), local rank-k update, then
//!   an allreduce of the `n_j × n_j` result — the Table 2 LLSV terms.
//! - **Contraction** ([`try_dist_contract_fiber`]): local against this
//!   rank's own block of the distributed core `G = Y ×_j Uᵀ`, widened to
//!   all of mode `j` by an allgather along the mode's fiber when `P_j > 1`
//!   (cost `r^d/P·(P_j − 1)`, the same as the TTM that made `G`); no rank
//!   holds the whole core. Then one sum-reduction + broadcast (one
//!   allreduce) of the `n_j × r_j` iterate so every rank can run the QR
//!   redundantly — §3.4's "sum reduction followed by a broadcast … local
//!   QR decompositions".
//!   [`try_dist_contract`] takes a replicated core instead and cuts the
//!   same block out of it.

use crate::distribution::block_range;
use crate::dtensor::DistTensor;
use ratucker_mem::{self as mem, MemPhase};
use ratucker_mpi::{sum_op, CartGrid, Comm, CommError, Request};
use ratucker_tensor::dense::{append_block, copy_block, DenseTensor};
use ratucker_tensor::kernels::all_finite;
use ratucker_tensor::matrix::Matrix;
use ratucker_tensor::scalar::Scalar;
use ratucker_tensor::shape::Shape;
use ratucker_tensor::ttm::{slab_grid, ttm, ttm_right_range, Transpose};
use std::borrow::Cow;

/// Converts a ledger refusal into the typed comm error, revoking the
/// communicator first: peers blocked in the collective this rank is
/// abandoning fail fast with [`CommError::Revoked`] instead of timing
/// out, so every rank reaches the recovery agreement — and the
/// degradation-rung verdict — promptly.
pub(crate) fn budget_error(comm: &Comm, e: mem::BudgetExceeded) -> CommError {
    comm.revoke();
    CommError::BudgetExceeded {
        rank: comm.world_rank_of(comm.rank()),
        phase: e.phase.name(),
        requested: e.requested,
        live: e.live,
        budget: e.budget,
    }
}

/// Algorithm-based fault tolerance (ABFT) policy for the checked
/// kernels ([`try_dist_gram_checked`], [`try_dist_ttm_checked`]).
///
/// The checksums are *linear*, so they commute with the sum-combining
/// collectives: a column-sum row rides through the Gram allreduce and a
/// per-chunk total rides through the TTM reduce-scatter, and any finite
/// corruption of the numeric traffic breaks the linear relation at the
/// receiver — the class of silent error the NaN/Inf screens provably
/// cannot see.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AbftMode {
    /// No checksums (the unchecked kernels).
    #[default]
    Off,
    /// Verify checksums; surface mismatches as
    /// [`CommError::SilentCorruption`] and let the caller abort.
    Detect,
    /// Verify checksums; the solver responds to a mismatch by
    /// recomputing the poisoned contraction (kernel behavior is the
    /// same as [`AbftMode::Detect`] — the distinction lives in the
    /// caller's recovery policy).
    Recover,
}

impl AbftMode {
    /// Are checksums being computed and verified?
    pub fn is_enabled(&self) -> bool {
        !matches!(self, AbftMode::Off)
    }

    /// Parses `off` / `detect` / `recover` (the CLI flag values).
    pub fn parse(s: &str) -> Option<AbftMode> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" => Some(AbftMode::Off),
            "detect" => Some(AbftMode::Detect),
            "recover" => Some(AbftMode::Recover),
            _ => None,
        }
    }
}

/// Relative tolerance separating accumulation roundoff from injected
/// corruption: `sqrt(eps)` of the element type (≈1.5e-8 for `f64`) —
/// orders of magnitude above roundoff for the problem sizes here, and
/// orders of magnitude below the ≥2× magnitude change of an
/// exponent-bit flip.
fn abft_tol<T: Scalar>() -> f64 {
    T::EPSILON.to_f64().sqrt()
}

fn sum_f64<T: Scalar>(v: &[T]) -> f64 {
    v.iter().map(|x| x.to_f64()).sum()
}

fn abs_sum_f64<T: Scalar>(v: &[T]) -> f64 {
    v.iter().map(|x| x.to_f64().abs()).sum()
}

/// All-to-all with a per-block scalar checksum appended to every
/// message; the receiver re-sums each block and records the worst
/// relative mismatch. Covers the Gram redistribution leg, whose
/// corruption would otherwise be *absorbed* into the local rank-k
/// update before the allreduce checksums are formed. Returns the
/// received blocks plus the local maximum relative checksum error
/// (`f64::INFINITY` for a non-finite mismatch), which the caller folds
/// into the kernel's single collective verdict.
fn try_alltoallv_checked<T: Scalar>(
    comm: &Comm,
    blocks: Vec<Vec<T>>,
) -> Result<(Vec<Vec<T>>, f64), CommError> {
    let stamped: Vec<Vec<T>> = blocks
        .into_iter()
        .map(|mut b| {
            let cs = T::from_f64(sum_f64(&b));
            b.push(cs);
            b
        })
        .collect();
    let received = comm.try_alltoallv(stamped)?;
    let mut rel_err = 0.0f64;
    let mut out = Vec::with_capacity(received.len());
    for mut b in received {
        let cs = b.pop().expect("checked block carries a checksum").to_f64();
        let s = sum_f64(&b);
        let e = (s - cs).abs() / (abs_sum_f64(&b) + cs.abs() + f64::MIN_POSITIVE);
        rel_err = rel_err.max(if e.is_finite() { e } else { f64::INFINITY });
        out.push(b);
    }
    Ok((out, rel_err))
}

/// Turns the kernel-local checksum error into a grid-wide collective
/// verdict over the control plane: every rank learns the worst relative
/// error anyone observed and all ranks reach the same accept /
/// [`CommError::SilentCorruption`] decision — without this, only the
/// ranks whose inbound traffic was corrupted would abort, and a solver
/// retrying the contraction in [`AbftMode::Recover`] would deadlock the
/// collective.
fn abft_verdict<T: Scalar>(grid: &CartGrid, mode: usize, local_rel: f64) -> Result<(), CommError> {
    let _span = ratucker_obs::span_mode(&grid.comm, "ABFT", mode);
    let rel_err = grid.comm.try_verdict_max(if local_rel.is_finite() {
        local_rel
    } else {
        f64::INFINITY
    })?;
    if !rel_err.is_finite() || rel_err > abft_tol::<T>() {
        return Err(CommError::SilentCorruption { mode, rel_err });
    }
    Ok(())
}

/// Fallible distributed TTM: `Y = X ×_mode op(M)` with `M` replicated on
/// every rank.
///
/// The output mode extent (`M`'s rows, or columns under [`Transpose::Yes`])
/// must be at least `P_mode` so every rank keeps a nonempty block.
/// Collective over `grid`. Communication failures (lost messages,
/// crashed peers) surface as [`CommError`].
pub fn try_dist_ttm<T: Scalar>(
    grid: &CartGrid,
    x: &DistTensor<T>,
    mode: usize,
    m: &Matrix<T>,
    trans: Transpose,
) -> Result<DistTensor<T>, CommError> {
    ttm_impl(grid, x, mode, m, trans, AbftMode::Off, None)
}

/// Checksum-augmented variant of [`try_dist_ttm`]: when `abft` is
/// enabled, each reduce-scatter chunk carries a linear total that is
/// summed along with the data; a mismatch at the receiver surfaces as
/// [`CommError::SilentCorruption`] so the solver can recompute the
/// contraction instead of silently converging to a wrong core.
pub fn try_dist_ttm_checked<T: Scalar>(
    grid: &CartGrid,
    x: &DistTensor<T>,
    mode: usize,
    m: &Matrix<T>,
    trans: Transpose,
    abft: AbftMode,
) -> Result<DistTensor<T>, CommError> {
    ttm_impl(grid, x, mode, m, trans, abft, None)
}

/// The distributed TTM behind [`try_dist_ttm`] and
/// [`try_dist_ttm_checked`]. `slabs` overrides the slab count the
/// degradation rung would pick (tests pin it; the public kernels pass
/// `None`).
pub(crate) fn ttm_impl<T: Scalar>(
    grid: &CartGrid,
    x: &DistTensor<T>,
    mode: usize,
    m: &Matrix<T>,
    trans: Transpose,
    abft: AbftMode,
    slabs: Option<usize>,
) -> Result<DistTensor<T>, CommError> {
    let _span = ratucker_obs::span_mode(&grid.comm, "TTM", mode);
    let _mem = mem::with_phase(MemPhase::Ttm);
    if !x.local().all_finite() {
        return Err(CommError::Corrupted {
            rank: grid.comm.rank(),
            what: format!("non-finite entry in local tensor block entering TTM (mode {mode})"),
        });
    }
    if !m.all_finite() {
        return Err(CommError::Corrupted {
            rank: grid.comm.rank(),
            what: format!("non-finite entry in TTM operand matrix (mode {mode})"),
        });
    }
    let n_j = x.global_shape().dim(mode);
    let out_dim = match trans {
        Transpose::No => m.rows(),
        Transpose::Yes => m.cols(),
    };
    let my_range = x.dist().range(mode, grid.coord(mode));

    // Restrict the operand to this rank's slice of the contracted mode.
    let m_sub = match trans {
        // M : out_dim × n_j, keep columns my_range.
        Transpose::No => Matrix::from_vec(
            out_dim,
            my_range.len,
            m.as_slice()[my_range.offset * out_dim..(my_range.offset + my_range.len) * out_dim]
                .to_vec(),
        ),
        // M : n_j × out_dim, keep rows my_range.
        Transpose::Yes => m.row_slice(my_range.offset, my_range.len),
    };
    debug_assert_eq!(
        match trans {
            Transpose::No => m.cols(),
            Transpose::Yes => m.rows(),
        },
        n_j,
        "operand inner dimension must match the global mode extent"
    );

    let left = x.local().shape().left(mode);
    let right = x.local().shape().right(mode);
    let out_dist = x.dist().with_dim(mode, out_dim);
    let coords = x.coords().to_vec();
    let fiber = grid.mode_comm(mode);
    let p_j = fiber.size();
    if p_j == 1 {
        // Local partial product: full `out_dim` in the contracted mode.
        // Preflight its footprint before allocating it: under a budget,
        // a rank that cannot even hold the local multiply output fails
        // typed (and revokes) rather than aborting on OOM.
        mem::ensure_headroom(mem::bytes_of::<T>(left * out_dim * right))
            .map_err(|e| budget_error(&grid.comm, e))?;
        let partial = ttm(x.local(), mode, &m_sub, trans);
        return Ok(DistTensor::from_parts(out_dist, coords, partial));
    }

    let shape = TtmShape {
        left,
        out_dim,
        right,
        p_j,
        abft: abft.is_enabled(),
    };
    let n_slabs = slabs.unwrap_or(if mem::rung() >= 1 {
        DEGRADED_TTM_SLABS_PER_RANK * p_j
    } else {
        1
    });
    let (my_block, mut local_rel) =
        ttm_slabbed(grid, fiber, x, mode, &m_sub, trans, &shape, n_slabs)?;
    if abft.is_enabled() {
        // Fold the non-finite screen into the checksum error (NaN/Inf ⇒
        // infinite relative error) and agree on a grid-wide verdict so
        // every rank aborts — or retries — together.
        if !all_finite(&my_block) {
            local_rel = f64::INFINITY;
        }
        abft_verdict::<T>(grid, mode, local_rel)?;
    } else if !all_finite(&my_block) {
        return Err(CommError::Corrupted {
            rank: grid.comm.rank(),
            what: format!(
                "non-finite entry in TTM reduce-scatter result (mode {mode}); \
                 a peer contributed a corrupted partial product"
            ),
        });
    }
    let local_shape = out_dist.local_shape(&coords);
    let local = DenseTensor::from_vec(local_shape, my_block);
    Ok(DistTensor::from_parts(out_dist, coords, local))
}

/// Extents of a distributed TTM's local partial product, laid out
/// `[left, out_dim, right]`, and of the fiber that reduces it.
struct TtmShape {
    left: usize,
    out_dim: usize,
    right: usize,
    p_j: usize,
    /// Whether each chunk carries a linear ABFT total.
    abft: bool,
}

impl TtmShape {
    /// Appends fiber rank `q`'s chunk of a slab's partial product
    /// (`[rows, out_dim, cols]`) to `dst`, in `[rows, block, cols]`
    /// layout, followed by the chunk's linear total when checked. The
    /// total is summed elementwise across the fiber along with the
    /// data, so at the owner the last slot holds the expected total of
    /// the reduced chunk.
    fn pack_chunk<T: Scalar>(
        &self,
        dst: &mut Vec<T>,
        partial: &[T],
        rows: usize,
        cols: usize,
        q: usize,
    ) {
        let r_q = block_range(self.out_dim, self.p_j, q);
        let start = dst.len();
        for r in 0..cols {
            let src = (r * self.out_dim + r_q.offset) * rows;
            dst.extend_from_slice(&partial[src..src + r_q.len * rows]);
        }
        if self.abft {
            let cs = T::from_f64(sum_f64(&dst[start..]));
            dst.push(cs);
        }
    }

    /// Entries in fiber rank `q`'s packed chunk of a `rows × cols` slab.
    fn chunk_len(&self, q: usize, rows: usize, cols: usize) -> usize {
        rows * block_range(self.out_dim, self.p_j, q).len * cols + usize::from(self.abft)
    }
}

/// Pops the linear total a reduced checked chunk carries and returns
/// the chunk's relative checksum error (infinite if non-finite).
fn pop_checksum_error<T: Scalar>(blk: &mut Vec<T>) -> f64 {
    let cs = blk
        .pop()
        .expect("checked reduce-scatter chunk carries a checksum")
        .to_f64();
    if !all_finite(blk) {
        return f64::INFINITY;
    }
    let s = sum_f64(blk);
    (s - cs).abs() / (abs_sum_f64(blk) + cs.abs() + f64::MIN_POSITIVE)
}

/// Pops the slab-sequence sentinel from a reduced slab payload. Every
/// rank appends `tag` to its contribution, so the sum-reduce delivers
/// `ranks · tag`. Slabbing splits one message into several, often of
/// equal length, so a lost message could otherwise silently pair a
/// wait with the neighbouring slab's same-typed, same-sized payload,
/// which no type or length check notices. Returns the mismatch as text.
fn pop_sentinel<T: Scalar>(
    blk: &mut Vec<T>,
    ranks: usize,
    tag: usize,
    slab: usize,
) -> Result<(), String> {
    let got = blk
        .pop()
        .expect("slab payload carries a sequence sentinel")
        .to_f64();
    let want = (ranks * tag) as f64;
    if (got - want).abs() > 0.5 {
        return Err(format!(
            "sentinel {got} where slab {slab} expects {want}: \
             a lost message desynchronized the channel"
        ));
    }
    Ok(())
}

/// Slabs per fiber rank of the distributed TTM at degradation rung ≥ 1
/// (DESIGN.md §17): `2·P_j` slabs, two of them charged at a time, hold
/// about `2/P_j` of the partial product against rung 0's one slab of
/// twice the whole of it. `perfmodel::memory` projects the same count.
const DEGRADED_TTM_SLABS_PER_RANK: usize = 2;

/// The distributed TTM's one slab loop (DESIGN.md §17): the local
/// partial product is computed and reduce-scattered in about `n_slabs`
/// blocks (one at degradation rung 0), cut along the right extent first
/// and along the left extent when `right` is smaller ([`slab_grid`]),
/// slab `s`'s reduce-scatter in flight while slab `s+1`'s GEMM and
/// packing run. At most one collective is in flight per fiber (the
/// links are tagless FIFOs): slab `s−1` is waited before slab `s`
/// posts. Returns this rank's reduced block and its ABFT relative
/// checksum error (the max over slabs).
///
/// Ledger: each slab charges its own partial product and packed copy
/// (`2·slab + p_j` entries) until its reduce-scatter is absorbed, so at
/// most two slabs are charged at once; the one rung-0 slab charges
/// `2·partial + p_j`, the footprint the §14 admission estimate assumes.
///
/// The result is bitwise independent of the slab count:
/// `ttm_right_range` is bit-equal to the matching block of the full
/// GEMM (§16 kernel contract), the reduce-scatter's combine order is
/// elementwise and fixed by rank arithmetic alone, and each reduced
/// piece is copied to its place in the `[left, block, right]` layout.
/// With one slab the wire carries exactly one reduce-scatter of the
/// whole packed partial, no sentinel, and its result is the block.
#[allow(clippy::too_many_arguments)]
fn ttm_slabbed<T: Scalar>(
    grid: &CartGrid,
    fiber: &Comm,
    x: &DistTensor<T>,
    mode: usize,
    m_sub: &Matrix<T>,
    trans: Transpose,
    shape: &TtmShape,
    n_slabs: usize,
) -> Result<(Vec<T>, f64), CommError> {
    let &TtmShape {
        left,
        out_dim,
        right,
        p_j,
        abft,
    } = shape;
    let (n_left, n_right) = slab_grid(left, right, n_slabs);
    let n = n_left * n_right;
    let slab = |s: usize| {
        (
            block_range(left, n_left, s % n_left),
            block_range(right, n_right, s / n_left),
        )
    };
    let tagged = n > 1;
    let block = block_range(out_dim, p_j, fiber.rank()).len;
    let mut out: Vec<T> = Vec::new();
    let mut rel = 0.0f64;
    let mut absorb = |req: Request<Vec<T>>, s: usize| -> Result<(), CommError> {
        let mut blk = req.wait()?;
        if tagged {
            if let Err(what) = pop_sentinel(&mut blk, p_j, s + 1, s) {
                // Under ABFT the mismatch rides the collective checksum
                // verdict (every rank agrees on the abort); without it
                // there is no verdict round, so revoke: peers fail fast
                // with `Revoked` instead of stranding mid-collective.
                if !abft {
                    fiber.revoke();
                    return Err(CommError::Corrupted {
                        rank: fiber.world_rank_of(fiber.rank()),
                        what: format!("TTM reduce-scatter slab out of sequence ({what})"),
                    });
                }
                rel = f64::INFINITY;
            }
        }
        if abft {
            rel = rel.max(pop_checksum_error(&mut blk));
        }
        if n == 1 {
            out = blk;
            return Ok(());
        }
        // Slab `s`'s reduced piece is the `[rows, block, cols]` block at
        // its row and slab offsets in the `[left, block, right]` layout.
        let (lr, rr) = slab(s);
        let piece = [lr.len, block, rr.len];
        out.resize(left * block * right, T::ZERO);
        let at = [lr.offset, 0, rr.offset];
        copy_block(
            &blk,
            &piece,
            &[0; 3],
            &mut out,
            &[left, block, right],
            &at,
            &piece,
        );
        Ok(())
    };

    let mut pending: Option<(Request<Vec<T>>, mem::Charge)> = None;
    for s in 0..n {
        let (lr, rr) = slab(s);
        let stage = mem::Charge::try_new(mem::bytes_of::<T>(2 * lr.len * out_dim * rr.len + p_j))
            .map_err(|e| budget_error(&grid.comm, e))?;
        let partial = ttm_right_range(
            x.local(),
            mode,
            m_sub,
            trans,
            lr.offset..lr.offset + lr.len,
            rr.offset..rr.offset + rr.len,
        );
        // Owned per-destination blocks, moved into the fabric: no
        // contiguous staging buffer.
        let blocks: Vec<Vec<T>> = (0..p_j)
            .map(|q| {
                let mut chunk = Vec::with_capacity(shape.chunk_len(q, lr.len, rr.len) + 1);
                shape.pack_chunk(&mut chunk, &partial, lr.len, rr.len, q);
                if tagged {
                    chunk.push(T::from_f64((s + 1) as f64));
                }
                chunk
            })
            .collect();
        if let Some((req, _held)) = pending.take() {
            absorb(req, s - 1)?;
        }
        pending = Some((fiber.ireduce_scatter_blocks(blocks, sum_op), stage));
    }
    let (req, _held) = pending.expect("at least one slab");
    absorb(req, n - 1)?;
    Ok((out, rel))
}

/// Fallible distributed multi-TTM with every factor transposed, skipping
/// `skip_mode` (Alg. 2 line 5), applying modes in increasing order.
pub fn try_dist_multi_ttm_all_but<T: Scalar>(
    grid: &CartGrid,
    x: &DistTensor<T>,
    factors: &[Matrix<T>],
    skip_mode: usize,
) -> Result<DistTensor<T>, CommError> {
    let mut cur: Option<DistTensor<T>> = None;
    for (k, u) in factors.iter().enumerate() {
        if k == skip_mode {
            continue;
        }
        let next = match &cur {
            None => try_dist_ttm(grid, x, k, u, Transpose::Yes)?,
            Some(t) => try_dist_ttm(grid, t, k, u, Transpose::Yes)?,
        };
        cur = Some(next);
    }
    Ok(cur.unwrap_or_else(|| x.clone()))
}

/// Fallible distributed Gram of the mode-`mode` unfolding: returns the
/// replicated `n_mode × n_mode` matrix `X_(mode) X_(mode)ᵀ` on every rank.
/// Collective.
pub fn try_dist_gram<T: Scalar>(
    grid: &CartGrid,
    x: &DistTensor<T>,
    mode: usize,
) -> Result<Matrix<T>, CommError> {
    gram_impl(grid, x, mode, AbftMode::Off)
}

/// Checksum-augmented variant of [`try_dist_gram`]: when `abft` is
/// enabled, (a) every redistribution message carries a scalar total
/// verified on receipt, and (b) a column-sum checksum row is appended
/// to the local Gram contribution and rides through the allreduce —
/// linearity means the reduced checksum row must equal the column sums
/// of the reduced matrix. Mismatch surfaces as
/// [`CommError::SilentCorruption`] with the observed relative error.
pub fn try_dist_gram_checked<T: Scalar>(
    grid: &CartGrid,
    x: &DistTensor<T>,
    mode: usize,
    abft: AbftMode,
) -> Result<Matrix<T>, CommError> {
    gram_impl(grid, x, mode, abft)
}

fn gram_impl<T: Scalar>(
    grid: &CartGrid,
    x: &DistTensor<T>,
    mode: usize,
    abft: AbftMode,
) -> Result<Matrix<T>, CommError> {
    let _span = ratucker_obs::span_mode(&grid.comm, "Gram", mode);
    let _mem = mem::with_phase(MemPhase::Gram);
    if !x.local().all_finite() {
        return Err(CommError::Corrupted {
            rank: grid.comm.rank(),
            what: format!("non-finite entry in local tensor block entering Gram (mode {mode})"),
        });
    }
    let n_j = x.global_shape().dim(mode);
    let fiber = grid.mode_comm(mode);
    let p_j = fiber.size();

    // Worst relative checksum error seen on the redistribution leg;
    // folded into the kernel's single end-of-kernel verdict.
    let mut a2a_rel = 0.0f64;
    let mut g_partial = Matrix::try_zeros(n_j, n_j).map_err(|e| budget_error(&grid.comm, e))?;
    if p_j == 1 {
        // Mode fully local: straight local Gram.
        ratucker_tensor::gram::gram_accumulate(x.local(), mode, &mut g_partial);
    } else {
        // Redistribute to a 1D column layout within the fiber: all fiber
        // members hold the same global columns (identical non-mode
        // coordinates) with distinct row blocks; each takes full rows of a
        // 1/P_j share of those columns.
        let local = x.local();
        let nj_loc = local.dim(mode);
        let left = local.shape().left(mode);
        let right = local.shape().right(mode);
        let total_cols = left * right;

        // Pack column fibers destined to each fiber rank. The staging
        // total (one copy of the local block) is charged up front so a
        // budgeted rank refuses typed instead of aborting on OOM.
        let _stage = mem::Charge::try_new(mem::bytes_of::<T>(nj_loc * total_cols))
            .map_err(|e| budget_error(&grid.comm, e))?;
        let mut blocks: Vec<Vec<T>> = Vec::with_capacity(p_j);
        for q in 0..p_j {
            let cr = block_range(total_cols, p_j, q);
            let mut buf = Vec::with_capacity(cr.len * nj_loc);
            for c in cr.offset..cr.offset + cr.len {
                let l = c % left;
                let r = c / left;
                let base = l + r * left * nj_loc;
                for i in 0..nj_loc {
                    buf.push(local.data()[base + i * left]);
                }
            }
            blocks.push(buf);
        }
        let received = if abft.is_enabled() {
            let (received, rel) = try_alltoallv_checked(fiber, blocks)?;
            a2a_rel = rel;
            received
        } else {
            fiber.try_alltoallv(blocks)?
        };

        // Validate the received block sizes before assembling anything.
        let my_cols = block_range(total_cols, p_j, fiber.rank()).len;
        for (s, block) in received.iter().enumerate() {
            let rows_s = x.dist().range(mode, s);
            if block.len() != rows_s.len * my_cols {
                // Channel desync from a dropped message: typed and
                // failure-class rather than an untyped panic.
                return Err(CommError::SizeMismatch {
                    src: fiber.world_rank_of(s),
                    dst: fiber.world_rank_of(fiber.rank()),
                    expected: rows_s.len * my_cols,
                    got: block.len(),
                });
            }
        }

        // Assemble my column share with full rows (A is n_j × my_cols)
        // and apply the symmetric rank-k update G += A Aᵀ. On rung ≥ 2
        // the unfolding is *streamed*: A is assembled and consumed in
        // contiguous ascending column batches of 1/8 of the share, so
        // the scratch shrinks 8× — and because `syrk_nt` (k-blocked
        // narrow panels, single- or multithreaded) accumulates each
        // G[i,j] by the same strictly-ascending-k chain with an exact
        // store/load between batches (symmetrization is an overwrite
        // copy), the batched result is bit-identical to the monolithic
        // one at ANY batch boundaries — the DESIGN.md §16 contract,
        // regression-tested by
        // `syrk_nt_k_batched_accumulation_is_bit_identical` in
        // crates/tensor.
        let batch_cols = if mem::rung() >= 2 {
            my_cols.div_ceil(8).max(1)
        } else {
            my_cols.max(1)
        };
        let mut c0 = 0;
        while c0 < my_cols {
            let cols_now = batch_cols.min(my_cols - c0);
            let mut a =
                Matrix::try_zeros(n_j, cols_now).map_err(|e| budget_error(&grid.comm, e))?;
            for (s, block) in received.iter().enumerate() {
                let rows_s = x.dist().range(mode, s);
                for c in 0..cols_now {
                    let col = a.col_mut(c);
                    col[rows_s.offset..rows_s.offset + rows_s.len]
                        .copy_from_slice(&block[(c0 + c) * rows_s.len..(c0 + c + 1) * rows_s.len]);
                }
            }
            ratucker_tensor::kernels::syrk_nt(
                n_j,
                cols_now,
                a.as_slice(),
                n_j,
                g_partial.as_mut_slice(),
                n_j,
            );
            c0 += cols_now;
        }
    }

    // Sum contributions across the whole grid; result replicated. Under
    // ABFT, append a column-sum checksum row: it is a linear function of
    // the payload, so summing it across ranks yields the column sums of
    // the summed matrix — any finite corruption of the allreduce traffic
    // breaks the equality.
    let mut payload = g_partial.into_vec();
    if abft.is_enabled() {
        for j in 0..n_j {
            let col = &payload[j * n_j..(j + 1) * n_j];
            payload.push(T::from_f64(sum_f64(col)));
        }
    }
    let summed = grid.comm.try_allreduce(payload, sum_op)?;
    if abft.is_enabled() {
        // Fold the non-finite screen and the redistribution-leg error
        // into one relative error, then agree on a grid-wide verdict so
        // every rank aborts — or retries — together.
        let mut rel_err = a2a_rel;
        if !all_finite(&summed) {
            rel_err = f64::INFINITY;
        } else {
            for j in 0..n_j {
                let col = &summed[j * n_j..(j + 1) * n_j];
                let cs = summed[n_j * n_j + j].to_f64();
                let s = sum_f64(col);
                let e = (s - cs).abs() / (abs_sum_f64(col) + cs.abs() + f64::MIN_POSITIVE);
                rel_err = rel_err.max(e);
            }
        }
        abft_verdict::<T>(grid, mode, rel_err)?;
    } else if !all_finite(&summed) {
        return Err(CommError::Corrupted {
            rank: grid.comm.rank(),
            what: format!(
                "non-finite entry in allreduced Gram matrix (mode {mode}); \
                 a peer contributed a corrupted partial sum"
            ),
        });
    }
    Ok(Matrix::from_vec(n_j, n_j, summed[..n_j * n_j].to_vec()))
}

/// Fallible distributed all-but-one contraction (the new §3.4 kernel):
/// `Z = Y_(mode) G_(mode)ᵀ` with `core` the *replicated* current core
/// tensor. Cuts this rank's block out of `core` (its own ranges of the
/// other modes, all of `mode`) and runs the same contraction as
/// [`try_dist_contract_fiber`], bit for bit. Returns the replicated
/// `n_mode × r_mode` iterate. Collective.
pub fn try_dist_contract<T: Scalar>(
    grid: &CartGrid,
    y: &DistTensor<T>,
    core: &DenseTensor<T>,
    mode: usize,
) -> Result<Matrix<T>, CommError> {
    let d = y.global_shape().order();
    assert_eq!(core.order(), d);
    for k in (0..d).filter(|&k| k != mode) {
        assert_eq!(
            y.global_shape().dim(k),
            core.dim(k),
            "core/global dim mismatch in mode {k}"
        );
    }
    let (mut offsets, mut lens) = y.dist().block_of(y.coords());
    offsets[mode] = 0;
    lens[mode] = core.dim(mode);
    let mut data = Vec::new();
    append_block(core.data(), core.shape().dims(), &offsets, &lens, &mut data);
    let block = DenseTensor::from_vec(Shape::new(&lens), data);
    contract_impl(grid, y, &block, mode)
}

/// Fallible distributed all-but-one contraction against the
/// *distributed* core `core = Y ×_mode Uᵀ`, laid out like `y` with
/// `r_mode` in place of `n_mode`: no rank holds the whole core. When
/// `mode` is not split (`P_mode = 1`) this rank's core block already
/// spans all of `mode` and is used as it is; otherwise the blocks are
/// allgathered along the mode's fiber, `r^d/P · (P_mode − 1)` words per
/// rank, under their own `SI` span. Returns the replicated
/// `n_mode × r_mode` iterate. Collective.
pub fn try_dist_contract_fiber<T: Scalar>(
    grid: &CartGrid,
    y: &DistTensor<T>,
    core: &DistTensor<T>,
    mode: usize,
) -> Result<Matrix<T>, CommError> {
    let block = core_fiber_block(grid, core, mode)?;
    contract_impl(grid, y, &block, mode)
}

/// This rank's block of the distributed `core` widened to all of
/// `mode`: borrowed when the mode is not split, else the fiber's
/// allgather.
fn core_fiber_block<'a, T: Scalar>(
    grid: &CartGrid,
    core: &'a DistTensor<T>,
    mode: usize,
) -> Result<Cow<'a, DenseTensor<T>>, CommError> {
    if grid.mode_comm(mode).size() == 1 {
        return Ok(Cow::Borrowed(core.local()));
    }
    let _span = ratucker_obs::span_mode(&grid.comm, "SI", mode);
    core.try_gather_fiber(grid, mode).map(Cow::Owned)
}

/// The contraction behind [`try_dist_contract`] and
/// [`try_dist_contract_fiber`], against `core`, this rank's core block
/// over all of `mode` (its other extents are `y`'s local ones): `y`'s
/// local block contracted against it, embedded at this rank's rows,
/// then one sum-reduce + broadcast of the `n_mode × r_mode` iterate.
fn contract_impl<T: Scalar>(
    grid: &CartGrid,
    y: &DistTensor<T>,
    core: &DenseTensor<T>,
    mode: usize,
) -> Result<Matrix<T>, CommError> {
    let _span = ratucker_obs::span_mode(&grid.comm, "SI", mode);
    let n_j = y.global_shape().dim(mode);
    let r_j = core.dim(mode);
    let my_rows = y.dist().range(mode, grid.coord(mode));
    let z = ratucker_tensor::contract::contract_all_but(y.local(), core, mode);
    let mut embedded = Matrix::zeros(n_j, r_j);
    for c in 0..r_j {
        embedded.col_mut(c)[my_rows.offset..my_rows.offset + my_rows.len].copy_from_slice(z.col(c));
    }
    let summed = grid.comm.try_allreduce(embedded.into_vec(), sum_op)?;
    Ok(Matrix::from_vec(n_j, r_j, summed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use ratucker_mpi::Universe;

    fn global_value(idx: &[usize]) -> f64 {
        idx.iter()
            .enumerate()
            .map(|(k, &i)| ((k + 2) * (i + 1)) as f64 * 0.31)
            .sum::<f64>()
            .sin()
    }

    fn factor(n: usize, r: usize, seed: usize) -> Matrix<f64> {
        Matrix::from_fn(n, r, |i, j| {
            (((seed + 1) * (i + 2 * j + 1)) as f64 * 0.17).cos()
        })
    }

    #[test]
    fn dist_ttm_matches_sequential_all_modes_and_grids() {
        let dims = [6, 5, 4];
        let x_ref = DenseTensor::from_fn(dims, global_value);
        for grid_dims in [
            vec![1, 1, 1],
            vec![2, 1, 1],
            vec![1, 1, 2],
            vec![2, 1, 2],
            vec![3, 1, 2],
        ] {
            let p: usize = grid_dims.iter().product();
            for mode in 0..3 {
                let u = factor(dims[mode], 3, mode);
                let want = ttm(&x_ref, mode, &u, Transpose::Yes);
                let gd = grid_dims.clone();
                let uu = u.clone();
                let results = Universe::launch(p, move |c| {
                    let grid = CartGrid::new(c, &gd);
                    let x = DistTensor::from_fn(&grid, Shape::new(&dims), global_value);
                    let y = try_dist_ttm(&grid, &x, mode, &uu, Transpose::Yes).unwrap();
                    y.try_gather_replicated(&grid).unwrap()
                });
                for got in results {
                    assert!(
                        got.max_abs_diff(&want) < 1e-11,
                        "grid {grid_dims:?} mode {mode}"
                    );
                }
            }
        }
    }

    #[test]
    fn dist_ttm_distributed_output_mode_is_split() {
        // Grid splits the mode being multiplied: out_dim 4 over P_1 = 2.
        let dims = [6, 6];
        let results = Universe::launch(4, |c| {
            let grid = CartGrid::new(c, &[2, 2]);
            let x = DistTensor::from_fn(&grid, Shape::new(&dims), global_value);
            let u = factor(6, 4, 9);
            let y = try_dist_ttm(&grid, &x, 0, &u, Transpose::Yes).unwrap();
            (
                y.local().shape().dims().to_vec(),
                y.try_gather_replicated(&grid).unwrap(),
            )
        });
        let x_ref = DenseTensor::from_fn(dims, global_value);
        let want = ttm(&x_ref, 0, &factor(6, 4, 9), Transpose::Yes);
        for (local_dims, got) in results {
            assert_eq!(local_dims, vec![2, 3]);
            assert!(got.max_abs_diff(&want) < 1e-11);
        }
    }

    #[test]
    fn dist_ttm_untransposed() {
        let dims = [5, 4];
        let x_ref = DenseTensor::from_fn(dims, global_value);
        let m = factor(4, 5, 3).transpose(); // 5x4? transpose gives 5 rows? factor(4,5) is 4x5; transpose 5x4... we need out x n_j for mode 1: n_1 = 4.
        let want = ttm(&x_ref, 1, &m, Transpose::No);
        let mm = m.clone();
        let results = Universe::launch(2, move |c| {
            let grid = CartGrid::new(c, &[1, 2]);
            let x = DistTensor::from_fn(&grid, Shape::new(&dims), global_value);
            try_dist_ttm(&grid, &x, 1, &mm, Transpose::No)
                .unwrap()
                .try_gather_replicated(&grid)
                .unwrap()
        });
        for got in results {
            assert!(got.max_abs_diff(&want) < 1e-11);
        }
    }

    #[test]
    fn dist_multi_ttm_matches_sequential() {
        let dims = [5, 4, 6];
        let x_ref = DenseTensor::from_fn(dims, global_value);
        let factors: Vec<Matrix<f64>> = (0..3).map(|k| factor(dims[k], 2, k)).collect();
        for skip in 0..3 {
            let want = ratucker_tensor::ttm::multi_ttm_all_but(&x_ref, &factors, skip);
            let fs = factors.clone();
            let results = Universe::launch(4, move |c| {
                let grid = CartGrid::new(c, &[2, 1, 2]);
                let x = DistTensor::from_fn(&grid, Shape::new(&dims), global_value);
                try_dist_multi_ttm_all_but(&grid, &x, &fs, skip)
                    .unwrap()
                    .try_gather_replicated(&grid)
                    .unwrap()
            });
            for got in results {
                assert!(got.max_abs_diff(&want) < 1e-11, "skip {skip}");
            }
        }
    }

    #[test]
    fn dist_gram_matches_sequential_all_modes_and_grids() {
        let dims = [6, 5, 4];
        let x_ref = DenseTensor::from_fn(dims, global_value);
        for grid_dims in [
            vec![1, 1, 1],
            vec![2, 1, 1],
            vec![1, 2, 2],
            vec![2, 1, 2],
            vec![2, 2, 2],
        ] {
            let p: usize = grid_dims.iter().product();
            for mode in 0..3 {
                let want = ratucker_tensor::gram::gram(&x_ref, mode);
                let gd = grid_dims.clone();
                let results = Universe::launch(p, move |c| {
                    let grid = CartGrid::new(c, &gd);
                    let x = DistTensor::from_fn(&grid, Shape::new(&dims), global_value);
                    try_dist_gram(&grid, &x, mode).unwrap()
                });
                for got in results {
                    assert!(
                        got.max_abs_diff(&want) < 1e-10,
                        "grid {grid_dims:?} mode {mode}"
                    );
                }
            }
        }
    }

    #[test]
    fn nan_input_block_is_a_corrupted_error() {
        // Single rank: the screen fires before any communication.
        let dims = [4, 3];
        let results = Universe::launch(1, move |c| {
            let grid = CartGrid::new(c, &[1, 1]);
            let x = DistTensor::from_fn(&grid, Shape::new(&dims), |idx| {
                if idx == [1, 2] {
                    f64::NAN
                } else {
                    global_value(idx)
                }
            });
            let u = factor(4, 2, 0);
            let ttm_err = try_dist_ttm(&grid, &x, 0, &u, Transpose::Yes).unwrap_err();
            let gram_err = try_dist_gram(&grid, &x, 0).unwrap_err();
            (ttm_err, gram_err)
        });
        for (ttm_err, gram_err) in results {
            assert!(matches!(ttm_err, CommError::Corrupted { .. }), "{ttm_err}");
            assert!(ttm_err.to_string().contains("detected corrupted data"));
            assert!(
                matches!(gram_err, CommError::Corrupted { .. }),
                "{gram_err}"
            );
        }
    }

    #[test]
    fn nan_operand_matrix_is_a_corrupted_error_on_every_rank() {
        // Replicated operand: every rank screens it out before the
        // collective starts, so no rank is left hanging in a reduce.
        let dims = [6, 4];
        let results = Universe::launch(2, move |c| {
            let grid = CartGrid::new(c, &[2, 1]);
            let x = DistTensor::from_fn(&grid, Shape::new(&dims), global_value);
            let mut u = factor(6, 3, 1);
            u[(2, 1)] = f64::INFINITY;
            try_dist_ttm(&grid, &x, 0, &u, Transpose::Yes).unwrap_err()
        });
        for err in results {
            assert!(matches!(err, CommError::Corrupted { .. }), "{err}");
            assert!(err.to_string().contains("operand matrix"));
        }
    }

    #[test]
    fn corrupted_collective_payload_is_detected() {
        // A fault plan NaN-injects every message; the post-allreduce
        // screen in the Gram kernel must catch the poisoned sum.
        use ratucker_mpi::{CorruptMode, FaultPlan};
        let dims = [6, 4];
        let plan = FaultPlan::quiet(11).with_corruption(1.0, CorruptMode::NanInject);
        let results = Universe::try_launch(2, plan, move |c| {
            let grid = CartGrid::new(c, &[2, 1]);
            let x = DistTensor::from_fn(&grid, Shape::new(&dims), global_value);
            try_dist_gram(&grid, &x, 0)
        });
        for r in results {
            let err = r
                .expect("screen returns an error, not a panic")
                .unwrap_err();
            assert!(matches!(err, CommError::Corrupted { .. }), "{err}");
        }
    }

    #[test]
    fn checked_kernels_match_unchecked_when_clean() {
        // With no faults, ABFT must be invisible: identical results,
        // no spurious SilentCorruption from accumulation roundoff.
        let dims = [6, 5, 4];
        for mode in 0..3 {
            let results = Universe::launch(8, move |c| {
                let grid = CartGrid::new(c, &[2, 2, 2]);
                let x = DistTensor::from_fn(&grid, Shape::new(&dims), global_value);
                let g0 = try_dist_gram(&grid, &x, mode).unwrap();
                let g1 = try_dist_gram_checked(&grid, &x, mode, AbftMode::Detect).unwrap();
                let u = factor(dims[mode], 3, mode);
                let y0 = try_dist_ttm(&grid, &x, mode, &u, Transpose::Yes).unwrap();
                let y1 =
                    try_dist_ttm_checked(&grid, &x, mode, &u, Transpose::Yes, AbftMode::Detect)
                        .unwrap();
                (g0.max_abs_diff(&g1), y0.local().max_abs_diff(y1.local()))
            });
            for (dg, dy) in results {
                assert_eq!(dg, 0.0, "mode {mode}: gram checksum must not alter result");
                assert_eq!(dy, 0.0, "mode {mode}: ttm checksum must not alter result");
            }
        }
    }

    #[test]
    fn finite_corruption_is_invisible_to_unchecked_gram() {
        // The satellite claim: an exponent flip is FINITE, so the NaN
        // screens pass it through and the unchecked kernel silently
        // returns a wrong matrix.
        use ratucker_mpi::{CorruptMode, FaultPlan};
        let dims = [6, 4];
        let plan = FaultPlan::quiet(23).with_corruption(1.0, CorruptMode::ExponentFlip);
        let clean = Universe::launch(2, move |c| {
            let grid = CartGrid::new(c, &[2, 1]);
            let x = DistTensor::from_fn(&grid, Shape::new(&dims), global_value);
            try_dist_gram(&grid, &x, 0).unwrap()
        });
        let poisoned = Universe::try_launch(2, plan, move |c| {
            let grid = CartGrid::new(c, &[2, 1]);
            let x = DistTensor::from_fn(&grid, Shape::new(&dims), global_value);
            try_dist_gram(&grid, &x, 0)
        });
        for (r, want) in poisoned.into_iter().zip(clean) {
            let got = r.unwrap().expect("NaN screens miss finite corruption");
            assert!(
                got.max_abs_diff(&want) > 0.0,
                "corruption must actually have changed the result"
            );
        }
    }

    #[test]
    fn finite_corruption_is_flagged_by_checked_gram() {
        use ratucker_mpi::{CorruptMode, FaultPlan};
        let dims = [6, 4];
        let plan = FaultPlan::quiet(23).with_corruption(1.0, CorruptMode::ExponentFlip);
        let results = Universe::try_launch(2, plan, move |c| {
            let grid = CartGrid::new(c, &[2, 1]);
            let x = DistTensor::from_fn(&grid, Shape::new(&dims), global_value);
            try_dist_gram_checked(&grid, &x, 0, AbftMode::Detect)
        });
        for r in results {
            let err = r.unwrap().unwrap_err();
            match err {
                CommError::SilentCorruption { mode: 0, rel_err } => {
                    assert!(rel_err > abft_tol::<f64>(), "rel_err {rel_err}");
                }
                other => panic!("expected SilentCorruption, got {other}"),
            }
            assert!(err.to_string().contains("silent data corruption"));
        }
    }

    #[test]
    fn finite_corruption_is_flagged_by_checked_ttm() {
        use ratucker_mpi::{CorruptMode, FaultPlan};
        let dims = [6, 4];
        // Grid splits mode 0 so the TTM runs a real reduce-scatter.
        let plan = FaultPlan::quiet(31).with_corruption(1.0, CorruptMode::ExponentFlip);
        let results = Universe::try_launch(2, plan, move |c| {
            let grid = CartGrid::new(c, &[2, 1]);
            let x = DistTensor::from_fn(&grid, Shape::new(&dims), global_value);
            let u = factor(6, 3, 5);
            try_dist_ttm_checked(&grid, &x, 0, &u, Transpose::Yes, AbftMode::Detect)
        });
        for r in results {
            match r.unwrap().unwrap_err() {
                CommError::SilentCorruption { mode: 0, .. } => {}
                other => panic!("expected SilentCorruption, got {other}"),
            }
        }
    }

    #[test]
    fn abft_mode_parses_cli_values() {
        assert_eq!(AbftMode::parse("off"), Some(AbftMode::Off));
        assert_eq!(AbftMode::parse("Detect"), Some(AbftMode::Detect));
        assert_eq!(AbftMode::parse(" recover "), Some(AbftMode::Recover));
        assert_eq!(AbftMode::parse("on"), None);
        assert!(!AbftMode::Off.is_enabled());
        assert!(AbftMode::Recover.is_enabled());
    }

    #[test]
    fn dist_contract_matches_sequential() {
        let dims = [6, 5, 4];
        let y_ref = DenseTensor::from_fn(dims, global_value);
        for mode in 0..3 {
            let mut core_dims = dims;
            core_dims[mode] = 2;
            let core = DenseTensor::from_fn(core_dims, |idx| global_value(idx).cos());
            let want = ratucker_tensor::contract::contract_all_but(&y_ref, &core, mode);
            let cc = core.clone();
            for grid_dims in [vec![1, 1, 1], vec![2, 2, 1], vec![2, 1, 2]] {
                let p: usize = grid_dims.iter().product();
                let gd = grid_dims.clone();
                let core2 = cc.clone();
                let results = Universe::launch(p, move |c| {
                    let grid = CartGrid::new(c, &gd);
                    let y = DistTensor::from_fn(&grid, Shape::new(&dims), global_value);
                    try_dist_contract(&grid, &y, &core2, mode).unwrap()
                });
                for got in results {
                    assert!(
                        got.max_abs_diff(&want) < 1e-10,
                        "grid {grid_dims:?} mode {mode}"
                    );
                }
            }
        }
    }

    fn bits_of(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The replicated-core contraction the SI step ran before it used
    /// each rank's own core block: the block cut from the gathered core
    /// at this rank's global offsets, contracted, embedded at this
    /// rank's rows and allreduced.
    fn replicated_core_contraction(
        grid: &CartGrid,
        y: &DistTensor<f64>,
        repl: &DenseTensor<f64>,
        mode: usize,
    ) -> Vec<u64> {
        let (n_j, r_j) = (y.global_shape().dim(mode), repl.dim(mode));
        let (mut offsets, mut lens) = y.dist().block_of(y.coords());
        let rows = y.dist().range(mode, grid.coord(mode));
        offsets[mode] = 0;
        lens[mode] = r_j;
        let mut data = Vec::new();
        append_block(repl.data(), repl.shape().dims(), &offsets, &lens, &mut data);
        let g = DenseTensor::from_vec(Shape::new(&lens), data);
        let z = ratucker_tensor::contract::contract_all_but(y.local(), &g, mode);
        let mut embedded = Matrix::zeros(n_j, r_j);
        for c in 0..r_j {
            embedded.col_mut(c)[rows.offset..rows.offset + rows.len].copy_from_slice(z.col(c));
        }
        bits_of(
            &grid
                .comm
                .try_allreduce(embedded.into_vec(), sum_op)
                .unwrap(),
        )
    }

    /// The SI contraction against each rank's own core block (mode not
    /// split) or its fiber-gathered one (mode split) is bitwise the
    /// replicated-core contraction, through both public entry points,
    /// at degradation rungs 0 and 1, on grids that split the first, a
    /// middle and the last mode.
    #[test]
    fn si_contraction_on_the_fiber_block_is_bitwise_the_replicated_core_path() {
        let dims = [6, 5, 4];
        for grid_dims in [vec![1, 1, 2], vec![2, 1, 1], vec![1, 2, 2], vec![2, 2, 2]] {
            let p: usize = grid_dims.iter().product();
            let gd = grid_dims.clone();
            let out = Universe::launch(p, move |c| {
                let grid = CartGrid::new(c, &gd);
                let y = DistTensor::from_fn(&grid, Shape::new(&dims), global_value);
                let mut mismatches = Vec::new();
                for rung in [0u8, 1] {
                    mem::set_rung(rung);
                    for (mode, &n) in dims.iter().enumerate() {
                        let u = factor(n, 3, mode);
                        let core = try_dist_ttm(&grid, &y, mode, &u, Transpose::Yes).unwrap();
                        let repl = core.try_gather_replicated(&grid).unwrap();
                        let want = replicated_core_contraction(&grid, &y, &repl, mode);
                        let fiber = try_dist_contract_fiber(&grid, &y, &core, mode).unwrap();
                        let replicated = try_dist_contract(&grid, &y, &repl, mode).unwrap();
                        for (entry, z) in [("fiber", fiber), ("replicated", replicated)] {
                            if bits_of(z.as_slice()) != want {
                                mismatches.push(format!("rung {rung} mode {mode} {entry} entry"));
                            }
                        }
                    }
                }
                mem::set_rung(0);
                mismatches
            });
            for (rank, mismatches) in out.iter().enumerate() {
                assert!(
                    mismatches.is_empty(),
                    "grid {grid_dims:?} rank {rank}: {mismatches:?}"
                );
            }
        }
    }

    /// At degradation rung 0 each distributed kernel call is one
    /// collective: on a `[1, 2, 1]` grid a TTM along the split middle
    /// mode (`right = 5`) sends each rank one reduce-scatter message of
    /// the peer's chunk alone (no sequence sentinel), and an SI step
    /// sends one allreduce message of the whole `n_j × r_j` iterate. At
    /// rung 1 the same TTM sends `2·P_j` slabs.
    #[test]
    fn rung_zero_kernels_post_one_collective() {
        use ratucker_mpi::CollectiveKind::{Allreduce, ReduceScatter};
        let dims = [4, 6, 5];
        let out = Universe::launch(2, move |c| {
            let grid = CartGrid::new(c, &[1, 2, 1]);
            let y = DistTensor::from_fn(&grid, Shape::new(&dims), global_value);
            let u = factor(6, 4, 1);
            let mut counts = Vec::new();
            for rung in [0u8, 1] {
                mem::set_rung(rung);
                let scope = grid.comm.traffic_scope();
                try_dist_ttm(&grid, &y, 1, &u, Transpose::Yes).unwrap();
                let ttm = scope.delta();
                let mut si = Vec::new();
                for mode in [0, 1] {
                    let core = try_dist_ttm(
                        &grid,
                        &y,
                        mode,
                        &factor(dims[mode], 2, mode),
                        Transpose::Yes,
                    )
                    .unwrap();
                    let scope = grid.comm.traffic_scope();
                    try_dist_contract_fiber(&grid, &y, &core, mode).unwrap();
                    let d = scope.delta();
                    si.push((d.messages_of(Allreduce), d.bytes_of(Allreduce)));
                }
                counts.push((
                    ttm.messages_of(ReduceScatter),
                    ttm.bytes_of(ReduceScatter),
                    si,
                ));
            }
            mem::set_rung(0);
            counts
        });
        // The peer's chunk: left 4 × block 2 × right 5 entries.
        let chunk = 4 * 2 * 5 * 8;
        for (rank, counts) in out.iter().enumerate() {
            let (msgs, bytes, si) = &counts[0];
            assert_eq!((*msgs, *bytes), (1, chunk), "rank {rank}: rung-0 TTM");
            for (mode, &(msgs, bytes)) in si.iter().enumerate() {
                let iterate = (dims[mode] * 2 * 8) as u64;
                assert_eq!(
                    (msgs, bytes),
                    (1, iterate),
                    "rank {rank}: rung-0 SI mode {mode}"
                );
            }
            assert_eq!(counts[1].0, 4, "rank {rank}: rung-1 TTM slabs");
        }
    }

    /// A d-way problem whose mode `mode`, of extent 12, spans the whole
    /// grid, and a 12 × 8 TTM operand.
    fn spanning_problem(
        c: Comm,
        d: usize,
        mode: usize,
        seed: u64,
    ) -> (CartGrid, DistTensor<f64>, Matrix<f64>) {
        let p = c.size();
        let mut dims: Vec<usize> = if d == 3 {
            vec![8, 10, 10]
        } else {
            vec![6, 5, 5, 4]
        };
        dims[mode] = 12;
        let mut grid_dims = vec![1; d];
        grid_dims[mode] = p;
        let grid = CartGrid::new(c, &grid_dims);
        let x = DistTensor::from_fn(&grid, Shape::new(&dims), |idx| {
            global_value(idx) + seed as f64 * 1e-3
        });
        let m = Matrix::from_fn(12, 8, |i, j| {
            (((i * 8 + j) as f64) * 0.37 + seed as f64).sin()
        });
        (grid, x, m)
    }

    /// One rank's bits of the TTM at 1, 2 and 3 slabs (ABFT off, then
    /// `Detect`) along a mode spanning the whole grid. The middle mode
    /// cuts only right-slabs; the last mode (`right = 1`) cuts
    /// left-slabs.
    fn slab_variants(c: Comm, d: usize, mode: usize, seed: u64) -> Vec<Vec<u64>> {
        let (grid, x, m) = spanning_problem(c, d, mode, seed);
        let mut ttms = Vec::new();
        for abft in [AbftMode::Off, AbftMode::Detect] {
            for n_slabs in 1..=3 {
                let y = ttm_impl(&grid, &x, mode, &m, Transpose::Yes, abft, Some(n_slabs)).unwrap();
                ttms.push(bits_of(y.local().data()));
            }
        }
        ttms
    }

    /// Degradation rung 1 runs the same slab loop as rung 0 at more
    /// slabs, so it is bitwise rung 0 on fibers of every size, with the
    /// distributed mode in the middle (right-slabs) and last
    /// (left-slabs), ABFT off and `Detect`.
    #[test]
    fn rung_one_ttm_is_bitwise_rung_zero_on_every_fiber() {
        for d in [3usize, 4] {
            for mode in [1, d - 1] {
                for p in [2usize, 3, 4, 8] {
                    let out = Universe::launch(p, move |c| {
                        let (grid, x, m) = spanning_problem(c, d, mode, 7);
                        [AbftMode::Off, AbftMode::Detect].map(|abft| {
                            [0u8, 1].map(|rung| {
                                mem::set_rung(rung);
                                let y =
                                    try_dist_ttm_checked(&grid, &x, mode, &m, Transpose::Yes, abft)
                                        .unwrap();
                                bits_of(y.local().data())
                            })
                        })
                    });
                    for (rank, runs) in out.iter().enumerate() {
                        for [rung0, rung1] in runs {
                            assert_eq!(rung1, rung0, "rank {rank} d={d} mode={mode} P_j={p}");
                        }
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// The slab count never shows in the results: every TTM variant
        /// is bitwise equal, for d ∈ {3, 4}, P ∈ {2, 4, 8} and the
        /// middle and last modes distributed.
        #[test]
        fn slab_count_is_bitwise_invisible(seed in 0u64..1_000) {
            for d in [3usize, 4] {
                for mode in [1, d - 1] {
                    for p in [2usize, 4, 8] {
                        let out = Universe::launch(p, move |c| slab_variants(c, d, mode, seed));
                        for (rank, ttms) in out.iter().enumerate() {
                            for (k, t) in ttms.iter().enumerate() {
                                prop_assert_eq!(t, &ttms[0], "TTM variant {} rank {} d={} P={}", k, rank, d, p);
                            }
                        }
                    }
                }
            }
        }
    }
}
