//! Low-level dense multiply kernels (the workspace's "BLAS").
//!
//! All kernels operate on column-major buffers with explicit leading
//! dimensions so the tensor slab views in [`crate::ttm`] and
//! [`crate::gram`] can be multiplied in place without copies. Every kernel
//! *accumulates* into `C` (callers zero the output first when needed) and
//! reports its flops to [`crate::flops`] (formula-based counts — see the
//! convention documented there).
//!
//! # Architecture (DESIGN.md §16)
//!
//! The GEMM variants share one BLIS-style packed path: operand panels are
//! copied into contiguous cache-blocked buffers (`MC`×`KC` micropanels of
//! A in MR-row strips, `KC`×`NC` micropanels of B in NR-column strips,
//! zero-padded at the edges), and an `MR`×`NR` register-tile microkernel
//! walks the packed panels in an autovectorization-friendly inner loop.
//! Packing makes the inner loop layout-independent, so the transposed
//! variants (`gemm_tn`/`gemm_nt`) and non-unit leading dimensions cost
//! only a different pack gather, and odd `m`/`n`/`k` are handled by
//! padded edge tiles whose out-of-range lanes are computed (on zeros) but
//! never stored. Tiny products (`2mnk <` [`PACK_MIN_FLOPS`]) skip the
//! packing overhead and run an unblocked loop instead. We avoid
//! `mul_add` because without `-C target-feature=+fma` it lowers to a
//! libm call and destroys throughput.
//!
//! # The narrow paths (the TTM's r-wide side and the SYRK panels)
//!
//! A Tucker TTM multiplies a large tensor slab by a factor with only
//! `r ≤ 16` columns. Packing there copies the large operand once per
//! call, about as much memory traffic as the multiply itself, and pads
//! `r` up to a multiple of `NR`. So two shapes skip packing, chosen by
//! shape alone:
//!
//! - `C += A·op(B)`, A not transposed, `n ≤` [`NARROW_MAX_N`]:
//!   [`gemm_narrow`] reads A in place, one contiguous run of an A
//!   column per depth step, and keeps a `rows × n` tile of C in
//!   registers for all of `k`. With B as is, this is every middle- and
//!   last-mode TTM; with B transposed (the const `BT`, which only
//!   changes where the B scalar is read), it is a `Transpose::No` TTM
//!   slab, the mode-0 SI contraction and every `A·Aᵀ` SYRK panel;
//! - `C += Aᵀ·B`, `m ≤` [`NARROW_MAX_N`] (the mode-0 TTM):
//!   [`gemm_narrow_tn`] copies the small `Aᵀ` once and reads B in
//!   place.
//!
//! The `A·Aᵀ` SYRK ([`syrk_nt`], every Gram) runs its lower trapezoid
//! as 8-wide panels of the `BT` narrow path, with `k` cut into
//! [`KC`]-deep blocks outermost so one block of A stays in cache across
//! all the panels. `Aᵀ·A` ([`syrk_tn`]) stays packed.
//!
//! Measured on a 2-vCPU AVX-512 Xeon container (f32, GFLOP/s, best of
//! repeated calls, three runs on a shared host): the last-mode TTM
//! (m 16384, n 11, k 64) runs at 16–22 narrow against 9–17 packed, one
//! middle-mode slab batch (m 128, n 11, k 128) at 19–32 against 9–15,
//! and the mode-0 TTM (r 11, k 128, 8192 columns) at 23–35 against
//! 8–13. A square 256³ `gemm_nn` runs at about 30 packed. On one worker
//! (best of repeated calls, four runs), the mode-0 Gram of a 128 × 8192
//! f32 unfolding runs at 17–24 against 15 with packed panels, and
//! `gemm_nt` at m 128, n 11, k 8192 at 20–30 against 12–18.
//!
//! # The canonical accumulation order (bit-identity contract)
//!
//! Every path — packed, narrow, unblocked, any worker count, and any
//! split of `k` into separate accumulating calls — produces *bit-identical*
//! results, because each output element is always the same rounding
//! chain: `C[i,j] ← ((C[i,j] + A(i,0)·B(0,j)) + A(i,1)·B(1,j)) + …` in
//! ascending `k`. The microkernel loads the C tile into registers,
//! consumes `KC` blocks in ascending order, and stores back between
//! blocks; an exact f32/f64 store/load does not re-round, so the chain
//! equals the fully sequential one. Parallel execution splits *output
//! columns* (or TTM slabs) across workers, never the `k` dimension, so
//! each element's chain is computed entirely by one worker in the same
//! order regardless of [`crate::par::num_threads`]. The SYRK kernels
//! inherit the same guarantee for the lower triangle (the upper one is
//! an exact mirror copy), which is what lets [`crate::gram`] stream the
//! mode-`n` unfolding and `ratucker-dist` stream Gram updates in
//! `k`-batches at degradation rung ≥ 2, both bit-identically.

// BLAS-style (dims, buffers, leading dims) signatures, and indexed
// micro-loops kept in the shape rustc's vectorizer handles best.
#![allow(clippy::too_many_arguments)]
#![allow(clippy::needless_range_loop)]

use crate::flops;
use crate::par;
use crate::scalar::Scalar;

/// Microkernel register-tile rows (one-or-two SIMD vectors of f64/f32).
const MR: usize = 8;
/// Microkernel register-tile columns: 8 independent accumulator rows
/// (one per column) hide the vector-add latency of the per-element
/// dependency chains, measurably better than the classic 4-wide tile
/// (the chain, not issue width, is the bound — see DESIGN.md §16).
const NR: usize = 8;
/// Rows of A packed per cache block (micropanel strip height `MC`×`KC`
/// sized for L2 residency: 128·256·8 B = 256 KiB for f64).
const MC: usize = 128;
/// Depth of one packed block, and of one SYRK `k`-block and one block
/// of the streamed Gram unfolding; also the interval between exact C
/// store/loads in the accumulation chain.
pub(crate) const KC: usize = 256;
/// Columns of B packed per cache block (`KC`×`NC` ≈ 1 MiB for f64).
const NC: usize = 512;
/// Column-block width of the SYRK trapezoid sweep: small enough that the
/// redundant above-diagonal work within a diagonal block stays a few
/// percent, and within [`NARROW_MAX_N`], so an `A·Aᵀ` panel runs the
/// narrow path with a 16-row f32 (8-row f64) register tile.
const SYRK_BLOCK: usize = 8;

/// Below this many flops (`2mnk`) a product runs the unblocked loop
/// unless the narrow `A·op(B)` path takes it: packing would cost a
/// comparable number of memory moves. The threshold never changes
/// results — every path produces the canonical chain.
pub(crate) const PACK_MIN_FLOPS: u64 = 16 * 1024;

/// Panic-with-context bounds check shared by the GEMM kernels.
#[inline]
fn check_dims(len: usize, ld: usize, inner: usize, outer: usize, name: &str) {
    assert!(ld >= inner, "{name}: leading dimension {ld} < rows {inner}");
    if outer > 0 {
        assert!(
            len >= ld * (outer - 1) + inner,
            "{name}: buffer too small ({len} < {})",
            ld * (outer - 1) + inner
        );
    }
}

/// Packs the `mc`×`kc` block of A starting at (`ic`, `pc`) into MR-row
/// micropanels: panel `p` holds rows `ic + p·MR ..` stored as
/// `buf[p·kc·MR + l·MR + i]`, zero-padded past the last valid row.
/// `at == true` reads A transposed (element `(i, l)` at `a[l + i·lda]`).
fn pack_a<T: Scalar>(
    a: &[T],
    lda: usize,
    at: bool,
    ic: usize,
    mc: usize,
    pc: usize,
    kc: usize,
    buf: &mut [T],
) {
    let panels = mc.div_ceil(MR);
    for p in 0..panels {
        let i0 = ic + p * MR;
        let rows = MR.min(ic + mc - i0);
        let dst = &mut buf[p * kc * MR..(p * kc + kc) * MR];
        for l in 0..kc {
            let d = &mut dst[l * MR..(l + 1) * MR];
            if at {
                for i in 0..rows {
                    d[i] = a[(pc + l) + (i0 + i) * lda];
                }
            } else {
                let src = &a[i0 + (pc + l) * lda..];
                d[..rows].copy_from_slice(&src[..rows]);
            }
            for x in &mut d[rows..] {
                *x = T::ZERO;
            }
        }
    }
}

/// Packs the `kc`×`nc` block of B starting at (`pc`, `jc`) into NR-column
/// micropanels: panel `q` holds columns `jc + q·NR ..` stored as
/// `buf[q·kc·NR + l·NR + j]`, zero-padded past the last valid column.
/// `bt == true` reads B transposed (element `(l, j)` at `b[j + l·ldb]`).
fn pack_b<T: Scalar>(
    b: &[T],
    ldb: usize,
    bt: bool,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    buf: &mut [T],
) {
    let panels = nc.div_ceil(NR);
    for q in 0..panels {
        let j0 = jc + q * NR;
        let cols = NR.min(jc + nc - j0);
        let dst = &mut buf[q * kc * NR..(q * kc + kc) * NR];
        for l in 0..kc {
            let d = &mut dst[l * NR..(l + 1) * NR];
            for j in 0..cols {
                d[j] = if bt {
                    b[(j0 + j) + (pc + l) * ldb]
                } else {
                    b[(pc + l) + (j0 + j) * ldb]
                };
            }
            for x in &mut d[cols..] {
                *x = T::ZERO;
            }
        }
    }
}

/// The register-tile inner kernel: `acc[MR×NR] += Ap · Bp` over `kc`
/// depth steps in ascending order. `ap`/`bp` are one packed micropanel
/// each; fixed-size row/column views let rustc unroll and vectorize the
/// update without bounds checks.
///
/// `acc` is taken and returned **by value**, and inlining is forced: as
/// a standalone function the accumulator is an in-memory argument that
/// must stay consistent across the loop's potential panic edges, which
/// makes LLVM spill all MR×NR accumulators to the stack on every depth
/// step (~3× slower). Inlined, the tile is a caller-local that SROA
/// promotes to vector registers and the loop carries no stores at all.
#[inline(always)]
fn microkernel<T: Scalar>(kc: usize, ap: &[T], bp: &[T], mut acc: [T; MR * NR]) -> [T; MR * NR] {
    debug_assert!(ap.len() >= kc * MR && bp.len() >= kc * NR);
    for l in 0..kc {
        let ar: &[T; MR] = ap[l * MR..(l + 1) * MR].try_into().expect("MR slice");
        let br: &[T; NR] = bp[l * NR..(l + 1) * NR].try_into().expect("NR slice");
        for j in 0..NR {
            let s = br[j];
            for i in 0..MR {
                acc[j * MR + i] += ar[i] * s;
            }
        }
    }
    acc
}

/// Unblocked fallback for tiny products; same canonical accumulation
/// chain as the packed path (ascending `k`, per-element sequential).
/// Forced inline: it also finishes the narrow paths' edges, and with
/// three callers LLVM outlined it; the µs-scale hyperslab queries (all
/// unblocked products) then read 2–8% slower in benchmark pairs.
#[inline(always)]
fn gemm_small<T: Scalar>(
    m: usize,
    n: usize,
    k: usize,
    a: &[T],
    lda: usize,
    at: bool,
    b: &[T],
    ldb: usize,
    bt: bool,
    c: &mut [T],
    ldc: usize,
) {
    for j in 0..n {
        let cj = &mut c[j * ldc..j * ldc + m];
        for l in 0..k {
            let s = if bt { b[j + l * ldb] } else { b[l + j * ldb] };
            if at {
                for i in 0..m {
                    cj[i] += a[l + i * lda] * s;
                }
            } else {
                let al = &a[l * lda..l * lda + m];
                for i in 0..m {
                    cj[i] += al[i] * s;
                }
            }
        }
    }
}

/// Widest r-side the narrow paths serve: `C += A·op(B)` with `n` at
/// most this runs [`gemm_narrow`], `C += Aᵀ·B` with `m` at most this
/// runs [`gemm_narrow_tn`], instead of packing.
const NARROW_MAX_N: usize = 16;

/// Register budget of one narrow tile's accumulators, in bytes (24 of
/// the 32 vector registers at 256 bits). The tile height is the largest
/// of 16, 8 and 4 rows whose `rows × n` block of C fits; past it LLVM
/// spills accumulators on every depth step (a 32-row f32 tile at
/// `n = 11` ran at half the 16-row one's rate).
const NARROW_TILE_BYTES: usize = 768;

/// The narrow path: `C += A·op(B)` for `A` not transposed and
/// `n ≤` [`NARROW_MAX_N`], reading `A` in place. `BT` reads `B`
/// transposed (element `(l, j)` at `b[j + l·ldb]`): the `A·Bᵀ` of a
/// SYRK panel, a `Transpose::No` TTM slab or the mode-0 SI contraction.
/// Each `rows × n` tile of C is loaded into registers, updated by every
/// depth step in ascending `k` (one contiguous `rows`-long read of an A
/// column and `n` scalars of B per step) and stored once, so each
/// element is the canonical chain of the module docs. The tallest tile
/// that fits [`NARROW_TILE_BYTES`] covers the bulk of the rows; shorter
/// tiles and then [`gemm_small`] take the remainder, with the same
/// chain.
///
/// The width must be a compile-time constant for rustc to keep the tile
/// in registers (a runtime-`n` loop over a 16-wide tile ran ~2× slower),
/// hence one monomorphized body per `n`.
fn gemm_narrow<T: Scalar, const BT: bool>(
    m: usize,
    n: usize,
    k: usize,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    c: &mut [T],
    ldc: usize,
) {
    if narrow_rows::<T>(n) < 8 {
        // Too wide for an 8-row tile (f64 past 12 columns): the 4-row
        // tile ran at half the packed rate, two column halves at 8 or
        // more rows beat it. Columns are independent chains, so the
        // split cannot change a bit.
        let half = n / 2;
        gemm_narrow::<T, BT>(m, half, k, a, lda, b, ldb, c, ldc);
        let b_rest = if BT { &b[half..] } else { &b[half * ldb..] };
        let c_rest = &mut c[half * ldc..];
        return gemm_narrow::<T, BT>(m, n - half, k, a, lda, b_rest, ldb, c_rest, ldc);
    }
    let done = match n {
        1 => narrow_width::<T, BT, 1>(m, k, a, lda, b, ldb, c, ldc),
        2 => narrow_width::<T, BT, 2>(m, k, a, lda, b, ldb, c, ldc),
        3 => narrow_width::<T, BT, 3>(m, k, a, lda, b, ldb, c, ldc),
        4 => narrow_width::<T, BT, 4>(m, k, a, lda, b, ldb, c, ldc),
        5 => narrow_width::<T, BT, 5>(m, k, a, lda, b, ldb, c, ldc),
        6 => narrow_width::<T, BT, 6>(m, k, a, lda, b, ldb, c, ldc),
        7 => narrow_width::<T, BT, 7>(m, k, a, lda, b, ldb, c, ldc),
        8 => narrow_width::<T, BT, 8>(m, k, a, lda, b, ldb, c, ldc),
        9 => narrow_width::<T, BT, 9>(m, k, a, lda, b, ldb, c, ldc),
        10 => narrow_width::<T, BT, 10>(m, k, a, lda, b, ldb, c, ldc),
        11 => narrow_width::<T, BT, 11>(m, k, a, lda, b, ldb, c, ldc),
        12 => narrow_width::<T, BT, 12>(m, k, a, lda, b, ldb, c, ldc),
        13 => narrow_width::<T, BT, 13>(m, k, a, lda, b, ldb, c, ldc),
        14 => narrow_width::<T, BT, 14>(m, k, a, lda, b, ldb, c, ldc),
        15 => narrow_width::<T, BT, 15>(m, k, a, lda, b, ldb, c, ldc),
        16 => narrow_width::<T, BT, 16>(m, k, a, lda, b, ldb, c, ldc),
        _ => unreachable!("narrow path called with n = {n}"),
    };
    if done < m {
        gemm_small(
            m - done,
            n,
            k,
            &a[done..],
            lda,
            false,
            b,
            ldb,
            BT,
            &mut c[done..],
            ldc,
        );
    }
}

/// Runs width `N`'s tile cascade and returns how many leading rows are
/// done (all but fewer than 4). The height tests fold to constants per
/// monomorphization, so only the heights that fit are compiled in.
fn narrow_width<T: Scalar, const BT: bool, const N: usize>(
    m: usize,
    k: usize,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    c: &mut [T],
    ldc: usize,
) -> usize {
    let top = narrow_rows::<T>(N);
    let mut done = 0;
    if top >= 16 {
        done = narrow_tiles::<T, BT, N, 16>(done, m, k, a, lda, b, ldb, c, ldc);
    }
    if top >= 8 {
        done = narrow_tiles::<T, BT, N, 8>(done, m, k, a, lda, b, ldb, c, ldc);
    }
    narrow_tiles::<T, BT, N, 4>(done, m, k, a, lda, b, ldb, c, ldc)
}

/// Height of width `n`'s tallest narrow tile: the largest of 16 and 8
/// rows whose `rows × n` block of C fits [`NARROW_TILE_BYTES`], else 4.
#[inline(always)]
fn narrow_rows<T: Scalar>(n: usize) -> usize {
    [16, 8]
        .into_iter()
        .find(|&rows| rows * n * std::mem::size_of::<T>() <= NARROW_TILE_BYTES)
        .unwrap_or(4)
}

/// Runs every full `TM × N` tile of C in rows `from..m` and returns the
/// first row left over (fewer than `TM` remain).
#[inline(always)]
fn narrow_tiles<T: Scalar, const BT: bool, const N: usize, const TM: usize>(
    from: usize,
    m: usize,
    k: usize,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    c: &mut [T],
    ldc: usize,
) -> usize {
    let end = m - (m - from) % TM;
    for i0 in (from..end).step_by(TM) {
        let mut acc = [[T::ZERO; TM]; N];
        for (j, col) in acc.iter_mut().enumerate() {
            col.copy_from_slice(&c[i0 + j * ldc..i0 + j * ldc + TM]);
        }
        for l in 0..k {
            let ar: &[T; TM] = a[i0 + l * lda..i0 + l * lda + TM]
                .try_into()
                .expect("TM slice");
            for (j, col) in acc.iter_mut().enumerate() {
                let s = if BT { b[j + l * ldb] } else { b[l + j * ldb] };
                for i in 0..TM {
                    col[i] += ar[i] * s;
                }
            }
        }
        for (j, col) in acc.iter().enumerate() {
            c[i0 + j * ldc..i0 + j * ldc + TM].copy_from_slice(col);
        }
    }
    end
}

/// The transposed narrow path: `C += Aᵀ·B` for `m ≤` [`NARROW_MAX_N`]
/// (the mode-0 TTM, `m = r`), reading `B` in place. `Aᵀ` is copied once
/// into `k` rows of `RP` entries (zero-padded past `m`); each `RP × NJ`
/// tile of C is then updated by every depth step in ascending `k`, one
/// `RP`-wide row of `Aᵀ` against `NJ` scalars of B, so each element is
/// the canonical chain. Padded lanes multiply zeros and are never
/// stored. Columns past the last full tile run [`gemm_small`].
///
/// The tile shapes are pinned per padded height: 4×4, 8×8 and 16×4.
/// Tiles of 32 accumulators (4×8, 8×4, 16×2) vectorized badly and ran
/// 2–6× slower than the packed path, in f32 and f64 alike.
fn gemm_narrow_tn<T: Scalar>(
    m: usize,
    n: usize,
    k: usize,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    c: &mut [T],
    ldc: usize,
) {
    let done = if m <= 4 {
        narrow_tn_tiles::<T, 4, 4>(m, n, k, a, lda, b, ldb, c, ldc)
    } else if m <= 8 {
        narrow_tn_tiles::<T, 8, 8>(m, n, k, a, lda, b, ldb, c, ldc)
    } else {
        narrow_tn_tiles::<T, 16, 4>(m, n, k, a, lda, b, ldb, c, ldc)
    };
    if done < n {
        gemm_small(
            m,
            n - done,
            k,
            a,
            lda,
            true,
            &b[done * ldb..],
            ldb,
            false,
            &mut c[done * ldc..],
            ldc,
        );
    }
}

/// Runs every full `RP × NJ` tile of [`gemm_narrow_tn`] and returns the
/// first column left over.
fn narrow_tn_tiles<T: Scalar, const RP: usize, const NJ: usize>(
    m: usize,
    n: usize,
    k: usize,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    c: &mut [T],
    ldc: usize,
) -> usize {
    let mut at = vec![T::ZERO; k * RP];
    for i in 0..m {
        for l in 0..k {
            at[l * RP + i] = a[l + i * lda];
        }
    }
    let end = n - n % NJ;
    for j0 in (0..end).step_by(NJ) {
        let mut acc = [[T::ZERO; RP]; NJ];
        for (jj, col) in acc.iter_mut().enumerate() {
            col[..m].copy_from_slice(&c[(j0 + jj) * ldc..(j0 + jj) * ldc + m]);
        }
        let bcols: [&[T]; NJ] = std::array::from_fn(|jj| &b[(j0 + jj) * ldb..(j0 + jj) * ldb + k]);
        for l in 0..k {
            let ar: &[T; RP] = at[l * RP..(l + 1) * RP].try_into().expect("RP slice");
            for (jj, col) in acc.iter_mut().enumerate() {
                let s = bcols[jj][l];
                for i in 0..RP {
                    col[i] += ar[i] * s;
                }
            }
        }
        for (jj, col) in acc.iter().enumerate() {
            c[(j0 + jj) * ldc..(j0 + jj) * ldc + m].copy_from_slice(&col[..m]);
        }
    }
    end
}

/// The packed MC/KC/NC loop nest over one output column range.
fn gemm_packed<T: Scalar>(
    m: usize,
    n: usize,
    k: usize,
    a: &[T],
    lda: usize,
    at: bool,
    b: &[T],
    ldb: usize,
    bt: bool,
    c: &mut [T],
    ldc: usize,
) {
    let kc_cap = KC.min(k);
    let apack_cap = MC.div_ceil(MR).min(m.div_ceil(MR)) * MR * kc_cap;
    let bpack_cap = (NC / NR).min(n.div_ceil(NR)) * NR * kc_cap;
    // Plain (unledgered) scratch: bounded transient kernel workspace,
    // ≤ ~1.5 MiB, documented as outside the memory-budget model.
    let mut apack = vec![T::ZERO; apack_cap];
    let mut bpack = vec![T::ZERO; bpack_cap];
    let mut acc = [T::ZERO; MR * NR];

    let mut jc = 0;
    while jc < n {
        let nc = NC.min(n - jc);
        let nc_panels = nc.div_ceil(NR);
        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            pack_b(b, ldb, bt, pc, kc, jc, nc, &mut bpack);
            let mut ic = 0;
            while ic < m {
                let mc = MC.min(m - ic);
                let mc_panels = mc.div_ceil(MR);
                pack_a(a, lda, at, ic, mc, pc, kc, &mut apack);
                for q in 0..nc_panels {
                    let jb = jc + q * NR;
                    let tn = NR.min(jc + nc - jb);
                    let bp = &bpack[q * kc * NR..(q + 1) * kc * NR];
                    for p in 0..mc_panels {
                        let ib = ic + p * MR;
                        let tm = MR.min(ic + mc - ib);
                        let ap = &apack[p * kc * MR..(p + 1) * kc * MR];
                        if tm == MR && tn == NR {
                            for j in 0..NR {
                                let col = &c[ib + (jb + j) * ldc..ib + (jb + j) * ldc + MR];
                                acc[j * MR..(j + 1) * MR].copy_from_slice(col);
                            }
                            acc = microkernel(kc, ap, bp, acc);
                            for j in 0..NR {
                                let col = &mut c[ib + (jb + j) * ldc..ib + (jb + j) * ldc + MR];
                                col.copy_from_slice(&acc[j * MR..(j + 1) * MR]);
                            }
                        } else {
                            // Edge tile: stage through a zero-padded
                            // register tile; padded lanes multiply zeros
                            // and are never stored.
                            acc = [T::ZERO; MR * NR];
                            for j in 0..tn {
                                for i in 0..tm {
                                    acc[j * MR + i] = c[(ib + i) + (jb + j) * ldc];
                                }
                            }
                            acc = microkernel(kc, ap, bp, acc);
                            for j in 0..tn {
                                for i in 0..tm {
                                    c[(ib + i) + (jb + j) * ldc] = acc[j * MR + i];
                                }
                            }
                        }
                    }
                }
                ic += mc;
            }
            pc += kc;
        }
        jc += nc;
    }
}

/// Serial GEMM entry shared by every variant and by the TTM/Gram slab
/// paths: no flop accounting (callers count their documented formulas)
/// and no worker-pool dispatch (callers own the parallel split), so it
/// is safe to invoke from inside pool workers.
pub(crate) fn gemm_serial<T: Scalar>(
    m: usize,
    n: usize,
    k: usize,
    a: &[T],
    lda: usize,
    at: bool,
    b: &[T],
    ldb: usize,
    bt: bool,
    c: &mut [T],
    ldc: usize,
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    match gemm_path(m, n, k, at, bt) {
        GemmPath::Narrow if bt => gemm_narrow::<T, true>(m, n, k, a, lda, b, ldb, c, ldc),
        GemmPath::Narrow => gemm_narrow::<T, false>(m, n, k, a, lda, b, ldb, c, ldc),
        GemmPath::NarrowTn => gemm_narrow_tn(m, n, k, a, lda, b, ldb, c, ldc),
        GemmPath::Small => gemm_small(m, n, k, a, lda, at, b, ldb, bt, c, ldc),
        GemmPath::Packed => gemm_packed(m, n, k, a, lda, at, b, ldb, bt, c, ldc),
    }
}

/// The loop nest [`gemm_serial`] runs a product on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum GemmPath {
    Narrow,
    NarrowTn,
    Small,
    Packed,
}

/// Picks the path by shape alone (see the module docs). The transposed
/// narrow path copies `Aᵀ`, so tiny products skip it like packing.
fn gemm_path(m: usize, n: usize, k: usize, at: bool, bt: bool) -> GemmPath {
    if !at && n <= NARROW_MAX_N {
        GemmPath::Narrow
    } else if 2 * (m as u64) * (n as u64) * (k as u64) < PACK_MIN_FLOPS {
        GemmPath::Small
    } else if at && !bt && m <= NARROW_MAX_N {
        GemmPath::NarrowTn
    } else {
        GemmPath::Packed
    }
}

/// Counts flops, then runs the product across the worker pool by
/// splitting C's columns into per-worker panels (see the module docs for
/// why the split cannot change results).
fn gemm_dispatch<T: Scalar>(
    m: usize,
    n: usize,
    k: usize,
    a: &[T],
    lda: usize,
    at: bool,
    b: &[T],
    ldb: usize,
    bt: bool,
    c: &mut [T],
    ldc: usize,
) {
    let fl = 2 * (m as u64) * (n as u64) * (k as u64);
    flops::add(fl);
    let nt = par::num_threads();
    if nt <= 1 || fl < par::PAR_MIN_FLOPS || n < 2 {
        return gemm_serial(m, n, k, a, lda, at, b, ldb, bt, c, ldc);
    }
    let ranges = par::partition(n, nt.min(n));
    let parts = par::split_columns(c, ldc, &ranges);
    par::for_each_part(parts, |_, (cols, csub)| {
        let b_off = if bt {
            &b[cols.start..]
        } else {
            &b[cols.start * ldb..]
        };
        gemm_serial(m, cols.len(), k, a, lda, at, b_off, ldb, bt, csub, ldc);
    });
}

/// `C += A · B` where `A` is `m×k`, `B` is `k×n`, `C` is `m×n`.
pub fn gemm_nn<T: Scalar>(
    m: usize,
    n: usize,
    k: usize,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    c: &mut [T],
    ldc: usize,
) {
    check_dims(a.len(), lda, m, k, "gemm_nn A");
    check_dims(b.len(), ldb, k, n, "gemm_nn B");
    check_dims(c.len(), ldc, m, n, "gemm_nn C");
    gemm_dispatch(m, n, k, a, lda, false, b, ldb, false, c, ldc);
}

/// `C += Aᵀ · B` where `A` is `k×m`, `B` is `k×n`, `C` is `m×n`.
pub fn gemm_tn<T: Scalar>(
    m: usize,
    n: usize,
    k: usize,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    c: &mut [T],
    ldc: usize,
) {
    check_dims(a.len(), lda, k, m, "gemm_tn A");
    check_dims(b.len(), ldb, k, n, "gemm_tn B");
    check_dims(c.len(), ldc, m, n, "gemm_tn C");
    gemm_dispatch(m, n, k, a, lda, true, b, ldb, false, c, ldc);
}

/// `C += A · Bᵀ` where `A` is `m×k`, `B` is `n×k`, `C` is `m×n`.
pub fn gemm_nt<T: Scalar>(
    m: usize,
    n: usize,
    k: usize,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    c: &mut [T],
    ldc: usize,
) {
    check_dims(a.len(), lda, m, k, "gemm_nt A");
    check_dims(b.len(), ldb, n, k, "gemm_nt B");
    check_dims(c.len(), ldc, m, n, "gemm_nt C");
    gemm_dispatch(m, n, k, a, lda, false, b, ldb, true, c, ldc);
}

/// Copies the strictly-lower triangle into the upper one.
fn mirror_lower<T: Scalar>(n: usize, c: &mut [T], ldc: usize) {
    for j in 0..n {
        for i in j + 1..n {
            c[j + i * ldc] = c[i + j * ldc];
        }
    }
}

/// Unblocked `Aᵀ·A` fallback for tiny products: canonical ascending-`k`
/// chains on the lower triangle, mirrored by the caller.
fn syrk_tn_small<T: Scalar>(n: usize, k: usize, a: &[T], lda: usize, c: &mut [T], ldc: usize) {
    for j in 0..n {
        for l in 0..k {
            let s = a[l + j * lda];
            for i in j..n {
                c[i + j * ldc] += a[l + i * lda] * s;
            }
        }
    }
}

/// One worker's share of a SYRK: sweeps its column range `cols` of the
/// lower trapezoid in [`SYRK_BLOCK`]-wide panels, each panel one GEMM
/// `C[j0.., j0..j1) += op(A)[j0.., :] · op(A)[:, j0..j1)`. Entries
/// *above* the diagonal inside a panel are computed redundantly and later
/// overwritten by the mirror, a cost bounded by `SYRK_BLOCK / n`.
///
/// `k` runs in [`KC`]-deep blocks outermost, the panels inside each
/// block, so one block of A stays in cache across all `n / SYRK_BLOCK`
/// panels instead of being streamed from memory once per panel. Each
/// panel call loads and stores its C tile exactly, so the blocking
/// leaves every element's ascending-`k` chain unchanged.
///
/// `nt == true` selects the `A·Aᵀ` orientation (`A` is `dim×k`, offset
/// rows; every panel is an `A·Bᵀ` product of the narrow shape, read in
/// place), otherwise `Aᵀ·A` (`A` is `k×dim`, offset columns; packed).
/// `csub` is the column panel of C starting at column `cols.start`.
pub(crate) fn syrk_trapezoid<T: Scalar>(
    dim: usize,
    k: usize,
    a: &[T],
    lda: usize,
    nt: bool,
    cols: std::ops::Range<usize>,
    csub: &mut [T],
    ldc: usize,
) {
    for pc in (0..k).step_by(KC) {
        let kc = KC.min(k - pc);
        let mut j0 = cols.start;
        while j0 < cols.end {
            let jw = SYRK_BLOCK.min(cols.end - j0);
            let rows = dim - j0;
            let cblk = &mut csub[(j0 - cols.start) * ldc + j0..];
            if nt {
                let a_off = &a[j0 + pc * lda..];
                gemm_serial(rows, jw, kc, a_off, lda, false, a_off, lda, true, cblk, ldc);
            } else {
                let a_off = &a[pc + j0 * lda..];
                gemm_serial(rows, jw, kc, a_off, lda, true, a_off, lda, false, cblk, ldc);
            }
            j0 += jw;
        }
    }
}

/// Shared SYRK driver: formula flop count, then the tiny `Aᵀ·A`
/// fallback or the trapezoid sweep. The `A·Aᵀ` panels are unpacked at
/// every size.
fn syrk_dispatch<T: Scalar>(
    dim: usize,
    k: usize,
    a: &[T],
    lda: usize,
    nt_kind: bool,
    c: &mut [T],
    ldc: usize,
) {
    let fl = (dim as u64) * ((dim as u64) + 1) * (k as u64);
    flops::add(fl);
    if !nt_kind && fl < PACK_MIN_FLOPS {
        syrk_tn_small(dim, k, a, lda, c, ldc);
        mirror_lower(dim, c, ldc);
    } else {
        syrk_columns(dim, fl, c, ldc, |cols, csub| {
            syrk_trapezoid(dim, k, a, lda, nt_kind, cols, csub, ldc);
        });
    }
}

/// Runs `sweep(cols, csub)` on column panels of the `dim × dim` C split
/// across the worker pool (one worker below `fl <` [`par::PAR_MIN_FLOPS`]
/// flops), then mirrors the lower triangle into the upper one.
pub(crate) fn syrk_columns<T: Scalar>(
    dim: usize,
    fl: u64,
    c: &mut [T],
    ldc: usize,
    sweep: impl Fn(std::ops::Range<usize>, &mut [T]) + Sync,
) {
    let workers = if fl < par::PAR_MIN_FLOPS {
        1
    } else {
        par::num_threads()
    };
    let ranges = par::partition(dim, workers.min(dim));
    let parts = par::split_columns(c, ldc, &ranges);
    par::for_each_part(parts, |_, (cols, csub)| sweep(cols, csub));
    mirror_lower(dim, c, ldc);
}

/// Symmetric rank-k update: `C += Aᵀ · A` (`A` is `k×n`, `C` is `n×n`).
///
/// Only the lower triangle is accumulated (then mirrored); this is the
/// Gram building block and is counted as `n(n+1)k` multiply-adds.
/// Accumulating in ascending `k`-batches over several calls is
/// bit-identical to one monolithic call (module docs).
pub fn syrk_tn<T: Scalar>(n: usize, k: usize, a: &[T], lda: usize, c: &mut [T], ldc: usize) {
    check_dims(a.len(), lda, k, n, "syrk_tn A");
    check_dims(c.len(), ldc, n, n, "syrk_tn C");
    syrk_dispatch(n, k, a, lda, false, c, ldc);
}

/// Symmetric rank-k update from the left: `C += A · Aᵀ` (`A` is `m×k`,
/// `C` is `m×m`). Lower triangle accumulated, then mirrored; counted as
/// `m(m+1)k` multiply-adds — half of the general `gemm_nt`, which is what
/// the Gram-matrix cost rows of the paper's Table 1 assume.
pub fn syrk_nt<T: Scalar>(m: usize, k: usize, a: &[T], lda: usize, c: &mut [T], ldc: usize) {
    check_dims(a.len(), lda, m, k, "syrk_nt A");
    check_dims(c.len(), ldc, m, m, "syrk_nt C");
    syrk_dispatch(m, k, a, lda, true, c, ldc);
}

/// `y += alpha * x`.
#[inline]
pub fn axpy<T: Scalar>(alpha: T, x: &[T], y: &mut [T]) {
    debug_assert_eq!(x.len(), y.len());
    flops::add(2 * x.len() as u64);
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Dot product.
#[inline]
pub fn dot<T: Scalar>(x: &[T], y: &[T]) -> T {
    debug_assert_eq!(x.len(), y.len());
    flops::add(2 * x.len() as u64);
    let mut acc = T::ZERO;
    for (&xi, &yi) in x.iter().zip(y) {
        acc += xi * yi;
    }
    acc
}

/// Scales a vector in place.
#[inline]
pub fn scal<T: Scalar>(alpha: T, x: &mut [T]) {
    flops::add(x.len() as u64);
    for xi in x {
        *xi *= alpha;
    }
}

/// Entries per chunk of [`all_finite`]'s screen.
const SCREEN_CHUNK: usize = 512;

/// `true` when every entry of `xs` is finite (no NaN/Inf): the screen
/// the distributed kernels apply to their inputs and received payloads.
///
/// Each fixed-size chunk is folded without a branch, so it vectorizes;
/// the answer is checked between chunks. An early-exit `iter().all`
/// does not vectorize and cost about 1 ms per 4 MB block.
pub fn all_finite<T: Scalar>(xs: &[T]) -> bool {
    xs.chunks(SCREEN_CHUNK)
        .all(|c| c.iter().fold(true, |ok, x| ok & x.is_finite_s()))
}

/// Euclidean norm with scaling to avoid overflow/underflow (LAPACK dnrm2).
pub fn nrm2<T: Scalar>(x: &[T]) -> T {
    flops::add(2 * x.len() as u64);
    let mut scale = T::ZERO;
    let mut ssq = T::ONE;
    for &xi in x {
        if xi != T::ZERO {
            let absxi = xi.abs();
            if scale < absxi {
                let r = scale / absxi;
                ssq = T::ONE + ssq * r * r;
                scale = absxi;
            } else {
                let r = absxi / scale;
                ssq += r * r;
            }
        }
    }
    scale * ssq.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    fn naive_mm(a: &Matrix<f64>, b: &Matrix<f64>) -> Matrix<f64> {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for l in 0..a.cols() {
                    acc += a[(i, l)] * b[(l, j)];
                }
                c[(i, j)] = acc;
            }
        }
        c
    }

    fn test_mats(m: usize, k: usize, n: usize) -> (Matrix<f64>, Matrix<f64>) {
        let a = Matrix::from_fn(m, k, |i, j| ((3 * i + 7 * j + 1) as f64).sin());
        let b = Matrix::from_fn(k, n, |i, j| ((5 * i + 2 * j + 2) as f64).cos());
        (a, b)
    }

    #[test]
    fn gemm_nn_matches_naive() {
        let (a, b) = test_mats(7, 5, 6);
        let want = naive_mm(&a, &b);
        let mut c = Matrix::zeros(7, 6);
        gemm_nn(
            7,
            6,
            5,
            a.as_slice(),
            7,
            b.as_slice(),
            5,
            c.as_mut_slice(),
            7,
        );
        assert!(c.max_abs_diff(&want) < 1e-13);
    }

    #[test]
    fn gemm_nn_matches_naive_above_pack_threshold() {
        // 37·41·43 is odd in every dimension and well past PACK_MIN_FLOPS,
        // so this exercises the packed path with edge tiles on all sides.
        let (a, b) = test_mats(37, 41, 43);
        let want = naive_mm(&a, &b);
        let mut c = Matrix::zeros(37, 43);
        gemm_nn(
            37,
            43,
            41,
            a.as_slice(),
            37,
            b.as_slice(),
            41,
            c.as_mut_slice(),
            37,
        );
        assert!(c.max_abs_diff(&want) < 1e-12);
    }

    #[test]
    fn gemm_tn_matches_naive() {
        // A is stored k×m; the kernel computes C = Aᵀ B.
        let a_km = Matrix::from_fn(5, 7, |i, j| ((i * 7 + j) as f64).sin());
        let b_kn = Matrix::from_fn(5, 6, |i, j| ((i + 2 * j) as f64).cos());
        let want = naive_mm(&a_km.transpose(), &b_kn);
        let mut c = Matrix::zeros(7, 6);
        gemm_tn(
            7,
            6,
            5,
            a_km.as_slice(),
            5,
            b_kn.as_slice(),
            5,
            c.as_mut_slice(),
            7,
        );
        assert!(c.max_abs_diff(&want) < 1e-13);
    }

    #[test]
    fn gemm_tn_matches_naive_above_pack_threshold() {
        let a_km = Matrix::from_fn(33, 29, |i, j| ((i * 29 + j) as f64 * 0.1).sin());
        let b_kn = Matrix::from_fn(33, 31, |i, j| ((i + 2 * j) as f64 * 0.1).cos());
        let want = naive_mm(&a_km.transpose(), &b_kn);
        let mut c = Matrix::zeros(29, 31);
        gemm_tn(
            29,
            31,
            33,
            a_km.as_slice(),
            33,
            b_kn.as_slice(),
            33,
            c.as_mut_slice(),
            29,
        );
        assert!(c.max_abs_diff(&want) < 1e-12);
    }

    #[test]
    fn gemm_nt_matches_naive() {
        let a = Matrix::from_fn(4, 5, |i, j| ((i + 3 * j) as f64).sin());
        let b = Matrix::from_fn(6, 5, |i, j| ((2 * i + j) as f64).cos());
        let want = naive_mm(&a, &b.transpose());
        let mut c = Matrix::zeros(4, 6);
        gemm_nt(
            4,
            6,
            5,
            a.as_slice(),
            4,
            b.as_slice(),
            6,
            c.as_mut_slice(),
            4,
        );
        assert!(c.max_abs_diff(&want) < 1e-13);
    }

    #[test]
    fn gemm_nt_matches_naive_above_pack_threshold() {
        let a = Matrix::from_fn(31, 37, |i, j| ((i + 3 * j) as f64 * 0.07).sin());
        let b = Matrix::from_fn(35, 37, |i, j| ((2 * i + j) as f64 * 0.07).cos());
        let want = naive_mm(&a, &b.transpose());
        let mut c = Matrix::zeros(31, 35);
        gemm_nt(
            31,
            35,
            37,
            a.as_slice(),
            31,
            b.as_slice(),
            35,
            c.as_mut_slice(),
            31,
        );
        assert!(c.max_abs_diff(&want) < 1e-12);
    }

    #[test]
    fn gemm_accumulates() {
        let a: Matrix<f64> = Matrix::identity(3);
        let b = Matrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        let mut c = Matrix::identity(3);
        gemm_nn(
            3,
            3,
            3,
            a.as_slice(),
            3,
            b.as_slice(),
            3,
            c.as_mut_slice(),
            3,
        );
        // C = I + I*B
        for i in 0..3 {
            for j in 0..3 {
                let want = b[(i, j)] + if i == j { 1.0 } else { 0.0 };
                assert_eq!(c[(i, j)], want);
            }
        }
    }

    #[test]
    fn syrk_matches_gemm_tn() {
        let a = Matrix::from_fn(8, 5, |i, j| ((i * 5 + j) as f64).sin());
        let want = a.t_matmul(&a);
        let mut c = Matrix::zeros(5, 5);
        syrk_tn(5, 8, a.as_slice(), 8, c.as_mut_slice(), 5);
        assert!(c.max_abs_diff(&want) < 1e-13);
    }

    #[test]
    fn syrk_tn_matches_reference_above_pack_threshold() {
        let a = Matrix::from_fn(61, 45, |i, j| ((i * 45 + j) as f64 * 0.03).sin());
        let want = a.t_matmul(&a);
        let mut c = Matrix::zeros(45, 45);
        syrk_tn(45, 61, a.as_slice(), 61, c.as_mut_slice(), 45);
        assert!(c.max_abs_diff(&want) < 1e-11);
        // Symmetry is exact (mirror copy).
        for j in 0..45 {
            for i in j + 1..45 {
                assert_eq!(c[(i, j)].to_bits(), c[(j, i)].to_bits());
            }
        }
    }

    #[test]
    fn syrk_nt_matches_reference_above_pack_threshold() {
        let a = Matrix::from_fn(45, 61, |i, j| ((i * 61 + j) as f64 * 0.03).cos());
        let want = a.matmul(&a.transpose());
        let mut c = Matrix::zeros(45, 45);
        syrk_nt(45, 61, a.as_slice(), 45, c.as_mut_slice(), 45);
        assert!(c.max_abs_diff(&want) < 1e-11);
    }

    #[test]
    fn syrk_nt_k_batched_accumulation_is_bit_identical() {
        // The streamed-Gram contract (`gram_accumulate` for modes > 0,
        // `ratucker-dist` at rung ≥ 2): accumulating A's columns in
        // ascending batches over several syrk_nt calls must reproduce
        // one monolithic chain bit-for-bit, across the KC = 256 k-block
        // boundaries of the trapezoid sweep too. The reference is the
        // written-out chain on the lower triangle, mirrored.
        fn run<T: Scalar>() {
            for (m, k) in [(45, 64), (45, 600), (19, 513), (130, 300)] {
                let a: Vec<T> = fill(m * k, 0.011);
                let c0: Vec<T> = fill(m * m, 0.007);
                let mut want = c0.clone();
                for j in 0..m {
                    for i in j..m {
                        let mut acc = want[i + j * m];
                        for l in 0..k {
                            acc += a[i + l * m] * a[j + l * m];
                        }
                        want[i + j * m] = acc;
                    }
                }
                mirror_lower(m, &mut want, m);
                let mut mono = c0.clone();
                syrk_nt(m, k, &a, m, &mut mono, m);
                assert_eq!(bits(&mono), bits(&want), "monolithic m {m} k {k}");
                // Batches that start and end off the block boundaries.
                let mut batched = c0;
                let mut k0 = 0;
                for kb in [17, 255, 30, 257, 1].into_iter().cycle() {
                    let kb = kb.min(k - k0);
                    syrk_nt(m, kb, &a[k0 * m..], m, &mut batched, m);
                    k0 += kb;
                    if k0 == k {
                        break;
                    }
                }
                assert_eq!(bits(&batched), bits(&want), "batched m {m} k {k}");
            }
        }
        run::<f32>();
        run::<f64>();
    }

    #[test]
    fn results_are_bit_identical_across_worker_counts() {
        // A packed shape and a narrow one (n ≤ NARROW_MAX_N).
        for (m, k, n) in [(67, 59, 71), (300, 64, 11)] {
            let (a, b) = test_mats(m, k, n);
            let mut reference: Option<Vec<f64>> = None;
            for nt in [1usize, 2, 4] {
                crate::par::set_num_threads(nt);
                let mut c = Matrix::<f64>::zeros(m, n);
                gemm_nn(
                    m,
                    n,
                    k,
                    a.as_slice(),
                    m,
                    b.as_slice(),
                    k,
                    c.as_mut_slice(),
                    m,
                );
                match &reference {
                    None => reference = Some(c.as_slice().to_vec()),
                    Some(want) => {
                        for (x, y) in want.iter().zip(c.as_slice()) {
                            assert_eq!(
                                x.to_bits(),
                                y.to_bits(),
                                "{m}x{n}: worker count {nt} diverged"
                            );
                        }
                    }
                }
            }
        }
        crate::par::set_num_threads(1);
    }

    /// The canonical chain written out: `C[i,j] += op(A)(i,l)·op(B)(l,j)`
    /// for `l = 0, 1, …`, one rounding per step (`at` reads `A` as
    /// `k×m`, `bt` reads `B` as `n×k`).
    fn chain_oracle<T: Scalar>(
        m: usize,
        n: usize,
        k: usize,
        a: &[T],
        lda: usize,
        at: bool,
        b: &[T],
        ldb: usize,
        bt: bool,
        c: &mut [T],
        ldc: usize,
    ) {
        for j in 0..n {
            for i in 0..m {
                let mut acc = c[i + j * ldc];
                for l in 0..k {
                    let ail = if at { a[l + i * lda] } else { a[i + l * lda] };
                    let blj = if bt { b[j + l * ldb] } else { b[l + j * ldb] };
                    acc += ail * blj;
                }
                c[i + j * ldc] = acc;
            }
        }
    }

    /// Deterministic fill for the bitwise tests.
    fn fill<T: Scalar>(len: usize, step: f64) -> Vec<T> {
        (0..len)
            .map(|i| T::from_f64(((i as f64) * step + 0.25).sin()))
            .collect()
    }

    fn bits<T: Scalar>(v: &[T]) -> Vec<u64> {
        v.iter().map(|x| x.to_f64().to_bits()).collect()
    }

    /// Runs `gemm_nn`, `gemm_tn` (`at`) or `gemm_nt` (`bt`) against
    /// [`chain_oracle`] on padded leading dimensions and a nonzero C,
    /// comparing the whole C buffer (padding included) bit for bit.
    fn assert_chain_bitwise<T: Scalar>(m: usize, n: usize, k: usize, at: bool, bt: bool) {
        let (a_rows, a_cols) = if at { (k, m) } else { (m, k) };
        let (b_rows, b_cols) = if bt { (n, k) } else { (k, n) };
        let (lda, ldb, ldc) = (a_rows + 3, b_rows + 1, m + 2);
        let a: Vec<T> = fill(lda * a_cols, 0.013);
        let b: Vec<T> = fill(ldb * b_cols, 0.021);
        let c0: Vec<T> = fill(ldc * n, 0.017);
        let mut want = c0.clone();
        chain_oracle(m, n, k, &a, lda, at, &b, ldb, bt, &mut want, ldc);
        let mut got = c0;
        match (at, bt) {
            (false, false) => gemm_nn(m, n, k, &a, lda, &b, ldb, &mut got, ldc),
            (true, false) => gemm_tn(m, n, k, &a, lda, &b, ldb, &mut got, ldc),
            (false, true) => gemm_nt(m, n, k, &a, lda, &b, ldb, &mut got, ldc),
            (true, true) => unreachable!("no Aᵀ·Bᵀ kernel"),
        }
        assert_eq!(bits(&got), bits(&want), "m {m} n {n} k {k} at {at} bt {bt}");
    }

    #[test]
    fn ttm_shapes_take_the_narrow_paths() {
        use GemmPath::*;
        // (m, n, k, at, bt): a last-mode TTM, a middle-mode slab, the
        // mode-0 TTM, a tiny mode-0 TTM (unblocked), a `Transpose::No`
        // slab (`gemm_nt`), a k-block of an `A·Aᵀ` SYRK panel and the
        // mode-0 SI contraction (`gemm_nt`, r ≤ 16); then r = 17 and an
        // `Aᵀ·A` SYRK panel, which stay packed.
        let cases = [
            ((16384, 11, 64, false, false), Narrow),
            ((128, 16, 128, false, false), Narrow),
            ((11, 8192, 128, true, false), NarrowTn),
            ((4, 8, 64, true, false), Small),
            ((128, 11, 128, false, true), Narrow),
            ((120, 8, 256, false, true), Narrow),
            ((128, 11, 8192, false, true), Narrow),
            ((16384, 17, 64, false, false), Packed),
            ((17, 8192, 128, true, false), Packed),
            ((120, 8, 64, true, false), Packed),
        ];
        for ((m, n, k, at, bt), want) in cases {
            assert_eq!(
                gemm_path(m, n, k, at, bt),
                want,
                "m {m} n {n} k {k} at {at} bt {bt}"
            );
        }
    }

    #[test]
    fn narrow_gemm_is_bitwise_the_canonical_chain() {
        // `C += A·B` and, with `bt`, `C += A·Bᵀ` (the SYRK panels,
        // `Transpose::No` TTM slabs and the mode-0 SI contraction).
        fn run<T: Scalar>() {
            for bt in [false, true] {
                for n in 1..=NARROW_MAX_N {
                    let top = narrow_rows::<T>(n);
                    // One short of a tile, a tile, one past it, and a
                    // run through every height of the cascade.
                    for m in [top - 1, top, top + 1, 2 * top - 1] {
                        for k in [1, 255, 256, 257, 600] {
                            assert_chain_bitwise::<T>(m, n, k, false, bt);
                        }
                    }
                    for k in [1, 3] {
                        assert_chain_bitwise::<T>(16384, n, k, false, bt);
                    }
                }
                // The last-mode TTM shape of a 128³ solve.
                assert_chain_bitwise::<T>(16384, 11, 64, false, bt);
            }
        }
        run::<f32>();
        run::<f64>();
    }

    #[test]
    fn narrow_tn_gemm_is_bitwise_the_canonical_chain() {
        fn run<T: Scalar>() {
            for m in 1..=NARROW_MAX_N {
                // Column counts at and around multiples of the 4- and
                // 8-wide tiles; past PACK_MIN_FLOPS once k ≥ 255.
                for n in [35, 36, 37, 39, 40, 41] {
                    for k in [1, 255, 256, 257, 600] {
                        assert_chain_bitwise::<T>(m, n, k, true, false);
                    }
                }
            }
        }
        run::<f32>();
        run::<f64>();
    }

    #[test]
    fn gemm_with_submatrix_leading_dims() {
        // Multiply the top-left 2x2 blocks of 4x4 matrices using lda=4.
        let a = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let b = Matrix::from_fn(4, 4, |i, j| (i + j) as f64);
        let mut c = vec![0.0f64; 4]; // 2x2, ldc=2
        gemm_nn(2, 2, 2, a.as_slice(), 4, b.as_slice(), 4, &mut c, 2);
        // Naive on the blocks:
        for i in 0..2 {
            for j in 0..2 {
                let want: f64 = (0..2).map(|l| a[(i, l)] * b[(l, j)]).sum();
                assert_eq!(c[i + 2 * j], want);
            }
        }
    }

    #[test]
    fn packed_gemm_with_nonunit_leading_dims() {
        // 30×30 blocks of 40×40 buffers (lda=ldb=ldc=40), past the pack
        // threshold so the packed path handles the ld gather.
        let a = Matrix::from_fn(40, 40, |i, j| ((i * 40 + j) as f64 * 0.01).sin());
        let b = Matrix::from_fn(40, 40, |i, j| ((i + j) as f64 * 0.01).cos());
        let mut c = vec![0.0f64; 40 * 40];
        gemm_nn(30, 30, 30, a.as_slice(), 40, b.as_slice(), 40, &mut c, 40);
        for i in 0..30 {
            for j in 0..30 {
                let want: f64 = (0..30).map(|l| a[(i, l)] * b[(l, j)]).sum();
                assert!((c[i + 40 * j] - want).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn nrm2_is_overflow_safe() {
        let big = vec![1e300f64, 1e300];
        let n = nrm2(&big);
        assert!((n - 1e300 * 2.0f64.sqrt()).abs() / n < 1e-14);
        assert_eq!(nrm2::<f64>(&[]), 0.0);
        assert_eq!(nrm2(&[0.0f64, 0.0]), 0.0);
    }

    #[test]
    fn dot_axpy_scal_basics() {
        assert_eq!(dot(&[1.0f64, 2.0], &[3.0, 4.0]), 11.0);
        let mut y = vec![1.0f64, 1.0];
        axpy(2.0, &[10.0, 20.0], &mut y);
        assert_eq!(y, vec![21.0, 41.0]);
        scal(0.5, &mut y);
        assert_eq!(y, vec![10.5, 20.5]);
    }

    #[test]
    fn flop_counting_gemm() {
        crate::flops::reset();
        let a: Matrix<f32> = Matrix::zeros(4, 3);
        let b: Matrix<f32> = Matrix::zeros(3, 5);
        let mut c: Matrix<f32> = Matrix::zeros(4, 5);
        gemm_nn(
            4,
            5,
            3,
            a.as_slice(),
            4,
            b.as_slice(),
            3,
            c.as_mut_slice(),
            4,
        );
        assert_eq!(crate::flops::get(), 2 * 4 * 5 * 3);
    }

    #[test]
    fn flop_count_is_input_independent() {
        // The zero-skip branch of the old scalar kernel made performed
        // work depend on the data; the accounting convention (flops.rs)
        // is formula-based, and the packed kernel now performs exactly
        // the counted multiply-adds regardless of zeros in the input.
        crate::flops::reset();
        let a: Matrix<f64> = Matrix::zeros(6, 6); // all zeros
        let mut c: Matrix<f64> = Matrix::zeros(6, 6);
        gemm_nn(
            6,
            6,
            6,
            a.as_slice(),
            6,
            a.as_slice(),
            6,
            c.as_mut_slice(),
            6,
        );
        assert_eq!(crate::flops::get(), 2 * 6 * 6 * 6);
    }
}
