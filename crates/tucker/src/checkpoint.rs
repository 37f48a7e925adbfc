//! Checkpoint/restart for the rank-adaptive solvers.
//!
//! A long RA-HOSI-DT run is a sequence of sweeps; everything the next
//! sweep needs is the state *entering* it: the sweep index, the current
//! rank vector, the (replicated) factor matrices, `‖X‖²`, and the run's
//! configuration fingerprint (seed, ε, tensor dimensions). This module
//! snapshots exactly that state to a small versioned binary file
//! (`RTCK`, a sibling of the `.rtt` tensor format) so a crashed run can
//! resume mid-decomposition and reproduce the fault-free result bit for
//! bit.
//!
//! Bit-exact resume relies on one more ingredient: the random columns
//! appended when ranks grow must not depend on *how many* sweeps ran
//! before. The growth RNG is therefore derived per sweep
//! ([`expansion_rng`]) from `(seed, sweep index)` alone, so a resumed
//! sweep draws exactly the columns the uninterrupted run would have.
//!
//! In the distributed driver the factors are replicated, so a single
//! checkpoint file serves every rank: rank 0 of the grid current at the
//! save writes it (a shrink may change who that is), and on resume
//! each rank reads the same file (writes are atomic via a temp-file
//! rename, so a reader never observes a partial checkpoint).

use crate::ra::RaConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ratucker_tensor::io::IoScalar;
use ratucker_tensor::matrix::Matrix;
use ratucker_tensor::scalar::Scalar;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Magic bytes of the checkpoint format ("ratucker checkpoint").
const MAGIC: &[u8; 4] = b"RTCK";
/// Current format version. Version 2 appends a trailing FNV-1a checksum
/// over the entire preceding payload, so *any* byte-wise corruption —
/// header or factor data — surfaces as a typed load error instead of a
/// silently wrong resume.
const VERSION: u32 = 2;

/// FNV-1a 64-bit hash of `bytes` (the integrity checksum appended to
/// every checkpoint).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The growth RNG for a given sweep.
///
/// Derived from `(seed, sweep)` only — never from the run's history — so
/// sequential, distributed, and resumed runs that reach the same sweep
/// with the same seed draw identical expansion columns.
pub fn expansion_rng(seed: u64, sweep: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0x5151_5151 ^ (sweep as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// When and where the rank-adaptive drivers write checkpoints.
#[derive(Clone, Debug)]
pub struct CheckpointPolicy {
    /// Directory holding `sweep_NNNN.rtck` files (created on first save).
    pub dir: PathBuf,
    /// Save the state entering every `every`-th sweep (1 ⇒ every sweep).
    pub every: usize,
    /// Resume from the latest checkpoint in `dir` if one exists.
    pub resume: bool,
}

impl CheckpointPolicy {
    /// A policy saving every sweep into `dir`, without resuming.
    pub fn new(dir: impl Into<PathBuf>) -> CheckpointPolicy {
        CheckpointPolicy {
            dir: dir.into(),
            every: 1,
            resume: false,
        }
    }

    /// Builder: save only every `n`-th sweep (`n` is clamped to ≥ 1).
    pub fn every(mut self, n: usize) -> Self {
        self.every = n.max(1);
        self
    }

    /// Builder: resume from the latest checkpoint if present.
    pub fn resuming(mut self) -> Self {
        self.resume = true;
        self
    }

    /// Whether the state entering `sweep` should be saved.
    pub fn should_save(&self, sweep: usize) -> bool {
        sweep.is_multiple_of(self.every)
    }

    /// The checkpoint path for a sweep index.
    pub fn path_for(&self, sweep: usize) -> PathBuf {
        self.dir.join(format!("sweep_{sweep:04}.rtck"))
    }

    /// The latest (highest-sweep) checkpoint file in the directory, if
    /// the directory exists and holds any.
    pub fn latest_path(&self) -> Option<PathBuf> {
        let entries = fs::read_dir(&self.dir).ok()?;
        let mut best: Option<(usize, PathBuf)> = None;
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let Some(stem) = name
                .strip_prefix("sweep_")
                .and_then(|s| s.strip_suffix(".rtck"))
            else {
                continue;
            };
            let Ok(sweep) = stem.parse::<usize>() else {
                continue;
            };
            if best.as_ref().is_none_or(|(b, _)| sweep > *b) {
                best = Some((sweep, entry.path()));
            }
        }
        best.map(|(_, p)| p)
    }
}

/// The state entering one rank-adaptive sweep.
#[derive(Clone, Debug)]
pub struct Checkpoint<T: Scalar> {
    /// Index of the sweep this state enters (0-based).
    pub sweep: usize,
    /// The run's RNG seed (`RaConfig::inner.seed`).
    pub seed: u64,
    /// The run's relative-error tolerance ε.
    pub eps: f64,
    /// Global squared norm `‖X‖²` of the input tensor.
    pub x_norm_sq: f64,
    /// Global tensor dimensions.
    pub dims: Vec<usize>,
    /// Current Tucker ranks.
    pub ranks: Vec<usize>,
    /// Current (replicated) factor matrices, one per mode.
    pub factors: Vec<Matrix<T>>,
}

impl<T: Scalar> Checkpoint<T> {
    /// Checks that this checkpoint belongs to a run with the given
    /// configuration fingerprint; returns a human-readable mismatch
    /// description otherwise.
    pub fn validate(
        &self,
        seed: u64,
        eps: f64,
        dims: &[usize],
        x_norm_sq: f64,
    ) -> Result<(), String> {
        if self.seed != seed {
            return Err(format!(
                "checkpoint seed {} != run seed {}",
                self.seed, seed
            ));
        }
        if self.eps != eps {
            return Err(format!("checkpoint eps {} != run eps {}", self.eps, eps));
        }
        if self.dims != dims {
            return Err(format!(
                "checkpoint dims {:?} != tensor dims {:?}",
                self.dims, dims
            ));
        }
        // ‖X‖² is a summation whose rounding depends on the reduction
        // order (sequential vs. grid), so compare with a tolerance.
        let scale = x_norm_sq.abs().max(1.0);
        if (self.x_norm_sq - x_norm_sq).abs() > 1e-6 * scale {
            return Err(format!(
                "checkpoint ‖X‖² = {} but the input tensor has {}",
                self.x_norm_sq, x_norm_sq
            ));
        }
        if self.ranks.len() != self.dims.len() || self.factors.len() != self.dims.len() {
            return Err("checkpoint rank/factor count does not match its order".into());
        }
        Ok(())
    }
}

impl<T: IoScalar> Checkpoint<T> {
    /// Serializes to the `RTCK` byte layout.
    fn encode(&self) -> Vec<u8> {
        let d = self.dims.len();
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.push(T::ELEM.size() as u8);
        buf.push(d as u8);
        buf.extend_from_slice(&self.seed.to_le_bytes());
        buf.extend_from_slice(&(self.sweep as u64).to_le_bytes());
        buf.extend_from_slice(&self.eps.to_le_bytes());
        buf.extend_from_slice(&self.x_norm_sq.to_le_bytes());
        for &n in &self.dims {
            buf.extend_from_slice(&(n as u64).to_le_bytes());
        }
        for &r in &self.ranks {
            buf.extend_from_slice(&(r as u64).to_le_bytes());
        }
        for u in &self.factors {
            buf.extend_from_slice(&(u.rows() as u64).to_le_bytes());
            buf.extend_from_slice(&(u.cols() as u64).to_le_bytes());
            for &x in u.as_slice() {
                x.write_le(&mut buf);
            }
        }
        let checksum = fnv1a(&buf);
        buf.extend_from_slice(&checksum.to_le_bytes());
        buf
    }

    /// Writes the checkpoint atomically (temp file + rename), creating
    /// the parent directory if needed.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let tmp = path.with_extension("rtck.tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&self.encode())?;
            f.sync_all()?;
        }
        fs::rename(&tmp, path)
    }

    /// Reads a checkpoint back.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Checkpoint<T>> {
        let bytes = fs::read(path)?;
        let mut cur = Cursor {
            bytes: &bytes,
            pos: 0,
        };
        if cur.take(4)? != MAGIC {
            return Err(bad("not an RTCK checkpoint file"));
        }
        let version = u32::from_le_bytes(cur.take(4)?.try_into().unwrap());
        if version != VERSION {
            return Err(bad(&format!("unsupported checkpoint version {version}")));
        }
        // Verify the trailing checksum before trusting any length field:
        // a corrupted size could otherwise send the parser far off course.
        if bytes.len() < 16 {
            return Err(bad("truncated checkpoint file"));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().unwrap());
        if fnv1a(body) != stored {
            return Err(bad("checkpoint checksum mismatch (file corrupted)"));
        }
        let elem = cur.take(1)?[0];
        if elem as usize != T::ELEM.size() {
            return Err(bad(&format!(
                "checkpoint stores {elem}-byte elements, requested {}-byte",
                T::ELEM.size()
            )));
        }
        let d = cur.take(1)?[0] as usize;
        if d == 0 {
            return Err(bad("zero-order checkpoint"));
        }
        let seed = cur.u64()?;
        let sweep = cur.u64()? as usize;
        let eps = f64::from_le_bytes(cur.take(8)?.try_into().unwrap());
        let x_norm_sq = f64::from_le_bytes(cur.take(8)?.try_into().unwrap());
        let dims: Vec<usize> = (0..d)
            .map(|_| cur.u64().map(|v| v as usize))
            .collect::<Result<_, _>>()?;
        let ranks: Vec<usize> = (0..d)
            .map(|_| cur.u64().map(|v| v as usize))
            .collect::<Result<_, _>>()?;
        let es = T::ELEM.size();
        let mut factors = Vec::with_capacity(d);
        for k in 0..d {
            let rows = cur.u64()? as usize;
            let cols = cur.u64()? as usize;
            // Checked arithmetic: a corrupt (but checksum-colliding)
            // length field must not overflow into a short read or panic.
            let n = rows
                .checked_mul(cols)
                .and_then(|n| n.checked_mul(es))
                .ok_or_else(|| bad("factor size overflows"))?;
            if rows != dims[k] || cols != ranks[k] {
                return Err(bad(&format!(
                    "factor {k} is {rows}x{cols} but the header promises {}x{}",
                    dims[k], ranks[k]
                )));
            }
            let data = cur.take(n)?;
            let elems: Vec<T> = data.chunks_exact(es).map(T::read_le).collect();
            factors.push(Matrix::from_vec(rows, cols, elems));
        }
        if cur.pos != body.len() {
            return Err(bad("trailing bytes after checkpoint payload"));
        }
        Ok(Checkpoint {
            sweep,
            seed,
            eps,
            x_norm_sq,
            dims,
            ranks,
            factors,
        })
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.pos + n > self.bytes.len() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "truncated checkpoint file",
            ));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// Hooks the rank-adaptive loops call around their sweeps; the no-op
/// implementation keeps the plain entry points free of any I/O bound.
pub(crate) trait RaCheckpointer<T: Scalar> {
    /// Loads the state to resume from, if any.
    fn resume(
        &mut self,
        seed: u64,
        eps: f64,
        dims: &[usize],
        x_norm_sq: f64,
    ) -> Option<Checkpoint<T>>;
    /// Whether the state entering `sweep` is to be saved.
    fn saves(&self, sweep: usize) -> bool;
    /// Persists the state entering a sweep.
    fn save(&mut self, ck: &Checkpoint<T>);

    /// Saves the state entering `sweep` if [`RaCheckpointer::saves`] it.
    /// The factors are copied only then. In the distributed driver the
    /// caller decides which rank writes: the state is replicated, so one
    /// writer per grid suffices.
    fn save_sweep(
        &mut self,
        config: &RaConfig,
        sweep: usize,
        x_norm_sq: f64,
        dims: &[usize],
        ranks: &[usize],
        factors: &[Matrix<T>],
    ) {
        if !self.saves(sweep) {
            return;
        }
        let _mem = ratucker_mem::with_phase(ratucker_mem::MemPhase::Checkpoint);
        self.save(&Checkpoint {
            sweep,
            seed: config.inner.seed,
            eps: config.eps,
            x_norm_sq,
            dims: dims.to_vec(),
            ranks: ranks.to_vec(),
            factors: factors.to_vec(),
        });
    }
}

/// Checkpointer that never saves or resumes.
pub(crate) struct NoCheckpoint;

impl<T: Scalar> RaCheckpointer<T> for NoCheckpoint {
    fn resume(&mut self, _: u64, _: f64, _: &[usize], _: f64) -> Option<Checkpoint<T>> {
        None
    }
    fn saves(&self, _: usize) -> bool {
        false
    }
    fn save(&mut self, _: &Checkpoint<T>) {}
}

/// File-backed checkpointer driven by a [`CheckpointPolicy`].
pub(crate) struct FileCheckpointer<'a> {
    pub policy: &'a CheckpointPolicy,
}

impl<T: IoScalar> RaCheckpointer<T> for FileCheckpointer<'_> {
    fn resume(
        &mut self,
        seed: u64,
        eps: f64,
        dims: &[usize],
        x_norm_sq: f64,
    ) -> Option<Checkpoint<T>> {
        if !self.policy.resume {
            return None;
        }
        let path = self.policy.latest_path()?;
        let ck = Checkpoint::<T>::load(&path)
            .unwrap_or_else(|e| panic!("failed to load checkpoint {}: {e}", path.display()));
        if let Err(msg) = ck.validate(seed, eps, dims, x_norm_sq) {
            panic!("refusing to resume from {}: {msg}", path.display());
        }
        Some(ck)
    }

    fn saves(&self, sweep: usize) -> bool {
        self.policy.should_save(sweep)
    }

    fn save(&mut self, ck: &Checkpoint<T>) {
        let path = self.policy.path_for(ck.sweep);
        ck.save(&path)
            .unwrap_or_else(|e| panic!("failed to write checkpoint {}: {e}", path.display()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ratucker_ckpt_test_{}_{name}", std::process::id()));
        p
    }

    fn sample() -> Checkpoint<f64> {
        Checkpoint {
            sweep: 2,
            seed: 42,
            eps: 0.1,
            x_norm_sq: 123.456,
            dims: vec![6, 5, 4],
            ranks: vec![3, 2, 2],
            factors: vec![
                Matrix::from_fn(6, 3, |i, j| (i * 10 + j) as f64),
                Matrix::from_fn(5, 2, |i, j| (i as f64) - (j as f64) * 0.5),
                Matrix::from_fn(4, 2, |i, j| ((i + j) as f64).sin()),
            ],
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let dir = tmp_dir("roundtrip");
        let ck = sample();
        let path = dir.join("sweep_0002.rtck");
        ck.save(&path).unwrap();
        let back = Checkpoint::<f64>::load(&path).unwrap();
        assert_eq!(back.sweep, 2);
        assert_eq!(back.seed, 42);
        assert_eq!(back.eps, 0.1);
        assert_eq!(back.x_norm_sq, 123.456);
        assert_eq!(back.dims, vec![6, 5, 4]);
        assert_eq!(back.ranks, vec![3, 2, 2]);
        for (a, b) in back.factors.iter().zip(&ck.factors) {
            assert_eq!(a.max_abs_diff(b), 0.0);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_precision_is_an_error() {
        let dir = tmp_dir("precision");
        let path = dir.join("sweep_0000.rtck");
        sample().save(&path).unwrap();
        assert!(Checkpoint::<f32>::load(&path).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbage_and_truncation_are_errors() {
        let dir = tmp_dir("garbage");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep_0000.rtck");
        fs::write(&path, b"definitely not a checkpoint").unwrap();
        assert!(Checkpoint::<f64>::load(&path).is_err());
        // A truncated real checkpoint must also fail cleanly.
        let full = sample().encode();
        fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(Checkpoint::<f64>::load(&path).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bytewise_corruption_is_a_typed_error_never_a_panic() {
        // Flip one byte at every offset of a valid checkpoint. Each
        // corruption must surface as a typed io::Error from load —
        // never a panic, never a silently wrong checkpoint (the trailing
        // FNV-1a checksum covers every byte, so single flips cannot
        // slip through).
        let dir = tmp_dir("corruption");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep_0002.rtck");
        let bytes = sample().encode();
        for pos in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0xA5;
            fs::write(&path, &corrupt).unwrap();
            let outcome = std::panic::catch_unwind(|| Checkpoint::<f64>::load(&path));
            let loaded = outcome.unwrap_or_else(|_| panic!("load panicked at offset {pos}"));
            assert!(
                loaded.is_err(),
                "corruption at offset {pos} loaded successfully"
            );
        }
        // Truncation at every length is likewise a clean error.
        for len in 0..bytes.len() {
            fs::write(&path, &bytes[..len]).unwrap();
            assert!(
                Checkpoint::<f64>::load(&path).is_err(),
                "truncation to {len} bytes loaded successfully"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn absurd_length_field_cannot_overflow() {
        // A length field of u64::MAX with a *recomputed* checksum (so the
        // integrity check passes) must die in checked arithmetic, not in
        // a wrapping multiply or capacity panic. Factor 0's row count
        // lives right after the header: magic(4) + version(4) + elem(1)
        // + d(1) + seed(8) + sweep(8) + eps(8) + ‖X‖²(8) + dims(3×8)
        // + ranks(3×8) = 90.
        let dir = tmp_dir("overflow");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep_0002.rtck");
        let mut bytes = sample().encode();
        bytes[90..98].copy_from_slice(&u64::MAX.to_le_bytes());
        let body_len = bytes.len() - 8;
        let checksum = fnv1a(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&checksum.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        let outcome = std::panic::catch_unwind(|| Checkpoint::<f64>::load(&path));
        assert!(outcome.expect("load must not panic").is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn latest_path_picks_highest_sweep() {
        let dir = tmp_dir("latest");
        let policy = CheckpointPolicy::new(&dir);
        assert!(policy.latest_path().is_none());
        for sweep in [0, 3, 1] {
            let mut ck = sample();
            ck.sweep = sweep;
            ck.save(policy.path_for(sweep)).unwrap();
        }
        // A stray non-checkpoint file must be ignored.
        fs::write(dir.join("notes.txt"), b"hi").unwrap();
        let latest = policy.latest_path().unwrap();
        assert!(latest.ends_with("sweep_0003.rtck"), "{latest:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn validate_rejects_mismatches() {
        let ck = sample();
        assert!(ck.validate(42, 0.1, &[6, 5, 4], 123.456).is_ok());
        assert!(ck.validate(43, 0.1, &[6, 5, 4], 123.456).is_err());
        assert!(ck.validate(42, 0.2, &[6, 5, 4], 123.456).is_err());
        assert!(ck.validate(42, 0.1, &[6, 5, 5], 123.456).is_err());
        assert!(ck.validate(42, 0.1, &[6, 5, 4], 999.0).is_err());
        // ‖X‖² comparison tolerates reduction-order rounding.
        assert!(ck.validate(42, 0.1, &[6, 5, 4], 123.456 + 1e-9).is_ok());
    }

    #[test]
    fn policy_gating() {
        let p = CheckpointPolicy::new("x").every(2);
        assert!(p.should_save(0));
        assert!(!p.should_save(1));
        assert!(p.should_save(2));
        // every(0) clamps to 1.
        assert_eq!(CheckpointPolicy::new("x").every(0).every, 1);
    }

    #[test]
    fn expansion_rng_is_sweep_local() {
        use rand::RngCore;
        let a = expansion_rng(7, 0).next_u64();
        let b = expansion_rng(7, 1).next_u64();
        let a2 = expansion_rng(7, 0).next_u64();
        assert_eq!(a, a2);
        assert_ne!(a, b);
    }
}
