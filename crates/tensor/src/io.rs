//! Raw binary tensor I/O.
//!
//! TuckerMPI consumes scientific datasets as raw little-endian arrays of
//! `f32`/`f64` (the Miranda preprocessing step of the paper's artifact
//! produces exactly that). This module reads and writes that format, plus
//! a small self-describing header variant (`.rtt`, "ratucker tensor") so
//! round trips do not need out-of-band shape information.
//!
//! Block reads ([`read_block_raw`]) let each rank of a distributed run
//! load only its own sub-block with seeks, without materializing the full
//! tensor anywhere.

use crate::dense::DenseTensor;
use crate::scalar::Scalar;
use crate::shape::Shape;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Magic bytes of the self-describing format.
const MAGIC: &[u8; 4] = b"RTT1";

/// Element types representable in the headers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ElemType {
    /// 32-bit float.
    F32,
    /// 64-bit float.
    F64,
}

impl ElemType {
    fn code(self) -> u8 {
        match self {
            ElemType::F32 => 4,
            ElemType::F64 => 8,
        }
    }

    fn from_code(c: u8) -> io::Result<ElemType> {
        match c {
            4 => Ok(ElemType::F32),
            8 => Ok(ElemType::F64),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown element type code {other}"),
            )),
        }
    }

    /// Size in bytes.
    pub fn size(self) -> usize {
        self.code() as usize
    }
}

/// A [`Scalar`] with a fixed on-disk little-endian encoding.
pub trait IoScalar: Scalar {
    /// The element type tag.
    const ELEM: ElemType;
    /// Encodes into little-endian bytes.
    fn write_le(self, buf: &mut Vec<u8>);
    /// Decodes from little-endian bytes (`bytes.len() == ELEM.size()`).
    fn read_le(bytes: &[u8]) -> Self;
}

impl IoScalar for f32 {
    const ELEM: ElemType = ElemType::F32;
    fn write_le(self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn read_le(bytes: &[u8]) -> Self {
        f32::from_le_bytes(bytes.try_into().expect("4 bytes"))
    }
}

impl IoScalar for f64 {
    const ELEM: ElemType = ElemType::F64;
    fn write_le(self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn read_le(bytes: &[u8]) -> Self {
        f64::from_le_bytes(bytes.try_into().expect("8 bytes"))
    }
}

fn encode_elems<T: IoScalar>(data: &[T]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(data.len() * T::ELEM.size());
    for &x in data {
        x.write_le(&mut buf);
    }
    buf
}

fn decode_elems<T: IoScalar>(bytes: &[u8]) -> io::Result<Vec<T>> {
    let es = T::ELEM.size();
    if !bytes.len().is_multiple_of(es) {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "byte count not a multiple of the element size",
        ));
    }
    Ok(bytes.chunks_exact(es).map(T::read_le).collect())
}

/// Writes a tensor as a headerless raw little-endian array (TuckerMPI's
/// input convention; layout order = this crate's layout order).
pub fn write_raw<T: IoScalar>(path: impl AsRef<Path>, x: &DenseTensor<T>) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(&encode_elems(x.data()))?;
    w.flush()
}

/// Reads a headerless raw array; the shape must be supplied (as the
/// paper's drivers do via the parameter file's `Global dims`).
pub fn read_raw<T: IoScalar>(
    path: impl AsRef<Path>,
    shape: impl Into<Shape>,
) -> io::Result<DenseTensor<T>> {
    let shape = shape.into();
    let mut bytes = Vec::new();
    BufReader::new(File::open(path)?).read_to_end(&mut bytes)?;
    let data: Vec<T> = decode_elems(&bytes)?;
    if data.len() != shape.num_entries() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "file holds {} elements but shape {shape} needs {}",
                data.len(),
                shape.num_entries()
            ),
        ));
    }
    Ok(DenseTensor::from_vec(shape, data))
}

/// Writes a tensor with a self-describing header
/// (`RTT1 | elem-code u8 | order u8 | dims u64×d | payload`).
pub fn write_rtt<T: IoScalar>(path: impl AsRef<Path>, x: &DenseTensor<T>) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(MAGIC)?;
    w.write_all(&[T::ELEM.code(), x.order() as u8])?;
    for k in 0..x.order() {
        w.write_all(&(x.dim(k) as u64).to_le_bytes())?;
    }
    w.write_all(&encode_elems(x.data()))?;
    w.flush()
}

/// Reads the header of a self-describing file: `(elem type, shape)`.
pub fn read_rtt_header(path: impl AsRef<Path>) -> io::Result<(ElemType, Shape)> {
    let mut r = BufReader::new(File::open(path)?);
    read_header(&mut r)
}

fn read_header<R: Read>(r: &mut R) -> io::Result<(ElemType, Shape)> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not an RTT1 file",
        ));
    }
    let mut meta = [0u8; 2];
    r.read_exact(&mut meta)?;
    let elem = ElemType::from_code(meta[0])?;
    let order = meta[1] as usize;
    if order == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "zero-order tensor",
        ));
    }
    let mut dims = Vec::with_capacity(order);
    for _ in 0..order {
        let mut b = [0u8; 8];
        r.read_exact(&mut b)?;
        dims.push(u64::from_le_bytes(b) as usize);
    }
    Ok((elem, Shape::new(&dims)))
}

/// Reads a self-describing tensor file.
pub fn read_rtt<T: IoScalar>(path: impl AsRef<Path>) -> io::Result<DenseTensor<T>> {
    let mut r = BufReader::new(File::open(path)?);
    let (elem, shape) = read_header(&mut r)?;
    if elem != T::ELEM {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("file stores {elem:?}, requested {:?}", T::ELEM),
        ));
    }
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    let data: Vec<T> = decode_elems(&bytes)?;
    if data.len() != shape.num_entries() {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "truncated payload",
        ));
    }
    Ok(DenseTensor::from_vec(shape, data))
}

/// Reads one block `offset[k]..offset[k]+len[k]` of a headerless raw
/// tensor of global shape `global`, seeking over the file so only the
/// block's bytes are read — what each rank of a distributed run does.
pub fn read_block_raw<T: IoScalar>(
    path: impl AsRef<Path>,
    global: &Shape,
    offsets: &[usize],
    lens: &[usize],
) -> io::Result<DenseTensor<T>> {
    assert_eq!(offsets.len(), global.order());
    assert_eq!(lens.len(), global.order());
    let es = T::ELEM.size();
    let mut f = File::open(path)?;
    let local_shape = Shape::new(lens);
    let mut out: Vec<T> = Vec::with_capacity(local_shape.num_entries());
    let mut buf = Vec::new();
    // One seek and read per contiguous run of the block in the file.
    let mut status = Ok(());
    let zeros = vec![0; lens.len()];
    crate::dense::for_each_run(global.dims(), offsets, lens, &zeros, lens, |s, _, len| {
        if status.is_ok() {
            buf.resize(len * es, 0u8);
            status = f
                .seek(SeekFrom::Start((s * es) as u64))
                .and_then(|_| f.read_exact(&mut buf))
                .and_then(|()| decode_elems::<T>(&buf))
                .map(|run| out.extend(run));
        }
    });
    status?;
    Ok(DenseTensor::from_vec(local_shape, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ratucker_io_test_{}_{name}", std::process::id()));
        p
    }

    fn sample() -> DenseTensor<f64> {
        DenseTensor::from_fn([3, 4, 2], |idx| {
            (idx[0] + 10 * idx[1] + 100 * idx[2]) as f64
        })
    }

    #[test]
    fn raw_roundtrip() {
        let p = tmp("raw");
        let x = sample();
        write_raw(&p, &x).unwrap();
        let back: DenseTensor<f64> = read_raw(&p, [3, 4, 2]).unwrap();
        assert_eq!(back.max_abs_diff(&x), 0.0);
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn raw_shape_mismatch_is_error() {
        let p = tmp("raw_mismatch");
        write_raw(&p, &sample()).unwrap();
        let err = read_raw::<f64>(&p, [3, 4, 3]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn rtt_roundtrip_with_header() {
        let p = tmp("rtt");
        let x = sample();
        write_rtt(&p, &x).unwrap();
        let (elem, shape) = read_rtt_header(&p).unwrap();
        assert_eq!(elem, ElemType::F64);
        assert_eq!(shape.dims(), &[3, 4, 2]);
        let back: DenseTensor<f64> = read_rtt(&p).unwrap();
        assert_eq!(back.max_abs_diff(&x), 0.0);
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn rtt_f32_roundtrip() {
        let p = tmp("rtt32");
        let x = DenseTensor::from_fn([5, 2], |idx| (idx[0] as f32) - 0.5 * idx[1] as f32);
        write_rtt(&p, &x).unwrap();
        let back: DenseTensor<f32> = read_rtt(&p).unwrap();
        assert_eq!(back.max_abs_diff(&x), 0.0);
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn rtt_wrong_precision_is_error() {
        let p = tmp("rtt_wrong");
        write_rtt(&p, &sample()).unwrap();
        assert!(read_rtt::<f32>(&p).is_err());
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn rtt_rejects_garbage() {
        let p = tmp("garbage");
        std::fs::write(&p, b"not a tensor at all").unwrap();
        assert!(read_rtt::<f64>(&p).is_err());
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn block_read_matches_leading_and_interior_blocks() {
        let p = tmp("block");
        let x = sample();
        write_raw(&p, &x).unwrap();
        // Interior block.
        let block: DenseTensor<f64> =
            read_block_raw(&p, x.shape(), &[1, 1, 0], &[2, 2, 2]).unwrap();
        assert_eq!(block.shape().dims(), &[2, 2, 2]);
        for idx in block.shape().indices() {
            let gidx = [idx[0] + 1, idx[1] + 1, idx[2]];
            assert_eq!(block.get(&idx), x.get(&gidx), "{idx:?}");
        }
        // Full-tensor "block".
        let full: DenseTensor<f64> = read_block_raw(&p, x.shape(), &[0, 0, 0], &[3, 4, 2]).unwrap();
        assert_eq!(full.max_abs_diff(&x), 0.0);
        std::fs::remove_file(p).unwrap();
    }
}
