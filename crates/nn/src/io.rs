//! Workload serialization: share the exact tensors an experiment ran on.
//!
//! The harness generates workloads deterministically from seeds, but
//! cross-machine reproduction (or importing real pruned models) needs the
//! tensors themselves. This module defines a small, self-describing binary
//! format (`SPTN` magic, version, shape header, little-endian `f32` data)
//! for [`Tensor3`] and whole [`Workload`]s, with no third-party
//! dependencies.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::filter::Filter;
use crate::generate::Workload;
use crate::shape::ConvShape;
use sparten_tensor::Tensor3;

const MAGIC: &[u8; 4] = b"SPTN";
const VERSION: u32 = 1;

fn write_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_tensor(w: &mut impl Write, t: &Tensor3) -> io::Result<()> {
    write_u32(w, t.channels() as u32)?;
    write_u32(w, t.height() as u32)?;
    write_u32(w, t.width() as u32)?;
    for &v in t.as_slice() {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

/// A workload file being read, with the count of bytes not yet read: a
/// header cannot make the loader allocate more cells than the file holds.
struct Payload<R> {
    r: R,
    left: u64,
}

impl<R: Read> Payload<R> {
    fn word(&mut self) -> io::Result<[u8; 4]> {
        let mut b = [0u8; 4];
        self.r.read_exact(&mut b)?;
        self.left = self.left.saturating_sub(4);
        Ok(b)
    }

    fn u32(&mut self) -> io::Result<u32> {
        self.word().map(u32::from_le_bytes)
    }

    fn tensor(&mut self) -> io::Result<Tensor3> {
        let d = self.u32()? as usize;
        let h = self.u32()? as usize;
        let wd = self.u32()? as usize;
        let cells = d
            .checked_mul(h)
            .and_then(|n| n.checked_mul(wd))
            .filter(|&n| (n as u64).checked_mul(4).is_some_and(|b| b <= self.left))
            .ok_or_else(|| bad_data("tensor is larger than the rest of the file"))?;
        let mut data = vec![0f32; cells];
        for v in &mut data {
            *v = f32::from_le_bytes(self.word()?);
        }
        Ok(Tensor3::from_vec(data, d, h, wd))
    }
}

fn bad_data(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Saves a workload (shape, input tensor, filters) to `path`.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn save_workload(workload: &Workload, path: impl AsRef<Path>) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(MAGIC)?;
    write_u32(&mut w, VERSION)?;
    let s = &workload.shape;
    for v in [
        s.in_channels,
        s.in_height,
        s.in_width,
        s.kernel,
        s.num_filters,
        s.stride,
        s.pad,
    ] {
        write_u32(&mut w, v as u32)?;
    }
    write_tensor(&mut w, &workload.input)?;
    write_u32(&mut w, workload.filters.len() as u32)?;
    for f in &workload.filters {
        write_tensor(&mut w, f.weights())?;
    }
    w.flush()
}

/// Loads a workload previously written by [`save_workload`].
///
/// # Errors
///
/// Returns an error on I/O failure, a bad magic/version, a shape header
/// that `ConvShape::new` would refuse, a tensor larger than the rest of the
/// file, or a payload that is inconsistent with its own shape header. No
/// allocation is sized from the header before it is checked.
pub fn load_workload(path: impl AsRef<Path>) -> io::Result<Workload> {
    let file = File::open(path)?;
    let left = file.metadata()?.len();
    let mut r = Payload {
        r: BufReader::new(file),
        left,
    };
    if &r.word()? != MAGIC {
        return Err(bad_data("not a SparTen workload file"));
    }
    if r.u32()? != VERSION {
        return Err(bad_data("unsupported workload format version"));
    }
    let mut dims = [0u32; 7];
    for v in &mut dims {
        *v = r.u32()?;
    }
    // The checks `ConvShape::new` asserts, as errors: the header is data.
    if dims[..6].contains(&0) {
        return Err(bad_data("shape header has a zero dimension or stride"));
    }
    let [h, w, k, pad] = [dims[1], dims[2], dims[3], dims[6]].map(u64::from);
    if h + 2 * pad < k || w + 2 * pad < k {
        return Err(bad_data("shape header's kernel exceeds its padded input"));
    }
    let [d, h, w, k, nf, stride, pad] = dims.map(|v| v as usize);
    let shape = ConvShape::new(d, h, w, k, nf, stride, pad);
    let input = r.tensor()?;
    if (input.channels(), input.height(), input.width()) != (d, h, w) {
        return Err(bad_data("input tensor disagrees with the shape header"));
    }
    if r.u32()? as usize != nf {
        return Err(bad_data("filter count disagrees with the shape header"));
    }
    // No capacity from the header: each filter is checked against the
    // bytes left as it is read.
    let mut filters = Vec::new();
    for _ in 0..nf {
        let t = r.tensor()?;
        if (t.channels(), t.height(), t.width()) != (d, k, k) {
            return Err(bad_data("filter tensor disagrees with the shape header"));
        }
        filters.push(Filter::new(t));
    }
    Ok(Workload {
        input,
        filters,
        shape,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::workload;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "sparten-io-test-{}-{name}.sptn",
            std::process::id()
        ));
        p
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let shape = ConvShape::new(12, 7, 7, 3, 9, 2, 1);
        let w = workload(&shape, 0.4, 0.35, 99);
        let path = temp_path("roundtrip");
        save_workload(&w, &path).expect("save");
        let back = load_workload(&path).expect("load");
        std::fs::remove_file(&path).ok();
        assert_eq!(back.shape, w.shape);
        assert_eq!(back.input, w.input);
        assert_eq!(back.filters, w.filters);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let path = temp_path("badmagic");
        std::fs::write(&path, b"NOPE0000").expect("write");
        let err = load_workload(&path).expect_err("must fail");
        std::fs::remove_file(&path).ok();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_file_is_rejected() {
        let shape = ConvShape::new(4, 4, 4, 1, 2, 1, 0);
        let w = workload(&shape, 0.5, 0.5, 1);
        let path = temp_path("trunc");
        save_workload(&w, &path).expect("save");
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");
        assert!(load_workload(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    /// Writes a file holding `MAGIC`, `VERSION` and then `words`.
    fn raw_file(name: &str, words: &[u32]) -> std::path::PathBuf {
        let path = temp_path(name);
        let mut bytes = MAGIC.to_vec();
        for v in std::iter::once(VERSION).chain(words.iter().copied()) {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        std::fs::write(&path, bytes).expect("write");
        path
    }

    fn load_raw(name: &str, words: &[u32]) -> io::Error {
        let path = raw_file(name, words);
        let err = load_workload(&path).expect_err("malformed file must fail");
        std::fs::remove_file(&path).ok();
        err
    }

    #[test]
    fn zero_dimension_header_is_rejected() {
        for i in 0..5 {
            let mut dims = [2, 3, 3, 1, 2, 1, 0];
            dims[i] = 0;
            let err = load_raw(&format!("zerodim{i}"), &dims);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "dim {i}");
        }
    }

    #[test]
    fn zero_stride_header_is_rejected() {
        let err = load_raw("zerostride", &[2, 3, 3, 1, 2, 0, 0]);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn kernel_larger_than_padded_input_is_rejected() {
        let err = load_raw("bigkernel", &[2, 3, 3, 6, 2, 1, 1]);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Padding that just covers the kernel is fine up to the payload.
        let err = load_raw("padkernel", &[2, 3, 3, 5, 2, 1, 1]);
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn overflowing_tensor_dims_are_rejected_before_allocating() {
        let big = u32::MAX;
        let err = load_raw("overflow", &[big, big, big, 1, 1, 1, 0, big, big, big]);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn tensor_larger_than_the_file_is_rejected_before_allocating() {
        // 2^16 · 2^16 · 2^8 cells is 16 GiB of f32s behind a 56-byte file.
        let (d, h, w) = (1 << 16, 1 << 16, 1 << 8);
        let err = load_raw("huge", &[d, h, w, 1, 1, 1, 0, d, h, w]);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // One cell more than the file holds.
        let err = load_raw("oneover", &[1, 1, 2, 1, 1, 1, 0, 1, 1, 2, 0]);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn huge_filter_count_fails_on_the_payload() {
        // The count matches the header but no filter follows it.
        let n = u32::MAX;
        let err = load_raw("manyfilters", &[1, 1, 1, 1, n, 1, 0, 1, 1, 1, 0, n]);
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn loaded_workload_simulates_identically() {
        let shape = ConvShape::new(16, 5, 5, 3, 6, 1, 1);
        let w = workload(&shape, 0.4, 0.4, 7);
        let path = temp_path("sim");
        save_workload(&w, &path).expect("save");
        let back = load_workload(&path).expect("load");
        std::fs::remove_file(&path).ok();
        use crate::conv::conv2d;
        let a = conv2d(&w.input, &w.filters, &shape);
        let b = conv2d(&back.input, &back.filters, &shape);
        assert_eq!(a, b);
    }
}
