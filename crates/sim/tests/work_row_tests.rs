//! Differential oracle for `MaskModel::work_row`, the per-position fast
//! path every SparTen schedule runs on and the reference the bit-sliced
//! total-MAC count is checked against.
//!
//! Every entry `row[c · F + f]` of every output position is checked
//! against two slower paths:
//!
//! * the functional join — `linearize_window_padded` + `filter_to_chunks`
//!   and `SparseChunk::join_work` — which knows nothing of the mask
//!   model's packed layout;
//! * the per-pair `MaskModel::chunk_work`.
//!
//! The grid straddles chunk boundaries (3, 63, 64, 65, 130 and 200
//! channels), covers 64-, 128- and 256-wide chunks (the generic and the
//! two-word kernels), strides 1/2/4, pads 0/1/2, and all-zero and all-one
//! densities (the zero-chunk prescan and its absence). The default run
//! walks a covering slice of the grid; `--features exhaustive-tests` walks
//! all of it.

use sparten_core::chunking::{filter_to_chunks, linearize_window_padded};
use sparten_nn::generate::{workload, Workload};
use sparten_nn::{ConvShape, Filter};
use sparten_sim::MaskModel;
use sparten_tensor::{SparseVector, Tensor3};

const STRIDES: [usize; 3] = [1, 2, 4];
const PADS: [usize; 3] = [0, 1, 2];
const CHANNELS: [usize; 6] = [3, 63, 64, 65, 130, 200];
const CHUNKS: [usize; 3] = [64, 128, 256];
const KERNELS: [usize; 4] = [3, 1, 3, 5];

/// Input density, filter density (`None`: every filter all-zero).
const DENSITIES: [(f64, Option<f64>); 5] = [
    (0.0, Some(0.4)),
    (1.0, Some(1.0)),
    (0.35, None),
    (0.35, Some(0.4)),
    (1.0, Some(0.3)),
];

fn layer(d: usize, k: usize, stride: usize, pad: usize, dens: usize, seed: u64) -> Workload {
    let shape = ConvShape::new(d, 8, 9, k, 7, stride, pad);
    let (input_density, filter_density) = DENSITIES[dens];
    let mut w = workload(&shape, input_density, filter_density.unwrap_or(0.5), seed);
    if filter_density.is_none() {
        w.filters = (0..shape.num_filters)
            .map(|_| Filter::new(Tensor3::zeros(d, k, k)))
            .collect();
    }
    w
}

/// Checks every row entry of every position of `w` under `chunk`.
/// `row` is reused across layers, so its resizing is exercised too.
fn check_layer(w: &Workload, chunk: usize, row: &mut Vec<u32>) {
    let s = w.shape;
    let m = MaskModel::new(w, chunk);
    let nf = s.num_filters;
    let chunks = m.chunks_per_window();
    let filter_chunks: Vec<SparseVector> = w
        .filters
        .iter()
        .map(|f| filter_to_chunks(f, chunk))
        .collect();
    let mut total = 0u64;
    for oy in 0..s.out_width() {
        for ox in 0..s.out_height() {
            m.work_row(ox, oy, row);
            assert_eq!(row.len(), chunks * nf, "{s:?} chunk {chunk}: row length");
            let win = linearize_window_padded(&w.input, ox, oy, s.kernel, s.stride, s.pad, chunk);
            let win = SparseVector::from_dense(&win, chunk);
            for c in 0..chunks {
                for (f, fc) in filter_chunks.iter().enumerate() {
                    let got = row[c * nf + f];
                    let functional = win.chunks()[c].join_work(&fc.chunks()[c]) as u32;
                    assert_eq!(
                        got, functional,
                        "{s:?} chunk {chunk}: work_row vs functional join at \
                         ({ox},{oy}) filter {f} chunk {c}"
                    );
                    assert_eq!(
                        got,
                        m.chunk_work(ox, oy, f, c),
                        "{s:?} chunk {chunk}: work_row vs chunk_work at \
                         ({ox},{oy}) filter {f} chunk {c}"
                    );
                    total += got as u64;
                }
            }
        }
    }
    assert_eq!(
        m.total_sparse_macs(),
        total,
        "{s:?} chunk {chunk}: total MACs"
    );
}

/// Every grid case as `(channels, chunk, kernel, stride, pad, density)`.
/// The default slice enumerates each (channels, chunk) pair once and
/// cycles the other axes so that each of their values meets both the
/// generic and the two-word kernel.
fn grid() -> Vec<(usize, usize, usize, usize, usize, usize)> {
    let mut cases = Vec::new();
    if cfg!(feature = "exhaustive-tests") {
        for (i, &d) in CHANNELS.iter().enumerate() {
            for &chunk in &CHUNKS {
                for &stride in &STRIDES {
                    for &pad in &PADS {
                        for dens in 0..DENSITIES.len() {
                            let k = KERNELS[(i + dens) % KERNELS.len()];
                            cases.push((d, chunk, k, stride, pad, dens));
                        }
                    }
                }
            }
        }
    } else {
        let mut i = 0;
        for &d in &CHANNELS {
            for &chunk in &CHUNKS {
                cases.push((
                    d,
                    chunk,
                    KERNELS[i % KERNELS.len()],
                    STRIDES[i % STRIDES.len()],
                    PADS[(i / STRIDES.len()) % PADS.len()],
                    i % DENSITIES.len(),
                ));
                i += 1;
            }
        }
    }
    cases
}

#[test]
fn work_row_matches_functional_join_and_chunk_work() {
    let mut row = Vec::new();
    for (seed, (d, chunk, k, stride, pad, dens)) in grid().into_iter().enumerate() {
        let w = layer(d, k, stride, pad, dens, 4000 + seed as u64);
        check_layer(&w, chunk, &mut row);
    }
}

#[test]
fn empty_input_rows_are_all_zero() {
    // The prescan path alone: no input chunk has a set bit.
    let mut row = vec![7u32; 3];
    for chunk in CHUNKS {
        let w = layer(130, 3, 2, 1, 0, 11);
        let m = MaskModel::new(&w, chunk);
        m.work_row(1, 1, &mut row);
        assert_eq!(row.len(), m.chunks_per_window() * w.shape.num_filters);
        assert!(row.iter().all(|&x| x == 0), "chunk {chunk}: non-zero row");
        assert_eq!(m.total_sparse_macs(), 0);
    }
}

#[test]
fn dense_rows_count_filter_nnz_per_chunk() {
    // With an all-ones input window inside the image, each row entry is
    // the filter chunk's own popcount.
    let w = layer(200, 3, 1, 0, 4, 12);
    for chunk in CHUNKS {
        let m = MaskModel::new(&w, chunk);
        let nf = w.shape.num_filters;
        let mut row = Vec::new();
        m.work_row(2, 3, &mut row);
        for f in 0..nf {
            for (c, &nnz) in m.filter_chunk_nnz(f).iter().enumerate() {
                assert_eq!(row[c * nf + f], nnz, "chunk {chunk}: filter {f} chunk {c}");
            }
        }
    }
}
