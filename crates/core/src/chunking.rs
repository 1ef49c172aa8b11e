//! SparTen's chunk-aligned linearization.
//!
//! §3.1: data is stored Z-first and "we pad the SparseMaps with 0's when the
//! channel count is a non-multiple of 128 (chunk size)". Because the filter
//! never slides along Z, each spatial tap's channel fiber is padded to a
//! whole number of chunks, so chunk boundaries never straddle taps and the
//! input-map fiber chunks can be reused across filters and output positions.
//! The extreme case is the 3-channel input image: "bit masks with three 1's
//! padded by 125 0's".

use sparten_nn::Filter;
use sparten_tensor::{SparseVector, Tensor3};

/// Padded fiber length: channels rounded up to a multiple of `chunk_size`.
///
/// # Panics
///
/// Panics if `chunk_size == 0`.
pub fn padded_fiber_len(channels: usize, chunk_size: usize) -> usize {
    assert!(chunk_size > 0, "chunk size must be positive");
    channels.div_ceil(chunk_size) * chunk_size
}

/// Linearizes the `k × k` input window at output `(ox, oy)` with each tap's
/// channel fiber padded to a whole number of chunks. Taps outside the padded
/// input contribute all-zero fibers.
pub fn linearize_window_padded(
    input: &Tensor3,
    ox: usize,
    oy: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    chunk_size: usize,
) -> Vec<f32> {
    let d = input.channels();
    let pd = padded_fiber_len(d, chunk_size);
    let mut out = Vec::with_capacity(pd * kernel * kernel);
    for fy in 0..kernel {
        for fx in 0..kernel {
            let ix = (ox * stride + fx) as isize - pad as isize;
            let iy = (oy * stride + fy) as isize - pad as isize;
            if ix >= 0 && iy >= 0 && (ix as usize) < input.height() && (iy as usize) < input.width()
            {
                out.extend_from_slice(input.fiber(ix as usize, iy as usize));
            } else {
                out.extend(std::iter::repeat_n(0.0, d));
            }
            out.extend(std::iter::repeat_n(0.0, pd - d));
        }
    }
    out
}

/// Linearizes a filter with the same per-tap chunk padding, so that the
/// inner join of a window and a filter aligns chunk-for-chunk.
pub fn linearize_filter_padded(filter: &Filter, chunk_size: usize) -> Vec<f32> {
    let d = filter.channels();
    let k = filter.kernel();
    let pd = padded_fiber_len(d, chunk_size);
    let mut out = Vec::with_capacity(pd * k * k);
    for fy in 0..k {
        for fx in 0..k {
            out.extend_from_slice(filter.weights().fiber(fx, fy));
            out.extend(std::iter::repeat_n(0.0, pd - d));
        }
    }
    out
}

/// The padded linearized filter as a chunked sparse vector.
pub fn filter_to_chunks(filter: &Filter, chunk_size: usize) -> SparseVector {
    SparseVector::from_dense(&linearize_filter_padded(filter, chunk_size), chunk_size)
}

/// Non-zero count of each chunk of the padded linearized filter, in the
/// order of [`filter_to_chunks`] — a chunk's density is this count over
/// `chunk_size` — without building the [`SparseVector`].
///
/// # Panics
///
/// Panics if `chunk_size == 0`.
pub fn filter_chunk_nnz(filter: &Filter, chunk_size: usize) -> Vec<u32> {
    assert!(chunk_size > 0, "chunk size must be positive");
    let k = filter.kernel();
    let mut nnz = Vec::with_capacity(chunks_per_window(filter.channels(), k, chunk_size));
    for fy in 0..k {
        for fx in 0..k {
            for chunk in filter.weights().fiber(fx, fy).chunks(chunk_size) {
                nnz.push(chunk.iter().filter(|&&v| v != 0.0).count() as u32);
            }
        }
    }
    nnz
}

/// Number of chunks in one window / filter: `k² · ⌈d / chunk⌉`.
pub fn chunks_per_window(channels: usize, kernel: usize, chunk_size: usize) -> usize {
    kernel * kernel * channels.div_ceil(chunk_size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparten_nn::generate::random_tensor;

    #[test]
    fn padding_rounds_up() {
        assert_eq!(padded_fiber_len(3, 128), 128);
        assert_eq!(padded_fiber_len(128, 128), 128);
        assert_eq!(padded_fiber_len(192, 128), 256);
        assert_eq!(padded_fiber_len(512, 128), 512);
    }

    #[test]
    fn three_channel_image_padding() {
        // The paper's special case: 3 ones padded by 125 zeros per tap.
        let input = random_tensor(3, 4, 4, 1.0, 1);
        let w = linearize_window_padded(&input, 0, 0, 1, 1, 0, 128);
        assert_eq!(w.len(), 128);
        assert_eq!(w.iter().filter(|&&v| v != 0.0).count(), 3);
    }

    #[test]
    fn window_and_filter_chunks_align() {
        use sparten_nn::generate::random_filters;
        use sparten_nn::ConvShape;
        let shape = ConvShape::new(5, 6, 6, 3, 1, 1, 1);
        let input = random_tensor(5, 6, 6, 0.6, 2);
        let filters = random_filters(&shape, 0.5, 0.0, 3);
        let chunk = 4; // small chunk so padding bites (5 → 8 per tap)
        let w = linearize_window_padded(&input, 2, 2, 3, 1, 1, chunk);
        let f = linearize_filter_padded(&filters[0], chunk);
        assert_eq!(w.len(), f.len());
        assert_eq!(w.len(), 9 * 8);
        // The padded dot equals the unpadded convolution tap sum.
        let padded_dot: f32 = w.iter().zip(&f).map(|(a, b)| a * b).sum();
        let window = input.window_vector(2, 2, 3, 3, 1, 1);
        let lin = filters[0].linearize();
        let plain_dot: f32 = window.iter().zip(&lin).map(|(a, b)| a * b).sum();
        assert!((padded_dot - plain_dot).abs() < 1e-4);
    }

    #[test]
    fn out_of_bounds_taps_are_zero_fibers() {
        let input = random_tensor(2, 2, 2, 1.0, 4);
        // 3x3 window with pad 1 at output (0,0): 5 taps out of bounds.
        let w = linearize_window_padded(&input, 0, 0, 3, 1, 1, 2);
        let per_tap = 2;
        let zero_taps = w
            .chunks(per_tap)
            .filter(|t| t.iter().all(|&v| v == 0.0))
            .count();
        assert!(zero_taps >= 5);
    }

    #[test]
    fn chunks_per_window_formula() {
        assert_eq!(chunks_per_window(512, 3, 128), 36);
        assert_eq!(chunks_per_window(3, 11, 128), 121);
        assert_eq!(chunks_per_window(192, 1, 128), 2);
    }

    #[test]
    fn filter_chunk_nnz_matches_sparse_chunks() {
        use sparten_nn::generate::random_filters;
        use sparten_nn::ConvShape;
        for (d, chunk) in [(6, 4), (5, 4), (64, 64), (65, 64), (130, 128)] {
            let shape = ConvShape::new(d, 4, 4, 3, 3, 1, 0);
            for f in &random_filters(&shape, 0.5, 0.3, 6) {
                let sv = filter_to_chunks(f, chunk);
                let nnz: Vec<u32> = sv.chunks().iter().map(|c| c.nnz() as u32).collect();
                assert_eq!(filter_chunk_nnz(f, chunk), nnz, "d={d} chunk={chunk}");
            }
        }
    }

    #[test]
    fn filter_to_chunks_matches_linearization() {
        use sparten_nn::generate::random_filters;
        use sparten_nn::ConvShape;
        let shape = ConvShape::new(6, 4, 4, 2, 1, 1, 0);
        let f = &random_filters(&shape, 0.5, 0.0, 5)[0];
        let sv = filter_to_chunks(f, 4);
        assert_eq!(sv.to_dense(), linearize_filter_padded(f, 4));
        assert_eq!(sv.num_chunks(), chunks_per_window(6, 2, 4));
    }
}
