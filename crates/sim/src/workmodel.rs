//! Fast bit-mask work model for the SparTen-family simulators.
//!
//! The cycle-level simulators need, for every (output position, filter,
//! chunk) triple, the popcount of the ANDed SparseMaps — the compute unit's
//! MAC count for that chunk. Doing this through the functional engine (which
//! also multiplies values) would be needlessly slow at AlexNet/VGG scale, so
//! this model precomputes the input's per-fiber masks and every filter's
//! per-chunk masks as packed `u64` words; a chunk's work is then a couple of
//! `AND` + `popcount` word operations. Integration tests verify the model
//! against the exact engine traces on small layers.
//!
//! Filter masks are stored *filter-major per chunk*: the words of window
//! chunk `c` for filters `0..F` sit next to each other. A simulator asks
//! for a whole [`MaskModel::work_row`] per output position — the work of
//! every (chunk, filter) pair at once — so each tap's input fiber is
//! resolved once, an all-zero input chunk zero-fills its `F` entries
//! without touching a filter word (the zero-chunk prescan), and a non-zero
//! one streams AND + popcount over `F · words_per_chunk` contiguous words.
//! On x86-64 the row kernel is dispatched at run time to an instance
//! compiled with the `popcnt` instruction (the baseline target only has a
//! software popcount); elsewhere the same generic body runs.
//!
//! The kernel is [`MaskModel::lane_row`], which reads any *lane table* with
//! the same per-chunk layout: [`MaskModel::lane_masks`] copies filter masks
//! into caller-chosen lanes (a SparTen schedule's unit-slot order, with
//! all-zero padding lanes), and `work_row` is its call on the identity
//! table, one lane per filter.
//!
//! The build itself works a word at a time: each 64-cell run of an input
//! or filter fiber becomes one `u64` through a branch-free fold, and the
//! non-zero counts are popcounts of the finished words. The layer's total
//! MAC count ([`MaskModel::total_sparse_macs`]) needs no per-filter work
//! per position: the filter masks of each window chunk are summed once
//! into `⌈log2(F+1)⌉` bit planes of per-cell filter counts, and a
//! position's work is the plane-weighted popcount of its input chunk ANDed
//! with each plane.
//!
//! There is deliberately no whole-layer work table: one row is
//! `k² · ⌈d/chunk⌉ · F` entries (72 KiB for a 512-filter, 512-channel 3×3
//! layer), while a table for every position of a VGG layer would hold tens
//! of millions of entries and dominate the process's peak memory.

use std::sync::OnceLock;

use sparten_arch::fast::{and_popcount_words, popcount_words};
use sparten_core::chunking::padded_fiber_len;
use sparten_nn::generate::Workload;
use sparten_nn::ConvShape;

/// Measured per-layer densities (see [`MaskModel::measure`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerMeasurement {
    /// Fraction of non-zero input cells.
    pub input_density: f64,
    /// Fraction of non-zero weights, over all filters.
    pub filter_density: f64,
    /// Population standard deviation of the per-filter densities.
    pub filter_density_std: f64,
}

/// Packed sparsity masks of one layer's workload.
#[derive(Debug, Clone)]
pub struct MaskModel {
    shape: ConvShape,
    chunk_size: usize,
    words_per_fiber: usize,
    chunks_per_fiber: usize,
    words_per_chunk: usize,
    /// `input_words[(x + h·y) · words_per_fiber ..]` = padded fiber mask.
    input_words: Vec<u64>,
    /// `filter_major[(c · F + f) · words_per_chunk ..]` = filter `f`'s mask
    /// for window chunk `c = tap · chunks_per_fiber + sub`, tap = fy·k + fx.
    filter_major: Vec<u64>,
    input_nnz: u64,
    weight_nnz: u64,
    zero_fiber: Vec<u64>,
    total_macs_cache: OnceLock<u64>,
}

impl MaskModel {
    /// Builds the mask model from a workload with the given chunk size.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is not a positive multiple of 64.
    pub fn new(workload: &Workload, chunk_size: usize) -> Self {
        assert!(
            chunk_size > 0 && chunk_size.is_multiple_of(64),
            "chunk size must be a positive multiple of 64"
        );
        let shape = workload.shape;
        let d = shape.in_channels;
        let padded = padded_fiber_len(d, chunk_size);
        let words_per_fiber = padded / 64;
        let chunks_per_fiber = padded / chunk_size;
        let words_per_chunk = chunk_size / 64;

        let (h, w) = (shape.in_height, shape.in_width);
        let mut input_words = vec![0u64; h * w * words_per_fiber];
        for y in 0..w {
            for x in 0..h {
                let base = (x + h * y) * words_per_fiber;
                for (j, cells) in workload.input.fiber(x, y).chunks(64).enumerate() {
                    input_words[base + j] = mask_word(cells);
                }
            }
        }
        let input_nnz = popcount_total(&input_words);

        let k = shape.kernel;
        let nf = shape.num_filters;
        let mut filter_major = vec![0u64; nf * k * k * words_per_fiber];
        for (f, filter) in workload.filters.iter().enumerate() {
            for tap in 0..k * k {
                let fiber = filter.weights().fiber(tap % k, tap / k);
                for (j, cells) in fiber.chunks(64).enumerate() {
                    let c = tap * chunks_per_fiber + j / words_per_chunk;
                    filter_major[(c * nf + f) * words_per_chunk + j % words_per_chunk] =
                        mask_word(cells);
                }
            }
        }
        let weight_nnz = popcount_total(&filter_major);

        MaskModel {
            shape,
            chunk_size,
            words_per_fiber,
            chunks_per_fiber,
            words_per_chunk,
            input_words,
            filter_major,
            input_nnz,
            weight_nnz,
            zero_fiber: vec![0u64; words_per_fiber],
            total_macs_cache: OnceLock::new(),
        }
    }

    /// The layer shape.
    pub fn shape(&self) -> &ConvShape {
        &self.shape
    }

    /// The configured chunk size.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Chunks per window: `k² · ⌈d/chunk⌉`.
    pub fn chunks_per_window(&self) -> usize {
        self.shape.kernel * self.shape.kernel * self.chunks_per_fiber
    }

    /// Total non-zero input cells.
    pub fn input_nnz(&self) -> u64 {
        self.input_nnz
    }

    /// Total non-zero weights.
    pub fn weight_nnz(&self) -> u64 {
        self.weight_nnz
    }

    /// Input fiber mask words for the tap `(tap_x, tap_y)` of output
    /// `(ox, oy)`; the all-zero fiber when the tap is out of bounds.
    #[inline]
    fn tap_fiber(&self, ox: usize, oy: usize, tap_x: usize, tap_y: usize) -> &[u64] {
        let ix = (ox * self.shape.stride + tap_x) as isize - self.shape.pad as isize;
        let iy = (oy * self.shape.stride + tap_y) as isize - self.shape.pad as isize;
        if ix < 0
            || iy < 0
            || ix as usize >= self.shape.in_height
            || iy as usize >= self.shape.in_width
        {
            &self.zero_fiber
        } else {
            let base = (ix as usize + self.shape.in_height * iy as usize) * self.words_per_fiber;
            &self.input_words[base..base + self.words_per_fiber]
        }
    }

    /// Mask words of filter `f` for window chunk `c`.
    #[inline]
    fn filter_chunk(&self, f: usize, c: usize) -> &[u64] {
        let base = (c * self.shape.num_filters + f) * self.words_per_chunk;
        &self.filter_major[base..base + self.words_per_chunk]
    }

    /// Two-sided join work (MACs) of chunk `c` for output `(ox, oy)` and
    /// filter `f`. Chunk indices are tap-major: `c = tap · chunks_per_fiber
    /// + sub`. Hot loops use [`MaskModel::work_row`] instead.
    #[inline]
    pub fn chunk_work(&self, ox: usize, oy: usize, f: usize, c: usize) -> u32 {
        let k = self.shape.kernel;
        let (tap, sub) = (c / self.chunks_per_fiber, c % self.chunks_per_fiber);
        let (tap_y, tap_x) = (tap / k, tap % k);
        let fiber = self.tap_fiber(ox, oy, tap_x, tap_y);
        let ibase = sub * self.words_per_chunk;
        and_popcount_words(
            &fiber[ibase..ibase + self.words_per_chunk],
            self.filter_chunk(f, c),
        )
    }

    /// Two-sided join work of output `(ox, oy)` for every chunk and filter:
    /// on return `row[c · F + f] == chunk_work(ox, oy, f, c)` for every
    /// window chunk `c` and filter `f` (`row` is resized to
    /// `chunks_per_window() · F`). The identity-table [`MaskModel::lane_row`].
    pub fn work_row(&self, ox: usize, oy: usize, row: &mut Vec<u32>) {
        self.lane_row(&self.filter_major, self.shape.num_filters, ox, oy, row);
    }

    /// Builds a lane table for [`MaskModel::lane_row`]: lane `j` of window
    /// chunk `c` holds filter `lane_filter(c, j)`'s chunk-`c` mask, and a
    /// `None` lane stays all-zero (a padding lane, whose work is always 0).
    pub fn lane_masks(
        &self,
        lanes: usize,
        lane_filter: impl Fn(usize, usize) -> Option<usize>,
    ) -> Vec<u64> {
        let wpc = self.words_per_chunk;
        let mut masks = vec![0u64; self.chunks_per_window() * lanes * wpc];
        for (i, lane) in masks.chunks_exact_mut(wpc).enumerate() {
            let c = i / lanes;
            if let Some(f) = lane_filter(c, i % lanes) {
                lane.copy_from_slice(self.filter_chunk(f, c));
            }
        }
        masks
    }

    /// Two-sided join work of output `(ox, oy)` for every chunk and lane of
    /// a table from [`MaskModel::lane_masks`]: on return `row[c · lanes +
    /// j]` is the AND + popcount of lane `j`'s chunk-`c` mask with the
    /// input window (`row` is resized to `chunks_per_window() · lanes`).
    ///
    /// # Panics
    ///
    /// Panics if `masks` does not hold `lanes` masks per window chunk.
    pub fn lane_row(&self, masks: &[u64], lanes: usize, ox: usize, oy: usize, row: &mut Vec<u32>) {
        assert_eq!(
            masks.len(),
            self.chunks_per_window() * lanes * self.words_per_chunk,
            "mask table does not match the lane count"
        );
        row.resize(self.chunks_per_window() * lanes, 0);
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("popcnt") {
            // SAFETY: the running CPU supports `popcnt`, checked just above.
            unsafe { self.lane_row_popcnt(masks, lanes, ox, oy, row) };
            return;
        }
        self.lane_row_body(masks, lanes, ox, oy, row);
    }

    /// [`MaskModel::lane_row_body`] compiled with the `popcnt` instruction.
    ///
    /// # Safety
    ///
    /// The running CPU must support `popcnt`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "popcnt")]
    unsafe fn lane_row_popcnt(
        &self,
        masks: &[u64],
        lanes: usize,
        ox: usize,
        oy: usize,
        row: &mut [u32],
    ) {
        self.lane_row_body(masks, lanes, ox, oy, row);
    }

    /// The row kernel both dispatch targets share; `row` is already sized.
    #[inline(always)]
    fn lane_row_body(&self, masks: &[u64], lanes: usize, ox: usize, oy: usize, row: &mut [u32]) {
        let k = self.shape.kernel;
        let wpc = self.words_per_chunk;
        for tap in 0..k * k {
            let fiber = self.tap_fiber(ox, oy, tap % k, tap / k);
            for (sub, input) in fiber.chunks_exact(wpc).enumerate() {
                let c = tap * self.chunks_per_fiber + sub;
                let out = &mut row[c * lanes..(c + 1) * lanes];
                // Prescan: an empty input chunk joins to nothing with
                // every lane.
                if input.iter().all(|&w| w == 0) {
                    out.fill(0);
                    continue;
                }
                let lane_words = &masks[c * lanes * wpc..(c + 1) * lanes * wpc];
                if let [a0, a1] = *input {
                    for (o, fw) in out.iter_mut().zip(lane_words.chunks_exact(2)) {
                        *o = (a0 & fw[0]).count_ones() + (a1 & fw[1]).count_ones();
                    }
                } else {
                    for (o, fw) in out.iter_mut().zip(lane_words.chunks_exact(wpc)) {
                        *o = input
                            .iter()
                            .zip(fw)
                            .map(|(a, b)| (a & b).count_ones())
                            .sum();
                    }
                }
            }
        }
    }

    /// One-sided work of chunk `c` for output `(ox, oy)`: the input chunk's
    /// popcount (every non-zero input is multiplied when filters stay dense).
    #[inline]
    pub fn onesided_chunk_work(&self, ox: usize, oy: usize, c: usize) -> u32 {
        let k = self.shape.kernel;
        let (tap, sub) = (c / self.chunks_per_fiber, c % self.chunks_per_fiber);
        let (tap_y, tap_x) = (tap / k, tap % k);
        let fiber = self.tap_fiber(ox, oy, tap_x, tap_y);
        let ibase = sub * self.words_per_chunk;
        popcount_words(&fiber[ibase..ibase + self.words_per_chunk])
    }

    /// Two-sided join work of a whole window for filter `f`.
    pub fn window_work(&self, ox: usize, oy: usize, f: usize) -> u64 {
        (0..self.chunks_per_window())
            .map(|c| self.chunk_work(ox, oy, f, c) as u64)
            .sum()
    }

    /// One-sided work of a whole window (independent of the filter).
    pub fn onesided_window_work(&self, ox: usize, oy: usize) -> u64 {
        (0..self.chunks_per_window())
            .map(|c| self.onesided_chunk_work(ox, oy, c) as u64)
            .sum()
    }

    /// Total two-sided MACs of the layer — the true sparse compute volume,
    /// equal to the sum of every position's [`MaskModel::work_row`].
    /// Cached after the first call (several simulators share it).
    ///
    /// Bit-sliced: Σ_f popcount(in & f) = Σ_p 2^p · popcount(in & plane_p),
    /// where plane `p` of a window chunk holds bit `p` of the number of
    /// filters non-zero at each cell. So each position costs `P =
    /// ⌈log2(F+1)⌉` AND + popcounts per chunk word instead of `F`.
    pub fn total_sparse_macs(&self) -> u64 {
        *self.total_macs_cache.get_or_init(|| {
            let planes = self.filter_count_planes();
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("popcnt") {
                // SAFETY: the running CPU supports `popcnt`, checked just above.
                return unsafe { self.plane_macs_popcnt(&planes) };
            }
            self.plane_macs_body(&planes)
        })
    }

    /// The per-cell filter counts of every window chunk as bit planes:
    /// `planes[(c · P + p) · words_per_chunk + w]` holds bit `p` of the
    /// counts of word `w` of chunk `c`, summed with a bit-sliced adder over
    /// the chunk's `F` filter masks. The count of one word lives in a local
    /// array, and a full adder takes two filters per step: it leaves their
    /// sum with plane 0 in plane 0 and ripples one carry through the rest.
    fn filter_count_planes(&self) -> Vec<u64> {
        let (nf, wpc) = (self.shape.num_filters, self.words_per_chunk);
        let bits = self.plane_count();
        let mut planes = vec![0u64; self.chunks_per_window() * bits * wpc];
        for (c, chunk_planes) in planes.chunks_exact_mut(bits * wpc).enumerate() {
            let masks = &self.filter_major[c * nf * wpc..(c + 1) * nf * wpc];
            for w in 0..wpc {
                let mut count = [0u64; 64];
                let mut words = masks.iter().skip(w).step_by(wpc);
                while let Some(&a) = words.next() {
                    let b = words.next().copied().unwrap_or(0);
                    let mut carry = (count[0] & a) | (b & (count[0] ^ a));
                    count[0] ^= a ^ b;
                    for plane in &mut count[1..bits] {
                        let t = *plane & carry;
                        *plane ^= carry;
                        carry = t;
                    }
                }
                for (p, &plane) in count[..bits].iter().enumerate() {
                    chunk_planes[p * wpc + w] = plane;
                }
            }
        }
        planes
    }

    /// Bit planes needed to count up to `F` filters: `⌈log2(F+1)⌉`.
    fn plane_count(&self) -> usize {
        (usize::BITS - self.shape.num_filters.leading_zeros()) as usize
    }

    /// [`MaskModel::plane_macs_body`] compiled with the `popcnt` instruction.
    ///
    /// # Safety
    ///
    /// The running CPU must support `popcnt`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "popcnt")]
    unsafe fn plane_macs_popcnt(&self, planes: &[u64]) -> u64 {
        self.plane_macs_body(planes)
    }

    /// Σ over window chunks and positions of the plane-weighted AND +
    /// popcount, skipping all-zero input chunks. Taps are the outer loop,
    /// so a chunk's planes stay hot across every position and only the
    /// positions whose tap lands inside the input are visited.
    #[inline(always)]
    fn plane_macs_body(&self, planes: &[u64]) -> u64 {
        let s = &self.shape;
        let (k, wpc) = (s.kernel, self.words_per_chunk);
        let bits = self.plane_count();
        let mut total = 0u64;
        for tap in 0..k * k {
            let (tap_x, tap_y) = (tap % k, tap / k);
            let xs = tap_outputs(tap_x, s.stride, s.pad, s.in_height, s.out_height());
            let ys = tap_outputs(tap_y, s.stride, s.pad, s.in_width, s.out_width());
            for sub in 0..self.chunks_per_fiber {
                let c = tap * self.chunks_per_fiber + sub;
                let chunk_planes = &planes[c * bits * wpc..(c + 1) * bits * wpc];
                for oy in ys.clone() {
                    let iy = oy * s.stride + tap_y - s.pad;
                    for ox in xs.clone() {
                        let ix = ox * s.stride + tap_x - s.pad;
                        let base = (ix + s.in_height * iy) * self.words_per_fiber + sub * wpc;
                        let input = &self.input_words[base..base + wpc];
                        if input.iter().all(|&w| w == 0) {
                            continue;
                        }
                        if let [a0, a1] = *input {
                            for (p, plane) in chunk_planes.chunks_exact(2).enumerate() {
                                let n = (a0 & plane[0]).count_ones() + (a1 & plane[1]).count_ones();
                                total += u64::from(n) << p;
                            }
                            continue;
                        }
                        for (p, plane) in chunk_planes.chunks_exact(wpc).enumerate() {
                            let n: u32 = input
                                .iter()
                                .zip(plane)
                                .map(|(a, b)| (a & b).count_ones())
                                .sum();
                            total += u64::from(n) << p;
                        }
                    }
                }
            }
        }
        total
    }

    /// Non-zero weights of filter `f` alone.
    pub fn filter_nnz(&self, f: usize) -> u64 {
        self.filter_chunk_nnz(f).iter().map(|&n| n as u64).sum()
    }

    /// Measured per-layer densities — the inputs the `sparten-model`
    /// analytical throughput model consumes. Input and filter densities are
    /// exact counts over the masks; `filter_density_std` is the population
    /// standard deviation of the per-filter densities, which drives the
    /// model's greedy-balance imbalance terms.
    pub fn measure(&self) -> LayerMeasurement {
        let cells_per_filter = (self.shape.window_len()) as f64;
        let nf = self.shape.num_filters;
        let densities: Vec<f64> = (0..nf)
            .map(|f| self.filter_nnz(f) as f64 / cells_per_filter)
            .collect();
        let mean = densities.iter().sum::<f64>() / nf as f64;
        let var = densities.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / nf as f64;
        LayerMeasurement {
            input_density: self.input_nnz as f64 / self.shape.input_cells() as f64,
            filter_density: self.weight_nnz as f64 / self.shape.weight_cells() as f64,
            filter_density_std: var.sqrt(),
        }
    }

    /// Per-chunk filter-mask popcounts for filter `f`, read from the masks
    /// (`chunking::filter_chunk_nnz` counts the same from the weights).
    pub fn filter_chunk_nnz(&self, f: usize) -> Vec<u32> {
        (0..self.chunks_per_window())
            .map(|c| popcount_words(self.filter_chunk(f, c)))
            .collect()
    }
}

/// The non-zero mask of up to 64 cells: bit `i` is set when `cells[i] !=
/// 0.0` (so `-0.0` is a zero), built without a branch per cell.
#[inline]
fn mask_word(cells: &[f32]) -> u64 {
    cells
        .iter()
        .enumerate()
        .fold(0, |word, (i, &v)| word | (u64::from(v != 0.0) << i))
}

/// The outputs along one axis whose tap at offset `tap` reads an input
/// cell inside `0..in_len`: `pad <= o · stride + tap < in_len + pad`.
fn tap_outputs(
    tap: usize,
    stride: usize,
    pad: usize,
    in_len: usize,
    out_len: usize,
) -> std::ops::Range<usize> {
    let lo = pad.saturating_sub(tap).div_ceil(stride);
    let hi = (in_len + pad).saturating_sub(tap).div_ceil(stride);
    lo.min(out_len)..hi.min(out_len)
}

/// Set bits over a word slice.
fn popcount_total(words: &[u64]) -> u64 {
    words.iter().map(|w| u64::from(w.count_ones())).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparten_nn::generate::workload;

    fn small_workload() -> Workload {
        let shape = ConvShape::new(70, 6, 6, 3, 5, 1, 1);
        workload(&shape, 0.5, 0.4, 7)
    }

    #[test]
    fn nnz_counts_match_tensors() {
        let w = small_workload();
        let m = MaskModel::new(&w, 64);
        assert_eq!(m.input_nnz() as usize, w.input.nnz());
        let wn: usize = w.filters.iter().map(|f| f.nnz()).sum();
        assert_eq!(m.weight_nnz() as usize, wn);
    }

    #[test]
    fn chunk_work_matches_functional_chunks() {
        use sparten_core::chunking::{filter_to_chunks, linearize_window_padded};
        use sparten_tensor::SparseVector;
        let w = small_workload();
        let chunk_size = 64;
        let m = MaskModel::new(&w, chunk_size);
        for (ox, oy) in [(0, 0), (2, 3), (3, 3)] {
            let win = linearize_window_padded(&w.input, ox, oy, 3, 1, 1, chunk_size);
            let win = SparseVector::from_dense(&win, chunk_size);
            for f in 0..w.filters.len() {
                let fc = filter_to_chunks(&w.filters[f], chunk_size);
                for c in 0..m.chunks_per_window() {
                    let expect = win.chunks()[c].join_work(&fc.chunks()[c]) as u32;
                    assert_eq!(
                        m.chunk_work(ox, oy, f, c),
                        expect,
                        "mismatch at pos ({ox},{oy}), filter {f}, chunk {c}"
                    );
                }
            }
        }
    }

    #[test]
    fn onesided_work_at_least_twosided() {
        let w = small_workload();
        let m = MaskModel::new(&w, 64);
        for f in 0..w.filters.len() {
            for c in 0..m.chunks_per_window() {
                assert!(m.onesided_chunk_work(1, 1, c) >= m.chunk_work(1, 1, f, c));
            }
        }
    }

    #[test]
    fn total_sparse_macs_matches_brute_force() {
        let w = small_workload();
        let m = MaskModel::new(&w, 64);
        let mut expect = 0u64;
        for oy in 0..w.shape.out_width() {
            for ox in 0..w.shape.out_height() {
                let win = w.input.window_vector(ox, oy, 3, 3, 1, 1);
                for f in &w.filters {
                    let lin = f.linearize();
                    expect += win
                        .iter()
                        .zip(&lin)
                        .filter(|(a, b)| **a != 0.0 && **b != 0.0)
                        .count() as u64;
                }
            }
        }
        assert_eq!(m.total_sparse_macs(), expect);
    }

    #[test]
    fn out_of_bounds_taps_contribute_zero() {
        let w = small_workload();
        let m = MaskModel::new(&w, 64);
        // Output (0,0) with pad 1: tap (0,0) reads input (-1,-1) → OOB.
        assert_eq!(m.onesided_chunk_work(0, 0, 0), 0);
    }

    #[test]
    fn stride_changes_window_work() {
        let shape = ConvShape::new(64, 9, 9, 3, 4, 2, 0);
        let w = workload(&shape, 0.5, 0.5, 3);
        let m = MaskModel::new(&w, 64);
        // Just exercise the path; correctness is covered by the engine
        // cross-check integration test.
        assert!(m.total_sparse_macs() > 0);
    }

    #[test]
    fn filter_chunk_nnz_sums_to_filter_nnz() {
        let w = small_workload();
        let m = MaskModel::new(&w, 64);
        for (f, filter) in w.filters.iter().enumerate() {
            let per_chunk: u32 = m.filter_chunk_nnz(f).iter().sum();
            assert_eq!(per_chunk as usize, filter.nnz());
        }
    }
}
