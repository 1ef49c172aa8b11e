//! Functional SCNN engine: the Cartesian-product dataflow computed exactly.
//!
//! §2.1: SCNN multiplies every non-zero input cell of a channel by every
//! non-zero filter weight of that channel and routes each product to the
//! output cell it belongs to (coordinate arithmetic instead of an inner
//! join). This module executes that dataflow numerically, which
//! (a) validates the premise the cycle-level SCNN model relies on — for
//! unit stride every product lands on a real output, so products ≈ true
//! MACs — and (b) demonstrates the §2.1.1 breakdown at non-unit strides,
//! where products falling between outputs are computed and discarded.

use sparten_nn::generate::Workload;
use sparten_telemetry::Telemetry;
use sparten_tensor::Tensor3;

/// Product accounting of one Cartesian-product run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CartesianStats {
    /// Products computed (all non-zero pairs sharing a channel).
    pub products: u64,
    /// Products accumulated into a real output cell.
    pub accumulated: u64,
    /// Products discarded: stride misses plus out-of-bounds (border) hits.
    pub discarded: u64,
}

impl CartesianStats {
    /// Fraction of computed products that were wasted.
    pub fn waste_fraction(&self) -> f64 {
        if self.products == 0 {
            0.0
        } else {
            self.discarded as f64 / self.products as f64
        }
    }
}

/// Runs the convolution as SCNN's Cartesian product and returns the output
/// tensor plus the product accounting, also recorded as
/// `SCNN-engine/work.*` counters into `tel` when given.
///
/// For stride s > 1 the product set is unchanged (the dataflow cannot skip
/// pairs) but only products whose coordinates land on the stride grid are
/// accumulated — the §2.1.1 inapplicability made executable.
pub fn scnn_cartesian_conv(
    workload: &Workload,
    tel: Option<&Telemetry>,
) -> (Tensor3, CartesianStats) {
    let (out, stats) = cartesian_conv_impl(workload);
    if let Some(t) = tel {
        t.metrics.counter("SCNN-engine/work.products").add(stats.products);
        t.metrics
            .counter("SCNN-engine/work.accumulated")
            .add(stats.accumulated);
        t.metrics
            .counter("SCNN-engine/work.discarded")
            .add(stats.discarded);
    }
    (out, stats)
}

fn cartesian_conv_impl(workload: &Workload) -> (Tensor3, CartesianStats) {
    let shape = &workload.shape;
    let (oh, ow) = (shape.out_height(), shape.out_width());
    let k = shape.kernel;
    let s = shape.stride as isize;
    let p = shape.pad as isize;
    let mut out = Tensor3::zeros(shape.num_filters, oh, ow);
    let mut stats = CartesianStats::default();

    // Per channel: gather non-zero inputs and non-zero weights, then take
    // the full Cartesian product.
    for z in 0..shape.in_channels {
        let mut inputs: Vec<(usize, usize, f32)> = Vec::new();
        for y in 0..shape.in_width {
            for x in 0..shape.in_height {
                let v = workload.input.get(z, x, y);
                if v != 0.0 {
                    inputs.push((x, y, v));
                }
            }
        }
        let mut weights: Vec<(usize, usize, usize, f32)> = Vec::new();
        for (f, filter) in workload.filters.iter().enumerate() {
            for fy in 0..k {
                for fx in 0..k {
                    let w = filter.weights().get(z, fx, fy);
                    if w != 0.0 {
                        weights.push((f, fx, fy, w));
                    }
                }
            }
        }
        for &(x, y, a) in &inputs {
            for &(f, fx, fy, w) in &weights {
                stats.products += 1;
                // Output coordinates from the coordinate difference
                // (SCNN's per-product address calculation).
                let num_x = x as isize - fx as isize + p;
                let num_y = y as isize - fy as isize + p;
                if num_x < 0 || num_y < 0 || num_x % s != 0 || num_y % s != 0 {
                    stats.discarded += 1;
                    continue;
                }
                let (ox, oy) = ((num_x / s) as usize, (num_y / s) as usize);
                if ox >= oh || oy >= ow {
                    stats.discarded += 1;
                    continue;
                }
                out.set(f, ox, oy, out.get(f, ox, oy) + a * w);
                stats.accumulated += 1;
            }
        }
    }
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workmodel::MaskModel;
    use sparten_nn::generate::workload;
    use sparten_nn::{conv2d, ConvShape};

    fn assert_close(a: &Tensor3, b: &Tensor3) {
        for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            assert!(
                (x - y).abs() < 1e-2,
                "cell {i}: cartesian {x} vs reference {y}"
            );
        }
    }

    #[test]
    fn unit_stride_matches_reference_convolution() {
        let shape = ConvShape::new(12, 8, 8, 3, 6, 1, 1);
        let w = workload(&shape, 0.5, 0.4, 1);
        let (out, stats) = scnn_cartesian_conv(&w, None);
        assert_close(&out, &conv2d(&w.input, &w.filters, &shape));
        // Unit-stride waste is border-only: small.
        assert!(
            stats.waste_fraction() < 0.35,
            "waste {}",
            stats.waste_fraction()
        );
    }

    #[test]
    fn accumulated_products_equal_true_sparse_macs() {
        // The cycle-level model's premise: useful products == the inner
        // join's MAC count.
        let shape = ConvShape::new(16, 7, 7, 3, 5, 1, 1);
        let w = workload(&shape, 0.4, 0.4, 2);
        let (_, stats) = scnn_cartesian_conv(&w, None);
        let model = MaskModel::new(&w, 64);
        assert_eq!(stats.accumulated, model.total_sparse_macs());
    }

    #[test]
    fn stride_two_still_computes_correct_outputs() {
        // SCNN can compute strided convolutions *correctly* — it just
        // wastes ~1 − 1/s² of its products doing so.
        let shape = ConvShape::new(8, 9, 9, 3, 4, 2, 1);
        let w = workload(&shape, 0.5, 0.5, 3);
        let (out, stats) = scnn_cartesian_conv(&w, None);
        assert_close(&out, &conv2d(&w.input, &w.filters, &shape));
        assert!(
            stats.waste_fraction() > 0.6,
            "stride-2 waste {}",
            stats.waste_fraction()
        );
    }

    #[test]
    fn stride_four_wastes_about_fifteen_sixteenths() {
        let shape = ConvShape::new(4, 21, 21, 5, 2, 4, 2);
        let w = workload(&shape, 0.6, 0.6, 4);
        let (out, stats) = scnn_cartesian_conv(&w, None);
        assert_close(&out, &conv2d(&w.input, &w.filters, &shape));
        assert!(
            stats.waste_fraction() > 0.85,
            "stride-4 waste {}",
            stats.waste_fraction()
        );
    }

    #[test]
    fn products_match_channel_pair_count() {
        let shape = ConvShape::new(8, 6, 6, 3, 4, 1, 1);
        let w = workload(&shape, 0.4, 0.4, 5);
        let (_, stats) = scnn_cartesian_conv(&w, None);
        let mut expect = 0u64;
        for z in 0..8 {
            let mut i = 0u64;
            for y in 0..6 {
                for x in 0..6 {
                    if w.input.get(z, x, y) != 0.0 {
                        i += 1;
                    }
                }
            }
            let mut f = 0u64;
            for filter in &w.filters {
                for fy in 0..3 {
                    for fx in 0..3 {
                        if filter.weights().get(z, fx, fy) != 0.0 {
                            f += 1;
                        }
                    }
                }
            }
            expect += i * f;
        }
        assert_eq!(stats.products, expect);
        assert_eq!(stats.products, stats.accumulated + stats.discarded);
    }
}
