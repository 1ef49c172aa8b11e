//! Cross-simulator invariants on a randomized layer sweep.
//!
//! Two properties must hold for *every* layer and every architecture:
//!
//! 1. **MAC-count ground truth** — the number of `JoinStep`s the
//!    word-parallel `fast_join` emits over a window equals the dense
//!    reference's count of position pairs where both operands are
//!    non-zero, and equals the `MaskModel`'s precomputed work. This ties
//!    the fast path, the functional chunking, and the simulators' work
//!    model to one number.
//! 2. **Breakdown accounting identity** — each simulator's execution-time
//!    decomposition satisfies `nonzero + zero + intra + inter ==
//!    compute_cycles × total_units` (the invariant Figures 10–12 rely on
//!    for their normalized stacked bars).
//!
//! The sweep is seeded and deterministic; `exhaustive-tests` widens it.

use sparten_arch::fast::fast_join;
use sparten_core::chunking::{filter_to_chunks, linearize_window_padded};
use sparten_nn::generate::{workload, Workload};
use sparten_nn::ConvShape;
use sparten_sim::cambricon::simulate_cambricon;
use sparten_sim::{simulate_layer, MaskModel, Scheme, SimConfig};
use sparten_tensor::{Rng64, SparseVector};

fn sweep_cases(default: usize, exhaustive: usize) -> usize {
    if cfg!(feature = "exhaustive-tests") {
        exhaustive
    } else {
        default
    }
}

/// A small randomized layer: channels, spatial size, kernel, stride, pad,
/// and densities all drawn from the seeded generator.
fn random_layer(rng: &mut Rng64) -> (Workload, ConvShape) {
    let kernel: usize = [1, 3, 3, 5][rng.gen_range_usize(0, 4)];
    let stride = 1 + rng.gen_range_usize(0, 2);
    let pad = rng.gen_range_usize(0, kernel.div_ceil(2) + 1);
    let side = kernel + stride + rng.gen_range_usize(0, 4);
    let channels = rng.gen_range_usize(3, 80);
    let filters = rng.gen_range_usize(1, 9);
    let shape = ConvShape::new(channels, side, side, kernel, filters, stride, pad);
    let input_density = rng.gen_range_f64(0.15, 0.85);
    let filter_density = rng.gen_range_f64(0.15, 0.85);
    let seed = rng.next_u64();
    (
        workload(&shape, input_density, filter_density, seed),
        shape,
    )
}

/// Dense-reference nonzero-product count for one (window, filter) pair.
fn dense_reference_macs(w: &Workload, ox: usize, oy: usize, f: usize) -> usize {
    let shape = &w.shape;
    let win = w
        .input
        .window_vector(ox, oy, shape.kernel, shape.kernel, shape.stride, shape.pad);
    let lin = w.filters[f].linearize();
    win.iter()
        .zip(&lin)
        .filter(|(a, b)| **a != 0.0 && **b != 0.0)
        .count()
}

#[test]
fn fast_join_mac_count_equals_dense_reference() {
    let mut rng = Rng64::seed_from_u64(0xFA57);
    let chunk_size = 64;
    for _ in 0..sweep_cases(6, 60) {
        let (w, shape) = random_layer(&mut rng);
        let model = MaskModel::new(&w, chunk_size);
        let filter_chunks: Vec<SparseVector> = w
            .filters
            .iter()
            .map(|f| filter_to_chunks(f, chunk_size))
            .collect();
        // Sample a few output positions rather than the full plane.
        for _ in 0..3 {
            let ox = rng.gen_range_usize(0, shape.out_height());
            let oy = rng.gen_range_usize(0, shape.out_width());
            let win = linearize_window_padded(
                &w.input,
                ox,
                oy,
                shape.kernel,
                shape.stride,
                shape.pad,
                chunk_size,
            );
            let win = SparseVector::from_dense(&win, chunk_size);
            for (f, fc) in filter_chunks.iter().enumerate() {
                let mut join_macs = 0usize;
                for (ic, fcc) in win.chunks().iter().zip(fc.chunks()) {
                    let mut join = fast_join(ic, fcc);
                    join_macs += join.by_ref().count();
                }
                let expect = dense_reference_macs(&w, ox, oy, f);
                assert_eq!(join_macs, expect, "fast_join vs dense reference");
                assert_eq!(
                    model.window_work(ox, oy, f) as usize,
                    expect,
                    "mask model vs dense reference"
                );
            }
        }
        // And in aggregate: the cached total equals the brute-force total.
        let total: u64 = (0..shape.out_width())
            .flat_map(|oy| (0..shape.out_height()).map(move |ox| (ox, oy)))
            .map(|(ox, oy)| {
                (0..w.filters.len())
                    .map(|f| dense_reference_macs(&w, ox, oy, f) as u64)
                    .sum::<u64>()
            })
            .sum();
        assert_eq!(model.total_sparse_macs(), total);
    }
}

#[test]
fn breakdown_accounting_identity_holds_across_simulators() {
    let mut rng = Rng64::seed_from_u64(0xB4EA);
    let config = SimConfig::small();
    for _ in 0..sweep_cases(6, 60) {
        let (w, _shape) = random_layer(&mut rng);
        let model = MaskModel::new(&w, config.accel.cluster.chunk_size);
        for scheme in Scheme::all() {
            let r = simulate_layer(&w, &model, &config, scheme);
            assert!(
                r.accounting_holds(),
                "{}: breakdown {:?} != {} cycles × {} units",
                r.scheme,
                r.breakdown,
                r.compute_cycles,
                r.total_units
            );
            assert_eq!(r.scheme, scheme.label());
        }
        let cambricon = simulate_cambricon(&w, &config, None);
        assert!(
            cambricon.sim.accounting_holds(),
            "Cambricon-S: breakdown {:?} != {} cycles × {} units",
            cambricon.sim.breakdown,
            cambricon.sim.compute_cycles,
            cambricon.sim.total_units
        );
    }
}
