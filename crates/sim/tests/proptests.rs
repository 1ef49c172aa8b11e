//! Property-style tests over the simulators: accounting identities, depth
//! monotonicity, and functional/cycle-model agreement on arbitrary shapes.
//!
//! Cases are generated by the in-repo deterministic PRNG instead of
//! `proptest` so the suite runs fully offline. The default case count keeps
//! `cargo test -q` fast; `--features exhaustive-tests` sweeps more.

use sparten_core::balance::BalanceMode;
use sparten_core::{AcceleratorConfig, ClusterConfig};
use sparten_nn::generate::workload;
use sparten_nn::{ConvShape, Rng64};
use sparten_sim::buffered::{simulate_buffered, BufferDepth};
use sparten_sim::scnn_engine::scnn_cartesian_conv;
use sparten_sim::{simulate_layer, MaskModel, Scheme, SimConfig};

const CASES: usize = if cfg!(feature = "exhaustive-tests") { 64 } else { 16 };

fn small_config(units: usize, clusters: usize) -> SimConfig {
    let mut cfg = SimConfig::small();
    cfg.accel = AcceleratorConfig {
        cluster: ClusterConfig {
            compute_units: units,
            chunk_size: 64,
            bisection_limit: 4,
        },
        num_clusters: clusters,
    };
    cfg
}

#[test]
fn accounting_identity_on_random_shapes() {
    let mut rng = Rng64::seed_from_u64(0x51b0_0001);
    for _ in 0..CASES {
        let d = rng.gen_range_usize(1, 48);
        let hw = rng.gen_range_usize(3, 8);
        let k = rng.gen_range_usize(1, 4);
        let n = rng.gen_range_usize(1, 14);
        let stride = rng.gen_range_usize(1, 3);
        let units = rng.gen_range_usize(2, 6);
        let clusters = rng.gen_range_usize(1, 4);
        let di = rng.gen_range_f64(0.1, 0.9);
        let df = rng.gen_range_f64(0.1, 0.9);
        let seed = rng.gen_range_usize(0, 500) as u64;
        if hw < k {
            continue;
        }
        let shape = ConvShape::new(d, hw, hw, k, n, stride, k / 2);
        let w = workload(&shape, di, df, seed);
        let cfg = small_config(units, clusters);
        let model = MaskModel::new(&w, 64);
        for scheme in Scheme::all() {
            let r = simulate_layer(&w, &model, &cfg, scheme);
            assert!(r.accounting_holds(), "{} accounting broken", r.scheme);
            assert!(r.compute_cycles > 0 || model.total_sparse_macs() == 0);
        }
    }
}

#[test]
fn buffering_is_monotone_and_bounded() {
    let mut rng = Rng64::seed_from_u64(0x51b0_0002);
    for _ in 0..CASES {
        let seed = rng.gen_range_usize(0, 300) as u64;
        let units = rng.gen_range_usize(2, 6);
        let shape = ConvShape::new(64, 6, 6, 3, 12, 1, 1);
        let w = workload(&shape, 0.4, 0.35, seed);
        let cfg = small_config(units, 2);
        let model = MaskModel::new(&w, 64);
        let mut last = u64::MAX;
        for depth in [1usize, 2, 8] {
            let r = simulate_buffered(&w, &model, &cfg, BalanceMode::None, BufferDepth::Bounded(depth));
            assert!(r.cycles <= last);
            last = r.cycles;
        }
        let inf = simulate_buffered(&w, &model, &cfg, BalanceMode::None, BufferDepth::Unbounded);
        assert!(inf.cycles <= last);
        // Lower bound: the slowest unit's total work within each group
        // cannot be beaten by any buffering.
        assert!(inf.cycles * (units as u64) >= inf.useful / (units as u64).max(1));
    }
}

#[test]
fn cartesian_engine_matches_reference_on_random_unit_stride() {
    let mut rng = Rng64::seed_from_u64(0x51b0_0003);
    for _ in 0..CASES {
        let d = rng.gen_range_usize(1, 16);
        let hw = rng.gen_range_usize(3, 8);
        let k = rng.gen_range_usize(1, 4);
        let n = rng.gen_range_usize(1, 6);
        let seed = rng.gen_range_usize(0, 500) as u64;
        if hw < k {
            continue;
        }
        let shape = ConvShape::new(d, hw, hw, k, n, 1, k / 2);
        let w = workload(&shape, 0.5, 0.5, seed);
        let (out, stats) = scnn_cartesian_conv(&w, None);
        let reference = sparten_nn::conv2d(&w.input, &w.filters, &shape);
        for (a, b) in out.as_slice().iter().zip(reference.as_slice()) {
            assert!((a - b).abs() < 1e-2, "{a} vs {b}");
        }
        // Products must account exactly.
        assert_eq!(stats.products, stats.accumulated + stats.discarded);
        let model = MaskModel::new(&w, 64);
        assert_eq!(stats.accumulated, model.total_sparse_macs());
    }
}

#[test]
fn gb_never_loses_to_no_gb_by_much() {
    let mut rng = Rng64::seed_from_u64(0x51b0_0004);
    for _ in 0..CASES {
        let seed = rng.gen_range_usize(0, 300) as u64;
        // GB is a heuristic; on multi-of-2·units filter counts it must not
        // regress versus no balancing beyond the routing noise.
        let shape = ConvShape::new(64, 6, 6, 3, 16, 1, 1);
        let w = workload(&shape, 0.4, 0.35, seed);
        let cfg = small_config(4, 2);
        let model = MaskModel::new(&w, 64);
        let none = simulate_layer(&w, &model, &cfg, Scheme::SpartenNoGb).compute_cycles;
        let gbh = simulate_layer(&w, &model, &cfg, Scheme::SpartenGbH).compute_cycles;
        assert!(gbh as f64 <= none as f64 * 1.02, "GB-H {gbh} vs none {none}");
    }
}
