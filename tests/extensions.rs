//! Extension-feature integration: MLPs on the SparTen engine (§7 future
//! work), the dense-image formatter (§3.1 special case), output-region
//! memory management, batch simulation, and the collocation ablation.

use sparten::core::balance::{BalanceMode, LayerBalance};
use sparten::core::{AcceleratorConfig, ClusterConfig, OutputMemory, SparTenEngine};
use sparten::nn::generate::{workload, workload_batch};
use sparten::nn::{ConvShape, FcLayer, Mlp};
use sparten::sim::sparten::{simulate_sparten, Sparsity};
use sparten::sim::{simulate_layer, simulate_spec_batch, MaskModel, Scheme, SimConfig};
use sparten::tensor::{FormattedImage, Tensor3};

fn engine_config(units: usize, clusters: usize) -> AcceleratorConfig {
    AcceleratorConfig {
        cluster: ClusterConfig {
            compute_units: units,
            chunk_size: 64,
            bisection_limit: 4,
        },
        num_clusters: clusters,
    }
}

#[test]
fn mlp_runs_on_sparten_layer_by_layer() {
    // A 3-layer sparse MLP: each FC layer maps to a 1x1 conv over a 1x1
    // plane; the engine's output (with ReLU between layers) must match the
    // dense reference forward pass.
    let mlp = Mlp::new(vec![
        FcLayer::random(96, 48, 0.4, 1),
        FcLayer::random(48, 24, 0.4, 2),
        FcLayer::random(24, 8, 0.5, 3),
    ]);
    let x: Vec<f32> = (0..96)
        .map(|i| {
            if i % 3 == 0 {
                (i % 7) as f32 - 3.0
            } else {
                0.0
            }
        })
        .collect();
    let expect = mlp.forward(&x);

    let engine = SparTenEngine::new(engine_config(8, 1));
    let mut act = x;
    let last = mlp.layers().len() - 1;
    for (i, layer) in mlp.layers().iter().enumerate() {
        let w = layer.to_workload(&act);
        let run = engine.run_layer(&w, BalanceMode::GbH, i != last);
        let out = run.logical_output();
        act = (0..layer.out_features())
            .map(|f| out.get(f, 0, 0))
            .collect();
    }
    for (a, b) in act.iter().zip(&expect) {
        assert!((a - b).abs() < 1e-2, "engine {a} vs reference {b}");
    }
}

#[test]
fn fc_layer_has_no_zero_compute_on_sparten() {
    // The §2.1.1 point: FC layers multiply each filter cell by exactly one
    // input cell — SCNN's Cartesian product breaks, SparTen just works.
    let fc = FcLayer::random(512, 64, 0.35, 4);
    let x: Vec<f32> = (0..512)
        .map(|i| {
            if i % 4 == 0 {
                1.0 + (i % 5) as f32
            } else {
                0.0
            }
        })
        .collect();
    let w = fc.to_workload(&x);
    let cfg = SimConfig::small();
    let model = MaskModel::new(&w, cfg.accel.cluster.chunk_size);
    let r = simulate_layer(&w, &model, &cfg, Scheme::SpartenGbH);
    assert_eq!(r.breakdown.zero, 0);
    assert!(r.accounting_holds());
    assert!(r.breakdown.nonzero > 0);
}

#[test]
fn formatted_image_feeds_the_first_layer() {
    // Format a dense 3-channel image per §3.1 and verify the chunks carry
    // exactly the fibers the first conv layer consumes.
    let mut img = Tensor3::zeros(3, 6, 6);
    for (i, v) in img.as_mut_slice().iter_mut().enumerate() {
        *v = ((i * 37) % 11) as f32 - 2.0;
    }
    let f = FormattedImage::from_dense(&img, 64);
    assert_eq!(f.directory().len(), 36);
    for p in 0..36 {
        let (x, y) = (p % 6, p / 6);
        let chunk = f.chunk(p);
        assert_eq!(&chunk.to_dense()[..3], img.fiber(x, y));
    }
    // Masks cost 64 bits per position; values stay unpadded.
    assert_eq!(f.storage_bits(8), 36 * 64 + 108 * 8);
}

#[test]
fn output_memory_handles_a_real_run() {
    let shape = ConvShape::new(24, 10, 10, 3, 16, 1, 1);
    let w = workload(&shape, 0.5, 0.4, 5);
    let cfg = engine_config(8, 4);
    let engine = SparTenEngine::new(cfg);
    let run = engine.run_layer(&w, BalanceMode::GbS, true);

    let mut mem = OutputMemory::for_layer(&cfg, &shape, 0.6, 0.10, 0.9);
    let report = mem.commit_run(&run);
    let actual: u64 = run.trace.clusters.iter().map(|c| c.output_nnz).sum();
    assert_eq!(report.values_written as u64, actual);
    // Over-provisioned at 60% density: no synchronous emergencies.
    assert_eq!(report.emergency_extents, 0);
}

#[test]
fn batch_of_16_filters_stay_stationary() {
    let shape = ConvShape::new(48, 6, 6, 3, 8, 1, 1);
    let batch = workload_batch(&shape, 0.3, 0.35, 9, 16);
    assert_eq!(batch.len(), 16);
    // Same filters across the batch, different inputs.
    for w in &batch[1..] {
        assert_eq!(w.filters, batch[0].filters);
        assert_ne!(w.input, batch[0].input);
    }
}

#[test]
fn batch_simulation_runs_a_table3_layer() {
    let net = sparten::nn::googlenet();
    let spec = net.layer("Inc5a_5x5").expect("layer exists");
    let cfg = SimConfig::small();
    let b = simulate_spec_batch(spec, &cfg, Scheme::SpartenGbH, 11, 4);
    assert_eq!(b.images.len(), 4);
    for r in &b.images {
        assert!(r.accounting_holds());
    }
    assert!(b.cycle_spread() < 0.3, "spread {}", b.cycle_spread());
}

#[test]
fn multilayer_pipeline_with_saved_workload() {
    // Save layer 1's workload to disk, load it back, run it as the first
    // stage of a SparseNetwork — serialization, the pipeline runner, and
    // the engine compose.
    use sparten::core::{SparseNetwork, Stage};
    use sparten::nn::{load_workload, save_workload};
    let c1 = ConvShape::new(8, 8, 8, 3, 12, 1, 1);
    let w1 = workload(&c1, 0.5, 0.4, 71);
    let mut path = std::env::temp_dir();
    path.push(format!("sparten-ext-{}.sptn", std::process::id()));
    save_workload(&w1, &path).expect("save");
    let loaded = load_workload(&path).expect("load");
    std::fs::remove_file(&path).ok();

    let c2 = ConvShape::new(12, 8, 8, 3, 6, 1, 1);
    let w2 = workload(&c2, 0.5, 0.4, 72);
    let net = SparseNetwork::new(vec![
        Stage::Conv {
            filters: loaded.filters.clone(),
            shape: c1,
            mode: BalanceMode::GbH,
            relu: true,
        },
        Stage::Conv {
            filters: w2.filters.clone(),
            shape: c2,
            mode: BalanceMode::GbS,
            relu: true,
        },
    ]);
    let engine = SparTenEngine::new(engine_config(4, 2));
    let (got, stats) = net.run(&engine, &loaded.input);
    let reference = net.reference(&loaded.input);
    assert_eq!(stats.conv_stages, 2);
    for (a, b) in got.as_slice().iter().zip(reference.as_slice()) {
        assert!((a - b).abs() < 1e-2);
    }
}

#[test]
fn controller_protocol_reproduces_engine_output() {
    use sparten::core::run_via_commands;
    let shape = ConvShape::new(16, 5, 5, 3, 8, 1, 1);
    let w = workload(&shape, 0.5, 0.4, 73);
    let cfg = engine_config(4, 1);
    let (produced, _, stats) = run_via_commands(&w, &cfg, BalanceMode::GbS, true);
    let engine = SparTenEngine::new(cfg);
    let run = engine.run_layer(&w, BalanceMode::GbS, true);
    assert_eq!(produced.nnz(), run.produced.nnz());
    for (a, b) in produced.as_slice().iter().zip(run.produced.as_slice()) {
        assert!((a - b).abs() < 1e-3);
    }
    // The controller's pointer increments equal the stored non-zeros.
    assert_eq!(stats.output_values, produced.nnz());
}

#[test]
fn quantized_workload_runs_on_the_engine_within_error_bounds() {
    use sparten::nn::{conv2d, Filter, QuantTensor};
    let shape = ConvShape::new(12, 6, 6, 3, 8, 1, 1);
    let w = workload(&shape, 0.5, 0.5, 74);
    // Quantize+dequantize both operands, run on the engine, compare to the
    // float reference within the accumulated quantization bound.
    let qi = QuantTensor::quantize(&w.input).dequantize();
    let qf: Vec<Filter> = w
        .filters
        .iter()
        .map(|f| Filter::new(QuantTensor::quantize(f.weights()).dequantize()))
        .collect();
    let qw = sparten::nn::Workload {
        input: qi,
        filters: qf,
        shape,
    };
    let engine = SparTenEngine::new(engine_config(4, 2));
    let run = engine.run_layer(&qw, BalanceMode::GbH, false);
    let reference = conv2d(&w.input, &w.filters, &shape);
    let max_ref = reference
        .as_slice()
        .iter()
        .fold(0.0f32, |a, &v| a.max(v.abs()));
    for (a, b) in run.logical_output().as_slice().iter().zip(reference.as_slice()) {
        assert!(
            (a - b).abs() < 0.08 * max_ref.max(1.0),
            "quantized engine {a} vs float reference {b}"
        );
    }
    // Quantization preserves sparsity structure → identical MAC counts.
    let float_run = engine.run_layer(&w, BalanceMode::GbH, false);
    assert_eq!(run.trace.total_macs(), float_run.trace.total_macs());
}

#[test]
fn collocation_ablation_direction() {
    // On a filter set with strong density spread, GB-S with collocation
    // beats GB-S without it (§5.1's "worse performance in most benchmarks").
    let shape = ConvShape::new(96, 8, 8, 3, 64, 1, 1);
    let w = workload(&shape, 0.3, 0.35, 13);
    let mut cfg = SimConfig::small();
    cfg.accel.num_clusters = 2;
    let model = MaskModel::new(&w, cfg.accel.cluster.chunk_size);
    let with = simulate_layer(&w, &model, &cfg, Scheme::SpartenGbS);
    let cluster = &cfg.accel.cluster;
    let (units, chunk) = (cluster.compute_units, cluster.chunk_size);
    let balance = LayerBalance::new(&w.filters, units, chunk, BalanceMode::GbSNoColloc);
    let without = simulate_sparten(&w, &model, &cfg, Sparsity::TwoSided, balance, None, None)
        .expect("fault-free simulation cannot fail");
    assert!(
        with.cycles() < without.cycles(),
        "colloc {} !< no-colloc {}",
        with.cycles(),
        without.cycles()
    );
}
