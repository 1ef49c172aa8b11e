//! Cross-checks between the fast cycle-level simulators and the exact
//! functional engine, plus the paper-shape sanity properties every
//! simulated layer must satisfy.

use sparten::core::{AcceleratorConfig, BalanceMode, ClusterConfig, SparTenEngine};
use sparten::nn::generate::workload;
use sparten::nn::ConvShape;
use sparten::sim::sparten::{simulate_sparten, Sparsity};
use sparten::sim::{simulate_layer, MaskModel, Scheme, SimConfig};

fn sim_config(units: usize, clusters: usize) -> SimConfig {
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

/// The fast simulator's useful-MAC total must equal the exact engine's
/// work trace, and its compute makespan must equal the engine's barrier
/// time plus the per-chunk broadcast overhead.
#[test]
fn simulator_work_matches_engine_trace_exactly() {
    let shape = ConvShape::new(40, 7, 7, 3, 12, 1, 1);
    let w = workload(&shape, 0.45, 0.4, 55);
    let cfg = sim_config(4, 1); // single cluster for exact comparison
    let model = MaskModel::new(&w, 64);
    let engine = SparTenEngine::new(cfg.accel);

    for mode in [BalanceMode::None, BalanceMode::GbS, BalanceMode::GbH] {
        let run = engine.run_layer(&w, mode, false);
        let sim = simulate_sparten(&w, &model, &cfg, Sparsity::TwoSided, mode);
        assert_eq!(
            sim.breakdown.nonzero,
            run.trace.total_macs(),
            "{mode:?}: useful MACs disagree"
        );
        // Per-chunk broadcast overhead: one cycle per (position, group,
        // chunk) processed by the cluster.
        let positions = (shape.out_height() * shape.out_width()) as u64;
        let groups = run.balance.groups.len() as u64;
        let chunks = model.chunks_per_window() as u64;
        let overhead = positions * groups * chunks;
        assert_eq!(
            sim.compute_cycles,
            run.trace.makespan() + overhead,
            "{mode:?}: makespan disagrees"
        );
    }
}

#[test]
fn accounting_identity_across_schemes_and_shapes() {
    let shapes = [
        ConvShape::new(16, 6, 6, 3, 8, 1, 1),
        ConvShape::new(96, 5, 5, 1, 20, 1, 0),
        ConvShape::new(24, 11, 11, 5, 6, 2, 2),
    ];
    for (i, shape) in shapes.iter().enumerate() {
        let w = workload(shape, 0.4, 0.35, 60 + i as u64);
        let cfg = sim_config(4, 3);
        let model = MaskModel::new(&w, 64);
        for scheme in Scheme::all() {
            let r = simulate_layer(&w, &model, &cfg, scheme);
            assert!(
                r.accounting_holds(),
                "shape {i}, {}: {} + {} + {} + {} != {} * {}",
                r.scheme,
                r.breakdown.nonzero,
                r.breakdown.zero,
                r.breakdown.intra,
                r.breakdown.inter,
                r.compute_cycles,
                r.total_units
            );
        }
    }
}

#[test]
fn denser_workloads_take_longer() {
    let shape = ConvShape::new(64, 8, 8, 3, 16, 1, 1);
    let cfg = sim_config(8, 2);
    let mut last = 0u64;
    for (i, density) in [0.15, 0.35, 0.6, 0.9].iter().enumerate() {
        let w = workload(&shape, *density, *density, 70 + i as u64);
        let model = MaskModel::new(&w, 64);
        let r = simulate_layer(&w, &model, &cfg, Scheme::SpartenGbH);
        assert!(
            r.compute_cycles > last,
            "density {density}: {} !> {last}",
            r.compute_cycles
        );
        last = r.compute_cycles;
    }
}

#[test]
fn dense_simulator_is_density_independent() {
    let shape = ConvShape::new(64, 8, 8, 3, 16, 1, 1);
    let cfg = sim_config(8, 2);
    let sparse = workload(&shape, 0.2, 0.2, 71);
    let dense = workload(&shape, 0.9, 0.9, 72);
    let rs = simulate_layer(&sparse, &MaskModel::new(&sparse, 64), &cfg, Scheme::Dense);
    let rd = simulate_layer(&dense, &MaskModel::new(&dense, 64), &cfg, Scheme::Dense);
    assert_eq!(rs.compute_cycles, rd.compute_cycles);
}

#[test]
fn scnn_stride_pathology() {
    // At stride 4 SCNN computes ~16x the needed products; SparTen doesn't.
    let unit = ConvShape::new(32, 16, 16, 3, 8, 1, 1);
    let strided = ConvShape::new(32, 16, 16, 3, 8, 4, 1);
    let cfg = sim_config(8, 2);
    for (shape, min_waste_ratio) in [(unit, 0.0), (strided, 5.0)] {
        let w = workload(&shape, 0.4, 0.4, 80);
        let model = MaskModel::new(&w, 64);
        let scnn = simulate_layer(&w, &model, &cfg, Scheme::Scnn);
        let waste = scnn.breakdown.zero as f64 / scnn.breakdown.nonzero.max(1) as f64;
        assert!(
            waste >= min_waste_ratio,
            "stride {}: waste ratio {waste}",
            shape.stride
        );
        let sparten = simulate_layer(&w, &model, &cfg, Scheme::SpartenGbH);
        assert_eq!(sparten.breakdown.zero, 0);
    }
}

#[test]
fn gb_ordering_holds_at_table3_densities() {
    // SparTen ≥ GB-S ≥ no-GB ≥ One-sided in performance on a layer shaped
    // like AlexNet Layer3 (scaled down).
    let shape = ConvShape::new(96, 8, 8, 3, 32, 1, 1);
    let w = workload(&shape, 0.20, 0.37, 90);
    let cfg = sim_config(8, 2);
    let model = MaskModel::new(&w, 64);
    let cycles = |s| simulate_layer(&w, &model, &cfg, s).cycles();
    let one = cycles(Scheme::OneSided);
    let no_gb = cycles(Scheme::SpartenNoGb);
    let gbs = cycles(Scheme::SpartenGbS);
    let gbh = cycles(Scheme::SpartenGbH);
    assert!(no_gb < one, "no-GB {no_gb} !< one-sided {one}");
    assert!(gbs <= no_gb, "GB-S {gbs} !<= no-GB {no_gb}");
    assert!(gbh <= gbs, "GB-H {gbh} !<= GB-S {gbs}");
}

#[test]
fn fpga_memory_bound_reduces_sparse_speedup() {
    // §5.5: compute shrinks quadratically with sparsity but traffic only
    // linearly, so thin memory clips the sparsest layers' speedups.
    let shape = ConvShape::new(128, 12, 12, 3, 32, 1, 1);
    let w = workload(&shape, 0.13, 0.32, 95);
    let model = MaskModel::new(&w, 128);

    let asic = SimConfig::large();
    let mut fpga = SimConfig::fpga();
    fpga.memory.bytes_per_cycle = 0.25; // scaled to the tiny layer

    let speedup = |cfg: &SimConfig| {
        let d = simulate_layer(&w, &model, cfg, Scheme::Dense);
        let s = simulate_layer(&w, &model, cfg, Scheme::SpartenGbH);
        s.speedup_over(&d)
    };
    let asic_speedup = speedup(&asic);
    let fpga_speedup = speedup(&fpga);
    assert!(
        fpga_speedup < asic_speedup,
        "fpga {fpga_speedup} !< asic {asic_speedup}"
    );
}

#[test]
fn collocation_pathology_on_16_filters() {
    // GoogLeNet 5x5red: 16 filters on 16 units — collocation idles half
    // the units, so no-GB beats GB-S there (§5.1).
    let shape = ConvShape::new(128, 6, 6, 1, 16, 1, 0);
    let w = workload(&shape, 0.58, 0.35, 96);
    let mut cfg = SimConfig::small();
    cfg.accel.num_clusters = 2;
    let model = MaskModel::new(&w, 128);
    let no_gb = simulate_layer(&w, &model, &cfg, Scheme::SpartenNoGb);
    let gbs = simulate_layer(&w, &model, &cfg, Scheme::SpartenGbS);
    assert!(
        no_gb.cycles() < gbs.cycles(),
        "no-GB {} !< GB-S {}",
        no_gb.cycles(),
        gbs.cycles()
    );
}

/// Golden snapshot: cycle counts and energy for every scheme on one
/// AlexNet conv layer (Table 3 Layer4, seed 2019, large ASIC config).
///
/// These values pin the full simulation pipeline bit-for-bit — the PRNG,
/// workload generation, every scheme's cycle model, and the 45 nm energy
/// model. The experiment cache keys on this determinism, so if the test
/// fails after an intentional change, bump the harness cache format
/// version (see `crates/harness/src/cache.rs`) and update the snapshot
/// from the test's failure output.
#[test]
fn golden_values_alexnet_layer4() {
    use sparten::energy::EnergyModel;
    use sparten::nn::alexnet;

    let spec = &alexnet().layers[4];
    assert_eq!(spec.name, "Layer4");
    let w = spec.workload(2019);
    let cfg = SimConfig::large();
    let model = MaskModel::new(&w, cfg.accel.cluster.chunk_size);
    let energy = EnergyModel::nm45();

    let mut got = String::new();
    for scheme in Scheme::all() {
        let r = simulate_layer(&w, &model, &cfg, scheme);
        let buffer = if scheme == Scheme::Dense { 8 } else { 992 };
        let e = energy.layer_energy(&r, buffer);
        got.push_str(&format!(
            "{} compute={} memory={} cycles={} energy_uj={:.6}\n",
            r.scheme,
            r.compute_cycles,
            r.memory_cycles,
            r.cycles(),
            e.total_pj() / 1e6,
        ));
    }

    let expected = "\
Dense compute=110592 memory=1928 cycles=110592 energy_uj=133.973452
One-sided compute=28264 memory=1246 cycles=28264 energy_uj=154.361150
SparTen-no-GB compute=18589 memory=955 cycles=18589 energy_uj=83.280926
SparTen-GB-S compute=13886 memory=955 cycles=13886 energy_uj=83.280926
SparTen compute=13462 memory=955 cycles=13462 energy_uj=83.903928
SCNN compute=57527 memory=1071 cycles=57527 energy_uj=90.513620
SCNN-one-sided compute=147456 memory=1328 cycles=147456 energy_uj=179.685550
SCNN-dense compute=147456 memory=1928 cycles=147456 energy_uj=596.522688
";
    assert_eq!(got, expected, "golden snapshot drifted; actual:\n{got}");
}

/// Golden snapshot of the SparTen-family schedules on small strided,
/// padded layers whose channel counts straddle chunk boundaries (65 and
/// 130 channels under 64-, 128- and 256-wide chunks).
///
/// Pins every sparten-family code path the cycle loop has: the clean
/// schedule (compute cycles and breakdown), the instrumented run and its
/// stall decomposition, a `Slow(4)` straggler and a `Stuck` unit. Any
/// change to how chunk work is computed or summed must leave these values
/// unchanged; an intentional semantic change updates the snapshot from
/// the failure output and bumps the harness cache format version.
#[test]
fn golden_values_strided_chunk_boundary_layers() {
    use sparten::faults::{UnitFault, UnitFaultSpec};
    use sparten::sim::{simulate_layer_telemetry, try_simulate_layer};
    use sparten::telemetry::Telemetry;

    let layers = [
        ConvShape::new(65, 9, 9, 3, 10, 2, 1),
        ConvShape::new(130, 10, 10, 3, 9, 2, 2),
    ];
    let schemes = [
        Scheme::OneSided,
        Scheme::SpartenNoGb,
        Scheme::SpartenGbS,
        Scheme::SpartenGbH,
    ];
    let mut got = String::new();
    for (li, shape) in layers.iter().enumerate() {
        let w = workload(shape, 0.4, 0.35, 300 + li as u64);
        for chunk in [64, 128, 256] {
            let mut cfg = sim_config(4, 2);
            cfg.accel.cluster.chunk_size = chunk;
            let model = MaskModel::new(&w, chunk);
            got.push_str(&format!(
                "d={} chunk={chunk} macs={}\n",
                shape.in_channels,
                model.total_sparse_macs()
            ));
            for scheme in schemes {
                let r = simulate_layer(&w, &model, &cfg, scheme);
                let b = r.breakdown;
                got.push_str(&format!(
                    "  {} compute={} nz={} z={} intra={} inter={}\n",
                    r.scheme, r.compute_cycles, b.nonzero, b.zero, b.intra, b.inter
                ));

                let session = Telemetry::new();
                let t = simulate_layer_telemetry(&w, &model, &cfg, scheme, &session, "g:")
                    .unwrap_or_else(|e| panic!("{}: {e}", r.scheme));
                assert_eq!(t, r, "telemetry changed {} result", r.scheme);
                let snap = session.metrics.snapshot();
                let stalls: Vec<String> = snap
                    .counters_under(&format!("{}/stall.intra.", r.scheme))
                    .into_iter()
                    .map(|(name, v)| format!("{}={v}", name.rsplit('.').next().unwrap_or(name)))
                    .collect();
                let joins = snap.counter(&format!("{}/trace.chunk_joins", r.scheme));
                got.push_str(&format!(
                    "    intra[{}] joins={}\n",
                    stalls.join(","),
                    joins.unwrap_or(0)
                ));

                let slow = UnitFaultSpec {
                    cluster: 0,
                    unit: 1,
                    fault: UnitFault::Slow(4),
                };
                let s = try_simulate_layer(&w, &model, &cfg, scheme, Some(&slow))
                    .expect("a slow unit is survivable");
                let sb = s.breakdown;
                got.push_str(&format!(
                    "    slow4 compute={} nz={} z={} intra={} inter={}\n",
                    s.compute_cycles, sb.nonzero, sb.zero, sb.intra, sb.inter
                ));

                let stuck = UnitFaultSpec {
                    cluster: 1,
                    unit: 3,
                    fault: UnitFault::Stuck,
                };
                match try_simulate_layer(&w, &model, &cfg, scheme, Some(&stuck)) {
                    Ok(s) => got.push_str(&format!("    stuck ok compute={}\n", s.compute_cycles)),
                    Err(e) => got.push_str(&format!("    stuck err {e}\n")),
                }
            }
        }
    }

    let expected = "\
d=65 chunk=64 macs=16179
  One-sided compute=7890 nz=16179 z=29051 intra=14446 inter=3444
    intra[output_backpressure=0,prefix_encoder_wait=5400,unit_underfill=9046] joins=4500
    slow4 compute=26172 nz=16179 z=29051 intra=91018 inter=73128
    stuck err compute unit 3 in cluster 1 is stuck with assigned work
  SparTen-no-GB compute=4137 nz=16179 z=0 intra=15137 inter=1780
    intra[chunk_barrier_idle=5492,empty_mask_and=277,output_backpressure=0,prefix_encoder_wait=5400,unit_underfill=3968] joins=4500
    slow4 compute=10953 nz=16179 z=0 intra=44181 inter=27264
    stuck err compute unit 3 in cluster 1 is stuck with assigned work
  SparTen-GB-S compute=3822 nz=16179 z=0 intra=12541 inter=1856
    intra[chunk_barrier_idle=2413,empty_mask_and=108,output_backpressure=0,prefix_encoder_wait=3600,unit_underfill=6420] joins=4500
    slow4 compute=7957 nz=16179 z=0 intra=30937 inter=16540
    stuck err compute unit 3 in cluster 1 is stuck with assigned work
  SparTen compute=3763 nz=16179 z=0 intra=12213 inter=1712
    intra[chunk_barrier_idle=2158,empty_mask_and=35,output_backpressure=0,prefix_encoder_wait=3600,unit_underfill=6420] joins=4500
    slow4 compute=7985 nz=16179 z=0 intra=30813 inter=16888
    stuck err compute unit 3 in cluster 1 is stuck with assigned work
d=65 chunk=128 macs=16179
  One-sided compute=7539 nz=16179 z=29051 intra=11746 inter=3336
    intra[output_backpressure=0,prefix_encoder_wait=2700,unit_underfill=9046] joins=2250
    slow4 compute=25848 nz=16179 z=29051 intra=88318 inter=73236
    stuck err compute unit 3 in cluster 1 is stuck with assigned work
  SparTen-no-GB compute=3770 nz=16179 z=0 intra=12321 inter=1660
    intra[chunk_barrier_idle=5636,empty_mask_and=29,output_backpressure=0,prefix_encoder_wait=2700,unit_underfill=3956] joins=2250
    slow4 compute=10608 nz=16179 z=0 intra=41333 inter=27352
    stuck err compute unit 3 in cluster 1 is stuck with assigned work
  SparTen-GB-S compute=3575 nz=16179 z=0 intra=10657 inter=1764
    intra[chunk_barrier_idle=2437,output_backpressure=0,prefix_encoder_wait=1800,unit_underfill=6420] joins=2250
    slow4 compute=7718 nz=16179 z=0 intra=28993 inter=16572
    stuck err compute unit 3 in cluster 1 is stuck with assigned work
  SparTen compute=3528 nz=16179 z=0 intra=10433 inter=1612
    intra[chunk_barrier_idle=2213,output_backpressure=0,prefix_encoder_wait=1800,unit_underfill=6420] joins=2250
    slow4 compute=7830 nz=16179 z=0 intra=29253 inter=17208
    stuck err compute unit 3 in cluster 1 is stuck with assigned work
d=65 chunk=256 macs=16179
  One-sided compute=7539 nz=16179 z=29051 intra=11746 inter=3336
    intra[output_backpressure=0,prefix_encoder_wait=2700,unit_underfill=9046] joins=2250
    slow4 compute=25848 nz=16179 z=29051 intra=88318 inter=73236
    stuck err compute unit 3 in cluster 1 is stuck with assigned work
  SparTen-no-GB compute=3770 nz=16179 z=0 intra=12321 inter=1660
    intra[chunk_barrier_idle=5636,empty_mask_and=29,output_backpressure=0,prefix_encoder_wait=2700,unit_underfill=3956] joins=2250
    slow4 compute=10608 nz=16179 z=0 intra=41333 inter=27352
    stuck err compute unit 3 in cluster 1 is stuck with assigned work
  SparTen-GB-S compute=3575 nz=16179 z=0 intra=10657 inter=1764
    intra[chunk_barrier_idle=2437,output_backpressure=0,prefix_encoder_wait=1800,unit_underfill=6420] joins=2250
    slow4 compute=7718 nz=16179 z=0 intra=28993 inter=16572
    stuck err compute unit 3 in cluster 1 is stuck with assigned work
  SparTen compute=3528 nz=16179 z=0 intra=10433 inter=1612
    intra[chunk_barrier_idle=2213,output_backpressure=0,prefix_encoder_wait=1800,unit_underfill=6420] joins=2250
    slow4 compute=7830 nz=16179 z=0 intra=29253 inter=17208
    stuck err compute unit 3 in cluster 1 is stuck with assigned work
d=130 chunk=64 macs=36923
  One-sided compute=20172 nz=36923 z=67693 intra=46536 inter=10224
    intra[output_backpressure=0,prefix_encoder_wait=11664,unit_underfill=34872] joins=8748
    slow4 compute=49932 nz=36923 z=67693 intra=175800 inter=119040
    stuck err compute unit 3 in cluster 1 is stuck with assigned work
  SparTen-no-GB compute=10804 nz=36923 z=0 intra=44049 inter=5460
    intra[chunk_barrier_idle=13820,empty_mask_and=487,output_backpressure=0,prefix_encoder_wait=11664,unit_underfill=18078] joins=8748
    slow4 compute=20595 nz=36923 z=0 intra=88673 inter=39164
    stuck err compute unit 3 in cluster 1 is stuck with assigned work
  SparTen-GB-S compute=7930 nz=36923 z=0 intra=22581 inter=3936
    intra[chunk_barrier_idle=6641,empty_mask_and=340,output_backpressure=0,prefix_encoder_wait=7776,unit_underfill=7824] joins=8748
    slow4 compute=18603 nz=36923 z=0 intra=69209 inter=42692
    stuck err compute unit 3 in cluster 1 is stuck with assigned work
  SparTen compute=7784 nz=36923 z=0 intra=21445 inter=3904
    intra[chunk_barrier_idle=5618,empty_mask_and=227,output_backpressure=0,prefix_encoder_wait=7776,unit_underfill=7824] joins=8748
    slow4 compute=18227 nz=36923 z=0 intra=67121 inter=41772
    stuck err compute unit 3 in cluster 1 is stuck with assigned work
d=130 chunk=128 macs=36923
  One-sided compute=19686 nz=36923 z=67693 intra=42648 inter=10224
    intra[output_backpressure=0,prefix_encoder_wait=7776,unit_underfill=34872] joins=5832
    slow4 compute=49446 nz=36923 z=67693 intra=171912 inter=119040
    stuck err compute unit 3 in cluster 1 is stuck with assigned work
  SparTen-no-GB compute=10165 nz=36923 z=0 intra=38985 inter=5412
    intra[chunk_barrier_idle=12664,empty_mask_and=467,output_backpressure=0,prefix_encoder_wait=7776,unit_underfill=18078] joins=5832
    slow4 compute=20086 nz=36923 z=0 intra=84081 inter=39684
    stuck err compute unit 3 in cluster 1 is stuck with assigned work
  SparTen-GB-S compute=7411 nz=36923 z=0 intra=18449 inter=3916
    intra[chunk_barrier_idle=5101,empty_mask_and=340,output_backpressure=0,prefix_encoder_wait=5184,unit_underfill=7824] joins=5832
    slow4 compute=18279 nz=36923 z=0 intra=65837 inter=43472
    stuck err compute unit 3 in cluster 1 is stuck with assigned work
  SparTen compute=7240 nz=36923 z=0 intra=17277 inter=3720
    intra[chunk_barrier_idle=4042,empty_mask_and=227,output_backpressure=0,prefix_encoder_wait=5184,unit_underfill=7824] joins=5832
    slow4 compute=18139 nz=36923 z=0 intra=64593 inter=43596
    stuck err compute unit 3 in cluster 1 is stuck with assigned work
d=130 chunk=256 macs=36923
  One-sided compute=19200 nz=36923 z=67693 intra=38760 inter=10224
    intra[output_backpressure=0,prefix_encoder_wait=3888,unit_underfill=34872] joins=2916
    slow4 compute=48960 nz=36923 z=67693 intra=168024 inter=119040
    stuck err compute unit 3 in cluster 1 is stuck with assigned work
  SparTen-no-GB compute=9636 nz=36923 z=0 intra=34785 inter=5380
    intra[chunk_barrier_idle=12819,output_backpressure=0,prefix_encoder_wait=3888,unit_underfill=18078] joins=2916
    slow4 compute=19541 nz=36923 z=0 intra=79785 inter=39620
    stuck err compute unit 3 in cluster 1 is stuck with assigned work
  SparTen-GB-S compute=7045 nz=36923 z=0 intra=15529 inter=3908
    intra[chunk_barrier_idle=5113,output_backpressure=0,prefix_encoder_wait=2592,unit_underfill=7824] joins=2916
    slow4 compute=17931 nz=36923 z=0 intra=62981 inter=43544
    stuck err compute unit 3 in cluster 1 is stuck with assigned work
  SparTen compute=6883 nz=36923 z=0 intra=14397 inter=3744
    intra[chunk_barrier_idle=3981,output_backpressure=0,prefix_encoder_wait=2592,unit_underfill=7824] joins=2916
    slow4 compute=17795 nz=36923 z=0 intra=61789 inter=43648
    stuck err compute unit 3 in cluster 1 is stuck with assigned work
";
    assert_eq!(got, expected, "golden snapshot drifted; actual:\n{got}");
}

/// Golden snapshot of the SCNN family on small strided, padded layers,
/// under both the 16-PE and the 64-PE grid.
///
/// Pins every SCNN code path the barrier loop has: the clean run
/// (compute cycles and breakdown), the instrumented run and its stall
/// decomposition (`multiplier_quantization`, `pe_barrier_idle`), a
/// `Slow(4)` PE and a `Stuck` PE, both holding work and outside the grid.
/// Any change to how the per-(group, channel) barriers are computed or
/// summed must leave these values unchanged; an intentional semantic
/// change updates the snapshot from the failure output and bumps the
/// harness cache format version.
#[test]
fn golden_values_scnn_strided_layers() {
    use sparten::faults::{UnitFault, UnitFaultSpec};
    use sparten::sim::{simulate_layer_telemetry, try_simulate_layer};
    use sparten::telemetry::Telemetry;

    let layers = [
        ConvShape::new(65, 9, 9, 3, 10, 2, 1),
        ConvShape::new(130, 10, 10, 3, 9, 2, 2),
        ConvShape::new(20, 13, 11, 5, 17, 4, 2),
        ConvShape::new(33, 5, 6, 1, 9, 1, 0),
    ];
    let schemes = [Scheme::Scnn, Scheme::ScnnOneSided, Scheme::ScnnDense];
    let mut got = String::new();
    for (li, shape) in layers.iter().enumerate() {
        let w = workload(shape, 0.4, 0.35, 400 + li as u64);
        for (cname, cfg) in [("small", SimConfig::small()), ("large", SimConfig::large())] {
            let model = MaskModel::new(&w, cfg.accel.cluster.chunk_size);
            let pes = cfg.scnn.num_pes;
            got.push_str(&format!("d={} {cname}\n", shape.in_channels));
            for scheme in schemes {
                let r = simulate_layer(&w, &model, &cfg, scheme);
                let b = r.breakdown;
                got.push_str(&format!(
                    "  {} compute={} nz={} z={} intra={} inter={}\n",
                    r.scheme, r.compute_cycles, b.nonzero, b.zero, b.intra, b.inter
                ));

                let session = Telemetry::new();
                let t = simulate_layer_telemetry(&w, &model, &cfg, scheme, &session, "g:")
                    .unwrap_or_else(|e| panic!("{}: {e}", r.scheme));
                assert_eq!(t, r, "telemetry changed {} result", r.scheme);
                let snap = session.metrics.snapshot();
                let stalls: Vec<String> = snap
                    .counters_under(&format!("{}/stall.", r.scheme))
                    .into_iter()
                    .map(|(name, v)| format!("{}={v}", name.rsplit('.').next().unwrap_or(name)))
                    .collect();
                got.push_str(&format!("    stall[{}]\n", stalls.join(",")));

                let slow = UnitFaultSpec {
                    cluster: 1,
                    unit: 0,
                    fault: UnitFault::Slow(4),
                };
                let s = try_simulate_layer(&w, &model, &cfg, scheme, Some(&slow))
                    .expect("a slow PE is survivable");
                let sb = s.breakdown;
                got.push_str(&format!(
                    "    slow4 compute={} nz={} z={} intra={} inter={}\n",
                    s.compute_cycles, sb.nonzero, sb.zero, sb.intra, sb.inter
                ));

                for victim in [0, pes - 1, pes] {
                    let stuck = UnitFaultSpec {
                        cluster: victim,
                        unit: 0,
                        fault: UnitFault::Stuck,
                    };
                    match try_simulate_layer(&w, &model, &cfg, scheme, Some(&stuck)) {
                        Ok(s) => got.push_str(&format!(
                            "    stuck{victim} ok compute={}\n",
                            s.compute_cycles
                        )),
                        Err(e) => got.push_str(&format!("    stuck{victim} err {e}\n")),
                    }
                }
            }
        }
    }

    let expected = "\
d=65 small
  SCNN compute=713 nz=14040 z=47046 intra=64066 inter=57376
    stall[pe_barrier_idle=57376,multiplier_quantization=64066,output_backpressure=0]
    slow4 compute=1922 nz=14040 z=47046 intra=64066 inter=366880
    stuck0 err compute unit 0 in cluster 0 is stuck with assigned work
    stuck15 err compute unit 0 in cluster 15 is stuck with assigned work
    stuck16 ok compute=713
  SCNN-one-sided compute=2047 nz=14040 z=176940 intra=170764 inter=162288
    stall[pe_barrier_idle=162288,multiplier_quantization=170764,output_backpressure=0]
    slow4 compute=5589 nz=14040 z=176940 intra=170764 inter=1069040
    stuck0 err compute unit 0 in cluster 0 is stuck with assigned work
    stuck15 err compute unit 0 in cluster 15 is stuck with assigned work
    stuck16 ok compute=2047
  SCNN-dense compute=4485 nz=14040 z=459810 intra=100230 inter=574080
    stall[pe_barrier_idle=574080,multiplier_quantization=100230,output_backpressure=0]
    slow4 compute=5980 nz=14040 z=459810 intra=100230 inter=956800
    stuck0 err compute unit 0 in cluster 0 is stuck with assigned work
    stuck15 err compute unit 0 in cluster 15 is stuck with assigned work
    stuck16 ok compute=4485
d=65 large
  SCNN compute=517 nz=14040 z=47046 intra=183618 inter=284704
    stall[pe_barrier_idle=284704,multiplier_quantization=183618,output_backpressure=0]
    slow4 compute=1270 nz=14040 z=47046 intra=183618 inter=1055776
    stuck0 err compute unit 0 in cluster 0 is stuck with assigned work
    stuck63 err compute unit 0 in cluster 63 is stuck with assigned work
    stuck64 ok compute=517
  SCNN-one-sided compute=1495 nz=14040 z=176940 intra=515580 inter=824320
    stall[pe_barrier_idle=824320,multiplier_quantization=515580,output_backpressure=0]
    slow4 compute=3634 nz=14040 z=176940 intra=515580 inter=3014656
    stuck0 err compute unit 0 in cluster 0 is stuck with assigned work
    stuck63 err compute unit 0 in cluster 63 is stuck with assigned work
    stuck64 ok compute=1495
  SCNN-dense compute=1495 nz=14040 z=459810 intra=1057030 inter=0
    stall[multiplier_quantization=1057030,output_backpressure=0]
    slow4 compute=5980 nz=14040 z=459810 intra=1057030 inter=4592640
    stuck0 err compute unit 0 in cluster 0 is stuck with assigned work
    stuck63 err compute unit 0 in cluster 63 is stuck with assigned work
    stuck64 ok compute=1495
d=130 small
  SCNN compute=1701 nz=32752 z=98914 intra=111278 inter=192512
    stall[pe_barrier_idle=192512,multiplier_quantization=111278,output_backpressure=0]
    slow4 compute=3776 nz=32752 z=98914 intra=111278 inter=723712
    stuck0 err compute unit 0 in cluster 0 is stuck with assigned work
    stuck15 err compute unit 0 in cluster 15 is stuck with assigned work
    stuck16 ok compute=1701
  SCNN-one-sided compute=5061 nz=32752 z=389825 intra=299151 inter=573888
    stall[pe_barrier_idle=573888,multiplier_quantization=299151,output_backpressure=0]
    slow4 compute=11256 nz=32752 z=389825 intra=299151 inter=2159808
    stuck0 err compute unit 0 in cluster 0 is stuck with assigned work
    stuck15 err compute unit 0 in cluster 15 is stuck with assigned work
    stuck16 ok compute=5061
  SCNN-dense compute=8190 nz=32752 z=1020248 intra=344760 inter=698880
    stall[pe_barrier_idle=698880,multiplier_quantization=344760,output_backpressure=0]
    slow4 compute=21840 nz=32752 z=1020248 intra=344760 inter=4193280
    stuck0 err compute unit 0 in cluster 0 is stuck with assigned work
    stuck15 err compute unit 0 in cluster 15 is stuck with assigned work
    stuck16 ok compute=8190
d=130 large
  SCNN compute=918 nz=32752 z=98914 intra=357998 inter=450368
    stall[pe_barrier_idle=450368,multiplier_quantization=357998,output_backpressure=0]
    slow4 compute=2049 nz=32752 z=98914 intra=357998 inter=1608512
    stuck0 err compute unit 0 in cluster 0 is stuck with assigned work
    stuck63 err compute unit 0 in cluster 63 is stuck with assigned work
    stuck64 ok compute=918
  SCNN-one-sided compute=2730 nz=32752 z=389825 intra=1030959 inter=1341984
    stall[pe_barrier_idle=1341984,multiplier_quantization=1030959,output_backpressure=0]
    slow4 compute=6069 nz=32752 z=389825 intra=1030959 inter=4761120
    stuck0 err compute unit 0 in cluster 0 is stuck with assigned work
    stuck63 err compute unit 0 in cluster 63 is stuck with assigned work
    stuck64 ok compute=2730
  SCNN-dense compute=2730 nz=32752 z=1020248 intra=1742520 inter=0
    stall[multiplier_quantization=1742520,output_backpressure=0]
    slow4 compute=10920 nz=32752 z=1020248 intra=1742520 inter=8386560
    stuck0 err compute unit 0 in cluster 0 is stuck with assigned work
    stuck63 err compute unit 0 in cluster 63 is stuck with assigned work
    stuck64 ok compute=2730
d=20 small
  SCNN compute=1785 nz=11675 z=187466 intra=87643 inter=170176
    stall[pe_barrier_idle=170176,multiplier_quantization=87643,output_backpressure=0]
    slow4 compute=4676 nz=11675 z=187466 intra=87643 inter=910272
    stuck0 err compute unit 0 in cluster 0 is stuck with assigned work
    stuck15 err compute unit 0 in cluster 15 is stuck with assigned work
    stuck16 ok compute=1785
  SCNN-one-sided compute=4387 nz=11675 z=489825 intra=203844 inter=417728
    stall[pe_barrier_idle=417728,multiplier_quantization=203844,output_backpressure=0]
    slow4 compute=11556 nz=11675 z=489825 intra=203844 inter=2252992
    stuck0 err compute unit 0 in cluster 0 is stuck with assigned work
    stuck15 err compute unit 0 in cluster 15 is stuck with assigned work
    stuck16 ok compute=4387
  SCNN-dense compute=6420 nz=11675 z=1203825 intra=291060 inter=136960
    stall[pe_barrier_idle=136960,multiplier_quantization=291060,output_backpressure=0]
    slow4 compute=25680 nz=11675 z=1203825 intra=291060 inter=5067520
    stuck0 err compute unit 0 in cluster 0 is stuck with assigned work
    stuck15 err compute unit 0 in cluster 15 is stuck with assigned work
    stuck16 ok compute=6420
d=20 large
  SCNN compute=870 nz=11675 z=187466 intra=379915 inter=311824
    stall[pe_barrier_idle=311824,multiplier_quantization=379915,output_backpressure=0]
    slow4 compute=2442 nz=11675 z=187466 intra=379915 inter=1921552
    stuck0 err compute unit 0 in cluster 0 is stuck with assigned work
    stuck63 err compute unit 0 in cluster 63 is stuck with assigned work
    stuck64 ok compute=870
  SCNN-one-sided compute=2140 nz=11675 z=489825 intra=924596 inter=765264
    stall[pe_barrier_idle=765264,multiplier_quantization=924596,output_backpressure=0]
    slow4 compute=5992 nz=11675 z=489825 intra=924596 inter=4709712
    stuck0 err compute unit 0 in cluster 0 is stuck with assigned work
    stuck63 err compute unit 0 in cluster 63 is stuck with assigned work
    stuck64 ok compute=2140
  SCNN-dense compute=2140 nz=11675 z=1203825 intra=975860 inter=0
    stall[multiplier_quantization=975860,output_backpressure=0]
    slow4 compute=8560 nz=11675 z=1203825 intra=975860 inter=6574080
    stuck0 err compute unit 0 in cluster 0 is stuck with assigned work
    stuck63 err compute unit 0 in cluster 63 is stuck with assigned work
    stuck64 ok compute=2140
d=33 small
  SCNN compute=50 nz=1191 z=0 intra=6233 inter=5376
    stall[pe_barrier_idle=5376,multiplier_quantization=6233,output_backpressure=0]
    slow4 compute=110 nz=1191 z=0 intra=6233 inter=20736
    stuck0 err compute unit 0 in cluster 0 is stuck with assigned work
    stuck15 err compute unit 0 in cluster 15 is stuck with assigned work
    stuck16 ok compute=50
  SCNN-one-sided compute=99 nz=1191 z=2310 intra=11043 inter=10800
    stall[pe_barrier_idle=10800,multiplier_quantization=11043,output_backpressure=0]
    slow4 compute=216 nz=1191 z=2310 intra=11043 inter=40752
    stuck0 err compute unit 0 in cluster 0 is stuck with assigned work
    stuck15 err compute unit 0 in cluster 15 is stuck with assigned work
    stuck16 ok compute=99
  SCNN-dense compute=99 nz=1191 z=7719 intra=16434 inter=0
    stall[multiplier_quantization=16434,output_backpressure=0]
    slow4 compute=396 nz=1191 z=7719 intra=16434 inter=76032
    stuck0 err compute unit 0 in cluster 0 is stuck with assigned work
    stuck15 err compute unit 0 in cluster 15 is stuck with assigned work
    stuck16 ok compute=99
d=33 large
  SCNN compute=50 nz=1191 z=0 intra=8393 inter=41616
    stall[pe_barrier_idle=41616,multiplier_quantization=8393,output_backpressure=0]
    slow4 compute=50 nz=1191 z=0 intra=8393 inter=41616
    stuck0 ok compute=50
    stuck63 err compute unit 0 in cluster 63 is stuck with assigned work
    stuck64 ok compute=50
  SCNN-one-sided compute=99 nz=1191 z=2310 intra=15171 inter=82704
    stall[pe_barrier_idle=82704,multiplier_quantization=15171,output_backpressure=0]
    slow4 compute=99 nz=1191 z=2310 intra=15171 inter=82704
    stuck0 ok compute=99
    stuck63 err compute unit 0 in cluster 63 is stuck with assigned work
    stuck64 ok compute=99
  SCNN-dense compute=99 nz=1191 z=7719 intra=38610 inter=53856
    stall[pe_barrier_idle=53856,multiplier_quantization=38610,output_backpressure=0]
    slow4 compute=99 nz=1191 z=7719 intra=38610 inter=53856
    stuck0 ok compute=99
    stuck63 err compute unit 0 in cluster 63 is stuck with assigned work
    stuck64 ok compute=99
";
    assert_eq!(got, expected, "golden snapshot drifted; actual:\n{got}");
}
