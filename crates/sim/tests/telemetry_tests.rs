//! Reconciliation tests: the telemetry stall/work counters must agree
//! *exactly* with every simulator's Figure 10–12 breakdown.

use sparten_core::SimError;
use sparten_nn::generate::{workload, Workload};
use sparten_nn::ConvShape;
use sparten_sim::{
    reconcile_and_merge, simulate, simulate_cambricon, simulate_layer, trace_cluster, Hooks,
    MaskModel, Scheme, SimConfig, SimResult,
};
use sparten_telemetry::Telemetry;

/// [`simulate`] recording into `session` under `prefix`.
fn simulate_telemetry(
    w: &Workload,
    m: &MaskModel,
    cfg: &SimConfig,
    scheme: Scheme,
    session: &Telemetry,
    prefix: &str,
) -> Result<SimResult, SimError> {
    let hooks = Hooks {
        telemetry: Some((session, prefix)),
        fault: None,
    };
    simulate(w, m, cfg, scheme, &hooks)
}

fn test_config() -> SimConfig {
    let mut cfg = SimConfig::small();
    cfg.accel.num_clusters = 2;
    cfg.accel.cluster.compute_units = 4;
    cfg
}

fn test_workload(seed: u64) -> Workload {
    let shape = ConvShape::new(40, 8, 8, 3, 12, 1, 1);
    workload(&shape, 0.4, 0.35, seed)
}

#[test]
fn all_schemes_reconcile_on_two_seeds() {
    let cfg = test_config();
    for seed in [31, 2019] {
        let w = test_workload(seed);
        let m = MaskModel::new(&w, cfg.accel.cluster.chunk_size);
        for scheme in Scheme::all() {
            let session = Telemetry::new();
            let r = simulate_telemetry(&w, &m, &cfg, scheme, &session, "t:")
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            // The instrumented run must return the identical result.
            let plain = simulate_layer(&w, &m, &cfg, scheme);
            assert_eq!(r, plain, "telemetry changed {} result", plain.scheme);
            // And the merged session holds the scheme's counters.
            let snap = session.metrics.snapshot();
            assert_eq!(
                snap.counter(&format!("{}/work.nonzero", r.scheme)),
                Some(r.breakdown.nonzero)
            );
            assert_eq!(
                snap.counter_sum(&format!("{}/stall.intra.", r.scheme)),
                r.breakdown.intra
            );
            assert_eq!(
                snap.counter_sum(&format!("{}/stall.inter.", r.scheme)),
                r.breakdown.inter
            );
        }
    }
}

#[test]
fn strided_and_unbalanced_layers_reconcile() {
    // Stress the decomposition where the models are most irregular:
    // stride-2 SCNN discard, uneven position slices, partial groups.
    let cfg = test_config();
    let shape = ConvShape::new(32, 9, 9, 3, 10, 2, 1);
    let w = workload(&shape, 0.3, 0.45, 7);
    let m = MaskModel::new(&w, cfg.accel.cluster.chunk_size);
    for scheme in Scheme::all() {
        let session = Telemetry::new();
        simulate_telemetry(&w, &m, &cfg, scheme, &session, "s:").unwrap_or_else(|e| panic!("{e}"));
    }
}

#[test]
fn cambricon_reconciles_and_merges() {
    let cfg = test_config();
    let shape = ConvShape::new(64, 8, 8, 3, 32, 1, 1);
    let w = workload(&shape, 0.35, 0.4, 77);
    let session = Telemetry::new();
    let local = Telemetry::new();
    let r = simulate_cambricon(&w, &cfg, Some(&local));
    reconcile_and_merge(local, &r.sim, &session, "cam:").expect("cambricon telemetry reconciles");
    let snap = session.metrics.snapshot();
    assert_eq!(
        snap.counter("Cambricon-S-like/work.zero"),
        Some(r.sim.breakdown.zero)
    );
    assert!(snap.counter("Cambricon-S-like/prune.clamped_keepers").unwrap_or(0) > 0);
}

#[test]
fn shared_session_accumulates_across_layers() {
    // Two layers into one session: counters add, per-layer invariants were
    // each checked against their own local session before merging.
    let cfg = test_config();
    let w1 = test_workload(1);
    let w2 = test_workload(2);
    let m1 = MaskModel::new(&w1, cfg.accel.cluster.chunk_size);
    let m2 = MaskModel::new(&w2, cfg.accel.cluster.chunk_size);
    let session = Telemetry::new();
    let r1 =
        simulate_telemetry(&w1, &m1, &cfg, Scheme::SpartenGbH, &session, "l1:").expect("layer 1");
    let r2 =
        simulate_telemetry(&w2, &m2, &cfg, Scheme::SpartenGbH, &session, "l2:").expect("layer 2");
    let snap = session.metrics.snapshot();
    assert_eq!(
        snap.counter("SparTen/work.nonzero"),
        Some(r1.breakdown.nonzero + r2.breakdown.nonzero)
    );
    assert_eq!(
        snap.counter_sum("SparTen/stall."),
        r1.breakdown.intra + r1.breakdown.inter + r2.breakdown.intra + r2.breakdown.inter
    );
    // Both layers' cluster tracks exist, prefixed per layer.
    let names = session.recorder.process_names();
    assert!(names.iter().any(|n| n == "l1:SparTen"));
    assert!(names.iter().any(|n| n == "l2:SparTen"));
}

#[test]
fn trace_counters_match_log_utilization() {
    let cfg = test_config();
    let w = test_workload(17);
    let tel = Telemetry::new();
    let log = trace_cluster(
        &w,
        &cfg,
        sparten_core::balance::BalanceMode::GbS,
        4,
        Some(&tel),
    );
    let plain = trace_cluster(&w, &cfg, sparten_core::balance::BalanceMode::GbS, 4, None);
    assert_eq!(log, plain, "telemetry changed the trace log");
    let snap = tel.metrics.snapshot();
    let useful = snap.counter("Trace-GB-S/trace.useful_slots").expect("useful") as f64;
    let barrier = snap.counter("Trace-GB-S/trace.barrier_slots").expect("barrier") as f64;
    assert!((useful / barrier - log.utilization()).abs() < 1e-12);
    assert!(!tel.recorder.events().is_empty());
}
