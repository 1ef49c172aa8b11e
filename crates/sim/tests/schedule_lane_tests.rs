//! Differential oracle for the lane-ordered two-sided SparTen loop.
//!
//! The simulator folds each schedule's balance assignment into a lane
//! table once per call and times every chunk barrier as a contiguous
//! reduction over a `MaskModel::lane_row`. The reference below is the
//! straightforward walk it replaces: for every (position, group, chunk,
//! unit) it sums `MaskModel::work_row` over the unit's filter slots, read
//! from the `per_cu` / `per_chunk_cu` lists of `Vec<Vec<usize>>`.
//!
//! Both must agree on compute cycles, the breakdown, every `OpCounts`
//! field and the telemetry stall tallies and chunk joins, clean and under
//! `Slow(4)` / `Stuck` faults on the first unit, the last unit and a unit
//! past the end of the array. Schedules: no-GB, GB-S, GB-H, GB-S without
//! collocation and k = 1/3/4 collocation with and without per-chunk
//! sorting. Filter counts are not multiples of `2 · units`, so groups end
//! in padding lanes. The default run walks a covering slice;
//! `--features exhaustive-tests` widens the grid.

use sparten_core::balance::{BalanceMode, LayerBalance};
use sparten_core::SimError;
use sparten_faults::{UnitFault, UnitFaultSpec};
use sparten_nn::generate::{workload, Workload};
use sparten_nn::ConvShape;
use sparten_sim::sparten::{
    simulate_sparten_faulted, simulate_sparten_with_balance,
    simulate_sparten_with_balance_telemetry, Sparsity,
};
use sparten_sim::{Breakdown, MaskModel, OpCounts, SimConfig, SimResult};
use sparten_telemetry::Telemetry;

const MODES: [BalanceMode; 4] = [
    BalanceMode::None,
    BalanceMode::GbS,
    BalanceMode::GbH,
    BalanceMode::GbSNoColloc,
];

/// What the reference walk accumulates over the whole layer.
#[derive(Debug, Default)]
struct Walk {
    compute_cycles: u64,
    macs: u64,
    intra: u64,
    inter: u64,
    joins: u64,
    permutes: u64,
    prefix_encoder_wait: u64,
    unit_underfill: u64,
    empty_mask_and: u64,
    chunk_barrier_idle: u64,
}

/// The per-unit slot walk over `work_row` (two-sided only).
fn reference(
    m: &MaskModel,
    cfg: &SimConfig,
    balance: &LayerBalance,
    fault: Option<&UnitFaultSpec>,
) -> Result<Walk, SimError> {
    let shape = m.shape();
    let units = cfg.accel.cluster.compute_units;
    let clusters = cfg.accel.num_clusters;
    let nf = shape.num_filters;
    let oh = shape.out_height();
    let positions = oh * shape.out_width();
    let mut walk = Walk::default();
    let mut row = Vec::new();
    let mut cluster_cycles = Vec::with_capacity(clusters);
    for cluster in 0..clusters {
        let unit_fault = fault.filter(|f| f.cluster == cluster);
        let (mut cycles, mut busy) = (0u64, 0u64);
        for p in positions * cluster / clusters..positions * (cluster + 1) / clusters {
            m.work_row(p % oh, p / oh, &mut row);
            for group in &balance.groups {
                if group.busy_units() == 0 {
                    continue;
                }
                for c in 0..m.chunks_per_window() {
                    let per_unit = if group.per_chunk_cu.is_empty() {
                        &group.per_cu
                    } else {
                        &group.per_chunk_cu[c]
                    };
                    let mut work = Vec::new();
                    let mut chunk_max = 0u64;
                    for (u, slots) in per_unit.iter().enumerate() {
                        let w: u64 = slots.iter().map(|&f| row[c * nf + f] as u64).sum();
                        busy += w;
                        let mut latency = w;
                        if let Some(fa) = unit_fault.filter(|fa| fa.unit == u) {
                            match fa.fault {
                                UnitFault::Slow(k) => latency = w * k.max(1),
                                UnitFault::Stuck if w > 0 => {
                                    return Err(SimError::StuckUnit { cluster, unit: u })
                                }
                                UnitFault::Stuck => {}
                            }
                        }
                        chunk_max = chunk_max.max(latency);
                        walk.joins += slots.len() as u64;
                        work.push((w, slots.is_empty()));
                    }
                    cycles += chunk_max + 1;
                    if !group.per_chunk_cu.is_empty() {
                        walk.permutes += group.num_filters() as u64;
                    }
                    walk.prefix_encoder_wait += units as u64;
                    for (w, empty) in work {
                        if empty {
                            walk.unit_underfill += chunk_max;
                        } else if w == 0 {
                            walk.empty_mask_and += chunk_max;
                        } else {
                            walk.chunk_barrier_idle += chunk_max - w;
                        }
                    }
                    walk.unit_underfill += (units - per_unit.len()) as u64 * chunk_max;
                }
            }
        }
        cluster_cycles.push(cycles);
        walk.macs += busy;
        walk.intra += cycles * units as u64 - busy;
    }
    walk.compute_cycles = cluster_cycles.iter().copied().max().unwrap_or(0);
    walk.inter = cluster_cycles
        .iter()
        .map(|&c| (walk.compute_cycles - c) * units as u64)
        .sum();
    Ok(walk)
}

/// Asserts that the simulator's result and telemetry match the walk.
fn assert_matches(r: &SimResult, tel: &Telemetry, walk: &Walk, m: &MaskModel, what: &str) {
    assert_eq!(
        r.compute_cycles, walk.compute_cycles,
        "{what}: compute cycles"
    );
    assert_eq!(
        r.breakdown,
        Breakdown {
            nonzero: walk.macs,
            zero: 0,
            intra: walk.intra,
            inter: walk.inter,
        },
        "{what}: breakdown"
    );
    let shape = m.shape();
    assert_eq!(
        r.ops,
        OpCounts {
            macs_nonzero: walk.macs,
            macs_zero: 0,
            buffer_accesses: 3 * walk.macs,
            prefix_ops: 2 * walk.joins,
            encoder_ops: walk.macs,
            permute_values: walk.permutes,
            compact_ops: (shape.out_height() * shape.out_width() * shape.num_filters) as u64,
            crossbar_ops: 0,
        },
        "{what}: op counts"
    );
    assert_eq!(
        r.breakdown.nonzero,
        m.total_sparse_macs(),
        "{what}: MAC total"
    );
    let snap = tel.metrics.snapshot();
    let counter = |leaf: &str| snap.counter(&format!("{}/{leaf}", r.scheme)).unwrap_or(0);
    for (leaf, expect) in [
        ("stall.intra.prefix_encoder_wait", walk.prefix_encoder_wait),
        ("stall.intra.unit_underfill", walk.unit_underfill),
        ("stall.intra.empty_mask_and", walk.empty_mask_and),
        ("stall.intra.chunk_barrier_idle", walk.chunk_barrier_idle),
        ("trace.chunk_joins", walk.joins),
    ] {
        assert_eq!(counter(leaf), expect, "{what}: {leaf}");
    }
}

/// A small padded layer; odd seeds use stride 2.
fn layer(d: usize, filters: usize, density: (f64, f64), seed: u64) -> Workload {
    let shape = ConvShape::new(d, 6, 7, 3, filters, 1 + (seed as usize % 2), 1);
    workload(&shape, density.0, density.1, seed)
}

fn config(chunk: usize, units: usize) -> SimConfig {
    let mut cfg = SimConfig::small();
    cfg.accel.num_clusters = 2;
    cfg.accel.cluster.compute_units = units;
    cfg.accel.cluster.chunk_size = chunk;
    cfg
}

/// Every clean schedule and every fault of one layer under one config.
fn check_layer(w: &Workload, cfg: &SimConfig, what: &str) {
    let units = cfg.accel.cluster.compute_units;
    let chunk = cfg.accel.cluster.chunk_size;
    let m = MaskModel::new(w, chunk);

    let mut schedules: Vec<(String, LayerBalance)> = MODES
        .iter()
        .map(|&mode| {
            let b = LayerBalance::new(&w.filters, units, chunk, mode);
            (format!("{mode:?}"), b)
        })
        .collect();
    for k in [1, 3, 4] {
        for per_chunk in [false, true] {
            let b = LayerBalance::with_collocation(&w.filters, units, chunk, k, per_chunk);
            schedules.push((format!("k={k} per_chunk={per_chunk}"), b));
        }
    }
    for (name, balance) in schedules {
        let what = format!("{what} {name}");
        let walk = reference(&m, cfg, &balance, None).expect("clean walk");
        let tel = Telemetry::new();
        let r = simulate_sparten_with_balance_telemetry(
            w,
            &m,
            cfg,
            Sparsity::TwoSided,
            balance.clone(),
            Some(&tel),
        );
        assert_matches(&r, &tel, &walk, &m, &what);
        let plain = simulate_sparten_with_balance(w, &m, cfg, Sparsity::TwoSided, balance);
        assert_eq!(plain, r, "{what}: telemetry changed the result");
    }

    for mode in MODES {
        let balance = LayerBalance::new(&w.filters, units, chunk, mode);
        for unit in [0, units - 1, units] {
            for cluster in [0, 1] {
                for fault in [UnitFault::Slow(4), UnitFault::Stuck] {
                    let spec = UnitFaultSpec {
                        cluster,
                        unit,
                        fault,
                    };
                    let what = format!("{what} {mode:?} {spec:?}");
                    let tel = Telemetry::new();
                    let got = simulate_sparten_faulted(
                        w,
                        &m,
                        cfg,
                        Sparsity::TwoSided,
                        mode,
                        &spec,
                        Some(&tel),
                    );
                    let plain =
                        simulate_sparten_faulted(w, &m, cfg, Sparsity::TwoSided, mode, &spec, None);
                    assert_eq!(plain, got, "{what}: telemetry changed the result");
                    match (reference(&m, cfg, &balance, Some(&spec)), got) {
                        (Ok(walk), Ok(r)) => assert_matches(&r, &tel, &walk, &m, &what),
                        (Err(a), Err(b)) => assert_eq!(a, b, "{what}: error"),
                        (a, b) => panic!("{what}: reference {a:?} vs simulator {b:?}"),
                    }
                }
            }
        }
    }
}

#[test]
fn lane_loop_matches_per_unit_walk() {
    // (channels, filters, units): filter counts off multiples of 2·units,
    // and fewer filters than units.
    let mut layers = vec![(70, 13, 4), (130, 7, 4), (3, 18, 4), (65, 3, 4)];
    let mut densities = vec![(0.4, 0.35)];
    if cfg!(feature = "exhaustive-tests") {
        layers.extend([(64, 25, 8), (200, 11, 3), (130, 40, 8), (1, 5, 2)]);
        densities.extend([(0.0, 0.4), (1.0, 1.0), (0.8, 0.1)]);
    }
    let mut seed = 900;
    for &(d, filters, units) in &layers {
        for &density in &densities {
            for chunk in [64, 128, 256] {
                seed += 1;
                let w = layer(d, filters, density, seed);
                let what = format!("d={d} F={filters} units={units} chunk={chunk} {density:?}");
                check_layer(&w, &config(chunk, units), &what);
            }
        }
    }
}
