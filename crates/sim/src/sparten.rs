//! Cycle-level simulator for the SparTen family (and its one-sided proxy).
//!
//! Model (§3.2–3.3): each cluster owns a contiguous slice of output spatial
//! positions and processes *all* filters for it, group by group (one or two
//! filters per compute unit). Every input-chunk broadcast is an implicit
//! barrier across the cluster's units: the cluster advances at the pace of
//! its slowest unit for that chunk. A unit's chunk work is the popcount of
//! the ANDed SparseMaps (one MAC per cycle), plus one cycle of broadcast
//! overhead per chunk. Intra-cluster loss is the gap between the barrier
//! time and the units' useful work (covering both density imbalance and
//! idle units when filters run short); inter-cluster loss is the gap to the
//! slowest cluster.
//!
//! Configured one-sided, filters are treated as dense: every unit's chunk
//! work is the input chunk's popcount (no imbalance, but all filter zeros
//! with a non-zero input are multiplied) — the paper's proxy for Cnvlutin,
//! Cambricon-X, and EIE's zero idling.
//!
//! Chunk work is obtained from [`MaskModel`]. A two-sided run first folds
//! its [`LayerBalance`] into a lane table: group `g` owns `slots · units`
//! lanes per window chunk, lane `s · units + u` holding the mask of unit
//! `u`'s slot-`s` filter (from `per_chunk_cu[c]` under GB-H, `per_cu`
//! otherwise; missing slots are all-zero padding lanes). It then fills one
//! [`MaskModel::lane_row`] per output position — the AND + popcount work of
//! every lane, computed once — so a chunk barrier is a contiguous max over
//! the group's lanes and the executed MACs are the row's sum. One-sided
//! runs likewise take the input chunks' popcounts once per position. The
//! structural circuit models remain the oracle the word-parallel kernels
//! are differentially tested against.

use sparten_core::balance::{BalanceMode, LayerBalance};
use sparten_core::SimError;
use sparten_faults::{UnitFault, UnitFaultSpec};
use sparten_nn::generate::Workload;
use sparten_telemetry::{StallCause, Telemetry};

use crate::breakdown::{Breakdown, OpCounts, SimResult, Traffic};
use crate::config::SimConfig;
use crate::probe::{Probe, StallTally, POSITION_SPAN_LIMIT};
use crate::workmodel::MaskModel;

/// Which sparsity the datapath exploits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sparsity {
    /// Feature-map sparsity only (filters stored and computed dense).
    OneSided,
    /// Full two-sided sparsity (the real SparTen).
    TwoSided,
}

/// Per-chunk broadcast/setup overhead in cycles.
const CHUNK_OVERHEAD: u64 = 1;

/// Simulates one layer on the SparTen microarchitecture under an explicit
/// filter-to-unit assignment ([`LayerBalance::new`] for the paper's
/// schedules, [`LayerBalance::with_collocation`] for k-way collocation).
/// One-sided runs treat filters as dense, so their balance should be built
/// with [`BalanceMode::None`] (GB is moot when filter density is uniform).
///
/// With `tel`, stall-cause counters, occupancy gauges, chunk-barrier
/// histograms, and sampled per-cluster timeline spans are recorded.
///
/// With `fault`, one compute unit misbehaves. A [`UnitFault::Slow`]
/// straggler stretches only the victim's per-chunk *latency*: its useful
/// work (and every cycle-accounting identity) is unchanged, the lost time
/// shows up as barrier idle — so a slow unit is survivable and the result
/// stays work-equivalent to the clean run. A [`UnitFault::Stuck`] unit that
/// holds any nonzero work makes the layer unrecoverable and returns
/// [`SimError::StuckUnit`]; without a fault the call cannot fail.
///
/// # Panics
///
/// Panics if `balance` was built for a unit count other than the config's.
pub fn simulate_sparten(
    workload: &Workload,
    model: &MaskModel,
    config: &SimConfig,
    sparsity: Sparsity,
    balance: LayerBalance,
    tel: Option<&Telemetry>,
    fault: Option<&UnitFaultSpec>,
) -> Result<SimResult, SimError> {
    let shape = &workload.shape;
    let units = config.accel.cluster.compute_units;
    let num_clusters = config.accel.num_clusters;
    let mode = balance.mode;
    let chunks = model.chunks_per_window();
    let (oh, ow) = (shape.out_height(), shape.out_width());
    let positions = oh * ow;

    let mut cluster_cycles = vec![0u64; num_clusters];
    let mut cluster_busy = vec![0u64; num_clusters];
    let mut total_macs = 0u64; // MACs the datapath executes
    let mut permute_values = 0u64;
    let mut chunk_joins = 0u64;

    let probe = tel.map(|t| Probe::new(t, scheme_name(sparsity, mode)));
    let hist_barrier = probe.as_ref().map(|p| p.histogram("hist.chunk_barrier"));
    // Per-position work: a lane row (two-sided) or the input chunks'
    // popcounts (one-sided), shared by every group and unit.
    let lanes = match sparsity {
        Sparsity::TwoSided => Some(LaneTable::new(model, &balance, units)),
        Sparsity::OneSided => None,
    };
    let mut row: Vec<u32> = Vec::new();
    let mut onesided = vec![0u64; chunks];
    let busy_per_group: Vec<u64> = balance
        .groups
        .iter()
        .map(|g| g.busy_units() as u64)
        .collect();

    for cluster in 0..num_clusters {
        let unit_fault = fault.filter(|f| f.cluster == cluster);
        // A two-sided victim outside the cluster's units never fires.
        let victim = unit_fault.filter(|f| f.unit < units);
        let lo = positions * cluster / num_clusters;
        let hi = positions * (cluster + 1) / num_clusters;
        let mut cycles = 0u64;
        let mut busy = 0u64;
        let mut tally = StallTally::default();
        let mut sampled_spans = 0usize;
        for p in lo..hi {
            // One position is one chunk batch; a serve request whose
            // deadline expired (or whose last subscriber hung up) stops
            // here instead of finishing the layer.
            sparten_telemetry::cancel::checkpoint();
            let pos_start = cycles;
            let (ox, oy) = (p % oh, p / oh);
            if let Some(lanes) = &lanes {
                model.lane_row(&lanes.masks, lanes.width, ox, oy, &mut row);
                busy += row.iter().map(|&w| w as u64).sum::<u64>();
                chunk_joins += lanes.joins;
                permute_values += lanes.permutes;
                for &(first, slots) in &lanes.groups {
                    if slots == 0 {
                        // No filter in the group: no broadcast reaches it.
                        continue;
                    }
                    for c in 0..chunks {
                        let base = c * lanes.width + first;
                        let lane = &row[base..base + slots * units];
                        // The barrier sees each unit's *latency*: its true
                        // work, stretched for a slow victim.
                        let mut barrier = unit_max(lane, units) as u64;
                        if let Some(fa) = victim {
                            let w = unit_work(lane, units, fa.unit) as u64;
                            match fa.fault {
                                UnitFault::Slow(k) => barrier = barrier.max(w * k.max(1)),
                                UnitFault::Stuck => {
                                    if w > 0 {
                                        return Err(SimError::StuckUnit {
                                            cluster,
                                            unit: fa.unit,
                                        });
                                    }
                                }
                            }
                        }
                        cycles += barrier + CHUNK_OVERHEAD;
                        if let Some(h) = &hist_barrier {
                            tally.prefix_encoder_wait += CHUNK_OVERHEAD * units as u64;
                            // A unit holds filters iff its slot-0 lane does.
                            let held = &lanes.held[base..base + units];
                            for (u, &holds) in held.iter().enumerate() {
                                let w = unit_work(lane, units, u) as u64;
                                if !holds {
                                    // No filter assigned: idle lane.
                                    tally.unit_underfill += barrier;
                                } else if w == 0 {
                                    // Held filters, but the mask AND came
                                    // up empty for this chunk.
                                    tally.empty_mask_and += barrier;
                                } else {
                                    tally.chunk_barrier_idle += barrier - w;
                                }
                            }
                            h.record(barrier);
                        }
                    }
                }
            } else {
                for (c, w) in onesided.iter_mut().enumerate() {
                    *w = model.onesided_chunk_work(ox, oy, c) as u64;
                }
                for &busy_units in &busy_per_group {
                    if busy_units == 0 {
                        continue;
                    }
                    for &w in &onesided {
                        // The broadcast barrier advances at the victim's
                        // stretched latency; useful work is unchanged.
                        let mut barrier = w;
                        if let Some(fa) = unit_fault {
                            if (fa.unit as u64) < busy_units {
                                match fa.fault {
                                    UnitFault::Slow(k) => barrier = w * k.max(1),
                                    UnitFault::Stuck => {
                                        if w > 0 {
                                            return Err(SimError::StuckUnit {
                                                cluster,
                                                unit: fa.unit,
                                            });
                                        }
                                    }
                                }
                            }
                        }
                        cycles += barrier + CHUNK_OVERHEAD;
                        busy += w * busy_units;
                        chunk_joins += busy_units;
                        if let Some(h) = &hist_barrier {
                            // All busy units share the input's popcount;
                            // idle lanes, the broadcast overhead, and any
                            // straggler stretch are the intra losses.
                            tally.prefix_encoder_wait += CHUNK_OVERHEAD * units as u64;
                            tally.unit_underfill += barrier * (units as u64 - busy_units);
                            tally.chunk_barrier_idle += (barrier - w) * busy_units;
                            h.record(barrier);
                        }
                    }
                }
            }
            if let Some(pr) = &probe {
                if sampled_spans < POSITION_SPAN_LIMIT {
                    pr.span(
                        cluster as u32,
                        "position",
                        pos_start,
                        cycles - pos_start,
                        &[("pos", p as u64)],
                    );
                    sampled_spans += 1;
                }
            }
        }
        cluster_cycles[cluster] = cycles;
        cluster_busy[cluster] = busy;
        total_macs += busy;
        if let Some(pr) = &probe {
            pr.thread(cluster as u32, &format!("cluster{cluster}"));
            pr.span(cluster as u32, "cluster", 0, cycles, &[("busy", busy)]);
            if cycles > 0 {
                pr.gauge(
                    "occupancy.cluster_util",
                    busy as f64 / (cycles * units as u64) as f64,
                );
            }
            tally.emit(pr);
            debug_assert_eq!(tally.intra(), cycles * units as u64 - busy);
        }
    }

    let makespan = cluster_cycles.iter().copied().max().unwrap_or(0);
    let total_units = (units * num_clusters) as u64;

    // Useful (both-non-zero) MACs: equal to the executed MACs for two-sided;
    // for one-sided the gap is zero computation.
    let nonzero_macs = match sparsity {
        Sparsity::TwoSided => total_macs,
        Sparsity::OneSided => model.total_sparse_macs(),
    };
    let zero_macs = total_macs - nonzero_macs;

    // Intra: within each cluster, barrier slots minus that cluster's busy
    // slots. Inter: slack of faster clusters against the makespan.
    let mut intra = 0u64;
    let mut inter = 0u64;
    for c in 0..num_clusters {
        intra += cluster_cycles[c] * units as u64 - cluster_busy[c];
        inter += (makespan - cluster_cycles[c]) * units as u64;
    }

    let traffic = sparten_traffic(workload, model, config, sparsity);
    let memory_cycles = (traffic.total_bytes() / config.memory.bytes_per_cycle).ceil() as u64;

    if let Some(pr) = &probe {
        pr.work(nonzero_macs, zero_macs);
        pr.stall(StallCause::ClusterIdle, inter);
        // Registered at zero: the analytic model assumes a perfect output
        // collector, but the taxonomy slot stays visible in reports.
        pr.stall(StallCause::OutputBackpressure, 0);
        pr.traffic(&traffic);
        pr.count("trace.chunk_joins", chunk_joins);
        pr.gauge("occupancy.makespan_cycles", makespan as f64);
    }

    let prefix_per_join = match sparsity {
        Sparsity::OneSided => 1,
        Sparsity::TwoSided => 2,
    };
    Ok(SimResult {
        scheme: scheme_name(sparsity, mode),
        compute_cycles: makespan,
        memory_cycles,
        total_units,
        breakdown: Breakdown {
            nonzero: nonzero_macs,
            zero: zero_macs,
            intra,
            inter,
        },
        traffic,
        ops: OpCounts {
            macs_nonzero: nonzero_macs,
            macs_zero: zero_macs,
            buffer_accesses: 3 * total_macs,
            prefix_ops: prefix_per_join * chunk_joins,
            encoder_ops: total_macs,
            permute_values,
            compact_ops: (positions * shape.num_filters) as u64,
            crossbar_ops: 0,
        },
    })
}

/// A two-sided schedule's lane table: the [`LayerBalance`] folded into the
/// mask layout once per simulation, so [`MaskModel::lane_row`] yields each
/// position's work already in unit-slot order.
struct LaneTable {
    /// Lanes per window chunk, over all groups.
    width: usize,
    /// Lane masks for [`MaskModel::lane_row`].
    masks: Vec<u64>,
    /// Per group: its first lane and slots per unit. Group lane
    /// `s · units + u` is unit `u`'s slot `s`.
    groups: Vec<(usize, usize)>,
    /// `held[c · width + j]`: lane `j` carries a filter at chunk `c`.
    held: Vec<bool>,
    /// Filter chunk joins per output position (the held lanes).
    joins: u64,
    /// Partial sums GB-H routes through the permutation network per
    /// output position: each GB-H group's filters, once per chunk.
    permutes: u64,
}

impl LaneTable {
    /// # Panics
    ///
    /// Panics if `balance` was built for a unit count other than `units`.
    fn new(model: &MaskModel, balance: &LayerBalance, units: usize) -> Self {
        let chunks = model.chunks_per_window();
        let mut groups = Vec::with_capacity(balance.groups.len());
        let mut width = 0;
        for g in &balance.groups {
            let slots = g
                .per_cu
                .iter()
                .chain(g.per_chunk_cu.iter().flatten())
                .map(Vec::len)
                .max()
                .unwrap_or(0);
            groups.push((width, slots));
            width += slots * units;
        }
        let mut filters: Vec<Option<usize>> = vec![None; chunks * width];
        let mut permutes = 0u64;
        for (g, &(first, _)) in balance.groups.iter().zip(&groups) {
            if !g.per_chunk_cu.is_empty() {
                permutes += (g.num_filters() * chunks) as u64;
            }
            for c in 0..chunks {
                let per_unit = if g.per_chunk_cu.is_empty() {
                    &g.per_cu
                } else {
                    &g.per_chunk_cu[c]
                };
                assert_eq!(
                    per_unit.len(),
                    units,
                    "balance assignment built for another unit count"
                );
                for (u, unit_slots) in per_unit.iter().enumerate() {
                    for (s, &f) in unit_slots.iter().enumerate() {
                        filters[c * width + first + s * units + u] = Some(f);
                    }
                }
            }
        }
        let held: Vec<bool> = filters.iter().map(Option::is_some).collect();
        LaneTable {
            width,
            masks: model.lane_masks(width, |c, j| filters[c * width + j]),
            groups,
            joins: held.iter().filter(|&&h| h).count() as u64,
            held,
            permutes,
        }
    }
}

/// The slowest unit's work in one (group, chunk) of a lane row, where
/// `lane[s · units + u]` is unit `u`'s slot `s`.
#[inline]
fn unit_max(lane: &[u32], units: usize) -> u32 {
    match lane.len() / units {
        1 => lane.iter().copied().fold(0, u32::max),
        2 => {
            let (a, b) = lane.split_at(units);
            a.iter().zip(b).map(|(x, y)| x + y).fold(0, u32::max)
        }
        _ => (0..units)
            .map(|u| unit_work(lane, units, u))
            .fold(0, u32::max),
    }
}

/// Unit `u`'s work in one (group, chunk) of a lane row: its slots' sum.
#[inline]
fn unit_work(lane: &[u32], units: usize, u: usize) -> u32 {
    lane[u..].iter().step_by(units).sum()
}

fn scheme_name(sparsity: Sparsity, mode: BalanceMode) -> &'static str {
    match (sparsity, mode) {
        (Sparsity::OneSided, _) => "One-sided",
        (Sparsity::TwoSided, BalanceMode::None) => "SparTen-no-GB",
        (Sparsity::TwoSided, BalanceMode::GbS) => "SparTen-GB-S",
        (Sparsity::TwoSided, BalanceMode::GbH) => "SparTen",
        (Sparsity::TwoSided, BalanceMode::GbSNoColloc) => "SparTen-GB-S-nocolloc",
    }
}

/// DRAM traffic for the SparTen family: sparse tensors move as packed
/// non-zero values plus per-chunk SparseMaps; one-sided keeps filters dense.
fn sparten_traffic(
    workload: &Workload,
    model: &MaskModel,
    config: &SimConfig,
    sparsity: Sparsity,
) -> Traffic {
    let shape = &workload.shape;
    let elem = config.memory.element_bytes as f64;
    let batch = config.memory.batch as f64;
    let chunk = config.accel.cluster.chunk_size;
    let mask_bytes_per_chunk = (chunk / 8) as f64;
    let chunks_per_fiber =
        sparten_core::chunking::padded_fiber_len(shape.in_channels, chunk) / chunk;

    let input_fibers = (shape.in_height * shape.in_width) as f64;
    let input_mask_bytes = input_fibers * chunks_per_fiber as f64 * mask_bytes_per_chunk;
    let input_bytes = model.input_nnz() as f64 * elem + input_mask_bytes;

    let weight_cells = shape.weight_cells() as f64;
    let filter_mask_bytes = (shape.num_filters * shape.kernel * shape.kernel * chunks_per_fiber)
        as f64
        * mask_bytes_per_chunk;
    let (filter_bytes, filter_zero_bytes, filter_meta) = match sparsity {
        Sparsity::TwoSided => (
            (model.weight_nnz() as f64 * elem + filter_mask_bytes) / batch,
            0.0,
            filter_mask_bytes / batch,
        ),
        // One-sided architectures store filters dense: zeros travel.
        Sparsity::OneSided => (
            weight_cells * elem / batch,
            (weight_cells - model.weight_nnz() as f64) * elem / batch,
            0.0,
        ),
    };

    let out_cells = shape.num_outputs() as f64;
    let out_nnz = out_cells * config.memory.output_density;
    let out_chunks = (shape.out_height() * shape.out_width()) as f64
        * (shape.num_filters.div_ceil(chunk)) as f64;
    let output_mask_bytes = out_chunks * mask_bytes_per_chunk;
    let output_bytes = out_nnz * elem + output_mask_bytes;

    Traffic {
        input_bytes,
        filter_bytes,
        output_bytes,
        zero_value_bytes: filter_zero_bytes,
        metadata_bytes: input_mask_bytes + filter_meta + output_mask_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparten_nn::generate::workload;
    use sparten_nn::ConvShape;

    fn test_config() -> SimConfig {
        let mut c = SimConfig::small();
        c.accel.num_clusters = 2;
        c.accel.cluster.compute_units = 4;
        c
    }

    fn test_workload() -> Workload {
        let shape = ConvShape::new(70, 6, 6, 3, 8, 1, 1);
        workload(&shape, 0.4, 0.35, 11)
    }

    fn run_faulted(
        w: &Workload,
        m: &MaskModel,
        cfg: &SimConfig,
        sparsity: Sparsity,
        mode: BalanceMode,
        fault: Option<&UnitFaultSpec>,
    ) -> Result<SimResult, SimError> {
        let cluster = &cfg.accel.cluster;
        let balance =
            LayerBalance::new(&w.filters, cluster.compute_units, cluster.chunk_size, mode);
        simulate_sparten(w, m, cfg, sparsity, balance, None, fault)
    }

    fn run(
        w: &Workload,
        m: &MaskModel,
        cfg: &SimConfig,
        sparsity: Sparsity,
        mode: BalanceMode,
    ) -> SimResult {
        run_faulted(w, m, cfg, sparsity, mode, None).expect("fault-free simulation cannot fail")
    }

    #[test]
    fn accounting_identity_holds_for_all_modes() {
        let w = test_workload();
        let cfg = test_config();
        let m = MaskModel::new(&w, cfg.accel.cluster.chunk_size);
        for (s, mode) in [
            (Sparsity::OneSided, BalanceMode::None),
            (Sparsity::TwoSided, BalanceMode::None),
            (Sparsity::TwoSided, BalanceMode::GbS),
            (Sparsity::TwoSided, BalanceMode::GbH),
        ] {
            let r = run(&w, &m, &cfg, s, mode);
            assert!(r.accounting_holds(), "{}: accounting broken", r.scheme);
        }
    }

    #[test]
    fn two_sided_beats_one_sided() {
        let w = test_workload();
        let cfg = test_config();
        let m = MaskModel::new(&w, cfg.accel.cluster.chunk_size);
        let one = run(&w, &m, &cfg, Sparsity::OneSided, BalanceMode::None);
        let two = run(&w, &m, &cfg, Sparsity::TwoSided, BalanceMode::GbH);
        assert!(two.cycles() < one.cycles());
    }

    #[test]
    fn gb_improves_or_matches_makespan() {
        let w = test_workload();
        let cfg = test_config();
        let m = MaskModel::new(&w, cfg.accel.cluster.chunk_size);
        let none = run(&w, &m, &cfg, Sparsity::TwoSided, BalanceMode::None);
        let gbs = run(&w, &m, &cfg, Sparsity::TwoSided, BalanceMode::GbS);
        let gbh = run(&w, &m, &cfg, Sparsity::TwoSided, BalanceMode::GbH);
        assert!(gbs.compute_cycles <= none.compute_cycles);
        assert!(gbh.compute_cycles <= gbs.compute_cycles);
    }

    #[test]
    fn one_sided_has_zero_compute_component() {
        let w = test_workload();
        let cfg = test_config();
        let m = MaskModel::new(&w, cfg.accel.cluster.chunk_size);
        let one = run(&w, &m, &cfg, Sparsity::OneSided, BalanceMode::None);
        assert!(one.breakdown.zero > 0);
        let two = run(&w, &m, &cfg, Sparsity::TwoSided, BalanceMode::GbH);
        assert_eq!(two.breakdown.zero, 0);
        assert_eq!(one.breakdown.nonzero, two.breakdown.nonzero);
    }

    #[test]
    fn one_sided_transfers_filter_zeros() {
        let w = test_workload();
        let cfg = test_config();
        let m = MaskModel::new(&w, cfg.accel.cluster.chunk_size);
        let one = run(&w, &m, &cfg, Sparsity::OneSided, BalanceMode::None);
        let two = run(&w, &m, &cfg, Sparsity::TwoSided, BalanceMode::GbH);
        assert!(one.traffic.zero_value_bytes > 0.0);
        assert_eq!(two.traffic.zero_value_bytes, 0.0);
        assert!(two.traffic.filter_bytes < one.traffic.filter_bytes);
    }

    #[test]
    fn gbh_routes_permute_values() {
        let w = test_workload();
        let cfg = test_config();
        let m = MaskModel::new(&w, cfg.accel.cluster.chunk_size);
        let gbh = run(&w, &m, &cfg, Sparsity::TwoSided, BalanceMode::GbH);
        assert!(gbh.ops.permute_values > 0);
        let gbs = run(&w, &m, &cfg, Sparsity::TwoSided, BalanceMode::GbS);
        assert_eq!(gbs.ops.permute_values, 0);
    }

    #[test]
    fn slow_unit_preserves_work_but_stretches_latency() {
        let w = test_workload();
        let cfg = test_config();
        let m = MaskModel::new(&w, cfg.accel.cluster.chunk_size);
        let fault = UnitFaultSpec {
            cluster: 0,
            unit: 0,
            fault: UnitFault::Slow(4),
        };
        for sparsity in [Sparsity::OneSided, Sparsity::TwoSided] {
            let clean = run(&w, &m, &cfg, sparsity, BalanceMode::None);
            let slow = run_faulted(&w, &m, &cfg, sparsity, BalanceMode::None, Some(&fault))
                .expect("slow unit is not a detection failure");
            // The straggler stretches latency only: true work is untouched,
            // and the cycle-accounting identity still closes exactly.
            assert_eq!(slow.breakdown.nonzero, clean.breakdown.nonzero);
            assert_eq!(slow.breakdown.zero, clean.breakdown.zero);
            assert!(slow.compute_cycles > clean.compute_cycles);
            assert!(slow.accounting_holds());
        }
    }

    #[test]
    fn stuck_unit_with_work_is_detected() {
        let w = test_workload();
        let cfg = test_config();
        let m = MaskModel::new(&w, cfg.accel.cluster.chunk_size);
        let fault = UnitFaultSpec {
            cluster: 0,
            unit: 0,
            fault: UnitFault::Stuck,
        };
        let err = run_faulted(
            &w,
            &m,
            &cfg,
            Sparsity::TwoSided,
            BalanceMode::None,
            Some(&fault),
        )
        .expect_err("a stuck unit holding work must surface as an error");
        assert!(matches!(
            err,
            sparten_core::SimError::StuckUnit { cluster: 0, unit: 0 }
        ));
    }

    #[test]
    fn fault_on_absent_cluster_is_masked() {
        let w = test_workload();
        let cfg = test_config();
        let m = MaskModel::new(&w, cfg.accel.cluster.chunk_size);
        let clean = run(&w, &m, &cfg, Sparsity::TwoSided, BalanceMode::GbH);
        let fault = UnitFaultSpec {
            cluster: 999,
            unit: 0,
            fault: UnitFault::Stuck,
        };
        let faulted = run_faulted(
            &w,
            &m,
            &cfg,
            Sparsity::TwoSided,
            BalanceMode::GbH,
            Some(&fault),
        )
        .expect("a fault outside the array cannot fire");
        assert_eq!(faulted.compute_cycles, clean.compute_cycles);
        assert_eq!(faulted.breakdown, clean.breakdown);
    }

    #[test]
    fn fpga_bandwidth_can_make_memory_bound() {
        // A very sparse layer on the FPGA's thin memory: compute shrinks
        // quadratically, traffic only linearly.
        let shape = ConvShape::new(256, 8, 8, 3, 32, 1, 1);
        let w = workload(&shape, 0.1, 0.1, 13);
        let mut cfg = SimConfig::fpga();
        cfg.memory.bytes_per_cycle = 0.5;
        let m = MaskModel::new(&w, cfg.accel.cluster.chunk_size);
        let r = run(&w, &m, &cfg, Sparsity::TwoSided, BalanceMode::GbH);
        assert!(r.is_memory_bound());
    }
}
