//! Cycle-level simulator for SCNN's Cartesian-product dataflow.
//!
//! Model (§2.1 of the paper): the input plane is partitioned spatially
//! across a √PEs × √PEs grid (input stationary); each PE works through its
//! region in ≤6×6 sub-tiles. For every (channel, filter-group) step the PE
//! fetches I non-zero inputs and F non-zero weights per cycle-batch through
//! its 4×4 multiplier array, taking `⌈I/4⌉·⌈F/4⌉` cycles and computing all
//! I·F products, which a crossbar scatters to accumulators. The filter-group
//! broadcast imposes an inter-PE barrier at every (channel, group) step.
//!
//! The loop never walks tiles per step. Each step's filter term ⌈F/4⌉ is
//! the same on every PE, so a PE's step cost factors into that term times
//! the PE's per-channel input term Σ_tiles ⌈I/4⌉. Both terms are counted
//! once from the workload. A step is then one multiply by the channel's
//! precomputed barrier max, and the per-PE busy totals are one sum over
//! channels at the end. Per-tile values are walked only under a telemetry
//! probe, which records each tile's step cycles and quantization loss.
//! The true MAC count comes from [`MaskModel::total_sparse_macs`].
//!
//! Captured overheads, matching §2.1.1 and the Figure 10–12 decomposition:
//!
//! * **intra-PE**: idle multiplier slots from the `⌈·/4⌉` quantization when
//!   a tile or filter group has too few non-zeros (natural sparsity, small
//!   tiles, 1×1 filters);
//! * **inter-PE**: barrier-exposed imbalance from density variation and
//!   truncated edge tiles (plus wholly idle PEs when the plane is small);
//! * **stride**: the Cartesian product assumes unit stride; for stride-s
//!   convolutions all products are computed and the ~1−1/s² that land
//!   between outputs are discarded (counted as zero/wasted compute) —
//!   AlexNet Layer0's pathology;
//! * border products that fall outside the output map are likewise counted
//!   as wasted.

use sparten_core::SimError;
use sparten_faults::{UnitFault, UnitFaultSpec};
use sparten_nn::generate::Workload;
use sparten_telemetry::{StallCause, Telemetry};

use crate::breakdown::{Breakdown, OpCounts, SimResult, Traffic};
use crate::config::SimConfig;
use crate::probe::{Probe, StallTally};
use crate::workmodel::MaskModel;

/// Sparsity handling for the SCNN variants of §5.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScnnVariant {
    /// Full SCNN: both inputs and filters sparse.
    Full,
    /// SCNN-one-sided: input maps sparse, filters dense.
    OneSided,
    /// SCNN-dense: everything dense (inherits the dataflow overheads).
    Dense,
}

impl ScnnVariant {
    fn name(self) -> &'static str {
        match self {
            ScnnVariant::Full => "SCNN",
            ScnnVariant::OneSided => "SCNN-one-sided",
            ScnnVariant::Dense => "SCNN-dense",
        }
    }
}

/// Splits `n` cells into `parts` contiguous, nearly equal segments (some may
/// be empty when `n < parts`).
fn segments(n: usize, parts: usize) -> Vec<(usize, usize)> {
    (0..parts)
        .map(|i| {
            let lo = n * i / parts;
            let hi = n * (i + 1) / parts;
            (lo, hi - lo)
        })
        .collect()
}

/// Splits a segment of length `len` into sub-tiles of at most `cap`.
fn subtiles(start: usize, len: usize, cap: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut off = 0;
    while off < len {
        let piece = cap.min(len - off);
        out.push((start + off, piece));
        off += piece;
    }
    out
}

/// Simulates one layer on SCNN, recording counters and per-PE spans into
/// `tel` when given.
///
/// With `fault`, the victim is `fault.cluster` interpreted as the flat PE
/// index (`fault.unit` is ignored — SCNN's barrier is PE-granular). A slow
/// PE stretches only the per-step barrier, leaving work counts and the
/// cycle-accounting identity intact; a stuck PE holding nonzero work
/// returns [`SimError::StuckUnit`]. Without a fault the call cannot fail.
pub(crate) fn simulate_scnn(
    workload: &Workload,
    model: &MaskModel,
    config: &SimConfig,
    variant: ScnnVariant,
    tel: Option<&Telemetry>,
    fault: Option<&UnitFaultSpec>,
) -> Result<SimResult, SimError> {
    let shape = &workload.shape;
    let scnn = &config.scnn;
    let grid = (scnn.num_pes as f64).sqrt() as usize;
    assert_eq!(grid * grid, scnn.num_pes, "PE count must be a square");
    let f_edge = scnn.mult_edge as u64;
    let i_edge = scnn.mult_edge as u64;
    let d = shape.in_channels;
    let k = shape.kernel;
    let groups = shape.num_filters.div_ceil(scnn.output_group);

    // Per-(sub-tile, channel) input non-zero counts. Sub-tiles are the
    // ≤tile×tile pieces of each PE's region; `tile_owner[t]` is the PE.
    let rows = segments(shape.in_height, grid);
    let cols = segments(shape.in_width, grid);
    let mut tile_bounds: Vec<(usize, usize, usize, usize)> = Vec::new();
    let mut tile_owner: Vec<usize> = Vec::new();
    for (pi, &(rx, rl)) in rows.iter().enumerate() {
        for (pj, &(cy, cl)) in cols.iter().enumerate() {
            for (sx, sl) in subtiles(rx, rl, scnn.tile) {
                for (sy, swl) in subtiles(cy, cl, scnn.tile) {
                    tile_bounds.push((sx, sl, sy, swl));
                    tile_owner.push(pi * grid + pj);
                }
            }
        }
    }
    let num_tiles = tile_bounds.len();
    let dense_input = variant == ScnnVariant::Dense;
    let mut tile_channel_nnz = vec![0u32; num_tiles * d];
    for (counts, &(sx, sl, sy, swl)) in tile_channel_nnz.chunks_exact_mut(d).zip(&tile_bounds) {
        for y in sy..sy + swl {
            for x in sx..sx + sl {
                for (n, &v) in counts.iter_mut().zip(workload.input.fiber(x, y)) {
                    *n += u32::from(v != 0.0 || dense_input);
                }
            }
        }
    }

    // Per-(group, channel) filter non-zero counts (summed over the group's
    // filters and all k² taps).
    let dense_filters = matches!(variant, ScnnVariant::OneSided | ScnnVariant::Dense);
    let mut group_channel_nnz = vec![0u32; groups * d];
    for (f, filter) in workload.filters.iter().enumerate() {
        let g = f / scnn.output_group;
        let counts = &mut group_channel_nnz[g * d..(g + 1) * d];
        for tap in 0..k * k {
            let fiber = filter.weights().fiber(tap % k, tap / k);
            for (n, &v) in counts.iter_mut().zip(fiber) {
                *n += u32::from(v != 0.0 || dense_filters);
            }
        }
    }

    // A (group, channel) step broadcasts the group's ⌈F/4⌉ filter batches
    // to every PE, so PE `pe` spends `fb · pe_batches[c · PEs + pe]`
    // cycles on it, where `pe_batches` sums ⌈I/4⌉ over the PE's tiles.
    let pes = scnn.num_pes;
    let mut pe_batches = vec![0u64; d * pes];
    let mut channel_nnz = vec![0u64; d];
    for (counts, &owner) in tile_channel_nnz.chunks_exact(d).zip(&tile_owner) {
        for (c, &i_nnz) in counts.iter().enumerate() {
            pe_batches[c * pes + owner] += u64::from(i_nnz).div_ceil(i_edge);
            channel_nnz[c] += u64::from(i_nnz);
        }
    }
    // The barrier advances at the slowest PE's *latency* — a slow victim
    // stretches only the barrier, its busy-slot accounting keeps the true
    // cycle count — so one filter batch of channel `c` costs `barrier[c]`.
    let victim = fault.filter(|fa| fa.cluster < pes);
    let barrier: Vec<u64> = pe_batches
        .chunks_exact(pes)
        .map(|batches| {
            let mut b = batches.iter().copied().max().unwrap_or(0);
            if let Some(&UnitFaultSpec {
                cluster,
                fault: UnitFault::Slow(k),
                ..
            }) = victim
            {
                b = b.max(batches[cluster] * k.max(1));
            }
            b
        })
        .collect();
    let stuck = victim.filter(|fa| fa.fault == UnitFault::Stuck);

    // Main timing loop: one barrier per (group, channel).
    let probe = tel.map(|t| Probe::new(t, variant.name()));
    let hist_step = probe.as_ref().map(|p| p.histogram("hist.step_cycles"));
    let mut tally = StallTally::default();

    let mut makespan = 0u64;
    let mut total_products = 0u64;
    let mut channel_batches = vec![0u64; d];
    let slots_per_cycle = (scnn.mult_edge * scnn.mult_edge) as u64;
    for g in 0..groups {
        // A filter group's channels are SCNN's chunk batch; honor a
        // cooperative cancellation here like the SparTen inner loop.
        sparten_telemetry::cancel::checkpoint();
        for c in 0..d {
            let f_nnz = u64::from(group_channel_nnz[g * d + c]);
            let fb = f_nnz.div_ceil(f_edge);
            if let Some(fa) = stuck {
                if fb > 0 && pe_batches[c * pes + fa.cluster] > 0 {
                    return Err(SimError::StuckUnit {
                        cluster: fa.cluster,
                        unit: 0,
                    });
                }
            }
            makespan += fb * barrier[c];
            total_products += f_nnz * channel_nnz[c];
            channel_batches[c] += fb;
            if let Some(h) = hist_step.as_ref().filter(|_| fb > 0) {
                // Idle multiplier-array slots from the ⌈I/4⌉·⌈F/4⌉
                // quantization of each tile's batch.
                for counts in tile_channel_nnz.chunks_exact(d) {
                    let i_nnz = u64::from(counts[c]);
                    if i_nnz > 0 {
                        let cycles = i_nnz.div_ceil(i_edge) * fb;
                        tally.multiplier_quantization += cycles * slots_per_cycle - i_nnz * f_nnz;
                        h.record(cycles);
                    }
                }
            }
        }
    }
    let pe_cycles_total: Vec<u64> = (0..pes)
        .map(|pe| {
            (0..d)
                .map(|c| channel_batches[c] * pe_batches[c * pes + pe])
                .sum()
        })
        .collect();

    // Useful MACs are the true stride-aware sparse MACs; the Cartesian
    // product's surplus (stride discard + border waste + zero operands in
    // the one-sided/dense variants) is the "zero" component.
    let nonzero = model.total_sparse_macs().min(total_products);
    let zero = total_products - nonzero;
    let total_busy = pe_cycles_total.iter().sum::<u64>() * slots_per_cycle;
    let intra = total_busy - total_products;
    let inter: u64 = pe_cycles_total
        .iter()
        .map(|&cy| (makespan - cy) * slots_per_cycle)
        .sum();

    let traffic = scnn_traffic(workload, model, config, variant);
    let memory_cycles = (traffic.total_bytes() / config.memory.bytes_per_cycle).ceil() as u64;
    let total_units = (scnn.num_pes as u64) * slots_per_cycle;

    if let Some(pr) = &probe {
        for (pe, &cy) in pe_cycles_total.iter().enumerate() {
            pr.thread(pe as u32, &format!("pe{pe}"));
            let busy_slots = cy * slots_per_cycle;
            pr.span(pe as u32, "pe", 0, cy, &[("busy_slots", busy_slots)]);
            if makespan > 0 {
                pr.gauge(
                    "occupancy.pe_util",
                    busy_slots as f64 / (makespan * slots_per_cycle) as f64,
                );
            }
        }
        debug_assert_eq!(tally.multiplier_quantization, intra);
        tally.pe_barrier_idle = inter;
        tally.emit(pr);
        pr.work(nonzero, zero);
        // Crossbar/accumulator-bank contention is not modelled (perfect
        // collector assumption); the taxonomy slot stays visible at zero.
        pr.stall(StallCause::OutputBackpressure, 0);
        pr.traffic(&traffic);
        pr.count("trace.products", total_products);
        pr.gauge("occupancy.makespan_cycles", makespan as f64);
    }

    Ok(SimResult {
        scheme: variant.name(),
        compute_cycles: makespan,
        memory_cycles,
        total_units,
        breakdown: Breakdown {
            nonzero,
            zero,
            intra,
            inter,
        },
        traffic,
        ops: OpCounts {
            macs_nonzero: nonzero,
            macs_zero: zero,
            buffer_accesses: 3 * total_products,
            prefix_ops: 0,
            encoder_ops: 0,
            permute_values: 0,
            compact_ops: shape.num_outputs() as u64,
            crossbar_ops: total_products,
        },
    })
}

/// SCNN traffic: CSR-style storage — values plus ~4-bit coordinates per
/// non-zero (half a byte of index metadata).
fn scnn_traffic(
    workload: &Workload,
    model: &MaskModel,
    config: &SimConfig,
    variant: ScnnVariant,
) -> Traffic {
    let shape = &workload.shape;
    let elem = config.memory.element_bytes as f64;
    let batch = config.memory.batch as f64;
    let idx = 0.5; // bytes of coordinate metadata per stored value
    let input_cells = shape.input_cells() as f64;
    let weight_cells = shape.weight_cells() as f64;
    let out_cells = shape.num_outputs() as f64;
    let input_nnz = model.input_nnz() as f64;
    let weight_nnz = model.weight_nnz() as f64;

    let (input_bytes, input_zero, input_meta) = if variant == ScnnVariant::Dense {
        (input_cells * elem, input_cells - input_nnz, 0.0)
    } else {
        (input_nnz * (elem + idx), 0.0, input_nnz * idx)
    };
    let (filter_bytes, filter_zero, filter_meta) = if variant == ScnnVariant::Full {
        (
            weight_nnz * (elem + idx) / batch,
            0.0,
            weight_nnz * idx / batch,
        )
    } else {
        (
            weight_cells * elem / batch,
            (weight_cells - weight_nnz) / batch,
            0.0,
        )
    };
    let out_nnz = out_cells * config.memory.output_density;
    let (output_bytes, output_meta) = if variant == ScnnVariant::Dense {
        (out_cells * elem, 0.0)
    } else {
        (out_nnz * (elem + idx), out_nnz * idx)
    };

    Traffic {
        input_bytes,
        filter_bytes,
        output_bytes,
        zero_value_bytes: (input_zero + filter_zero) * elem,
        metadata_bytes: input_meta + filter_meta + output_meta,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparten_nn::generate::workload;
    use sparten_nn::ConvShape;

    fn test_config() -> SimConfig {
        let mut c = SimConfig::small(); // 16 PEs, 4×4 grid
        c.accel.num_clusters = 2;
        c
    }

    fn run(w: &Workload, m: &MaskModel, cfg: &SimConfig, variant: ScnnVariant) -> SimResult {
        simulate_scnn(w, m, cfg, variant, None, None).expect("fault-free simulation cannot fail")
    }

    fn unit_stride_workload() -> Workload {
        let shape = ConvShape::new(32, 12, 12, 3, 16, 1, 1);
        workload(&shape, 0.4, 0.35, 21)
    }

    #[test]
    fn accounting_identity_holds() {
        let w = unit_stride_workload();
        let cfg = test_config();
        let m = MaskModel::new(&w, 128);
        for v in [ScnnVariant::Full, ScnnVariant::OneSided, ScnnVariant::Dense] {
            let r = run(&w, &m, &cfg, v);
            assert!(r.accounting_holds(), "{}: accounting broken", r.scheme);
        }
    }

    #[test]
    fn variant_ordering_full_beats_one_sided_beats_dense() {
        let w = unit_stride_workload();
        let cfg = test_config();
        let m = MaskModel::new(&w, 128);
        let full = run(&w, &m, &cfg, ScnnVariant::Full);
        let one = run(&w, &m, &cfg, ScnnVariant::OneSided);
        let dense = run(&w, &m, &cfg, ScnnVariant::Dense);
        assert!(full.cycles() < one.cycles());
        assert!(one.cycles() < dense.cycles());
    }

    #[test]
    fn slow_pe_preserves_work_but_stretches_makespan() {
        let w = unit_stride_workload();
        let cfg = test_config();
        let m = MaskModel::new(&w, 128);
        let clean = run(&w, &m, &cfg, ScnnVariant::Full);
        let fault = UnitFaultSpec {
            cluster: 0, // flat PE index for SCNN
            unit: 0,
            fault: UnitFault::Slow(5),
        };
        let slow = simulate_scnn(&w, &m, &cfg, ScnnVariant::Full, None, Some(&fault))
            .expect("slow PE is not a detection failure");
        assert_eq!(slow.breakdown.nonzero, clean.breakdown.nonzero);
        assert_eq!(slow.breakdown.zero, clean.breakdown.zero);
        assert!(slow.compute_cycles > clean.compute_cycles);
        assert!(slow.accounting_holds());
    }

    #[test]
    fn stuck_pe_with_work_is_detected() {
        let w = unit_stride_workload();
        let cfg = test_config();
        let m = MaskModel::new(&w, 128);
        let fault = UnitFaultSpec {
            cluster: 0,
            unit: 0,
            fault: UnitFault::Stuck,
        };
        let err = simulate_scnn(&w, &m, &cfg, ScnnVariant::Full, None, Some(&fault))
            .expect_err("a stuck PE holding work must surface as an error");
        assert!(matches!(
            err,
            sparten_core::SimError::StuckUnit { cluster: 0, unit: 0 }
        ));
    }

    #[test]
    fn fault_on_absent_pe_is_masked() {
        let w = unit_stride_workload();
        let cfg = test_config();
        let m = MaskModel::new(&w, 128);
        let clean = run(&w, &m, &cfg, ScnnVariant::Full);
        let fault = UnitFaultSpec {
            cluster: 9999,
            unit: 0,
            fault: UnitFault::Stuck,
        };
        let faulted = simulate_scnn(&w, &m, &cfg, ScnnVariant::Full, None, Some(&fault))
            .expect("a fault outside the PE grid cannot fire");
        assert_eq!(faulted.compute_cycles, clean.compute_cycles);
        assert_eq!(faulted.breakdown, clean.breakdown);
    }

    #[test]
    fn non_unit_stride_wastes_products() {
        // Stride 2: ~3/4 of the Cartesian product is discarded.
        let shape = ConvShape::new(32, 12, 12, 3, 16, 2, 1);
        let w = workload(&shape, 0.4, 0.35, 22);
        let cfg = test_config();
        let m = MaskModel::new(&w, 128);
        let r = run(&w, &m, &cfg, ScnnVariant::Full);
        assert!(
            r.breakdown.zero as f64 > 2.0 * r.breakdown.nonzero as f64,
            "zero {} vs nonzero {}",
            r.breakdown.zero,
            r.breakdown.nonzero
        );
    }

    #[test]
    fn small_planes_idle_pes() {
        // A 3×3 plane on a 4×4 PE grid: at most 9 PEs can be busy.
        let shape = ConvShape::new(64, 3, 3, 1, 16, 1, 0);
        let w = workload(&shape, 0.5, 0.4, 23);
        let cfg = test_config();
        let m = MaskModel::new(&w, 128);
        let r = run(&w, &m, &cfg, ScnnVariant::Full);
        // Inter-PE loss must be at least the 7 idle PEs' share.
        let idle_share = r.breakdown.inter as f64 / r.breakdown.total() as f64;
        assert!(idle_share > 0.3, "idle share {idle_share}");
    }

    #[test]
    fn products_match_channel_sums_unit_stride() {
        // For unit stride, total products = Σ_c input_nnz_c × weight_nnz_c
        // (all groups). Check via the breakdown identity.
        let w = unit_stride_workload();
        let cfg = test_config();
        let m = MaskModel::new(&w, 128);
        let r = run(&w, &m, &cfg, ScnnVariant::Full);
        let d = w.shape.in_channels;
        let mut in_c = vec![0u64; d];
        for y in 0..w.shape.in_width {
            for x in 0..w.shape.in_height {
                for (z, &v) in w.input.fiber(x, y).iter().enumerate() {
                    if v != 0.0 {
                        in_c[z] += 1;
                    }
                }
            }
        }
        let mut w_c = vec![0u64; d];
        for f in &w.filters {
            for fy in 0..3 {
                for fx in 0..3 {
                    for (z, &v) in f.weights().fiber(fx, fy).iter().enumerate() {
                        if v != 0.0 {
                            w_c[z] += 1;
                        }
                    }
                }
            }
        }
        let expect: u64 = (0..d).map(|c| in_c[c] * w_c[c]).sum();
        assert_eq!(r.breakdown.nonzero + r.breakdown.zero, expect);
    }

    #[test]
    fn one_by_one_filters_underutilize_multipliers() {
        // 1×1 filters: few weights per (channel, group) → heavy ⌈F/4⌉ waste.
        let shape = ConvShape::new(128, 12, 12, 1, 16, 1, 0);
        let w = workload(&shape, 0.5, 0.35, 24);
        let cfg = test_config();
        let m = MaskModel::new(&w, 128);
        let r = run(&w, &m, &cfg, ScnnVariant::Full);
        let intra_share = r.breakdown.intra as f64 / r.breakdown.total() as f64;
        assert!(intra_share > 0.2, "intra share {intra_share}");
    }
}
