//! Differential oracle for the per-layer preparation every simulator
//! shares: the mask build, the total-MAC count and the SCNN barrier loop.
//!
//! Each fast path is checked against the straightforward walk it
//! replaces, kept here as a test-only reference:
//!
//! * `MaskModel::total_sparse_macs` (bit-sliced filter-count planes)
//!   against Σ `MaskModel::work_row` over every position, and against the
//!   functional both-operands-non-zero count on small layers;
//! * `MaskModel::new` (one word per 64 cells) against a per-cell build:
//!   the filter masks as `lane_masks` copies them out, the input masks as
//!   read back through `lane_row` with one single-bit lane per cell, and
//!   both non-zero counts. Fibers are not multiples of 64 (3, 63, 64, 65
//!   and 130 channels) and the workloads carry `-0.0` cells;
//! * the factored SCNN loop against the per-tile walk over every
//!   (group, channel, tile) step, on compute cycles, the breakdown, every
//!   `OpCounts` field and `Err(StuckUnit)`, and under telemetry on the
//!   quantization tally and the step-cycle histogram. The grid covers all
//!   three variants, the 16- and 64-PE grids and a one-PE grid, strides
//!   1/2/4, pads 0/1/2, planes smaller than one tile, filter counts 1, 7,
//!   8, 9, 63, 64, 65 and 512 (which also straddle the bit-plane counts),
//!   and `Slow(4)` / `Stuck` on PE 0, the last PE and a PE past the grid.
//!
//! The default run walks a covering slice; `--features exhaustive-tests`
//! widens every grid and adds the Table-3 layers.

use sparten_core::chunking::padded_fiber_len;
use sparten_core::SimError;
use sparten_faults::{UnitFault, UnitFaultSpec};
use sparten_nn::generate::{workload, Workload};
use sparten_nn::{alexnet, googlenet, vggnet, ConvShape};
use sparten_sim::scnn::{simulate_scnn, simulate_scnn_telemetry, ScnnVariant};
use sparten_sim::{simulate_scnn_faulted, Breakdown, MaskModel, OpCounts, SimConfig};
use sparten_telemetry::{MetricValue, Telemetry};

const EXHAUSTIVE: bool = cfg!(feature = "exhaustive-tests");
const CHANNELS: [usize; 5] = [3, 63, 64, 65, 130];
const CHUNKS: [usize; 3] = [64, 128, 256];
const FILTERS: [usize; 8] = [1, 7, 8, 9, 63, 64, 65, 512];
const STRIDES: [usize; 3] = [1, 2, 4];
const PADS: [usize; 3] = [0, 1, 2];
const KERNELS: [usize; 3] = [3, 1, 5];

/// Input density, filter density: sparse, all-zero input, all-one.
const DENSITIES: [(f64, f64); 3] = [(0.35, 0.4), (0.0, 0.5), (1.0, 1.0)];

/// A layer of the grid; its plane is `h × w`, padded up to the kernel.
#[allow(clippy::too_many_arguments)]
fn layer(
    d: usize,
    h: usize,
    w: usize,
    k: usize,
    nf: usize,
    stride: usize,
    pad: usize,
    dens: usize,
    seed: u64,
) -> Workload {
    let pad = pad.max(k.saturating_sub(h.min(w)).div_ceil(2));
    let shape = ConvShape::new(d, h, w, k, nf, stride, pad);
    let (input_density, filter_density) = DENSITIES[dens];
    let mut wl = workload(&shape, input_density, filter_density, seed);
    // Flip a few cells to `-0.0`: a zero for the masks and the SCNN counts.
    wl.input.set(d - 1, 0, 0, -0.0);
    wl.input.set(d / 2, h - 1, w - 1, -0.0);
    for (f, filter) in wl.filters.iter_mut().enumerate() {
        filter.weights_mut().set(f % d, 0, k - 1, -0.0);
    }
    wl
}

/// Every total-MAC grid case as `(channels, chunk, kernel, filters,
/// stride, pad, density)`.
fn mac_grid() -> Vec<(usize, usize, usize, usize, usize, usize, usize)> {
    let mut cases = Vec::new();
    let mut i = 0;
    for &d in &CHANNELS {
        for &chunk in &CHUNKS {
            for &nf in &FILTERS {
                let keep = EXHAUSTIVE || i % 4 == 0;
                if keep && (nf < 512 || d <= 65) {
                    cases.push((
                        d,
                        chunk,
                        KERNELS[i % KERNELS.len()],
                        nf,
                        STRIDES[i % STRIDES.len()],
                        PADS[(i / STRIDES.len()) % PADS.len()],
                        i % DENSITIES.len(),
                    ));
                }
                i += 1;
            }
        }
    }
    cases
}

/// Σ `work_row` over every output position.
fn work_row_total(m: &MaskModel) -> u64 {
    let s = m.shape();
    let mut row = Vec::new();
    let mut total = 0u64;
    for oy in 0..s.out_width() {
        for ox in 0..s.out_height() {
            m.work_row(ox, oy, &mut row);
            total += row.iter().map(|&x| u64::from(x)).sum::<u64>();
        }
    }
    total
}

/// The functional count: window cells where input and weight are both
/// non-zero, over every position and filter.
fn functional_total(w: &Workload) -> u64 {
    let s = w.shape;
    let lins: Vec<Vec<f32>> = w.filters.iter().map(|f| f.linearize()).collect();
    let mut total = 0u64;
    for oy in 0..s.out_width() {
        for ox in 0..s.out_height() {
            let win = w
                .input
                .window_vector(ox, oy, s.kernel, s.kernel, s.stride, s.pad);
            for lin in &lins {
                total += win
                    .iter()
                    .zip(lin)
                    .filter(|(a, b)| **a != 0.0 && **b != 0.0)
                    .count() as u64;
            }
        }
    }
    total
}

#[test]
fn total_sparse_macs_matches_work_rows_and_functional_count() {
    for (seed, (d, chunk, k, nf, stride, pad, dens)) in mac_grid().into_iter().enumerate() {
        let w = layer(d, 7, 6, k, nf, stride, pad, dens, 5000 + seed as u64);
        let m = MaskModel::new(&w, chunk);
        let fast = m.total_sparse_macs();
        assert_eq!(
            fast,
            work_row_total(&m),
            "{:?} chunk {chunk}: Σ work_row",
            w.shape
        );
        if nf <= 65 {
            assert_eq!(
                fast,
                functional_total(&w),
                "{:?} chunk {chunk}: functional",
                w.shape
            );
        }
    }
}

#[test]
fn total_sparse_macs_matches_work_rows_on_table3_layers() {
    let networks = if EXHAUSTIVE {
        vec![alexnet(), googlenet(), vggnet()]
    } else {
        vec![alexnet()]
    };
    for net in networks {
        let layers: Vec<_> = if EXHAUSTIVE {
            net.layers.iter().collect()
        } else {
            net.layers.iter().skip(4).take(1).collect()
        };
        for spec in layers {
            let w = spec.workload(2019);
            for chunk in CHUNKS {
                let m = MaskModel::new(&w, chunk);
                assert_eq!(
                    m.total_sparse_macs(),
                    work_row_total(&m),
                    "{} {} chunk {chunk}",
                    net.name,
                    spec.name
                );
            }
        }
    }
}

/// The per-cell reference build of the filter-major mask table: bit `z %
/// 64` of word `(z % chunk) / 64` of filter `f`'s window chunk `tap ·
/// chunks_per_fiber + z / chunk`, set when weight `z` is non-zero.
fn reference_filter_table(w: &Workload, chunk: usize) -> (Vec<u64>, u64) {
    let s = w.shape;
    let (k, nf, wpc) = (s.kernel, s.num_filters, chunk / 64);
    let cpf = padded_fiber_len(s.in_channels, chunk) / chunk;
    let mut table = vec![0u64; k * k * cpf * nf * wpc];
    let mut nnz = 0u64;
    for (f, filter) in w.filters.iter().enumerate() {
        for fy in 0..k {
            for fx in 0..k {
                for z in 0..s.in_channels {
                    if filter.weights().get(z, fx, fy) != 0.0 {
                        let c = (fy * k + fx) * cpf + z / chunk;
                        table[(c * nf + f) * wpc + (z % chunk) / 64] |= 1 << (z % 64);
                        nnz += 1;
                    }
                }
            }
        }
    }
    (table, nnz)
}

/// Checks the model's input masks cell by cell through `lane_row`: with
/// lane `j` of every chunk holding only bit `j`, `row[c · chunk + j]` is
/// window cell `j` of chunk `c`.
fn check_input_masks(w: &Workload, m: &MaskModel, chunk: usize) {
    let s = w.shape;
    let (k, wpc) = (s.kernel, chunk / 64);
    let cpf = padded_fiber_len(s.in_channels, chunk) / chunk;
    let mut bits = vec![0u64; m.chunks_per_window() * chunk * wpc];
    for (i, lane) in bits.chunks_exact_mut(wpc).enumerate() {
        let j = i % chunk;
        lane[j / 64] = 1 << (j % 64);
    }
    let mut row = Vec::new();
    for oy in 0..s.out_width() {
        for ox in 0..s.out_height() {
            m.lane_row(&bits, chunk, ox, oy, &mut row);
            for (i, &got) in row.iter().enumerate() {
                let (c, j) = (i / chunk, i % chunk);
                let (tap, z) = (c / cpf, (c % cpf) * chunk + j);
                let ix = (ox * s.stride + tap % k) as isize - s.pad as isize;
                let iy = (oy * s.stride + tap / k) as isize - s.pad as isize;
                let inside = ix >= 0
                    && iy >= 0
                    && (ix as usize) < s.in_height
                    && (iy as usize) < s.in_width
                    && z < s.in_channels;
                let expect = inside && w.input.get(z, ix as usize, iy as usize) != 0.0;
                assert_eq!(
                    got,
                    u32::from(expect),
                    "{s:?} chunk {chunk}: input cell {z} of tap {tap} at ({ox},{oy})"
                );
            }
        }
    }
}

#[test]
fn mask_build_matches_per_cell_reference() {
    let mut i = 0;
    for &d in &CHANNELS {
        for &chunk in &CHUNKS {
            for dens in 0..DENSITIES.len() {
                if !EXHAUSTIVE && (i + dens) % DENSITIES.len() != 0 {
                    continue;
                }
                let k = KERNELS[i % KERNELS.len()];
                let (stride, pad) = (STRIDES[i % STRIDES.len()], PADS[i % PADS.len()]);
                let w = layer(d, 6, 5, k, 9, stride, pad, dens, 6000 + i as u64);
                let m = MaskModel::new(&w, chunk);
                let nf = w.shape.num_filters;
                let (table, weight_nnz) = reference_filter_table(&w, chunk);
                assert_eq!(
                    m.lane_masks(nf, |_, j| Some(j)),
                    table,
                    "{:?} chunk {chunk}: filter masks",
                    w.shape
                );
                assert_eq!(m.weight_nnz(), weight_nnz, "{:?}: weight nnz", w.shape);
                let input_nnz = w.input.as_slice().iter().filter(|&&v| v != 0.0).count();
                assert_eq!(m.input_nnz(), input_nnz as u64, "{:?}: input nnz", w.shape);
                check_input_masks(&w, &m, chunk);
                i += 1;
            }
        }
    }
}

#[test]
fn negative_zero_is_a_zero_cell() {
    let shape = ConvShape::new(65, 2, 2, 1, 2, 1, 0);
    let mut w = workload(&shape, 1.0, 1.0, 9);
    for v in w.input.as_mut_slice() {
        *v = -0.0;
    }
    w.input.set(64, 1, 1, 2.0);
    w.filters[1].weights_mut().set(64, 0, 0, -0.0);
    let m = MaskModel::new(&w, 128);
    assert_eq!(m.input_nnz(), 1);
    assert_eq!(m.weight_nnz(), 2 * 65 - 1);
    assert_eq!(m.total_sparse_macs(), 1);
    assert_eq!(m.filter_chunk_nnz(1), vec![64]);
}

/// What the reference walk produces for one SCNN run.
#[derive(Debug, PartialEq)]
struct ScnnWalk {
    compute_cycles: u64,
    breakdown: Breakdown,
    ops: OpCounts,
    /// Σ over (step, tile) of idle multiplier slots.
    multiplier_quantization: u64,
    /// Number and sum of the per-(step, tile) cycle samples.
    step_samples: u64,
    step_sum: u64,
}

/// `n` cells in `parts` contiguous, nearly equal segments.
fn segments(n: usize, parts: usize) -> Vec<(usize, usize)> {
    (0..parts)
        .map(|i| (n * i / parts, n * (i + 1) / parts - n * i / parts))
        .collect()
}

/// The per-tile SCNN walk: for every (group, channel) step, every tile's
/// `⌈I/4⌉ · ⌈F/4⌉` cycles go to its PE, and the barrier is the slowest
/// PE's latency (a `Slow` victim's cycles stretched by its factor).
fn reference_scnn(
    w: &Workload,
    m: &MaskModel,
    cfg: &SimConfig,
    variant: ScnnVariant,
    fault: Option<&UnitFaultSpec>,
) -> Result<ScnnWalk, SimError> {
    let s = w.shape;
    let scnn = &cfg.scnn;
    let grid = (scnn.num_pes as f64).sqrt() as usize;
    let edge = scnn.mult_edge as u64;
    let slots = edge * edge;
    let d = s.in_channels;
    let groups = s.num_filters.div_ceil(scnn.output_group);

    let mut tiles = Vec::new();
    for (pi, &(rx, rl)) in segments(s.in_height, grid).iter().enumerate() {
        for (pj, &(cy, cl)) in segments(s.in_width, grid).iter().enumerate() {
            for sx in (rx..rx + rl).step_by(scnn.tile) {
                for sy in (cy..cy + cl).step_by(scnn.tile) {
                    let (xs, ys) = (
                        sx..(sx + scnn.tile).min(rx + rl),
                        sy..(sy + scnn.tile).min(cy + cl),
                    );
                    let mut nnz = vec![0u64; d];
                    for y in ys {
                        for x in xs.clone() {
                            for (z, n) in nnz.iter_mut().enumerate() {
                                if w.input.get(z, x, y) != 0.0 || variant == ScnnVariant::Dense {
                                    *n += 1;
                                }
                            }
                        }
                    }
                    tiles.push((pi * grid + pj, nnz));
                }
            }
        }
    }
    let mut group_nnz = vec![0u64; groups * d];
    for (f, filter) in w.filters.iter().enumerate() {
        for fy in 0..s.kernel {
            for fx in 0..s.kernel {
                for z in 0..d {
                    if filter.weights().get(z, fx, fy) != 0.0 || variant != ScnnVariant::Full {
                        group_nnz[f / scnn.output_group * d + z] += 1;
                    }
                }
            }
        }
    }

    let (mut makespan, mut products, mut mq, mut samples, mut sample_sum) = (0, 0, 0, 0, 0);
    let mut pe_total = vec![0u64; scnn.num_pes];
    for g in 0..groups {
        for c in 0..d {
            let f_nnz = group_nnz[g * d + c];
            let mut pe_cycles = vec![0u64; scnn.num_pes];
            if f_nnz > 0 {
                for (pe, nnz) in &tiles {
                    if nnz[c] > 0 {
                        let cycles = nnz[c].div_ceil(edge) * f_nnz.div_ceil(edge);
                        pe_cycles[*pe] += cycles;
                        products += nnz[c] * f_nnz;
                        mq += cycles * slots - nnz[c] * f_nnz;
                        samples += 1;
                        sample_sum += cycles;
                    }
                }
            }
            let mut barrier = 0;
            for (pe, &cy) in pe_cycles.iter().enumerate() {
                let mut latency = cy;
                if let Some(fa) = fault.filter(|fa| fa.cluster == pe) {
                    match fa.fault {
                        UnitFault::Slow(k) => latency = cy * k.max(1),
                        UnitFault::Stuck if cy > 0 => {
                            return Err(SimError::StuckUnit {
                                cluster: pe,
                                unit: 0,
                            })
                        }
                        UnitFault::Stuck => {}
                    }
                }
                barrier = barrier.max(latency);
                pe_total[pe] += cy;
            }
            makespan += barrier;
        }
    }
    let nonzero = m.total_sparse_macs().min(products);
    let busy: u64 = pe_total.iter().map(|&cy| cy * slots).sum();
    let inter = pe_total.iter().map(|&cy| (makespan - cy) * slots).sum();
    Ok(ScnnWalk {
        compute_cycles: makespan,
        breakdown: Breakdown {
            nonzero,
            zero: products - nonzero,
            intra: busy - products,
            inter,
        },
        ops: OpCounts {
            macs_nonzero: nonzero,
            macs_zero: products - nonzero,
            buffer_accesses: 3 * products,
            prefix_ops: 0,
            encoder_ops: 0,
            permute_values: 0,
            compact_ops: s.num_outputs() as u64,
            crossbar_ops: products,
        },
        multiplier_quantization: mq,
        step_samples: samples,
        step_sum: sample_sum,
    })
}

fn one_pe_config() -> SimConfig {
    let mut cfg = SimConfig::small();
    cfg.scnn.num_pes = 1;
    cfg
}

const VARIANTS: [ScnnVariant; 3] = [ScnnVariant::Full, ScnnVariant::OneSided, ScnnVariant::Dense];

/// Checks every variant, clean, instrumented and under each fault, on one
/// layer and config.
fn check_scnn(w: &Workload, cfg: &SimConfig, what: &str) {
    let m = MaskModel::new(w, cfg.accel.cluster.chunk_size);
    let pes = cfg.scnn.num_pes;
    for variant in VARIANTS {
        let clean = reference_scnn(w, &m, cfg, variant, None).expect("no fault");
        let r = simulate_scnn(w, &m, cfg, variant);
        let got = (r.compute_cycles, r.breakdown, r.ops);
        let expect = (clean.compute_cycles, clean.breakdown, clean.ops);
        assert_eq!(got, expect, "{what} {variant:?}: clean run");

        let session = Telemetry::new();
        let t = simulate_scnn_telemetry(w, &m, cfg, variant, Some(&session));
        assert_eq!(t, r, "{what} {variant:?}: telemetry changed the result");
        let snap = session.metrics.snapshot();
        let scheme = r.scheme;
        let mq = snap.counter(&format!("{scheme}/stall.intra.multiplier_quantization"));
        assert_eq!(
            mq.unwrap_or(0),
            clean.multiplier_quantization,
            "{what} {variant:?}: quantization tally"
        );
        let hist = snap.entries.iter().find_map(|(n, v)| match v {
            MetricValue::Histogram { buckets, sum } if n.ends_with("hist.step_cycles") => {
                Some((buckets.iter().sum::<u64>(), *sum))
            }
            _ => None,
        });
        assert_eq!(
            hist.unwrap_or((0, 0)),
            (clean.step_samples, clean.step_sum),
            "{what} {variant:?}: step-cycle histogram"
        );

        for victim in [0, pes - 1, pes] {
            for fault in [UnitFault::Slow(4), UnitFault::Stuck] {
                let spec = UnitFaultSpec {
                    cluster: victim,
                    unit: 0,
                    fault,
                };
                let got = simulate_scnn_faulted(w, &m, cfg, variant, &spec, None)
                    .map(|r| (r.compute_cycles, r.breakdown, r.ops));
                let expect = reference_scnn(w, &m, cfg, variant, Some(&spec))
                    .map(|e| (e.compute_cycles, e.breakdown, e.ops));
                assert_eq!(got, expect, "{what} {variant:?}: {fault:?} on PE {victim}");
            }
        }
    }
}

#[test]
fn scnn_factored_loop_matches_per_tile_walk() {
    // Plane sizes: below one 6×6 tile, a few tiles per PE, and taller than
    // wide.
    let planes = [(4, 5), (13, 11), (20, 9)];
    let configs = [
        ("small", SimConfig::small()),
        ("large", SimConfig::large()),
        ("one-pe", one_pe_config()),
    ];
    let mut i = 0;
    for &nf in &FILTERS {
        for (pi, &(h, w)) in planes.iter().enumerate() {
            for (ci, (cname, cfg)) in configs.iter().enumerate() {
                if !EXHAUSTIVE && (i + pi + ci) % 3 != 0 {
                    continue;
                }
                let d = if nf == 512 {
                    5
                } else {
                    CHANNELS[i % CHANNELS.len()].min(65)
                };
                let k = KERNELS[i % KERNELS.len()];
                let (stride, pad) = (STRIDES[i % STRIDES.len()], PADS[(i / 3) % PADS.len()]);
                let dens = if i % 5 == 4 { 1 + i % 2 } else { 0 };
                let wl = layer(d, h, w, k, nf, stride, pad, dens, 7000 + i as u64);
                check_scnn(&wl, cfg, &format!("{:?} {cname}", wl.shape));
                i += 1;
            }
        }
    }
}

#[test]
fn scnn_stuck_pe_without_work_is_masked() {
    // A 3×3 plane on the 8×8 grid leaves PE 0 without a tile: a stuck PE 0
    // never fires, and a slow one never stretches a barrier.
    let wl = layer(16, 3, 3, 1, 9, 1, 0, 0, 77);
    let cfg = SimConfig::large();
    let m = MaskModel::new(&wl, cfg.accel.cluster.chunk_size);
    let clean = simulate_scnn(&wl, &m, &cfg, ScnnVariant::Full);
    for fault in [UnitFault::Slow(4), UnitFault::Stuck] {
        let spec = UnitFaultSpec {
            cluster: 0,
            unit: 0,
            fault,
        };
        let r = simulate_scnn_faulted(&wl, &m, &cfg, ScnnVariant::Full, &spec, None)
            .expect("an idle PE cannot fail the layer");
        assert_eq!(r, clean, "{fault:?}");
    }
}
