//! Per-chunk execution traces: Figure 6 as data.
//!
//! The paper's Figure 6 illustrates greedy balancing with per-unit
//! useful/wasted cycle strips across chunk barriers. This module records
//! exactly that from the work model — one event per (position, group,
//! chunk) with every unit's work and the barrier max — and renders the
//! strips as text, so any layer's balance behaviour can be inspected rather
//! than inferred from aggregates.

use sparten_core::balance::{BalanceMode, LayerBalance};
use sparten_nn::generate::Workload;
use sparten_telemetry::Telemetry;

use crate::config::SimConfig;
use crate::probe::Probe;
use crate::workmodel::MaskModel;

/// One chunk barrier's record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkEvent {
    /// Output-position index within the traced slice.
    pub position: usize,
    /// Filter-group index.
    pub group: usize,
    /// Chunk index within the window.
    pub chunk: usize,
    /// Each unit's useful cycles for this chunk.
    pub unit_work: Vec<u32>,
    /// The barrier: the slowest unit's work.
    pub barrier: u32,
}

impl ChunkEvent {
    /// Idle unit-cycles exposed by this barrier.
    pub fn idle(&self) -> u64 {
        self.unit_work
            .iter()
            .map(|&w| (self.barrier - w) as u64)
            .sum()
    }
}

/// A recorded trace of one cluster's first `positions` output cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterTraceLog {
    /// The chunk events in execution order.
    pub events: Vec<ChunkEvent>,
    /// Units in the traced cluster.
    pub units: usize,
}

impl ClusterTraceLog {
    /// Overall utilization across the trace (Figure 6's shaded fraction).
    pub fn utilization(&self) -> f64 {
        let useful: u64 = self
            .events
            .iter()
            .map(|e| e.unit_work.iter().map(|&w| w as u64).sum::<u64>())
            .sum();
        let wall: u64 = self
            .events
            .iter()
            .map(|e| e.barrier as u64 * self.units as u64)
            .sum();
        if wall == 0 {
            1.0
        } else {
            useful as f64 / wall as f64
        }
    }

    /// Renders the first `max_events` barriers as per-unit strips:
    /// `#` useful cycles, `.` idle-at-barrier cycles (scaled to `width`
    /// columns per barrier).
    pub fn render(&self, max_events: usize, width: usize) -> String {
        let mut out = String::new();
        for e in self.events.iter().take(max_events) {
            out.push_str(&format!(
                "pos {:>3} group {:>2} chunk {:>3} (barrier {:>3}):\n",
                e.position, e.group, e.chunk, e.barrier
            ));
            for (u, &w) in e.unit_work.iter().enumerate() {
                let scale = |v: u32| {
                    if e.barrier == 0 {
                        0
                    } else {
                        (v as usize * width).div_ceil(e.barrier as usize)
                    }
                };
                let useful = scale(w);
                out.push_str(&format!(
                    "  u{:<2} {}{}\n",
                    u,
                    "#".repeat(useful),
                    ".".repeat(width.saturating_sub(useful))
                ));
            }
        }
        out
    }
}

/// The telemetry scope a balance mode's trace records under.
fn trace_scope(mode: BalanceMode) -> &'static str {
    match mode {
        BalanceMode::None => "Trace-no-GB",
        BalanceMode::GbS => "Trace-GB-S",
        BalanceMode::GbH => "Trace-GB-H",
        BalanceMode::GbSNoColloc => "Trace-GB-S-nocolloc",
    }
}

/// Traces the first cluster's first `max_positions` output cells under the
/// given balance mode.
///
/// With `tel`, every chunk barrier is additionally emitted through the
/// recorder — one thread track per compute unit, one span per unit per
/// barrier (Figure 6's strips as a Perfetto timeline) — plus
/// `trace.useful_slots` / `trace.barrier_slots` counters whose ratio is
/// exactly [`ClusterTraceLog::utilization`].
pub fn trace_cluster(
    workload: &Workload,
    config: &SimConfig,
    mode: BalanceMode,
    max_positions: usize,
    tel: Option<&Telemetry>,
) -> ClusterTraceLog {
    let shape = &workload.shape;
    let units = config.accel.cluster.compute_units;
    let chunk_size = config.accel.cluster.chunk_size;
    let model = MaskModel::new(workload, chunk_size);
    let balance = LayerBalance::new(&workload.filters, units, chunk_size, mode);
    let chunks = model.chunks_per_window();
    let (oh, ow) = (shape.out_height(), shape.out_width());
    let positions = (oh * ow).min(max_positions);

    let probe = tel.map(|t| {
        let p = Probe::new(t, trace_scope(mode));
        for u in 0..units {
            p.thread(u as u32, &format!("unit{u}"));
        }
        p
    });
    let mut now = 0u64; // barrier-aligned trace clock
    let mut useful_slots = 0u64;
    let mut barrier_slots = 0u64;

    let mut events = Vec::new();
    for p in 0..positions {
        let (ox, oy) = (p % oh, p / oh);
        for (g, group) in balance.groups.iter().enumerate() {
            for c in 0..chunks {
                let per_unit: &[Vec<usize>] = if group.per_chunk_cu.is_empty() {
                    &group.per_cu
                } else {
                    &group.per_chunk_cu[c]
                };
                let mut unit_work = vec![0u32; units];
                for (u, slots) in per_unit.iter().enumerate() {
                    for &f in slots {
                        unit_work[u] += model.chunk_work(ox, oy, f, c);
                    }
                }
                let barrier = unit_work.iter().copied().max().unwrap_or(0);
                if let Some(pr) = &probe {
                    for (u, &w) in unit_work.iter().enumerate() {
                        useful_slots += w as u64;
                        if w > 0 {
                            pr.span(
                                u as u32,
                                "chunk",
                                now,
                                w as u64,
                                &[("pos", p as u64), ("group", g as u64), ("chunk", c as u64)],
                            );
                        }
                    }
                    if barrier > 0 {
                        pr.instant(0, "barrier", now + barrier as u64, &[]);
                    }
                    now += barrier as u64;
                    barrier_slots += barrier as u64 * units as u64;
                }
                events.push(ChunkEvent {
                    position: p,
                    group: g,
                    chunk: c,
                    unit_work,
                    barrier,
                });
            }
        }
    }
    if let Some(pr) = &probe {
        pr.count("trace.useful_slots", useful_slots);
        pr.count("trace.barrier_slots", barrier_slots);
    }
    ClusterTraceLog { events, units }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparten_nn::generate::workload;
    use sparten_nn::ConvShape;

    fn setup() -> (Workload, SimConfig) {
        let shape = ConvShape::new(64, 6, 6, 3, 16, 1, 1);
        let w = workload(&shape, 0.4, 0.35, 17);
        let mut cfg = SimConfig::small();
        cfg.accel.cluster.compute_units = 4;
        (w, cfg)
    }

    #[test]
    fn trace_covers_positions_groups_chunks() {
        let (w, cfg) = setup();
        let log = trace_cluster(&w, &cfg, BalanceMode::None, 3, None);
        // 3 positions × 4 groups (16 filters / 4 units) × 9 chunks.
        assert_eq!(log.events.len(), 3 * 4 * 9);
        assert!(log.events.iter().all(|e| e.unit_work.len() == 4));
    }

    #[test]
    fn barrier_is_the_unit_maximum() {
        let (w, cfg) = setup();
        let log = trace_cluster(&w, &cfg, BalanceMode::GbS, 2, None);
        for e in &log.events {
            assert_eq!(e.barrier, *e.unit_work.iter().max().expect("units"));
            assert_eq!(
                e.idle(),
                e.unit_work
                    .iter()
                    .map(|&x| (e.barrier - x) as u64)
                    .sum::<u64>()
            );
        }
    }

    #[test]
    fn gb_raises_traced_utilization() {
        let (w, cfg) = setup();
        let plain = trace_cluster(&w, &cfg, BalanceMode::None, 6, None).utilization();
        let gbh = trace_cluster(&w, &cfg, BalanceMode::GbH, 6, None).utilization();
        assert!(gbh > plain, "GB-H {gbh} !> none {plain}");
    }

    #[test]
    fn render_produces_one_strip_per_unit() {
        let (w, cfg) = setup();
        let log = trace_cluster(&w, &cfg, BalanceMode::GbS, 1, None);
        let text = log.render(2, 20);
        // Two events × (1 header + 4 units) lines.
        assert_eq!(text.lines().count(), 2 * 5);
        assert!(text.contains('#') || text.contains('.'));
    }
}
