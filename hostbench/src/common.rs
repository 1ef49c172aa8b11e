//! What every workload shares: process counters, fresh trees, goldens,
//! the executor options, and the metric lists.

use crate::stats::{median, percentile, quartiles, samples_beyond, Metrics};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker threads for every executor run: one per core of the 2-vCPU
/// host the benchmark was tuned on.
pub const WORKERS: usize = 2;

/// Where fresh trees are made, relative to the checkout root.
const WORK_ROOT: &str = "hostbench/work";

/// Per-layer metrics every traced run prints, with their units. A layer
/// a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("nn.gen_s", "s"),
    ("sim.mask_s", "s"),
    ("sim.dense_s", "s"),
    ("sim.onesided_s", "s"),
    ("sim.sparten_nogb_s", "s"),
    ("sim.sparten_gbs_s", "s"),
    ("sim.sparten_gbh_s", "s"),
    ("sim.scnn_s", "s"),
    ("sim.scnn_onesided_s", "s"),
    ("sim.scnn_dense_s", "s"),
    ("sim.sparten.vgg.Layer0_s", "s"),
    ("sim.sparten.vgg.Layer1_s", "s"),
    ("sim.sparten.vgg.Layer2_s", "s"),
    ("sim.sparten.vgg.Layer3_s", "s"),
    ("sim.sparten.vgg.Layer4_s", "s"),
    ("sim.sparten.vgg.Layer5_s", "s"),
    ("sim.sparten.vgg.Layer6_s", "s"),
    ("sim.sparten.vgg.Layer7_s", "s"),
    ("sim.sparten.vgg.Layer8_s", "s"),
    ("sim.sparten.vgg.Layer9_s", "s"),
    ("sim.sparten.vgg.Layer10_s", "s"),
    ("sim.sparten.vgg.Layer11_s", "s"),
    ("sim.sparten.vgg.Layer12_s", "s"),
    ("sim.calls", "count"),
    ("sim.unique_calls", "count"),
    ("sim.unique_ratio", "ratio"),
    ("sim.sparse_macs", "count"),
    ("sim.sparten_ns_per_mac", "ns"),
    ("bench.render_s", "s"),
    ("harness.points_computed", "count"),
    ("harness.cache_hits", "count"),
    ("harness.points_failed", "count"),
    ("harness.retries", "count"),
    ("harness.fs_ops", "count"),
    ("harness.fsyncs", "count"),
    ("harness.fs_bytes_written", "B"),
    ("harness.fs_busy_s", "s"),
    ("harness.max_point_s", "s"),
    ("harness.utilization", "ratio"),
    ("harness.point_other_s", "s"),
    ("model.eval_s", "s"),
    ("model.configs", "count"),
    ("serve.requests", "count"),
    ("serve.role_runner", "count"),
    ("serve.role_cache", "count"),
    ("serve.role_follower", "count"),
    ("serve.coalesce_ratio", "ratio"),
    ("serve.refused", "count"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.compute_p50_ms", "ms"),
    ("serve.first_byte_p50_ms", "ms"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.untraced_cpu_s", "s"),
    ("trace.stage_sum_s", "s"),
    ("trace.reconcile_ratio", "ratio"),
    ("trace.profile_ok", "flag"),
];

/// A metric table holding every per-layer metric at 0.
pub fn per_layer_zeroed() -> Metrics {
    let mut m = Metrics::default();
    for &(name, unit) in PER_LAYER {
        m.set(name, 0.0, unit);
    }
    m
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Units of work attempted (jobs, points or requests).
    pub attempted: u64,
    /// Units that failed: quarantined points, non-ok runs, refusals or
    /// output mismatches.
    pub failed: u64,
    /// Output mismatches against the committed results (a subset of
    /// `failed`). Any failure makes the benchmark exit non-zero.
    pub mismatches: u64,
    /// The printed metrics.
    pub metrics: Metrics,
}

impl Outcome {
    /// Folds another check's tallies into this one.
    pub fn tally(&mut self, attempted: u64, failed: u64, mismatches: u64) {
        self.attempted += attempted;
        self.failed += failed + mismatches;
        self.mismatches += mismatches;
    }
}

/// Per-iteration samples of the untraced, end-to-end measurements.
#[derive(Debug, Default)]
pub struct Samples {
    /// Set-up time of each set-up, in seconds.
    pub setup: Vec<f64>,
    /// Wall time of each measured iteration, in seconds.
    pub wall: Vec<f64>,
    /// Process CPU time of each measured iteration, in seconds.
    pub cpu: Vec<f64>,
    /// Latency of each result the user waited for, in milliseconds,
    /// grouped so that each group holds enough samples for a p99.
    pub latency_ms: Vec<Vec<f64>>,
}

impl Samples {
    /// Writes the end-to-end metrics and logs each one's spread.
    pub fn end_to_end(&self, outcome: &Outcome) -> Metrics {
        let mut m = Metrics::default();
        m.set("wall_s", median(&self.wall), "s");
        m.set("cpu_s", median(&self.cpu), "s");
        m.set("setup_s", median(&self.setup), "s");
        m.set("peak_rss_mb", peak_rss_mb(), "MB");
        let ok = 1.0 - outcome.failed as f64 / outcome.attempted.max(1) as f64;
        m.set("ok_ratio", ok, "ratio");
        // Each percentile is taken within a group, then the median across
        // groups, so one slow iteration moves it no more than `wall_s`.
        let across = |p: f64| {
            let per_group: Vec<f64> = self.latency_ms.iter().map(|g| percentile(g, p)).collect();
            median(&per_group)
        };
        m.set("latency_p50_ms", across(50.0), "ms");
        m.set("latency_p99_ms", across(99.0), "ms");
        let smallest = self.latency_ms.iter().map(Vec::len).min().unwrap_or(0);
        eprintln!(
            "hostbench: {} latency groups of at least {smallest} samples, {} beyond p99",
            self.latency_ms.len(),
            samples_beyond(smallest, 99.0)
        );
        for (name, v) in [
            ("wall_s", &self.wall),
            ("cpu_s", &self.cpu),
            ("setup_s", &self.setup),
        ] {
            if v.len() >= 2 {
                let [q1, q2, q3] = quartiles(v);
                eprintln!(
                    "hostbench: {name}: n={} q1={q1:.4e} median={q2:.4e} q3={q3:.4e}",
                    v.len()
                );
            }
        }
        m
    }
}

/// User plus system CPU time of this process so far, in seconds.
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 =
        fields[11].parse::<f64>().expect("utime") + fields[12].parse::<f64>().expect("stime");
    ticks / CLOCK_TICKS_PER_S
}

/// `sysconf(_SC_CLK_TCK)`, which is 100 on every Linux the benchmark
/// targets (std has no binding for it).
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// A fresh, empty directory tree for one run, removed on drop.
#[derive(Debug)]
pub struct Tree {
    root: PathBuf,
}

impl Tree {
    /// Creates `hostbench/work/<label>-<pid>-<n>/`.
    pub fn fresh(label: &str) -> Tree {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let root = Path::new(WORK_ROOT).join(format!("{label}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create the benchmark's work tree");
        Tree { root }
    }

    /// A path inside the tree.
    pub fn join(&self, rel: &str) -> PathBuf {
        self.root.join(rel)
    }
}

impl Drop for Tree {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Leave the work root if other runs still use it.
        let _ = std::fs::remove_dir(WORK_ROOT);
    }
}

/// The committed output of `job` (`results/<job>.txt`).
///
/// # Panics
///
/// Panics if the file is missing: the benchmark runs from a checkout.
pub fn golden(job: &str) -> String {
    let path = format!("results/{job}.txt");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_metric_name;
    use sparten_bench::json::Json;

    #[test]
    fn per_layer_list_matches_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed: Vec<(String, String)> = json
            .get("per_layer")
            .and_then(Json::as_arr)
            .expect("per_layer list")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("name and unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect();
        let ours: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed, ours);
        assert!(PER_LAYER.iter().all(|(n, _)| valid_metric_name(n)));
    }
}
