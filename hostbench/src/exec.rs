//! `figures-cold` and `dse-cold`: cold executor runs on fresh trees.

use crate::common::{cpu_s, golden, per_layer_zeroed, Outcome, Samples, Tree, WORKERS};
use crate::replay::{self, scheme_stage};
use crate::stats::Metrics;
use crate::trace::{Ledger, PointSpan};
use crate::vfs::{CountingFs, FsCounters};
use sparten::sim::Scheme;
use sparten_bench::vfs::{RealFs, Vfs};
use sparten_harness::cache::fnv1a_parts;
use sparten_harness::dse::DseExperiment;
use sparten_harness::executor::{self, PointOrigin, ProgressHook, RunOptions, RunReport};
use sparten_harness::{registry, Experiment};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Fewest set-up samples per run. They are taken after each measured
/// iteration (the first set-ups in a fresh process vary with the cold
/// allocator) and topped up at the end.
const SETUPS: usize = 21;
/// Time spent taking set-up samples after an iteration, as a share of
/// the iteration's wall time. The shared host switches between a fast
/// and a slow mode (a figures-cold set-up reads about 20 or 31 µs) in
/// phases of 0.2–1 s, so the median of a sample window shorter than a
/// few seconds depends on the phase it caught.
const SETUP_SHARE: f64 = 0.05;
/// Shortest time one set-up sample spans. A single set-up takes a few
/// µs, so each sample times a batch of back-to-back set-ups at least
/// this long and divides by the batch size.
const SETUP_SAMPLE: Duration = Duration::from_millis(50);

/// One executor workload.
pub struct Workload {
    /// Work-tree label.
    pub label: &'static str,
    /// Fewest cold iterations per run, however short `--seconds` is.
    pub min_iterations: usize,
    /// Whether sync calls reach the disk (see [`crate::vfs`]).
    pub durable: bool,
    /// Builds the jobs (timed, with their identity, as set-up).
    pub jobs: fn() -> Vec<Arc<dyn Experiment>>,
    /// Counts outputs that differ from the committed ones.
    pub mismatches: fn(&RunReport) -> u64,
    /// Whether the traced profile matches the expected ranking.
    pub profile_ok: fn(&Metrics, &[PointSpan]) -> bool,
    /// Range the traced stage sum ÷ untraced CPU time must fall in, or
    /// `None` where the ratio is not meaningful (see [`traced`]).
    pub reconcile: Option<(f64, f64)>,
}

/// The jobs of `figures-cold`.
const FIGURE_JOBS: [&str; 3] = [
    "fig9_vggnet_speedup",
    "fig12_vggnet_breakdown",
    "summary_headline",
];

/// `figures-cold`: the VGG speed-up and breakdown figures plus the
/// whole-network headline summary, checked against `results/`.
pub const FIGURES: Workload = Workload {
    label: "figures",
    min_iterations: 1,
    durable: true,
    jobs: || {
        registry()
            .into_iter()
            .filter(|e| FIGURE_JOBS.contains(&e.name()))
            .collect()
    },
    mismatches: |report| {
        let missing = FIGURE_JOBS.len().saturating_sub(report.jobs.len()) as u64;
        let differ = report
            .jobs
            .iter()
            // A failed job has no output to check: count it as differing.
            .filter(|j| j.error.is_some() || j.output != golden(j.name))
            .count() as u64;
        missing + differ
    },
    profile_ok: figures_profile_ok,
    reconcile: Some((0.8, 1.25)),
};

/// FNV-1a digests of the full sweep's `(name, contents)` artifacts,
/// recorded at the commit that introduced this benchmark.
const DSE_ARTIFACT_DIGESTS: [(&str, u64); 2] = [
    ("results/dse/dse-full_frontier.json", 0xf5a4_6844_9c74_d101),
    ("results/dse/dse-full_points.json", 0x0011_6893_92f4_506e),
];

/// `dse-cold`: the full design-space sweep through the executor.
pub const DSE: Workload = Workload {
    label: "dse",
    min_iterations: 3,
    durable: false,
    jobs: || vec![Arc::new(DseExperiment::full()) as Arc<dyn Experiment>],
    mismatches: |report| {
        let got: Vec<(String, u64)> = report
            .jobs
            .iter()
            .flat_map(|j| &j.artifacts)
            .map(|(name, data)| (name.clone(), fnv1a_parts(&[name, data])))
            .collect();
        let want: Vec<(String, u64)> = DSE_ARTIFACT_DIGESTS
            .iter()
            .map(|&(n, d)| (n.to_string(), d))
            .collect();
        if got == want {
            0
        } else {
            eprintln!("hostbench: dse artifacts differ: got {got:x?}");
            1
        }
    },
    profile_ok: |m, _| {
        let sim = ["nn.gen_s", "sim.mask_s", "sim.sparten_gbh_s"];
        m.get("model.eval_s").unwrap_or(0.0) > 0.0 && sim.iter().all(|k| m.get(k) == Some(0.0))
    },
    reconcile: None,
};

/// When each job's last point resolved, in ms since the run started.
type JobDone = Arc<Mutex<BTreeMap<String, f64>>>;

/// Executor options of a cold `harness run` on `tree`: journaled,
/// self-healing, 2 workers, no artifacts (they would land in the
/// checkout's `results/`), recording when each job's output is ready.
fn run_options(tree: &Tree, vfs: Arc<dyn Vfs>, done: &JobDone) -> RunOptions {
    let start = Instant::now();
    let done = Arc::clone(done);
    RunOptions {
        jobs: WORKERS,
        cache_dir: tree.join("cache"),
        write_artifacts: false,
        stream_output: false,
        failures_path: Some(tree.join("failures.json")),
        journal_dir: Some(tree.join("journal")),
        progress: Some(ProgressHook(Arc::new(
            move |job: &str, _point, _origin: PointOrigin| {
                let ms = start.elapsed().as_secs_f64() * 1e3;
                let mut done = done.lock().expect("job log poisoned");
                let at = done.entry(job.to_string()).or_default();
                *at = at.max(ms);
            },
        ))),
        vfs,
        ..RunOptions::default()
    }
}

/// Tallies a run report: `(attempted points, failed points)`. A job
/// error counts each of its points as failed.
fn report_failures(report: &RunReport) -> (u64, u64) {
    let attempted = report.total_points() as u64;
    let job_errors: usize = report
        .jobs
        .iter()
        .filter(|j| j.error.is_some())
        .map(|j| j.points)
        .sum();
    let failed = report.failures.len().max(job_errors) as u64;
    (attempted, failed)
}

/// The filesystem of an untraced iteration: the program's own `RealFs`,
/// or, where syncs are elided, the counting wrapper (a few atomic adds
/// per call).
fn untraced_fs(w: &Workload) -> Arc<dyn Vfs> {
    if w.durable {
        Arc::new(RealFs)
    } else {
        Arc::new(CountingFs::new(false))
    }
}

struct Iteration {
    report: RunReport,
    wall: f64,
    cpu: f64,
    latency_ms: Vec<f64>,
}

fn iterate(
    jobs: &[Arc<dyn Experiment>],
    tree: &Tree,
    vfs: Arc<dyn Vfs>,
) -> Result<Iteration, String> {
    let done = JobDone::default();
    let opts = run_options(tree, vfs, &done);
    let cpu0 = cpu_s();
    let t0 = Instant::now();
    let report = executor::run(jobs, &opts)?;
    let wall = t0.elapsed().as_secs_f64();
    let cpu = cpu_s() - cpu0;
    let latency_ms = done
        .lock()
        .expect("job log poisoned")
        .values()
        .copied()
        .collect();
    Ok(Iteration {
        report,
        wall,
        cpu,
        latency_ms,
    })
}

/// Checks one iteration into `outcome`; an executor error fails every
/// job.
fn check(w: &Workload, outcome: &mut Outcome, it: &Result<Iteration, String>) {
    match it {
        Ok(it) => {
            let (attempted, failed) = report_failures(&it.report);
            outcome.tally(attempted, failed, (w.mismatches)(&it.report));
        }
        Err(e) => {
            eprintln!("hostbench: {}: executor run failed: {e}", w.label);
            outcome.tally(1, 1, 0);
        }
    }
}

/// Runs `w` cold, repeatedly, for `seconds` (at least
/// `w.min_iterations` times).
pub fn run(w: &Workload, seconds: f64) -> Outcome {
    let mut s = Samples::default();
    let mut outcome = Outcome::default();
    let begin = Instant::now();
    let mut batch = None;
    while s.wall.len() < w.min_iterations || begin.elapsed().as_secs_f64() < seconds {
        let it = iterate(&(w.jobs)(), &Tree::fresh(w.label), untraced_fs(w));
        check(w, &mut outcome, &it);
        let Ok(it) = it else { break };
        eprintln!(
            "hostbench: {}: iteration {} took {:.3} s wall, {:.2} s cpu",
            w.label,
            s.wall.len(),
            it.wall,
            it.cpu
        );
        s.wall.push(it.wall);
        s.cpu.push(it.cpu);
        s.latency_ms.push(it.latency_ms);
        let n = (it.wall * SETUP_SHARE / SETUP_SAMPLE.as_secs_f64()).ceil();
        time_set_ups(w, &mut batch, &mut s.setup, n as usize);
    }
    let short = SETUPS.saturating_sub(s.setup.len());
    time_set_ups(w, &mut batch, &mut s.setup, short);
    if s.wall.is_empty() {
        return outcome;
    }
    outcome.metrics = s.end_to_end(&outcome);
    outcome
}

/// Pushes `n` set-up samples onto `setup`, each the mean over a batch
/// of back-to-back set-ups lasting at least [`SETUP_SAMPLE`]; the batch
/// size is found on the first call. Set-up is the program's (see
/// [`set_up`]): the fresh tree is the benchmark's own mkdir, which no
/// program change moves and which stalls with the shared disk, so it
/// stays outside the timer.
fn time_set_ups(w: &Workload, batch: &mut Option<u32>, setup: &mut Vec<f64>, n: usize) {
    let time = |n: u32| {
        let t = Instant::now();
        for _ in 0..n {
            drop(std::hint::black_box(set_up(w)));
        }
        t.elapsed()
    };
    let batch = *batch.get_or_insert_with(|| {
        let mut b = 1;
        while time(b) < SETUP_SAMPLE {
            b *= 2;
        }
        b
    });
    for _ in 0..n {
        setup.push(time(batch).as_secs_f64() / f64::from(batch));
    }
}

/// The program's set-up of a run: the jobs built, and the identity the
/// executor keys its cache and journal by (each job's name, fingerprint
/// and number of points).
fn set_up(w: &Workload) -> Vec<(&'static str, String, usize)> {
    (w.jobs)()
        .iter()
        .map(|e| (e.name(), e.fingerprint(), e.num_points()))
        .collect()
}

/// One untraced iteration for reference, then the same jobs replayed
/// under the ledger with the counting filesystem.
pub fn traced(w: &Workload) -> Outcome {
    let mut outcome = Outcome::default();
    let reference = iterate(&(w.jobs)(), &Tree::fresh(w.label), untraced_fs(w));
    check(w, &mut outcome, &reference);
    let ledger = Arc::new(Ledger::default());
    let fs = Arc::new(CountingFs::new(w.durable));
    let jobs: Vec<_> = (w.jobs)()
        .into_iter()
        .map(|j| replay::wrap(j, &ledger))
        .collect();
    let it = iterate(
        &jobs,
        &Tree::fresh(w.label),
        Arc::clone(&fs) as Arc<dyn Vfs>,
    );
    check(w, &mut outcome, &it);
    let (Ok(reference), Ok(it)) = (reference, it) else {
        return outcome;
    };
    let mut m = per_layer_zeroed();
    let mut stages = vec![
        "nn.gen",
        "sim.mask",
        "bench.render",
        "harness.point_other",
        "model.eval",
    ];
    stages.extend(Scheme::all().iter().map(|&s| scheme_stage(s)));
    for stage in stages {
        m.set(&format!("{stage}_s"), ledger.self_s(stage), "s");
    }
    for i in 0..13 {
        let key = format!("sim.sparten.vgg.Layer{i}_s");
        m.set(&key, ledger.extra_s(&key), "s");
    }
    let (calls, unique) = ledger.calls();
    m.set("sim.calls", calls as f64, "count");
    m.set("sim.unique_calls", unique as f64, "count");
    m.set(
        "sim.unique_ratio",
        unique as f64 / calls.max(1) as f64,
        "ratio",
    );
    let macs = ledger.counter("sim.sparse_macs");
    m.set("sim.sparse_macs", macs as f64, "count");
    let two_sided_s: f64 = ["nogb", "gbs", "gbh"]
        .iter()
        .map(|s| ledger.self_s(&format!("sim.sparten_{s}")))
        .sum();
    m.set(
        "sim.sparten_ns_per_mac",
        two_sided_s * 1e9 / macs.max(1) as f64,
        "ns",
    );
    m.set(
        "model.configs",
        ledger.counter("model.configs") as f64,
        "count",
    );

    let r = &it.report;
    let computed = r.total_points() - r.total_hits();
    m.set("harness.points_computed", computed as f64, "count");
    m.set("harness.cache_hits", r.total_hits() as f64, "count");
    m.set("harness.points_failed", r.failures.len() as f64, "count");
    m.set("harness.retries", r.retries as f64, "count");
    let c = &fs.counters;
    let fs_busy_s = FsCounters::get(&c.busy_ns) as f64 / 1e9;
    m.set("harness.fs_ops", FsCounters::get(&c.ops) as f64, "count");
    m.set("harness.fsyncs", FsCounters::get(&c.fsyncs) as f64, "count");
    m.set(
        "harness.fs_bytes_written",
        FsCounters::get(&c.bytes_written) as f64,
        "B",
    );
    m.set("harness.fs_busy_s", fs_busy_s, "s");
    let points = ledger.points();
    let max_point = points
        .iter()
        .map(|p| p.took.as_secs_f64())
        .fold(0.0, f64::max);
    let point_sum: f64 = points.iter().map(|p| p.took.as_secs_f64()).sum();
    m.set("harness.max_point_s", max_point, "s");
    m.set(
        "harness.utilization",
        point_sum / (it.wall * WORKERS as f64),
        "ratio",
    );

    let stage_sum = ledger.self_total_s() + fs_busy_s;
    m.set("trace.wall_s", it.wall, "s");
    m.set("trace.untraced_wall_s", reference.wall, "s");
    m.set("trace.overhead_s", it.wall - reference.wall, "s");
    m.set("trace.untraced_cpu_s", reference.cpu, "s");
    m.set("trace.stage_sum_s", stage_sum, "s");
    let ratio = stage_sum / reference.cpu;
    m.set("trace.reconcile_ratio", ratio, "ratio");
    // The replay redoes the program's work through copies of its call
    // sequence (`replay.rs`). If the program stops making calls the
    // replay still makes (a layer memo, a summary that reuses the
    // figures' simulations), its CPU time drops and the ratio rises.
    if let Some((lo, hi)) = w.reconcile {
        if !(lo..=hi).contains(&ratio) {
            eprintln!(
                "hostbench: {}: traced stage sum is {ratio:.3} x the untraced CPU time, \
                 outside [{lo}, {hi}]: replay.rs no longer makes the program's calls",
                w.label
            );
            outcome.tally(1, 1, 0);
        }
    }
    let ok = (w.profile_ok)(&m, &points);
    m.set("trace.profile_ok", f64::from(u8::from(ok)), "flag");
    outcome.metrics = m;
    outcome
}

/// The stage ranking ROADMAP item 1 measured: the three two-sided
/// SparTen schedules together cost the most, then the mask build plus
/// total-MAC pass, then the SCNN family, then workload generation, with
/// Dense about 0; and the slowest point is `summary_headline`'s.
fn figures_profile_ok(m: &Metrics, points: &[PointSpan]) -> bool {
    let sum = |keys: &[&str]| keys.iter().map(|k| m.get(k).unwrap_or(0.0)).sum::<f64>();
    let ranking = [
        (
            "two-sided SparTen",
            sum(&[
                "sim.sparten_nogb_s",
                "sim.sparten_gbs_s",
                "sim.sparten_gbh_s",
            ]),
        ),
        ("mask", sum(&["sim.mask_s"])),
        (
            "SCNN family",
            sum(&["sim.scnn_s", "sim.scnn_onesided_s", "sim.scnn_dense_s"]),
        ),
        ("workload generation", sum(&["nn.gen_s"])),
        ("Dense", sum(&["sim.dense_s"])),
    ];
    let ranked = ranking.windows(2).all(|pair| pair[0].1 > pair[1].1);
    let slowest = points.iter().max_by_key(|p| p.took).map(|p| p.job);
    eprintln!("hostbench: profile {ranking:.3?} ranked: {ranked}; slowest point: {slowest:?}");
    ranked && slowest == Some("summary_headline")
}
