//! Crash-only execution tests: kill the run at every legal crash point,
//! resume from the write-ahead journal, and prove the recovered results
//! are byte-identical to an uninterrupted run's. Also covers the graceful
//! signal drain, journal torn-tail tolerance, resume-compatibility
//! checks, and the results-tree fsck.

use sparten::nn::{ConvShape, LayerSpec};
use sparten::sim::{Scheme, SimConfig};
use sparten_bench::registry::layer_record;
use sparten_bench::{run_layer, Capture, ExperimentKind};
use sparten_harness::executor::{self, RunOptions, RunReport};
use sparten_harness::{fsck, journal, registry, Experiment, PointPayload};
use sparten_telemetry::{parse_report, Telemetry};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A five-point experiment shaped like `fig7_alexnet_speedup` (one point
/// per AlexNet conv layer) but on small synthetic layers, so every crash
/// point K in 1..=5 can be swept in milliseconds per run.
struct FigShaped {
    name: &'static str,
    /// When set, stores the shutdown flag to drain-level while computing
    /// point 0 — the experiment signals its own run, deterministically.
    drain_flag: Option<Arc<AtomicUsize>>,
}

impl FigShaped {
    fn new(name: &'static str) -> Self {
        FigShaped {
            name,
            drain_flag: None,
        }
    }

    fn layer(&self, point: usize) -> LayerSpec {
        LayerSpec {
            name: ["conv1", "conv2", "conv3", "conv4", "conv5"][point],
            shape: ConvShape::new(6 + point, 5, 5, 3, 4, 1, 1),
            input_density: 0.5,
            filter_density: 0.4,
        }
    }
}

impl Experiment for FigShaped {
    fn name(&self) -> &'static str {
        self.name
    }

    fn kind(&self) -> ExperimentKind {
        ExperimentKind::Figure
    }

    fn deps(&self) -> &'static [&'static str] {
        &[]
    }

    fn num_points(&self) -> usize {
        5
    }

    fn fingerprint(&self) -> String {
        format!("figshaped:{}", self.name)
    }

    fn compute_point(&self, point: usize) -> PointPayload {
        if point == 0 {
            if let Some(flag) = &self.drain_flag {
                flag.store(1, Ordering::SeqCst);
            }
        }
        let result = run_layer(&self.layer(point), &Scheme::all(), &SimConfig::small(), None);
        PointPayload::Record(layer_record(&result))
    }

    fn compute_point_telemetry(&self, point: usize) -> (PointPayload, Option<Telemetry>) {
        let session = Telemetry::new();
        let result = run_layer(
            &self.layer(point),
            &Scheme::all(),
            &SimConfig::small(),
            Some(&session),
        );
        (PointPayload::Record(layer_record(&result)), Some(session))
    }

    fn render(&self, points: &[PointPayload]) -> Capture {
        let mut text = format!("== {} ==\n", self.name);
        for p in points {
            match p {
                PointPayload::Record(blob) => text.push_str(blob),
                PointPayload::Capture(_) => unreachable!(),
            }
        }
        Capture {
            text: text.clone(),
            artifacts: vec![(format!("results/{}.json", self.name), text)],
        }
    }
}

/// A results-tree root with the conventional cache/ and journal/ layout.
fn fresh_tree(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sparten-crash-test-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn opts(tree: &Path, jobs: usize) -> RunOptions {
    RunOptions {
        filter: None,
        jobs,
        force: false,
        cache_dir: tree.join("cache"),
        write_artifacts: false,
        stream_output: false,
        telemetry_dir: None,
        max_attempts: 2,
        point_timeout: None,
        failures_path: None,
        journal_dir: Some(tree.join("journal")),
        resume: None,
        run_id: None,
        shutdown: None,
        drain_timeout: Duration::from_secs(30),
        abort_after: None,
        progress: None,
        trace: None,
        trace_sink: None,
        trace_epoch: None,
        cancel: None,
        ..RunOptions::default()
    }
}

/// `(output, artifacts)` per job — everything a run externalizes.
fn externals(report: &RunReport) -> Vec<(String, Vec<(String, String)>)> {
    report
        .jobs
        .iter()
        .map(|j| (j.output.clone(), j.artifacts.clone()))
        .collect()
}

fn journal_files(tree: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(tree.join("journal")) else {
        return Vec::new();
    };
    let mut files: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    files.sort();
    files
}

#[test]
fn crash_at_every_point_resumes_byte_identical() {
    // Reference: an uninterrupted run of the five-point figure.
    let exps: Vec<Arc<dyn Experiment>> = vec![Arc::new(FigShaped::new("sweep_fig"))];
    let ref_tree = fresh_tree("sweep-ref");
    let reference = executor::run(&exps, &opts(&ref_tree, 2)).unwrap();
    assert!(reference.all_ok());
    assert!(
        journal_files(&ref_tree).is_empty(),
        "a completed run seals (removes) its journal"
    );

    // Crash after K = 1..=5 journaled points, then resume. K = 5 crashes
    // after the last point but before render/artifacts — still a crash.
    for k in 1..=5 {
        let tree = fresh_tree(&format!("sweep-k{k}"));
        let mut crash_opts = opts(&tree, 2);
        crash_opts.abort_after = Some(k);
        let err = executor::run(&exps, &crash_opts).unwrap_err();
        assert!(err.contains("crash hook"), "{err}");
        let dangling = journal_files(&tree);
        assert_eq!(dangling.len(), 1, "crash leaves exactly one journal");

        let mut resume_opts = opts(&tree, 2);
        resume_opts.resume = Some(dangling[0].clone());
        let resumed = executor::run(&exps, &resume_opts).unwrap();
        assert!(resumed.all_ok());
        assert_eq!(resumed.replayed, k, "all {k} journaled points replayed");
        assert_eq!(
            externals(&resumed),
            externals(&reference),
            "crash after {k} points must not change any output byte"
        );
        assert!(
            journal_files(&tree).is_empty(),
            "the resumed run seals the journal it finished"
        );
        let _ = std::fs::remove_dir_all(&tree);
    }
    let _ = std::fs::remove_dir_all(&ref_tree);
}

#[test]
fn a_resumed_run_can_itself_crash_and_resume() {
    let exps: Vec<Arc<dyn Experiment>> = vec![Arc::new(FigShaped::new("double_crash"))];
    let ref_tree = fresh_tree("double-ref");
    let reference = executor::run(&exps, &opts(&ref_tree, 1)).unwrap();

    let tree = fresh_tree("double");
    let mut first = opts(&tree, 1);
    first.abort_after = Some(1);
    executor::run(&exps, &first).unwrap_err();

    // The resume crashes too, after one more computed point.
    let mut second = opts(&tree, 1);
    second.resume = Some(journal_files(&tree)[0].clone());
    second.abort_after = Some(1);
    executor::run(&exps, &second).unwrap_err();

    let mut third = opts(&tree, 1);
    third.resume = Some(journal_files(&tree)[0].clone());
    let finished = executor::run(&exps, &third).unwrap();
    assert!(finished.all_ok());
    assert_eq!(finished.replayed, 2, "both crashes' points survive");
    assert_eq!(externals(&finished), externals(&reference));
    let _ = std::fs::remove_dir_all(&tree);
    let _ = std::fs::remove_dir_all(&ref_tree);
}

#[test]
fn a_torn_journal_tail_is_tolerated_on_resume() {
    // Crash, then tear the journal mid-append (no trailing newline) — the
    // torn final line must be discarded, not poison the whole journal.
    let exps: Vec<Arc<dyn Experiment>> = vec![Arc::new(FigShaped::new("torn_tail"))];
    let ref_tree = fresh_tree("torn-ref");
    let reference = executor::run(&exps, &opts(&ref_tree, 1)).unwrap();

    let tree = fresh_tree("torn");
    let mut crash = opts(&tree, 1);
    crash.abort_after = Some(2);
    executor::run(&exps, &crash).unwrap_err();
    let path = journal_files(&tree)[0].clone();
    let mut text = std::fs::read_to_string(&path).unwrap();
    text.push_str("{\"record\": \"point\", \"job\": \"torn_tail\", \"poi");
    std::fs::write(&path, &text).unwrap();

    let replay = journal::replay(&path).unwrap();
    assert_eq!(replay.points.len(), 2, "the torn line is not a point");
    // Replay is deterministic: same journal, same replay.
    let again = journal::replay(&path).unwrap();
    assert_eq!(replay.points, again.points);
    assert_eq!(replay.start.run_id, again.start.run_id);

    let mut resume = opts(&tree, 1);
    resume.resume = Some(path);
    let resumed = executor::run(&exps, &resume).unwrap();
    assert_eq!(resumed.replayed, 2);
    assert_eq!(externals(&resumed), externals(&reference));
    let _ = std::fs::remove_dir_all(&tree);
    let _ = std::fs::remove_dir_all(&ref_tree);
}

#[test]
fn resume_rejects_mismatched_options_and_registry() {
    let exps: Vec<Arc<dyn Experiment>> = vec![Arc::new(FigShaped::new("mismatch"))];
    let tree = fresh_tree("mismatch");
    let mut crash = opts(&tree, 1);
    crash.abort_after = Some(1);
    executor::run(&exps, &crash).unwrap_err();
    let path = journal_files(&tree)[0].clone();

    // Different --force than the journaled run.
    let mut forced = opts(&tree, 1);
    forced.resume = Some(path.clone());
    forced.force = true;
    let err = executor::run(&exps, &forced).unwrap_err();
    assert!(err.contains("force"), "{err}");

    // Different experiment set (registry fingerprint changes).
    let other: Vec<Arc<dyn Experiment>> = vec![Arc::new(FigShaped::new("other_fig"))];
    let mut wrong = opts(&tree, 1);
    wrong.resume = Some(path);
    let err = executor::run(&other, &wrong).unwrap_err();
    assert!(err.contains("registry") || err.contains("experiment"), "{err}");
    let _ = std::fs::remove_dir_all(&tree);
}

#[test]
fn telemetry_sessions_survive_crash_and_resume() {
    let exps: Vec<Arc<dyn Experiment>> = vec![Arc::new(FigShaped::new("tel_crash"))];
    let ref_tree = fresh_tree("telcrash-ref");
    let mut ref_opts = opts(&ref_tree, 1);
    ref_opts.telemetry_dir = Some(ref_tree.join("telemetry"));
    let reference = executor::run(&exps, &ref_opts).unwrap();
    let ref_tel = reference.jobs[0].telemetry.as_ref().unwrap();

    let tree = fresh_tree("telcrash");
    let mut crash = opts(&tree, 1);
    crash.telemetry_dir = Some(tree.join("telemetry"));
    crash.abort_after = Some(2);
    executor::run(&exps, &crash).unwrap_err();

    let mut resume = opts(&tree, 1);
    resume.telemetry_dir = Some(tree.join("telemetry"));
    resume.resume = Some(journal_files(&tree)[0].clone());
    let resumed = executor::run(&exps, &resume).unwrap();
    assert_eq!(resumed.replayed, 2);
    let tel = resumed.jobs[0].telemetry.as_ref().unwrap();

    // The replayed points' sessions came back through the journal, so the
    // merged counters — simulator work/stall cycles included — match an
    // uninterrupted run exactly. (Timing gauges are not counters.)
    let ref_parsed = parse_report(&ref_tel.report_text).unwrap();
    let parsed = parse_report(&tel.report_text).unwrap();
    assert_eq!(ref_parsed.counters, parsed.counters);
    assert_eq!(ref_parsed.events, parsed.events);
    let _ = std::fs::remove_dir_all(&tree);
    let _ = std::fs::remove_dir_all(&ref_tree);
}

#[test]
fn drain_interrupts_cleanly_and_resume_completes() {
    // The experiment trips the shutdown flag while computing point 0, so
    // the drain happens at a deterministic moment: in-flight work (point
    // 0) finishes and is journaled, queued points are bounced.
    let flag: Arc<AtomicUsize> = Arc::new(AtomicUsize::new(0));
    let mut exp = FigShaped::new("drain_fig");
    exp.drain_flag = Some(Arc::clone(&flag));
    let exps: Vec<Arc<dyn Experiment>> = vec![Arc::new(exp)];

    let tree = fresh_tree("drain");
    let mut o = opts(&tree, 1);
    o.shutdown = Some(Arc::clone(&flag));
    let report = executor::run(&exps, &o).unwrap();
    assert!(report.interrupted, "drain must be reported");
    assert!(report.run_id.is_some());
    assert!(!report.all_ok(), "the drained job is incomplete");
    assert!(report.jobs[0]
        .error
        .as_deref()
        .unwrap()
        .contains("interrupted"));
    let dangling = journal_files(&tree);
    assert_eq!(dangling.len(), 1, "a drained run keeps its journal");

    // Resume (no flag this time) — identical to a clean run.
    let clean_exps: Vec<Arc<dyn Experiment>> =
        vec![Arc::new(FigShaped::new("drain_fig"))];
    let ref_tree = fresh_tree("drain-ref");
    let reference = executor::run(&clean_exps, &opts(&ref_tree, 1)).unwrap();
    let mut resume = opts(&tree, 1);
    resume.resume = Some(dangling[0].clone());
    let resumed = executor::run(&clean_exps, &resume).unwrap();
    assert!(resumed.all_ok());
    assert!(resumed.replayed >= 1, "the in-flight point was journaled");
    assert_eq!(externals(&resumed), externals(&reference));
    let _ = std::fs::remove_dir_all(&tree);
    let _ = std::fs::remove_dir_all(&ref_tree);
}

#[test]
fn fsck_flags_a_crashed_tree_and_resume_makes_it_clean() {
    let exps: Vec<Arc<dyn Experiment>> = vec![Arc::new(FigShaped::new("fsck_fig"))];
    let tree = fresh_tree("fsck-cycle");
    let mut crash = opts(&tree, 1);
    crash.abort_after = Some(2);
    executor::run(&exps, &crash).unwrap_err();

    let report = fsck::fsck(&tree, &["fsck_fig"], false).unwrap();
    assert!(report.has_resumable());
    assert_eq!(report.findings.len(), 1, "{}", report.render());
    assert_eq!(report.findings[0].category, "dangling-journal");

    let mut resume = opts(&tree, 1);
    resume.resume = Some(journal_files(&tree)[0].clone());
    executor::run(&exps, &resume).unwrap();
    let after = fsck::fsck(&tree, &["fsck_fig"], false).unwrap();
    assert!(after.clean(), "{}", after.render());

    // Seed cache corruption: fsck pinpoints the entry, repair quarantines
    // it, and the next audit is clean again.
    let entry = std::fs::read_dir(tree.join("cache"))
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| p.extension().and_then(|e| e.to_str()) == Some("cache"))
        .unwrap();
    let mut bytes = std::fs::read(&entry).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&entry, &bytes).unwrap();
    let corrupt = fsck::fsck(&tree, &["fsck_fig"], false).unwrap();
    assert_eq!(corrupt.findings.len(), 1);
    assert_eq!(corrupt.findings[0].category, "corrupt-cache");
    let repaired = fsck::fsck(&tree, &["fsck_fig"], true).unwrap();
    assert!(matches!(
        repaired.findings[0].action,
        fsck::Action::Quarantined(_)
    ));
    assert!(fsck::fsck(&tree, &["fsck_fig"], false).unwrap().clean());
    let _ = std::fs::remove_dir_all(&tree);
}

#[test]
fn real_fig7_crash_resume_is_byte_identical() {
    // The real registry experiment the CLI smoke sweeps: crash after two
    // journaled AlexNet layers, resume, and compare against an
    // uninterrupted run. One real-workload point of the K-sweep above.
    let jobs = registry();
    let tree = fresh_tree("fig7");
    let mut crash = opts(&tree, 2);
    crash.filter = Some("fig7_alexnet_speedup".into());
    crash.abort_after = Some(2);
    executor::run(&jobs, &crash).unwrap_err();
    let dangling = journal_files(&tree);
    assert_eq!(dangling.len(), 1);

    let mut resume = opts(&tree, 2);
    resume.filter = Some("fig7_alexnet_speedup".into());
    resume.resume = Some(dangling[0].clone());
    let resumed = executor::run(&jobs, &resume).unwrap();
    assert!(resumed.all_ok());
    assert_eq!(resumed.replayed, 2);

    // Reference run shares the cache: the four cached points hit, the one
    // journaled-but-never-cached point recomputes, and the byte-identity
    // claim covers both paths at once.
    let mut ref_opts = opts(&tree, 2);
    ref_opts.filter = Some("fig7_alexnet_speedup".into());
    let reference = executor::run(&jobs, &ref_opts).unwrap();
    assert!(reference.all_ok());
    assert_eq!(externals(&resumed), externals(&reference));
    assert!(resumed.jobs[0].output.contains("Figure 7"));
    let _ = std::fs::remove_dir_all(&tree);
}
