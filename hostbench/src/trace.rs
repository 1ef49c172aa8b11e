//! The traced run's ledger: host-time spans recorded around calls into
//! each layer, kept in memory and summarised when the run ends.
//!
//! A span's *self time* is its duration minus the time its child spans
//! cover, so summing self time over every stage counts each nanosecond
//! once. Spans nest per thread; the executor's workers each keep their
//! own stack.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashSet};
use std::sync::Mutex;
use std::time::{Duration, Instant};

thread_local! {
    /// Child time accumulated by each open span on this thread.
    static OPEN: RefCell<Vec<Duration>> = const { RefCell::new(Vec::new()) };
}

/// One executor point as the traced run saw it.
#[derive(Debug, Clone)]
pub struct PointSpan {
    /// Owning job.
    pub job: &'static str,
    /// Host time from entering to leaving the point.
    pub took: Duration,
}

#[derive(Debug, Default)]
struct Inner {
    self_time: BTreeMap<&'static str, Duration>,
    extra_time: BTreeMap<String, Duration>,
    counts: BTreeMap<&'static str, u64>,
    calls: u64,
    unique: HashSet<String>,
    points: Vec<PointSpan>,
}

/// Thread-safe span and counter store for one traced run.
#[derive(Debug, Default)]
pub struct Ledger {
    inner: Mutex<Inner>,
}

impl Ledger {
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("ledger mutex poisoned by a panicking span")
    }

    /// Runs `f` inside a span named `stage`, returning its value and the
    /// span's duration. The duration minus nested spans is charged to
    /// `stage` as self time.
    pub fn span<T>(&self, stage: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        OPEN.with(|open| open.borrow_mut().push(Duration::ZERO));
        let start = Instant::now();
        let value = f();
        let took = start.elapsed();
        let children = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let children = open.pop().expect("span stack balanced");
            if let Some(parent) = open.last_mut() {
                *parent += took;
            }
            children
        });
        *self.lock().self_time.entry(stage).or_default() += took.saturating_sub(children);
        (value, took)
    }

    /// Charges `took` to a secondary breakdown (not part of the self-time
    /// sum), such as the per-VGG-layer split of the SparTen schedules.
    pub fn add_time(&self, key: String, took: Duration) {
        *self.lock().extra_time.entry(key).or_default() += took;
    }

    /// Adds `n` to the counter `name`.
    pub fn count(&self, name: &'static str, n: u64) {
        *self.lock().counts.entry(name).or_default() += n;
    }

    /// Records one simulation call identified by `key`.
    pub fn note_call(&self, key: String) {
        let mut inner = self.lock();
        inner.calls += 1;
        inner.unique.insert(key);
    }

    /// Records one executor point.
    pub fn note_point(&self, job: &'static str, took: Duration) {
        self.lock().points.push(PointSpan { job, took });
    }

    /// Self time of `stage` in seconds (0 when never entered).
    pub fn self_s(&self, stage: &str) -> f64 {
        self.lock()
            .self_time
            .get(stage)
            .map_or(0.0, Duration::as_secs_f64)
    }

    /// Sum of every stage's self time, in seconds.
    pub fn self_total_s(&self) -> f64 {
        self.lock()
            .self_time
            .values()
            .map(Duration::as_secs_f64)
            .sum()
    }

    /// Secondary time under `key`, in seconds.
    pub fn extra_s(&self, key: &str) -> f64 {
        self.lock()
            .extra_time
            .get(key)
            .map_or(0.0, Duration::as_secs_f64)
    }

    /// Counter value.
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counts.get(name).copied().unwrap_or(0)
    }

    /// `(calls, distinct calls)` recorded by [`note_call`](Self::note_call).
    pub fn calls(&self) -> (u64, u64) {
        let inner = self.lock();
        (inner.calls, inner.unique.len() as u64)
    }

    /// Every executor point recorded so far.
    pub fn points(&self) -> Vec<PointSpan> {
        self.lock().points.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {}
    }

    #[test]
    fn self_time_excludes_children_and_sums_to_the_root() {
        let ledger = Ledger::default();
        let (_, root) = ledger.span("outer", || {
            spin(Duration::from_millis(3));
            ledger.span("inner", || spin(Duration::from_millis(5)));
        });
        let outer = ledger.self_s("outer");
        let inner = ledger.self_s("inner");
        assert!(inner >= 0.005 && outer >= 0.003, "{outer} {inner}");
        assert!(outer < root.as_secs_f64() - 0.004);
        assert!((ledger.self_total_s() - root.as_secs_f64()).abs() < 1e-6);
    }

    #[test]
    fn unique_ratio_counts_distinct_call_keys() {
        let ledger = Ledger::default();
        for key in [
            "VGGNet/Layer0/cfg/SparTen/2019",
            "VGGNet/Layer0/cfg/SparTen/2019",
            "x",
        ] {
            ledger.note_call(key.to_string());
        }
        assert_eq!(ledger.calls(), (3, 2));
    }
}
