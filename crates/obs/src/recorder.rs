//! The recorder: event buffer, counter/gauge registries, clocks, spans.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::ThreadId;
use std::time::Instant;

/// How a [`TraceEvent`] renders in the Chrome trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A complete span (`ph: "X"`) with a duration.
    Complete {
        /// Span duration in nanoseconds.
        dur_ns: u64,
    },
    /// A point-in-time record (`ph: "i"`, thread scope).
    Instant,
}

/// One recorded event, in recorder-clock nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (the Chrome trace `name` field).
    pub name: Cow<'static, str>,
    /// Category (the Chrome trace `cat` field), typically the crate.
    pub cat: &'static str,
    /// Complete span or instant.
    pub kind: EventKind,
    /// Start timestamp (ns on the recorder's clock).
    pub ts_ns: u64,
    /// Recording thread, numbered in first-use order per recorder.
    pub tid: u64,
    /// Numeric args attached to the event.
    pub args: Vec<(&'static str, f64)>,
}

/// Flat snapshot of every counter and gauge, name-sorted.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs: counters (as exact integers in `f64`) and
    /// gauges, merged and sorted by name.
    pub values: Vec<(String, f64)>,
}

impl MetricsSnapshot {
    /// The value recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.values[i].1)
    }

    /// Whether no metric was recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

const CLOCK_MONOTONIC: u8 = 0;
const CLOCK_FAKE: u8 = 1;

/// Locks a registry mutex, recovering from poisoning: every critical
/// section below is a single push/insert/clone that cannot leave the
/// registry in a torn state, so a panic on another thread (e.g. an
/// injected worker fault) must not cascade into instrumentation panics.
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A thread-safe span/counter registry with a monotonic (or fake) clock.
///
/// See the crate docs for the recorder model and the overhead contract;
/// the short version: everything is a no-op costing one relaxed atomic
/// load until [`Recorder::enable`] is called.
#[derive(Debug)]
pub struct Recorder {
    enabled: AtomicBool,
    clock_mode: AtomicU8,
    /// Next fake-clock reading (ns); advances by `fake_step_ns` per read.
    fake_now_ns: AtomicU64,
    fake_step_ns: AtomicU64,
    /// Monotonic clock base, fixed at construction.
    epoch: Instant,
    events: Mutex<Vec<TraceEvent>>,
    counters: Mutex<BTreeMap<&'static str, Arc<AtomicU64>>>,
    /// Gauge cells hold `f64::to_bits`.
    gauges: Mutex<BTreeMap<&'static str, Arc<AtomicU64>>>,
    /// Thread → tid, numbered in first-use order.
    tids: Mutex<HashMap<ThreadId, u64>>,
    next_tid: AtomicU64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A fresh, disabled recorder on the monotonic clock.
    pub fn new() -> Self {
        Recorder {
            enabled: AtomicBool::new(false),
            clock_mode: AtomicU8::new(CLOCK_MONOTONIC),
            fake_now_ns: AtomicU64::new(0),
            fake_step_ns: AtomicU64::new(1),
            epoch: Instant::now(),
            events: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            tids: Mutex::new(HashMap::new()),
            next_tid: AtomicU64::new(0),
        }
    }

    /// Starts recording. Instrumentation sites hit before this call have
    /// already returned on the disabled path; nothing is retroactive.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Release);
    }

    /// Stops recording; buffered events and metrics stay readable until
    /// [`Recorder::reset`].
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Release);
    }

    /// Whether instrumentation sites currently record.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Clears events, counters, gauges and thread numbering, and rewinds
    /// the fake clock. The enabled flag and clock mode are left as set.
    pub fn reset(&self) {
        lock_unpoisoned(&self.events).clear();
        lock_unpoisoned(&self.counters).clear();
        lock_unpoisoned(&self.gauges).clear();
        lock_unpoisoned(&self.tids).clear();
        self.next_tid.store(0, Ordering::Relaxed);
        self.fake_now_ns.store(0, Ordering::Relaxed);
    }

    /// Switches to a deterministic clock: every reading returns the
    /// previous value plus `step_ns`, starting at 0. Golden tests use
    /// this to pin exported timestamps exactly.
    pub fn use_fake_clock(&self, step_ns: u64) {
        self.fake_step_ns.store(step_ns, Ordering::Relaxed);
        self.fake_now_ns.store(0, Ordering::Relaxed);
        self.clock_mode.store(CLOCK_FAKE, Ordering::Release);
    }

    #[cfg(test)]
    pub(crate) fn now_ns_for_test(&self) -> u64 {
        self.now_ns()
    }

    fn now_ns(&self) -> u64 {
        match self.clock_mode.load(Ordering::Acquire) {
            CLOCK_FAKE => {
                let step = self.fake_step_ns.load(Ordering::Relaxed);
                self.fake_now_ns.fetch_add(step, Ordering::Relaxed)
            }
            _ => self.epoch.elapsed().as_nanos() as u64,
        }
    }

    fn tid(&self) -> u64 {
        let id = std::thread::current().id();
        let mut tids = lock_unpoisoned(&self.tids);
        *tids
            .entry(id)
            .or_insert_with(|| self.next_tid.fetch_add(1, Ordering::Relaxed))
    }

    pub(crate) fn push_event(&self, event: TraceEvent) {
        lock_unpoisoned(&self.events).push(event);
    }

    pub(crate) fn events_snapshot(&self) -> Vec<TraceEvent> {
        lock_unpoisoned(&self.events).clone()
    }

    /// Number of buffered trace events.
    pub fn event_count(&self) -> usize {
        lock_unpoisoned(&self.events).len()
    }

    /// Opens a span in the default category. Bind the guard; it records
    /// on drop.
    #[must_use = "binding the span guard is what gives it a duration"]
    pub fn span(&self, name: impl Into<Cow<'static, str>>) -> Span<'_> {
        self.span_cat("span", name)
    }

    /// Opens a span in an explicit category (typically the crate name).
    #[must_use = "binding the span guard is what gives it a duration"]
    pub fn span_cat(&self, cat: &'static str, name: impl Into<Cow<'static, str>>) -> Span<'_> {
        if !self.is_enabled() {
            return Span {
                rec: None,
                name: Cow::Borrowed(""),
                cat,
                start_ns: 0,
                args: Vec::new(),
            };
        }
        Span {
            rec: Some(self),
            name: name.into(),
            cat,
            start_ns: self.now_ns(),
            args: Vec::new(),
        }
    }

    /// Records a point event carrying `args` (no-op while disabled).
    pub fn instant(&self, name: impl Into<Cow<'static, str>>, args: &[(&'static str, f64)]) {
        if !self.is_enabled() {
            return;
        }
        let ts_ns = self.now_ns();
        let tid = self.tid();
        self.push_event(TraceEvent {
            name: name.into(),
            cat: "instant",
            kind: EventKind::Instant,
            ts_ns,
            tid,
            args: args.to_vec(),
        });
    }

    fn counter_cell(&self, name: &'static str) -> Arc<AtomicU64> {
        Arc::clone(lock_unpoisoned(&self.counters).entry(name).or_default())
    }

    /// Adds `delta` to the named counter (no-op while disabled). The
    /// registry lock only resolves the name; the accumulation itself is
    /// an atomic add, so concurrent workers never lose updates.
    pub fn add(&self, name: &'static str, delta: u64) {
        if !self.is_enabled() {
            return;
        }
        self.counter_cell(name).fetch_add(delta, Ordering::Relaxed);
    }

    fn gauge_cell(&self, name: &'static str) -> Arc<AtomicU64> {
        Arc::clone(lock_unpoisoned(&self.gauges).entry(name).or_default())
    }

    /// Sets the named gauge to `value` (no-op while disabled).
    pub fn gauge_set(&self, name: &'static str, value: f64) {
        if !self.is_enabled() {
            return;
        }
        self.gauge_cell(name)
            .store(value.to_bits(), Ordering::Relaxed);
    }

    /// Raises the named gauge to `value` if larger (no-op while
    /// disabled). Compare-and-swap on the bit pattern, correct for the
    /// non-negative magnitudes gauges track here (nnz, byte sizes).
    pub fn gauge_max(&self, name: &'static str, value: f64) {
        if !self.is_enabled() {
            return;
        }
        let cell = self.gauge_cell(name);
        let mut current = cell.load(Ordering::Relaxed);
        while value > f64::from_bits(current) {
            match cell.compare_exchange_weak(
                current,
                value.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(observed) => current = observed,
            }
        }
    }

    /// Flat snapshot of every counter and gauge, sorted by name.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut merged: BTreeMap<String, f64> = BTreeMap::new();
        for (name, cell) in lock_unpoisoned(&self.counters).iter() {
            merged.insert((*name).to_string(), cell.load(Ordering::Relaxed) as f64);
        }
        for (name, cell) in lock_unpoisoned(&self.gauges).iter() {
            merged.insert(
                (*name).to_string(),
                f64::from_bits(cell.load(Ordering::Relaxed)),
            );
        }
        MetricsSnapshot {
            values: merged.into_iter().collect(),
        }
    }
}

/// RAII span guard: records one complete (`"X"`) event on drop.
///
/// Obtained from [`Recorder::span`]/[`Recorder::span_cat`] or the
/// [`span!`](crate::span) macro. While the recorder is disabled the guard
/// is inert — construction and drop cost one branch each.
#[derive(Debug)]
pub struct Span<'r> {
    rec: Option<&'r Recorder>,
    name: Cow<'static, str>,
    cat: &'static str,
    start_ns: u64,
    args: Vec<(&'static str, f64)>,
}

impl Span<'_> {
    /// Attaches a numeric arg to the event recorded at drop (no-op on an
    /// inert guard).
    pub fn set_arg(&mut self, key: &'static str, value: f64) {
        if self.rec.is_some() {
            self.args.push((key, value));
        }
    }

    /// Builder-style [`Span::set_arg`].
    #[must_use = "binding the span guard is what gives it a duration"]
    pub fn arg(mut self, key: &'static str, value: f64) -> Self {
        self.set_arg(key, value);
        self
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let Some(rec) = self.rec else { return };
        let end_ns = rec.now_ns();
        let tid = rec.tid();
        rec.push_event(TraceEvent {
            name: std::mem::replace(&mut self.name, Cow::Borrowed("")),
            cat: self.cat,
            kind: EventKind::Complete {
                dur_ns: end_ns.saturating_sub(self.start_ns),
            },
            ts_ns: self.start_ns,
            tid,
            args: std::mem::take(&mut self.args),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::new();
        {
            let mut span = rec.span("ignored");
            span.set_arg("k", 1.0);
            rec.add("counter", 5);
            rec.gauge_set("gauge", 2.0);
            rec.gauge_max("gauge2", 3.0);
            rec.instant("instant", &[("a", 1.0)]);
        }
        assert_eq!(rec.event_count(), 0);
        assert!(rec.metrics().is_empty());
    }

    #[test]
    fn fake_clock_is_deterministic_and_resets() {
        let rec = Recorder::new();
        rec.enable();
        rec.use_fake_clock(100);
        assert_eq!(rec.now_ns(), 0);
        assert_eq!(rec.now_ns(), 100);
        assert_eq!(rec.now_ns(), 200);
        rec.reset();
        assert_eq!(rec.now_ns(), 0);
    }

    #[test]
    fn spans_nest_and_record_on_drop() {
        let rec = Recorder::new();
        rec.enable();
        rec.use_fake_clock(10);
        {
            let mut outer = rec.span_cat("test", "outer"); // start 0
            outer.set_arg("n", 2.0);
            {
                let _inner = rec.span_cat("test", "inner"); // start 10, end 20
            }
            // outer ends at 30
        }
        let events = rec.events_snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "inner");
        assert_eq!(events[0].ts_ns, 10);
        assert_eq!(events[0].kind, EventKind::Complete { dur_ns: 10 });
        assert_eq!(events[1].name, "outer");
        assert_eq!(events[1].ts_ns, 0);
        assert_eq!(events[1].kind, EventKind::Complete { dur_ns: 30 });
        assert_eq!(events[1].args, vec![("n", 2.0)]);
        // Single-threaded: everything lands on tid 0.
        assert!(events.iter().all(|e| e.tid == 0));
    }

    #[test]
    fn counters_survive_concurrent_hammering() {
        let rec = Recorder::new();
        rec.enable();
        let threads = 4;
        let per_thread = 10_000u64;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    for _ in 0..per_thread {
                        rec.add("hammered", 1);
                    }
                });
            }
        });
        assert_eq!(
            rec.metrics().get("hammered"),
            Some((threads as u64 * per_thread) as f64)
        );
    }

    #[test]
    fn gauge_max_keeps_the_largest_value() {
        let rec = Recorder::new();
        rec.enable();
        rec.gauge_max("peak", 5.0);
        rec.gauge_max("peak", 3.0);
        rec.gauge_max("peak", 9.0);
        rec.gauge_max("peak", 7.0);
        assert_eq!(rec.metrics().get("peak"), Some(9.0));
        rec.gauge_set("peak", 1.0);
        assert_eq!(rec.metrics().get("peak"), Some(1.0));
    }

    #[test]
    fn metrics_snapshot_is_name_sorted_and_searchable() {
        let rec = Recorder::new();
        rec.enable();
        rec.add("z.last", 1);
        rec.add("a.first", 2);
        rec.gauge_set("m.middle", 3.5);
        let snap = rec.metrics();
        let names: Vec<&str> = snap.values.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a.first", "m.middle", "z.last"]);
        assert_eq!(snap.get("m.middle"), Some(3.5));
        assert_eq!(snap.get("missing"), None);
    }

    #[test]
    fn reset_clears_everything() {
        let rec = Recorder::new();
        rec.enable();
        rec.use_fake_clock(1);
        let _ = rec.span("s");
        rec.add("c", 1);
        rec.gauge_set("g", 1.0);
        rec.reset();
        assert_eq!(rec.event_count(), 0);
        assert!(rec.metrics().is_empty());
        assert!(rec.is_enabled(), "reset must not flip the enabled flag");
    }
}
