//! Zero-dependency instrumentation for the noisy-sta pipeline: scoped
//! spans, counters/gauges, and exporters (Chrome trace-event JSON, flat
//! metrics snapshots), plus the resource-governance primitives
//! ([`govern`]: cooperative deadlines and fake clocks) the
//! pipeline polls to bound its own wall-clock cost.
//!
//! The workspace builds fully offline, so this crate replaces the
//! `tracing` ecosystem with a small in-tree layer shaped around the STA
//! pipeline's needs: per-phase and per-cone wall-clock spans, solver and
//! cache counters, and per-iteration fixed-point records — all collected
//! on one [`Recorder`] and exported after the run.
//!
//! # Recorder model
//!
//! A [`Recorder`] is a thread-safe sink of trace events and metrics. The
//! process-wide instance behind [`recorder()`] is what the pipeline
//! crates instrument against (the [`span!`]/[`count!`] macros target it);
//! fresh instances ([`Recorder::new`]) exist for isolated tests.
//!
//! * **Spans** — [`Recorder::span`] returns an RAII guard that records a
//!   Chrome `"X"` (complete) event on drop, timed on the recorder's
//!   clock, tagged with a per-thread `tid` (assigned in first-use order)
//!   and any [`Span::set_arg`] key/values.
//! * **Counters** — [`Recorder::add`] accumulates named `u64` totals;
//!   concurrent adds from worker threads never lose updates (each named
//!   counter is an atomic cell behind a registry lock taken only to
//!   resolve the name).
//! * **Gauges** — [`Recorder::gauge_set`]/[`Recorder::gauge_max`] track
//!   named `f64` levels (e.g. the largest factored-system nnz).
//! * **Instants** — [`Recorder::instant`] records a point event (Chrome
//!   `"i"`) carrying args, for records with no natural duration.
//!
//! # Overhead contract
//!
//! Observability is **off by default** and the disabled path is designed
//! for hot loops: every instrumentation site costs one relaxed atomic
//! load and an early return — no clock read, no allocation, no lock.
//! Recording never feeds back into any computation, so instrumented and
//! uninstrumented analyses are **bit-identical** (the `nsta-sta` parity
//! test and `spefbus --trace` both assert this), and the enabled-path
//! wall-clock overhead on the windowed spefbus phase is budgeted at 5%
//! (enforced in-binary and in CI).
//!
//! Keep span/counter *names* `'static` string literals; dynamic context
//! belongs in args (plain numbers, evaluated eagerly — keep them cheap).
//!
//! # Clocks
//!
//! The default clock is monotonic ([`std::time::Instant`], nanoseconds
//! since the recorder's construction). [`Recorder::use_fake_clock`]
//! substitutes a deterministic counter that advances by a fixed step per
//! reading — golden tests assert exact exported timestamps with it.
//!
//! # Exporter formats
//!
//! * [`Recorder::chrome_trace`] renders the event buffer as a Chrome
//!   trace-event JSON array (the "JSON Array Format"): complete spans as
//!   `{"name", "cat", "ph": "X", "ts", "dur", "pid", "tid", "args"}` and
//!   instants as `"ph": "i"` with thread scope. Timestamps are
//!   microseconds (fractional, rebased so the earliest event is 0), one
//!   `pid` per analysis (the caller picks it), one `tid` per recording
//!   thread. The output loads directly in Perfetto
//!   (<https://ui.perfetto.dev>) or `chrome://tracing`.
//! * [`Recorder::metrics`] snapshots every counter and gauge as a flat,
//!   name-sorted `(name, value)` list — the `metrics` section of
//!   `BENCH_spefbus.json`.
//!
//! ```
//! use nsta_obs::Recorder;
//!
//! let rec = Recorder::new();
//! rec.enable();
//! rec.use_fake_clock(1_000); // 1 µs per clock reading
//! {
//!     let mut span = rec.span_cat("demo", "outer");
//!     span.set_arg("items", 3.0);
//!     rec.add("demo.widgets", 3);
//! }
//! let trace = rec.chrome_trace(1);
//! assert!(trace.contains(r#""name":"outer""#));
//! assert_eq!(rec.metrics().get("demo.widgets"), Some(3.0));
//! ```

#![forbid(unsafe_code)]

mod export;
pub mod fault;
pub mod govern;
mod recorder;

pub use fault::XorShift64;
pub use govern::{Deadline, FakeClock};
pub use recorder::{EventKind, MetricsSnapshot, Recorder, Span, TraceEvent};

use std::sync::OnceLock;

/// The process-wide recorder every pipeline crate instruments against.
///
/// Starts disabled; `spefbus --trace` (or a test) enables it
/// around the run it wants observed.
pub fn recorder() -> &'static Recorder {
    static GLOBAL: OnceLock<Recorder> = OnceLock::new();
    GLOBAL.get_or_init(Recorder::new)
}

/// Opens a scoped span on the global [`recorder()`]: records one Chrome
/// `"X"` event from macro invocation to guard drop.
///
/// Bind the result (`let _span = span!("phase");`) — `let _ = span!(...)`
/// drops the guard immediately and records a zero-length span. Optional
/// `"key" => value` pairs become event args; values are evaluated eagerly
/// (even when recording is off), so keep them cheap scalars.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::recorder().span($name)
    };
    ($name:expr, $($k:literal => $v:expr),+ $(,)?) => {{
        let mut __span = $crate::recorder().span($name);
        $(__span.set_arg($k, ($v) as f64);)+
        __span
    }};
}

/// Bumps a named counter on the global [`recorder()`] (no-op while
/// recording is off).
#[macro_export]
macro_rules! count {
    ($name:literal) => {
        $crate::recorder().add($name, 1)
    };
    ($name:literal, $n:expr) => {
        $crate::recorder().add($name, ($n) as u64)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_recorder_starts_disabled_and_macros_are_noops() {
        // Deliberately NOT enabling the global recorder: other tests (and
        // production defaults) rely on the disabled path recording
        // nothing, so the macros must leave no trace here.
        let before = recorder().event_count();
        {
            let _span = span!("lib.test_noop");
            count!("lib.test_noop_counter", 7);
        }
        assert_eq!(recorder().event_count(), before);
        assert_eq!(recorder().metrics().get("lib.test_noop_counter"), None);
    }
}
