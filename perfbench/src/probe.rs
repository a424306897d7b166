//! Outside-in layer timing for the traced run, on the host-speed scale.
//!
//! Every call the benchmark makes into a crate can be wrapped in
//! [`Probe::time`]. While enabled, that opens a span on a benchmark-owned
//! [`Recorder`] (never the process-global one the pipeline instruments, so
//! the program under test runs exactly as on an untraced run) and keeps the
//! call's time under its name. Otherwise it is a plain call. Kept times are
//! rescaled to the reference speed like every reported time (see
//! [`crate::speed`]).

use crate::speed::{self, Speed};
use crate::stats::median;
use nsta_obs::Recorder;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

/// The rescaling factor is the median of the calibration samples taken in
/// the last `WINDOW`, and of at least the two around the timed stretch. One
/// sample is noisy (a 0.1 ms kernel meets interrupts), so the samples
/// around a sub-millisecond op are pooled; but the host's speed also moves
/// within milliseconds, so the pool stays short, and an op longer than the
/// window is rescaled by the two samples around it alone.
const WINDOW: Duration = Duration::from_millis(3);

pub struct Probe {
    rec: Recorder,
    calls: RefCell<BTreeMap<&'static str, Vec<f64>>>,
    speed: Speed,
    /// Recent calibration samples (when, and the kernel's time in s), and
    /// the factor they give.
    samples: RefCell<VecDeque<(Instant, f64)>>,
    scale: Cell<f64>,
    /// A running set-up clock: the start of the current lap, and the
    /// rescaled time of the laps before it (s).
    clock: Cell<Option<(Instant, f64)>>,
}

impl Probe {
    pub fn new(enabled: bool) -> Probe {
        let probe = Probe {
            rec: Recorder::new(),
            calls: RefCell::new(BTreeMap::new()),
            speed: Speed::new(),
            samples: RefCell::new(VecDeque::new()),
            scale: Cell::new(1.0),
            clock: Cell::new(None),
        };
        probe.set_enabled(enabled);
        probe
    }

    pub fn enabled(&self) -> bool {
        self.rec.is_enabled()
    }

    pub fn set_enabled(&self, enabled: bool) {
        if enabled {
            self.rec.enable();
        } else {
            self.rec.disable();
        }
    }

    /// Takes a calibration sample (outside any timed region) and returns
    /// the factor that rescales the wall time since the previous sample to
    /// the reference speed (see `WINDOW`). Times kept from now on are
    /// rescaled by the same factor until the next sample.
    pub fn rescale(&self) -> f64 {
        let mut samples = self.samples.borrow_mut();
        let kernel = self.speed.sample();
        let now = Instant::now();
        samples.push_back((now, kernel));
        while samples.len() > 2 && now.duration_since(samples[0].0) > WINDOW {
            samples.pop_front();
        }
        let times: Vec<f64> = samples.iter().map(|&(_, k)| k).collect();
        let factor = speed::scale(median(&times));
        self.scale.set(factor);
        factor
    }

    /// Starts the set-up clock. A set-up runs for hundreds of
    /// milliseconds, so it is timed in laps (see [`Probe::lap`]), each
    /// rescaled by the samples up to its end.
    pub fn start_clock(&self) {
        self.rescale();
        self.clock.set(Some((Instant::now(), 0.0)));
    }

    /// Ends the current lap of a running set-up clock and starts the next.
    /// Set-up steps call it between steps; [`Probe::time`] calls it after
    /// every step it times. A no-op while no clock runs.
    pub fn lap(&self) {
        if let Some((start, total)) = self.clock.get() {
            let elapsed = start.elapsed().as_secs_f64();
            let total = total + elapsed * self.rescale();
            self.clock.set(Some((Instant::now(), total)));
        }
    }

    /// Stops the set-up clock and returns its rescaled total (s).
    pub fn stop_clock(&self) -> f64 {
        self.lap();
        self.clock.take().map_or(0.0, |(_, total)| total)
    }

    /// Runs `f`; when enabled, records it as a span and keeps its time (s,
    /// at the reference speed) under `name`. Calls may nest.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled() {
            let out = f();
            self.lap();
            return out;
        }
        let span = self.rec.span_cat("perfbench", name);
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed().as_secs_f64() * self.scale.get();
        self.calls
            .borrow_mut()
            .entry(name)
            .or_default()
            .push(elapsed);
        drop(span);
        self.lap();
        out
    }

    /// Times (s) of every call kept under `name`.
    pub fn calls(&self, name: &str) -> Vec<f64> {
        self.calls.borrow().get(name).cloned().unwrap_or_default()
    }

    /// Median time (s) of the calls kept under `name`; `0.0` if the
    /// workload never made one.
    pub fn median(&self, name: &str) -> f64 {
        crate::stats::median(&self.calls(name))
    }

    /// Writes the recorded spans as a Chrome trace-event file.
    pub fn write_chrome_trace(&self, path: &str) -> std::io::Result<()> {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.rec.chrome_trace(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_only_when_enabled() {
        let probe = Probe::new(false);
        assert_eq!(probe.time("x", || 7), 7);
        assert!(probe.calls("x").is_empty());
        probe.set_enabled(true);
        probe.time("outer", || probe.time("inner", || ()));
        probe.time("inner", || ());
        assert_eq!(probe.calls("outer").len(), 1);
        assert_eq!(probe.calls("inner").len(), 2);
        assert!(probe.median("inner") >= 0.0);
        assert_eq!(probe.median("never"), 0.0);
        assert!(probe.rec.chrome_trace(1).contains("\"outer\""));
    }
}
