//! What one run measures and how it reports it.

use crate::probe::Probe;
use crate::stats::{median, percentile};
use crate::{Res, RunCfg};
use nsta_bench::json::Json;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// A run repeats its complete set-up at least this many times and for at
/// least `SETUP_MIN_SECONDS`; `setup_s` is the median. One cold set-up (a
/// few tenths of a second) varies by more than a tenth between runs.
const SETUP_MIN_REPEATS: usize = 5;
const SETUP_MIN_SECONDS: f64 = 4.0;
const SETUP_MAX_REPEATS: usize = 50;

/// Ops an end-to-end run makes at least, past `--seconds` if need be, so
/// that `latency_ms_p90` always has ten samples beyond it.
const MIN_OPS: usize = 110;

/// Ops each half of a traced run makes at least (enough for a median).
const MIN_TRACED_OPS: usize = 20;

/// Every per-layer metric with its unit, in layer order (see the README
/// for the end-to-end metric each should move). A traced run reports all
/// of them; a layer the workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("setup.characterize_ms", "ms"),
    ("setup.parse_design_ms", "ms"),
    ("setup.sta_new_ms", "ms"),
    ("setup.parse_spef_ms", "ms"),
    ("setup.bind_ms", "ms"),
    ("parasitics.rebind_ms", "ms"),
    ("sta.max_sweep_ms", "ms"),
    ("sta.min_sweep_ms", "ms"),
    ("attr.sweeps_ms", "ms"),
    ("si.analysis_ms", "ms"),
    ("si.iterations", "count"),
    ("si.victims_recomputed", "count"),
    ("si.victim_cache_ratio", "ratio"),
    ("si.aggressors_pruned", "count"),
    ("si.topo_cache_hit_ratio", "ratio"),
    ("si.factorizations", "count"),
    ("si.residual_ms", "ms"),
    ("waveform.ramps_us", "us"),
    ("attr.ramps_ms", "ms"),
    ("circuit.factor_us", "us"),
    ("circuit.transient_pair_us", "us"),
    ("circuit.nnz", "count"),
    ("attr.factor_ms", "ms"),
    ("attr.transient_pair_ms", "ms"),
    ("sgdp.gate_us", "us"),
    ("sgdp.context_us", "us"),
    ("sgdp.sensitivity_us", "us"),
    ("sgdp.fit_us", "us"),
    ("sgdp.failures", "count"),
    ("attr.gate_ms", "ms"),
    ("attr.reduce_ms", "ms"),
    ("setup.golden_ms", "ms"),
    ("spice.receiver_ms", "ms"),
    ("lint.preflight_ms", "ms"),
    ("setup.session_open_ms", "ms"),
    ("session.edit_ms.set_load", "ms"),
    ("session.edit_ms.set_drive_resistance", "ms"),
    ("session.edit_ms.reannotate_net", "ms"),
    ("session.dirty_nets", "count"),
    ("session.specs_resolved", "count"),
    ("session.released_cache_entries", "count"),
    ("session.audit_ms", "ms"),
    ("trace_overhead_pct", "%"),
];

/// Set-up spans and the per-layer metric each one's median feeds.
const SETUP_SPANS: [(&str, &str); 7] = [
    ("setup.characterize", "setup.characterize_ms"),
    ("setup.parse_design", "setup.parse_design_ms"),
    ("setup.sta_new", "setup.sta_new_ms"),
    ("setup.parse_spef", "setup.parse_spef_ms"),
    ("setup.bind", "setup.bind_ms"),
    ("setup.golden", "setup.golden_ms"),
    ("setup.session_open", "setup.session_open_ms"),
];

/// Median time (ms) of each set-up step over the run's set-ups.
pub fn setup_layers(probe: &Probe) -> impl Iterator<Item = (&'static str, f64)> + '_ {
    SETUP_SPANS
        .into_iter()
        .map(|(span, metric)| (metric, probe.median(span) * 1e3))
}

/// One reported value: `samples` is how many measurements it summarizes.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// SGDP's receiver-output arrival error against the transistor-level
/// golden over the delay-noise cases it handled (`cases`), and the cases
/// it failed on.
#[derive(Debug, Clone, Copy)]
pub struct Accuracy {
    pub avg_ps: f64,
    pub max_ps: f64,
    pub cases: usize,
    pub failures: usize,
}

/// A finished run: op counts, whether every output check passed, and the
/// metrics of the kind the run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    /// Checks made once per run (dense parity, final audit, accuracy).
    pub checks_passed: bool,
    pub end_to_end: Vec<Metric>,
    /// Per-layer values by name; names absent here report 0.
    pub layers: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// The metrics a run of this kind reports: every per-layer metric on a
    /// traced run, every end-to-end metric otherwise.
    pub fn metrics(&self, trace: bool) -> Vec<Metric> {
        if trace {
            PER_LAYER
                .iter()
                .map(|&(name, unit)| Metric {
                    name,
                    value: self.layers.get(name).copied().unwrap_or(0.0),
                    unit,
                    samples: 1,
                })
                .collect()
        } else {
            self.end_to_end.clone()
        }
    }

    /// Prints one human-readable line per metric, then the result object
    /// as the last line of standard output.
    pub fn print(&self, metrics: &[Metric]) {
        for m in metrics {
            println!(
                "{:<40} {:>14.6} {:<6} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
        println!("ops: {} attempted, {} failed", self.attempted, self.failed);
        let json = Json::obj([
            (
                "correct",
                Json::Bool(self.checks_passed && self.failed == 0 && self.attempted > 0),
            ),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            (
                "metrics",
                Json::Obj(
                    metrics
                        .iter()
                        .map(|m| {
                            let entry = Json::obj([
                                ("value", Json::Num(m.value)),
                                ("unit", Json::str(m.unit)),
                            ]);
                            (m.name.to_string(), entry)
                        })
                        .collect(),
                ),
            ),
        ]);
        println!("{}", json.render());
    }
}

/// The end-to-end metrics every workload reports, from its set-up times
/// (s), its measured loop and SGDP's accuracy.
pub fn end_to_end(setup: &[f64], loops: &Loops, accuracy: Accuracy) -> Res<Vec<Metric>> {
    let ms: Vec<f64> = loops.untraced.latencies.iter().map(|s| s * 1e3).collect();
    let p50 = percentile(&ms, 50).ok_or("too few ops for latency_ms_p50")?;
    let p90 = percentile(&ms, 90).ok_or("too few ops for latency_ms_p90")?;
    let rss = loops
        .peak_rss_mb
        .ok_or("VmHWM unavailable in /proc/self/status")?;
    let wall: Vec<f64> = loops.untraced.wall.iter().map(|s| s * 1e3).collect();
    println!(
        "wall-clock latency: p50 {:.3} ms, p90 {:.3} ms (before rescaling to the reference speed)",
        percentile(&wall, 50).unwrap_or(f64::NAN),
        percentile(&wall, 90).unwrap_or(f64::NAN),
    );
    println!(
        "SGDP vs golden: {} delay-noise cases, {} failed",
        accuracy.cases + accuracy.failures,
        accuracy.failures
    );
    let metric = |name, value, unit, samples| Metric {
        name,
        value,
        unit,
        samples,
    };
    Ok(vec![
        metric("setup_s", median(setup), "s", setup.len()),
        metric("latency_ms_p50", p50, "ms", ms.len()),
        metric("latency_ms_p90", p90, "ms", ms.len()),
        metric("peak_rss_mb", rss, "MB", 1),
        metric("sgdp_err_avg_ps", accuracy.avg_ps, "ps", accuracy.cases),
        metric("sgdp_err_max_ps", accuracy.max_ps, "ps", accuracy.cases),
    ])
}

/// Peak resident set size of this process (MB), the kernel's `VmHWM`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}

/// Runs the complete set-up repeatedly (see `SETUP_MIN_REPEATS`) and
/// keeps the last result, with every set-up's time (s, at the reference
/// speed, timed in laps by the probe's set-up clock).
pub fn repeat_setup<T>(probe: &Probe, mut setup: impl FnMut() -> Res<T>) -> Res<(T, Vec<f64>)> {
    let mut times: Vec<f64> = Vec::new();
    let mut wall = 0.0;
    let mut last = None;
    while times.len() < SETUP_MAX_REPEATS
        && (times.len() < SETUP_MIN_REPEATS || wall < SETUP_MIN_SECONDS)
    {
        drop(last.take());
        let start = Instant::now();
        probe.start_clock();
        last = Some(setup()?);
        times.push(probe.stop_clock());
        wall += start.elapsed().as_secs_f64();
    }
    Ok((last.ok_or("no set-up ran")?, times))
}

/// Op latencies of one closed loop, at the reference speed and as wall
/// times (s), and how many of its ops failed.
#[derive(Debug, Default)]
pub struct LoopStats {
    pub latencies: Vec<f64>,
    pub wall: Vec<f64>,
    pub failed: usize,
}

/// One client's closed loop: `op(i)` runs op `i` and returns its own wall
/// latency (s) — so per-op input preparation and probes stay outside it —
/// and whether its output check passed. Runs for `seconds`, and past that
/// until `min_ops` ops have run (but never beyond a fixed cap).
fn closed_loop(
    seconds: f64,
    min_ops: usize,
    probe: &Probe,
    op: &mut impl FnMut(usize, &Probe) -> (f64, bool),
    first: usize,
) -> LoopStats {
    let budget = Duration::from_secs_f64(seconds);
    let cap = budget + Duration::from_secs(90);
    let start = Instant::now();
    let mut stats = LoopStats::default();
    probe.rescale();
    while (start.elapsed() < budget || stats.wall.len() < min_ops) && start.elapsed() < cap {
        let (latency, ok) = op(first + stats.wall.len(), probe);
        stats.wall.push(latency);
        stats.latencies.push(latency * probe.rescale());
        if !ok {
            stats.failed += 1;
        }
    }
    stats
}

/// The measured loops of one run.
#[derive(Debug)]
pub struct Loops {
    /// The whole run's loop, or the first half of a traced run.
    pub untraced: LoopStats,
    /// The second half of a traced run, with the probe on.
    pub traced: Option<LoopStats>,
    /// Peak resident set (MB) when the loops ended: set-up and ops only,
    /// not the checks made after them.
    pub peak_rss_mb: Option<f64>,
}

impl Loops {
    /// An outcome carrying these loops' op counts.
    pub fn outcome(&self) -> Outcome {
        let all = std::iter::once(&self.untraced).chain(&self.traced);
        Outcome {
            attempted: all.clone().map(|l| l.wall.len()).sum(),
            failed: all.map(|l| l.failed).sum(),
            ..Outcome::default()
        }
    }

    /// Per-layer `trace_overhead_pct`: the traced half's median op latency
    /// over the untraced half's.
    pub fn trace_overhead_pct(&self) -> f64 {
        self.traced.as_ref().map_or(0.0, |traced| {
            (median(&traced.latencies) / median(&self.untraced.latencies) - 1.0) * 100.0
        })
    }
}

/// Runs a workload's ops: one closed loop of `--seconds`, or on a traced
/// run two halves, only the second with the probe enabled. `op(i, probe)`
/// runs op `i` (counting on across both halves) as [`closed_loop`]
/// describes.
pub fn measure(
    cfg: &RunCfg,
    probe: &Probe,
    mut op: impl FnMut(usize, &Probe) -> (f64, bool),
) -> Loops {
    if !cfg.trace {
        return Loops {
            untraced: closed_loop(cfg.seconds, MIN_OPS, probe, &mut op, 0),
            traced: None,
            peak_rss_mb: peak_rss_mb(),
        };
    }
    let half = cfg.seconds / 2.0;
    probe.set_enabled(false);
    let untraced = closed_loop(half, MIN_TRACED_OPS, probe, &mut op, 0);
    probe.set_enabled(true);
    let traced = closed_loop(half, MIN_TRACED_OPS, probe, &mut op, untraced.wall.len());
    Loops {
        untraced,
        traced: Some(traced),
        peak_rss_mb: peak_rss_mb(),
    }
}
