//! Closed-loop, seeded benchmark of the noisy-waveform STA pipeline.
//!
//! ```text
//! perfbench --workload bus-clones|bus-varied|eco-stream|stage-golden
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! One client in one process drives the pipeline through public crate APIs
//! only, sending its next operation when the previous one returns. The
//! workloads, their operations and why each was chosen are described in
//! `perfbench/README.md`. With `--trace 0` the last line of standard output
//! is a JSON object carrying every end-to-end metric; with `--trace 1` it
//! carries every per-layer metric, measured by timing the calls this
//! program makes into each crate (see [`probe`]).

mod bus;
mod eco;
mod gen;
mod golden;
mod probe;
mod report;
mod speed;
mod stats;

use probe::Probe;
use report::Outcome;
use std::error::Error;

/// Boxed error for set-up and check failures: the benchmark reports them
/// and exits non-zero instead of printing a result.
pub type Res<T> = Result<T, Box<dyn Error>>;

const USAGE: &str = "usage: perfbench --workload bus-clones|bus-varied|eco-stream|stage-golden \
--seed N --seconds S --trace 0|1";

/// The four workloads; see the README for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BusClones,
    BusVaried,
    EcoStream,
    StageGolden,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "bus-clones" => Some(Workload::BusClones),
            "bus-varied" => Some(Workload::BusVaried),
            "eco-stream" => Some(Workload::EcoStream),
            "stage-golden" => Some(Workload::StageGolden),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::BusClones => "bus-clones",
            Workload::BusVaried => "bus-varied",
            Workload::EcoStream => "eco-stream",
            Workload::StageGolden => "stage-golden",
        }
    }
}

/// One run's settings, straight from the command line.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured closed loop (s).
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<RunCfg, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = || format!("invalid value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(RunCfg {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(cfg: &RunCfg, probe: &Probe) -> Res<Outcome> {
    match cfg.workload {
        Workload::BusClones | Workload::BusVaried => bus::run(cfg, probe),
        Workload::EcoStream => eco::run(cfg, probe),
        Workload::StageGolden => golden::run(cfg, probe),
    }
}

fn main() {
    let cfg = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let probe = Probe::new(cfg.trace);
    let mut outcome = run(&cfg, &probe).unwrap_or_else(|e| {
        eprintln!("perfbench: {}: {e}", cfg.workload.name());
        std::process::exit(1);
    });
    if cfg.trace {
        outcome.layers.extend(report::setup_layers(&probe));
        let path = format!(
            ".bench_out/{}-seed{}.trace.json",
            cfg.workload.name(),
            cfg.seed
        );
        match probe.write_chrome_trace(&path) {
            Ok(()) => eprintln!("perfbench: wrote {path}"),
            Err(e) => eprintln!("perfbench: cannot write {path}: {e}"),
        }
    }
    // After the loop, so its buffers stay out of peak_rss_mb.
    let effect = speed::Speed::new().footprint_effect();
    println!(
        "calibration kernel after a 16 MB stream: {:+.1}%, after heap churn: {:+.1}% (vs after a no-op)",
        effect.stream * 100.0,
        effect.heap_churn * 100.0
    );
    let metrics = outcome.metrics(cfg.trace);
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!(
            "perfbench: {}: {} is not a number",
            cfg.workload.name(),
            m.name
        );
        std::process::exit(1);
    }
    outcome.print(&metrics);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<RunCfg, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let cfg = args("--workload eco-stream --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(cfg.workload, Workload::EcoStream);
        assert_eq!((cfg.seed, cfg.seconds, cfg.trace), (7, 20.0, true));
    }

    #[test]
    fn rejects_unknown_or_missing_arguments() {
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload bus-clones --seed 1 --seconds 1").is_err());
        assert!(args("--workload bus-clones --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload bus-clones --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload bus-clones --seed 1 --seconds 1 --trace 0 --x").is_err());
    }
}
