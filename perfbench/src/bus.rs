//! `bus-clones` and `bus-varied`: one windowed crosstalk analysis per op,
//! and the set-up every STA workload shares.

use crate::gen::{varied_groups, varied_spef, VARIED_GROUPS};
use crate::golden::{sgdp_reduce, table1_accuracy};
use crate::probe::Probe;
use crate::report::{end_to_end, measure, repeat_setup, Outcome};
use crate::{Res, RunCfg, Workload};
use nsta_bench::busgen;
use nsta_circuit::{Circuit, RcLineSpec, StarCoupledLines, TransientOptions};
use nsta_liberty::characterize::{inverter_family, Options};
use nsta_lint::{run_lint, LintConfig, LintInput, Severity, RULES};
use nsta_parasitics::{bind_couplings, parse_spef, write_spef, BindOptions, SpefFile};
use nsta_spice::Process;
use nsta_sta::{
    verilog, BoundaryConditions, Constraints, CouplingSpec, SiAnalysis, SiOptions, SolverBackend,
    Sta, TimingReport,
};
use nsta_waveform::{Polarity, SaturatedRamp, Thresholds, Waveform};
use sgdp::gate::{GateModel, TableGate};
use std::collections::BTreeMap;
use std::time::Instant;

/// Groups of the canonical bus (the ROADMAP's reference design).
pub const CLONE_GROUPS: usize = 64;

/// Worst arrivals of the sparse and dense backends must agree this closely.
const DENSE_PARITY_TOL: f64 = 1e-18; // 1e-6 ps

/// A characterized library and a parsed design and extraction, ready to
/// bind or to open a session on.
pub struct Loaded {
    pub sta: Sta,
    pub spef: SpefFile,
}

/// The set-up shared by every STA workload: characterize the library,
/// parse the `groups`-group bus netlist and the extraction (written to SPEF
/// text first, so parsing is measured on real input), build the `Sta`.
pub fn load(groups: usize, spef: &SpefFile, probe: &Probe) -> Res<Loaded> {
    let lib = probe.time("setup.characterize", || {
        inverter_family(
            &Process::c013(),
            &[("INVX1", 1.0), ("INVX4", 4.0)],
            &Options::fast_test(),
        )
    })?;
    let netlist = busgen::netlist(groups);
    let design = probe.time("setup.parse_design", || verilog::parse_design(&netlist))?;
    let text = write_spef(spef);
    let spef = probe.time("setup.parse_spef", || parse_spef(&text))?;
    let sta = probe.time("setup.sta_new", || Sta::new(design, lib))?;
    Ok(Loaded { sta, spef })
}

/// A bound bus design, ready for windowed analyses.
struct Bus {
    sta: Sta,
    specs: Vec<CouplingSpec>,
}

fn setup(cfg: &RunCfg, probe: &Probe) -> Res<Bus> {
    let (groups, spef) = match cfg.workload {
        Workload::BusVaried => (VARIED_GROUPS, varied_spef(&varied_groups(cfg.seed))),
        _ => (CLONE_GROUPS, busgen::spef(CLONE_GROUPS, 3)),
    };
    let Loaded { sta, spef } = load(groups, &spef, probe)?;
    let bound = probe.time("setup.bind", || {
        bind_couplings(&spef, sta.design(), &BindOptions::default())
    })?;
    // Every lint rule at deny: any diagnostic at all fails the set-up.
    let mut config = LintConfig::new();
    for rule in RULES {
        config.set(rule.id, Severity::Deny);
    }
    let input = LintInput {
        design: sta.design(),
        library: sta.library(),
        couplings: &bound.specs,
        boundary: &BoundaryConditions::uniform(&Constraints::default()),
        spef: Some(&spef),
        sdc: None,
    };
    let lint = run_lint(&input, &config);
    if lint.fails(true) {
        return Err(format!("design is not lint-clean:\n{}", lint.render_human()).into());
    }
    Ok(Bus {
        sta,
        specs: bound.specs,
    })
}

fn analyze(bus: &Bus, backend: SolverBackend) -> Res<SiAnalysis> {
    let opts = SiOptions {
        threads: 1,
        backend,
        ..SiOptions::default()
    };
    Ok(bus
        .sta
        .analyze_with_crosstalk_windows(Constraints::default(), &bus.specs, &opts)?)
}

pub fn run(cfg: &RunCfg, probe: &Probe) -> Res<Outcome> {
    let (bus, setup_times) = repeat_setup(probe, || setup(cfg, probe))?;
    // Every op's report must be bit-identical to the first op's.
    let mut reference: Option<SiAnalysis> = None;
    let mut traced: Option<SiAnalysis> = None;
    let mut sgdp_failures = 0usize;
    let loops = measure(cfg, probe, |_, probe| {
        let start = Instant::now();
        let result = probe.time("si.analysis", || analyze(&bus, SolverBackend::Sparse));
        let latency = start.elapsed().as_secs_f64();
        let Ok(analysis) = result else {
            return (latency, false);
        };
        let mut ok = match &reference {
            Some(r) => analysis.report == r.report,
            None => {
                reference = Some(analysis.clone());
                true
            }
        };
        if probe.enabled() {
            match replay(&bus, &analysis, probe) {
                Ok(replayed) => {
                    sgdp_failures += replayed.sgdp_failures;
                    ok &= replayed.mismatches == 0;
                }
                Err(e) => {
                    eprintln!("perfbench: stage replay failed: {e}");
                    ok = false;
                }
            }
            traced = Some(analysis);
        }
        (latency, ok)
    });
    let first = reference.ok_or("no op completed")?;
    let worst = first.report.worst_arrival();
    let dense = analyze(&bus, SolverBackend::Dense)?.report.worst_arrival();
    let dense_ok = worst == dense || (worst - dense).abs() <= DENSE_PARITY_TOL;
    println!(
        "{}: worst arrival {} ps (dense backend differs by {:e} ps)",
        cfg.workload.name(),
        worst * 1e12,
        (worst - dense).abs() * 1e12
    );
    // The stage replay must still compute what the analysis computes: its
    // Γeff for every victim stage matches the analysis's adjustment.
    let replayed = replay(&bus, &first, &Probe::new(false))?;
    println!(
        "{}: {} of {} victim adjustments differ from the stage replay",
        cfg.workload.name(),
        replayed.mismatches,
        first.adjustments.len()
    );
    let mut outcome = loops.outcome();
    outcome.checks_passed = dense_ok && replayed.mismatches == 0;
    match traced {
        Some(analysis) => {
            outcome.layers = layers(probe, &analysis, sgdp_failures);
            outcome
                .layers
                .insert("trace_overhead_pct", loops.trace_overhead_pct());
        }
        None => {
            let accuracy = table1_accuracy(cfg.seed)?;
            outcome.end_to_end = end_to_end(&setup_times, &loops, accuracy)?;
        }
    }
    Ok(outcome)
}

/// The windowed analysis's per-layer split, outside in: each `attr.*_ms`
/// is the layer's median time per public call times the number of such
/// calls the op made (its victims recomputed, or its factorizations), and
/// `si.residual_ms` is what is left of the op — the fixed-point
/// bookkeeping and report assembly no public call exposes.
fn layers(
    probe: &Probe,
    analysis: &SiAnalysis,
    sgdp_failures: usize,
) -> BTreeMap<&'static str, f64> {
    let d = &analysis.diagnostics;
    let recomputed: usize = d.iterations.iter().map(|i| i.victims_recomputed).sum();
    let cached: usize = d.iterations.iter().map(|i| i.victims_cached).sum();
    let ms = |name| probe.median(name) * 1e3;
    let us = |name| probe.median(name) * 1e6;
    let per_stage = |name| ms(name) * recomputed as f64;
    let attr = [
        ("attr.sweeps_ms", ms("sta.max_sweep") + ms("sta.min_sweep")),
        ("attr.ramps_ms", per_stage("stage.ramps")),
        ("attr.factor_ms", ms("stage.factor") * d.cache_misses as f64),
        ("attr.transient_pair_ms", per_stage("stage.transient_pair")),
        ("attr.gate_ms", per_stage("stage.gate")),
        ("attr.reduce_ms", per_stage("stage.reduce")),
    ];
    let analysis_ms = ms("si.analysis");
    let residual = analysis_ms - attr.iter().map(|(_, v)| v).sum::<f64>();
    let ratio = |a: usize, b: usize| a as f64 / (a + b).max(1) as f64;
    let mut layers: BTreeMap<&'static str, f64> = attr.into_iter().collect();
    layers.extend([
        ("sta.max_sweep_ms", ms("sta.max_sweep")),
        ("sta.min_sweep_ms", ms("sta.min_sweep")),
        ("si.analysis_ms", analysis_ms),
        ("si.iterations", d.iterations.len() as f64),
        ("si.victims_recomputed", recomputed as f64),
        ("si.victim_cache_ratio", ratio(cached, recomputed)),
        ("si.aggressors_pruned", analysis.pruned.len() as f64),
        (
            "si.topo_cache_hit_ratio",
            ratio(d.cache_hits, d.cache_misses),
        ),
        ("si.factorizations", d.cache_misses as f64),
        ("si.residual_ms", residual),
        ("waveform.ramps_us", us("stage.ramps")),
        ("circuit.factor_us", us("stage.factor")),
        ("circuit.transient_pair_us", us("stage.transient_pair")),
        ("circuit.nnz", d.solver_nnz as f64),
        ("sgdp.gate_us", us("stage.gate")),
        ("sgdp.context_us", us("sgdp.context")),
        ("sgdp.sensitivity_us", us("sgdp.sensitivity")),
        ("sgdp.fit_us", us("sgdp.fit")),
        ("sgdp.failures", sgdp_failures as f64),
    ]);
    layers
}

// The grid nsta-sta integrates every victim stage on: the timestep
// heuristic `slew / 50` rounded up into fixed buckets, and the stop time
// 1 ns after the latest participant settles, rounded up to 0.5 ns.
const DT_BUCKETS: [f64; 5] = [0.5e-12, 1e-12, 2e-12, 4e-12, 5e-12];
const SETTLE_MARGIN: f64 = 1e-9;
const T_STOP_QUANTUM: f64 = 0.5e-9;

fn quantize_dt(victim_slew: f64) -> f64 {
    let raw = (victim_slew / 50.0).clamp(0.5e-12, 5e-12);
    DT_BUCKETS
        .iter()
        .copied()
        .find(|&b| b >= raw)
        .unwrap_or(raw)
}

/// What the stage probe found: the stages SGDP failed to reduce, and the
/// stages whose replayed Γeff differs from the analysis's adjustment (or
/// that only one of the two reduced).
struct Replayed {
    sgdp_failures: usize,
    mismatches: usize,
}

/// The sweeps probe and the stage probe for one op: the two hoisted
/// sweeps, then every victim stage of `analysis` (each coupled victim with
/// its surviving aggressors, both polarities) replayed through the public
/// calls the windowed analysis makes per stage, each replayed Γeff checked
/// against the analysis's adjustment for that victim transition.
fn replay(bus: &Bus, analysis: &SiAnalysis, probe: &Probe) -> Res<Replayed> {
    let c = Constraints::default();
    let nominal = probe.time("sta.max_sweep", || bus.sta.analyze(c))?;
    probe.time("sta.min_sweep", || bus.sta.analyze_earliest(c))?;
    let bc = BoundaryConditions::uniform(&c);
    let th = Thresholds::cmos(bus.sta.library().voltage);
    let mut out = Replayed {
        sgdp_failures: 0,
        mismatches: 0,
    };
    for spec in &bus.specs {
        let kept: Vec<usize> = (0..spec.aggressors.len())
            .filter(|&i| {
                !analysis
                    .pruned
                    .iter()
                    .any(|p| p.victim == spec.victim && p.aggressor == spec.aggressors[i])
            })
            .collect();
        let spec = restricted(spec, &kept);
        let timing = nominal
            .net(spec.victim)
            .ok_or("victim missing from the nominal report")?;
        let stage = Stage {
            bus,
            bc: &bc,
            nominal: &nominal,
            spec: &spec,
            th,
        };
        for (pol, point) in [(Polarity::Rise, timing.rise), (Polarity::Fall, timing.fall)] {
            let Some(point) = point else { continue };
            let gamma = stage.replay(pol, point.arrival, point.slew, probe)?;
            let adjustment = analysis
                .adjustments
                .iter()
                .find(|a| a.net == spec.victim && a.polarity == pol);
            match (gamma, adjustment) {
                (Some(g), Some(a))
                    if g.arrival_mid() == a.noisy_arrival && g.slew(th) == a.noisy_slew => {}
                (None, None) => out.sgdp_failures += 1,
                _ => out.mismatches += 1,
            }
        }
    }
    Ok(out)
}

/// `spec` with only the aggressors at `keep`; the others' coupling moves
/// into `quiet_cm`, as the window filter does for pruned aggressors.
fn restricted(spec: &CouplingSpec, keep: &[usize]) -> CouplingSpec {
    let mut out = spec.clone();
    out.aggressors = keep.iter().map(|&i| spec.aggressors[i]).collect();
    out.cm_per_aggressor = keep.iter().map(|&i| spec.cm_of(i)).collect();
    out.aggressor_lines = keep.iter().map(|&i| spec.line_of(i)).collect();
    let kept_cm: f64 = out.cm_per_aggressor.iter().sum();
    let all_cm: f64 = (0..spec.aggressors.len()).map(|i| spec.cm_of(i)).sum();
    out.quiet_cm = spec.quiet_cm + (all_cm - kept_cm).max(0.0);
    out
}

/// One victim stage of the replay.
struct Stage<'a> {
    bus: &'a Bus,
    bc: &'a BoundaryConditions,
    nominal: &'a TimingReport,
    spec: &'a CouplingSpec,
    th: Thresholds,
}

impl Stage<'_> {
    /// Replays the stage for one victim transition: ramps → waveforms,
    /// circuit + factorization, the noiseless/noisy transient pair, the
    /// receiver's table response, SGDP. Returns the Γeff, or `None` where
    /// SGDP failed.
    fn replay(
        &self,
        pol: Polarity,
        arrival: f64,
        slew: f64,
        probe: &Probe,
    ) -> Res<Option<SaturatedRamp>> {
        let (sta, spec, th) = (&self.bus.sta, self.spec, self.th);
        let agg_pol = if spec.aggressors_oppose {
            pol.inverted()
        } else {
            pol
        };
        let mut latest = arrival + slew;
        let mut agg_ramps = Vec::with_capacity(spec.aggressors.len());
        for &agg in &spec.aggressors {
            let t = self
                .nominal
                .net(agg)
                .ok_or("aggressor missing from the report")?;
            let p = if agg_pol.is_rise() { t.rise } else { t.fall };
            let p = p.ok_or("aggressor has no arrival")?;
            let at = p.arrival + spec.aggressor_skew;
            latest = latest.max(at + p.slew);
            agg_ramps.push(SaturatedRamp::with_slew(
                at,
                p.slew.max(1e-12),
                th,
                agg_pol.is_rise(),
            )?);
        }
        let t_stop = ((latest + SETTLE_MARGIN) / T_STOP_QUANTUM).ceil() * T_STOP_QUANTUM;
        let dt = quantize_dt(slew);
        let line = if spec.quiet_cm > 0.0 {
            RcLineSpec::new(
                spec.line.r_total,
                spec.line.c_total + spec.quiet_cm,
                spec.line.segments,
            )?
        } else {
            spec.line
        };
        let load = spec
            .receiver_load
            .unwrap_or_else(|| sta.graph().load(spec.victim))
            .max(1e-16);
        let victim_ramp = SaturatedRamp::with_slew(arrival, slew.max(1e-12), th, pol.is_rise())?;

        let (victim_wave, agg_waves) = probe.time("stage.ramps", || -> Res<_> {
            let victim = victim_ramp.to_waveform(0.0, t_stop, dt)?;
            let aggs = agg_ramps
                .iter()
                .map(|r| r.to_waveform(0.0, t_stop, dt))
                .collect::<Result<Vec<_>, _>>()?;
            Ok((victim, aggs))
        })?;

        let (system, far) = probe.time("stage.factor", || -> Res<_> {
            let mut ckt = Circuit::new();
            let v_in = ckt.node("victim_in");
            let placeholder = Waveform::constant(0.0, 0.0, t_stop)?;
            ckt.thevenin_driver(v_in, placeholder.clone(), spec.driver_resistance)?;
            let mut agg_ins = Vec::with_capacity(agg_waves.len());
            for _ in &agg_waves {
                let a_in = ckt.anon_node();
                ckt.thevenin_driver(a_in, placeholder.clone(), spec.driver_resistance)?;
                agg_ins.push(a_in);
            }
            let far = if agg_ins.is_empty() {
                line.build(&mut ckt, v_in, "w")?
            } else {
                let lines = (0..agg_ins.len())
                    .map(|i| (spec.line_of(i), spec.cm_of(i)))
                    .collect();
                StarCoupledLines::new(line, lines)?
                    .build(&mut ckt, v_in, &agg_ins, "w")?
                    .0
            };
            ckt.capacitor(far, Circuit::GROUND, load)?;
            let opts = TransientOptions::new(0.0, t_stop, dt)?.with_backend(SolverBackend::Sparse);
            Ok((ckt.factor_transient(opts)?, far))
        })?;

        let (noiseless, noisy) = probe.time("stage.transient_pair", || -> Res<_> {
            let quiet_level = if agg_pol.is_rise() { 0.0 } else { th.vdd() };
            let quiet = Waveform::constant(quiet_level, 0.0, t_stop)?;
            let mut sources = vec![&victim_wave];
            sources.extend(agg_waves.iter().map(|_| &quiet));
            let noiseless = system
                .run_nodes(&sources, &[far])?
                .pop()
                .ok_or("no trace")?;
            if agg_waves.is_empty() {
                return Ok((noiseless.clone(), noiseless));
            }
            let mut sources = vec![&victim_wave];
            sources.extend(agg_waves.iter());
            let noisy = system
                .run_nodes(&sources, &[far])?
                .pop()
                .ok_or("no trace")?;
            Ok((noiseless, noisy))
        })?;

        let receiver = match sta.graph().fanout_edges(spec.victim).first() {
            Some(&k) => {
                let edge = &sta.graph().edges()[k];
                let inst = &sta.design().instances()[edge.instance];
                let cell = sta
                    .library()
                    .cell(&inst.cell)
                    .ok_or("unknown receiver cell")?;
                Some((cell, self.bc.output(edge.to).load.max(1e-15)))
            }
            None => None,
        };
        let output = match receiver {
            Some((cell, load)) => Some(probe.time("stage.gate", || {
                TableGate::new(cell, load, th)?.response(&noiseless)
            })?),
            None => None,
        };
        Ok(probe
            .time("stage.reduce", || {
                sgdp_reduce(noiseless, noisy, output, th, probe)
            })
            .ok())
    }
}
