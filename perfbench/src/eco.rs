//! `eco-stream`: one transactional edit per op on a timing session opened
//! on the canonical bus — the write path no batch workload touches.

use crate::bus::{load, CLONE_GROUPS};
use crate::gen::{eco_edit, Rng};
use crate::golden::table1_accuracy;
use crate::probe::Probe;
use crate::report::Outcome;
use crate::report::{end_to_end, measure, repeat_setup};
use crate::stats::median;
use crate::{Res, RunCfg};
use nsta_bench::busgen;
use nsta_lint::{run_lint, LintConfig, LintInput, Severity};
use nsta_parasitics::{bind_couplings, BindOptions};
use nsta_session::{CommitInfo, Edit, EditOutcome, SessionOptions, TimingSession};
use nsta_sta::{BoundaryConditions, Constraints, SiOptions};
use std::time::Instant;

/// The lint configuration a session preflights an edit of this kind
/// with: rules whose inputs the edit cannot change are skipped (the
/// design rules always, the SPEF rules unless the edit re-annotates).
fn preflight_config(edit: &Edit) -> LintConfig {
    const DESIGN_RULES: [&str; 3] = ["net.undriven", "net.multi-driven", "net.floating"];
    const SPEF_RULES: [&str; 6] = [
        "spef.unknown-net",
        "spef.unknown-coupling-net",
        "spef.missing-annotation",
        "spef.nonpositive-rc",
        "spef.degenerate-extraction",
        "spef.duplicate-annotation",
    ];
    let mut config = LintConfig::new();
    let reannotates = matches!(edit, Edit::ReannotateNet { .. });
    for rule in DESIGN_RULES
        .iter()
        .chain(SPEF_RULES.iter().filter(|_| !reannotates))
    {
        config.set(rule, Severity::Allow);
    }
    config
}

/// The probes after one traced edit: the session's preflight lint of the
/// committed state and, for a re-annotation, its rebind.
fn probe_edit(session: &TimingSession, edit: &Edit, probe: &Probe) -> Res<()> {
    let input = LintInput {
        design: session.sta().design(),
        library: session.sta().library(),
        couplings: session.couplings(),
        boundary: session.boundary(),
        spef: Some(session.spef()),
        sdc: None,
    };
    probe.time("lint.preflight", || {
        run_lint(&input, &preflight_config(edit))
    });
    if matches!(edit, Edit::ReannotateNet { .. }) {
        let design = session.sta().design();
        probe.time("parasitics.rebind", || {
            bind_couplings(session.spef(), design, &BindOptions::default())
        })?;
    }
    Ok(())
}

pub fn run(cfg: &RunCfg, probe: &Probe) -> Res<Outcome> {
    let c = Constraints::default();
    let ((mut session, seed_spef), setup) = repeat_setup(probe, || {
        let spef = busgen::spef(CLONE_GROUPS, 3);
        let loaded = load(CLONE_GROUPS, &spef, probe)?;
        let options = SessionOptions {
            si: SiOptions {
                threads: 1,
                ..SiOptions::default()
            },
            // Audits would be full batch analyses inside the timed
            // stream; the stream is audited once, after it.
            audit_every_n: None,
            ..SessionOptions::default()
        };
        let session = probe.time("setup.session_open", || {
            TimingSession::open(
                loaded.sta,
                loaded.spef.clone(),
                BindOptions::default(),
                BoundaryConditions::uniform(&c),
                options,
            )
        })?;
        Ok((session, loaded.spef))
    })?;
    let mut rng = Rng::new(cfg.seed, 2);
    let mut commits: Vec<CommitInfo> = Vec::new();
    let mut probe_errors = 0usize;
    let loops = measure(cfg, probe, |i, probe| {
        let Some(edit) = eco_edit(&mut rng, i, CLONE_GROUPS, &seed_spef) else {
            return (0.0, false);
        };
        let span = match edit {
            Edit::SetLoad { .. } => "session.edit.set_load",
            Edit::SetDriveResistance { .. } => "session.edit.set_drive_resistance",
            Edit::ReannotateNet { .. } => "session.edit.reannotate_net",
        };
        let probed = probe.enabled().then(|| edit.clone());
        let start = Instant::now();
        let outcome = probe.time(span, || session.apply(edit));
        let latency = start.elapsed().as_secs_f64();
        let EditOutcome::Committed(info) = outcome else {
            return (latency, false);
        };
        if let Some(edit) = probed {
            if probe_edit(&session, &edit, probe).is_err() {
                probe_errors += 1;
            }
            commits.push(info);
        }
        (latency, true)
    });
    let audit = probe.time("session.audit", || session.audit_now());
    let divergence = audit.as_ref().map_or(f64::INFINITY, |a| a.max_divergence);
    let mut outcome = loops.outcome();
    println!(
        "eco-stream: epoch {} after {} ops, final audit max divergence {} ps",
        session.epoch(),
        outcome.attempted,
        divergence * 1e12
    );
    outcome.checks_passed = divergence == 0.0 && probe_errors == 0;
    if cfg.trace {
        let per_edit = |f: fn(&CommitInfo) -> usize| {
            median(&commits.iter().map(|c| f(c) as f64).collect::<Vec<_>>())
        };
        let ms = |name| probe.median(name) * 1e3;
        outcome.layers.extend([
            ("session.edit_ms.set_load", ms("session.edit.set_load")),
            (
                "session.edit_ms.set_drive_resistance",
                ms("session.edit.set_drive_resistance"),
            ),
            (
                "session.edit_ms.reannotate_net",
                ms("session.edit.reannotate_net"),
            ),
            ("session.dirty_nets", per_edit(|c| c.dirty_nets)),
            ("session.specs_resolved", per_edit(|c| c.specs_resolved)),
            (
                "session.released_cache_entries",
                per_edit(|c| c.released_cache_entries),
            ),
            ("session.audit_ms", ms("session.audit")),
            ("lint.preflight_ms", ms("lint.preflight")),
            ("parasitics.rebind_ms", ms("parasitics.rebind")),
            ("trace_overhead_pct", loops.trace_overhead_pct()),
        ]);
    } else {
        let accuracy = table1_accuracy(cfg.seed)?;
        outcome.end_to_end = end_to_end(&setup, &loops, accuracy)?;
    }
    Ok(outcome)
}
