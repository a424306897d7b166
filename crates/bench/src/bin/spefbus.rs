//! SPEF-driven STA workload: a synthetic coupled bus pushed through the
//! full parse → bind → window-filter → crosstalk pipeline, measured.
//!
//! Generates `--groups` independent victim/aggressor groups. Group `i`'s
//! far aggressor sits behind a chain of `2i + 1` inverters, so early
//! groups keep both aggressors inside the victim's switching window while
//! later groups get their far aggressor pruned — exercising both branches
//! of the temporal-correlation filter at scale. `--segments N` scales
//! every victim wire's extraction to N RC segments (same totals), growing
//! the per-victim mesh.
//!
//! A run parses and binds the SPEF, optionally lints it, and makes exactly
//! one windowed crosstalk analysis at `--threads`: under uniform
//! constraints, or under the per-pin boundary conditions of `--sdc FILE`.
//! It reports binding statistics, pruning counts, fixed-point iterations,
//! shared-factorization statistics and wall-clock time, as text and as a
//! JSON report (default `BENCH_spefbus.json`) that CI archives per PR.
//! How that analysis compares with its variants (threaded, dense,
//! deadline-governed, fault-injected, and one pass over the final
//! filtered specs) is checked by `cargo test`, not here.
//!
//! Pre-flight lint: `--lint` runs the `nsta-lint` rule registry over the
//! bound design + SPEF + SDC before any solve and prints the diagnostics;
//! `--lint=deny` additionally promotes warnings, so *any* diagnostic fails
//! the run with exit code 4. The report lands in the JSON as a `lint`
//! section.
//!
//! Two flags add runs that carry checks no unit test can make:
//!
//! * `--trace FILE` re-runs the analysis with the `nsta-obs` recorder
//!   enabled, writes a Chrome trace-event JSON (loadable in Perfetto /
//!   `chrome://tracing`) with per-phase, per-cone and per-iteration spans,
//!   and merges the flat counter/gauge snapshot into the report as a
//!   `metrics` section. The instrumented run must be bit-identical to the
//!   measured one and within 5% of its time, with a 10 ms absolute floor
//!   so a few-ms CI run is not failed on scheduler noise. Both gates are
//!   recorded in the `obs` section.
//! * `--eco N` opens a long-lived `nsta_session::TimingSession` over the
//!   same design and absorbs a deterministic stream of N transactional
//!   edits (output-load changes, driver-resistance changes, single-net
//!   re-annotations, cycled over the groups by a seeded PRNG), each
//!   re-solving only the cones its coupling specs reach and sweeping only
//!   the victim cone among them. The session is
//!   shadow-audited every 8 commits and once at the end against a
//!   from-scratch batch analysis; a divergence quarantines it and exits
//!   6. The final state is then reanalysed from scratch five times: each
//!   run must equal the retained report exactly, and their median time is
//!   the denominator of the per-edit speedup CI gates on. The `eco` JSON
//!   section archives the outcome, including `merge_fallbacks`: the
//!   commits whose merge folded every report row for the worst point.
//!
//! A failed gate is exit code 1: the run deletes any stale JSON at the
//! target path and exits without writing a new one, so CI cannot upload
//! a green-looking report from a broken run. The JSON and the trace are
//! written to a temp file and atomically renamed into place (and any
//! pre-existing artifact is removed up front), so a panic mid-analysis
//! cannot leave a stale or partial report on disk. A fixed point that
//! hits its iteration cap unconverged prints a warning.
//!
//! Usage: `spefbus [--groups N] [--threads N] [--segments N] [--sdc FILE]
//! [--json PATH] [--trace FILE] [--lint[=deny]] [--eco N]`
//! (`--segments` ≥ 1; `nsta_bench::cli` parses the flags).

use nsta_bench::busgen::{netlist, spef};
use nsta_bench::cli::Cli;
use nsta_bench::json::Json;
use nsta_constraints::{bind_sdc, parse_sdc};
use nsta_liberty::characterize::{inverter_family, Options};
use nsta_parasitics::{bind_couplings, parse_spef, write_spef, BindOptions};
use nsta_session::{Edit, EditOutcome, SessionOptions, TimingSession};
use nsta_spice::Process;
use nsta_sta::{verilog, BoundaryConditions, Constraints, SiOptions, Sta};
use std::time::{Duration, Instant};

const USAGE: &str = "spefbus [--groups N] [--threads N] [--segments N] \
[--sdc FILE] [--json PATH] [--trace FILE] [--lint[=deny]] [--eco N] [--help]";

/// Timed from-scratch reanalyses of the final `--eco` state; their median
/// is the denominator of the speedup, so one slow or fast run on a noisy
/// host does not decide the gate.
const FULL_REANALYSIS_RUNS: usize = 5;

const HELP: &str = "SPEF-driven crosstalk STA workload: one measured windowed analysis.

flags:
  --groups N          victim/aggressor groups to generate (default 8)
  --threads N         worker threads of the analysis, at most one per
                      fanout cone (cache.cones in the report; default 1)
  --segments N        RC segments per victim wire, at least 1 (default 3)
  --sdc FILE          analyze under an SDC constraint set instead of
                      uniform constraints
  --json PATH         JSON report path (default BENCH_spefbus.json)
  --trace FILE        re-run the analysis instrumented, write its Chrome
                      trace and add a metrics section to the report; the
                      re-run must be bit-identical and within 5% (10 ms
                      floor) of the measured run
  --lint              pre-flight lint the design + SPEF + SDC before any
                      solve; deny-level diagnostics exit 4
  --lint=deny         as --lint, but promote warnings: any diagnostic
                      at all exits 4
  --eco N             open an incremental timing session and stream N
                      deterministic transactional edits through it (needs
                      --groups >= 1); each edit re-solves only the
                      cones its coupling specs reach, and the session is
                      shadow-audited against a from-scratch batch
                      analysis (divergence exits 6); the speedup divides
                      the median of 5 full reanalyses by the median edit
  --help, -h          print this help and exit

exit codes:
  0   success: all gates passed, artifacts written
  1   gate failure: the --trace re-run differs or is over budget, or an
      --eco edit did not commit or its retained report differs from the
      batch one (stale JSON deleted, no new JSON written)
  2   usage or input error (unknown flag, bad value, --segments 0,
      unreadable --sdc, --eco with --groups 0)
  4   pre-flight lint failed (deny diagnostics, or any diagnostic
      under --lint=deny); no analysis was run, no JSON written
  6   --eco shadow audit failed: the incremental session diverged from
      the batch reference; the session was quarantined read-only and no
      JSON was written";

/// Peak resident set size of this process in bytes, from the kernel's
/// `VmHWM` high-water mark. `None` off Linux or if the field is absent —
/// the JSON section records `null` rather than a fabricated number.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

/// Writes `contents` to `path` atomically: temp file in the same
/// directory, then rename. A crash between the two leaves either the old
/// artifact (already removed up front in `main`) or nothing — never a
/// partial file at the target path.
fn write_atomic(path: &str, contents: &str) {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, contents).unwrap_or_else(|e| {
        eprintln!("spefbus: cannot write {tmp}: {e}");
        std::process::exit(1);
    });
    std::fs::rename(&tmp, path).unwrap_or_else(|e| {
        eprintln!("spefbus: cannot rename {tmp} into {path}: {e}");
        std::process::exit(1);
    });
}

/// Everything the `--eco` session run archives into the JSON report.
struct EcoSummary {
    edits: usize,
    committed: usize,
    open_time: Duration,
    median_edit: Duration,
    /// Median edit time per edit kind (`Edit::kind`); `None` for a kind
    /// the stream did not reach.
    median_edit_by_kind: Vec<(&'static str, Option<Duration>)>,
    max_edit: Duration,
    /// Median of the [`FULL_REANALYSIS_RUNS`] timed full reanalyses.
    full_time: Duration,
    speedup: f64,
    epoch: u64,
    dirty_cones_per_edit: f64,
    dirty_nets_per_edit: f64,
    swept_cones_per_edit: f64,
    /// Commits whose merge folded every report row for the worst point
    /// instead of the points near the smallest slack.
    merge_fallbacks: usize,
    audits_run: u64,
    audit_max_divergence: f64,
}

fn main() {
    let mut groups = 8usize;
    let mut threads = 1usize;
    let mut segments = 3usize;
    let mut sdc_path: Option<String> = None;
    let mut json_path = String::from("BENCH_spefbus.json");
    let mut trace_path: Option<String> = None;
    // None: no lint. Some(false): lint, gate on deny diagnostics.
    // Some(true): lint, gate on any diagnostic (--lint=deny).
    let mut lint_mode: Option<bool> = None;
    let mut eco_edits: Option<usize> = None;
    let mut cli = Cli::from_env(USAGE);
    while let Some(flag) = cli.next_flag() {
        match flag.as_str() {
            "--groups" => groups = cli.value("--groups"),
            "--threads" => threads = cli.value("--threads"),
            "--segments" => segments = cli.count("--segments", 1),
            "--sdc" => sdc_path = Some(cli.value("--sdc")),
            "--json" => json_path = cli.value("--json"),
            "--trace" => trace_path = Some(cli.value("--trace")),
            "--lint" => lint_mode = Some(false),
            "--lint=deny" => lint_mode = Some(true),
            "--eco" => eco_edits = Some(cli.value("--eco")),
            "--help" | "-h" => {
                println!("usage: {USAGE}\n\n{HELP}");
                std::process::exit(0);
            }
            other => cli.unknown(other),
        }
    }
    // The edit stream edits the generated groups' nets; an empty design
    // has none to edit.
    if groups == 0 && eco_edits.is_some() {
        cli.fail("--eco needs --groups >= 1");
    }
    let threads = threads.max(1);
    // Artifacts from a previous run come off disk before any analysis: a
    // panic below must not leave a stale green-looking report behind (the
    // new artifacts are written atomically at the end).
    let _ = std::fs::remove_file(&json_path);
    if let Some(tp) = &trace_path {
        let _ = std::fs::remove_file(tp);
    }
    // Observability: parse/bind spans record up front; the analysis spans
    // come from a dedicated instrumented re-run after the measured one
    // (so the overhead budget is measured against a clean run).
    let observe = trace_path.is_some();
    let rec = nsta_obs::recorder();
    if observe {
        rec.enable();
    }
    let opts = SiOptions {
        threads,
        ..SiOptions::default()
    };

    eprintln!("characterizing library...");
    let t = Instant::now();
    let lib = inverter_family(
        &Process::c013(),
        &[("INVX1", 1.0), ("INVX4", 4.0)],
        &Options::fast_test(),
    )
    .expect("characterization");
    let characterize_time = t.elapsed();

    let design = verilog::parse_design(&netlist(groups)).expect("netlist");
    let spef_text = write_spef(&spef(groups, segments));
    let t = Instant::now();
    let parsed = parse_spef(&spef_text).expect("spef");
    let parse_time = t.elapsed();
    let t = Instant::now();
    let bound = bind_couplings(&parsed, &design, &BindOptions::default()).expect("bind");
    let bind_time = t.elapsed();
    println!(
        "{} groups: SPEF {} bytes, {} nets parsed in {parse_time:.2?}, \
         {} specs bound in {bind_time:.2?}",
        groups,
        spef_text.len(),
        parsed.nets.len(),
        bound.specs.len(),
    );

    if observe {
        // The measured analysis must run uninstrumented: it is the
        // reference side of the bit-parity and overhead-budget gates.
        rec.disable();
    }

    let sta = Sta::new(design, lib).expect("sta");
    let c = Constraints::default();

    // SDC read/parse/bind happens ahead of the analysis so the pre-flight
    // lint sees the file-level constraints too.
    let sdc_input = sdc_path.as_ref().map(|path| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("spefbus: cannot read SDC file {path}: {e}");
            std::process::exit(2);
        });
        let sdc = parse_sdc(&text).unwrap_or_else(|e| {
            eprintln!("spefbus: cannot parse SDC file {path}: {e}");
            std::process::exit(2);
        });
        let bound_sdc = bind_sdc(&sdc, sta.design(), &c).unwrap_or_else(|e| {
            eprintln!("spefbus: cannot bind SDC file {path} onto the design: {e}");
            std::process::exit(2);
        });
        (sdc, bound_sdc)
    });
    let uniform = BoundaryConditions::uniform(&c);
    let boundary = sdc_input
        .as_ref()
        .map_or(&uniform, |(_, bound_sdc)| &bound_sdc.boundary);

    // Pre-flight lint: static semantic analysis over netlist + SPEF + SDC
    // before any solve. Gating: deny diagnostics (or, under --lint=deny,
    // any diagnostic) exit 4 here, before a single transient system is
    // assembled.
    let lint_run = lint_mode.map(|promote| {
        if observe {
            rec.enable(); // capture the lint.run span + rule counters
        }
        let input = nsta_lint::LintInput {
            design: sta.design(),
            library: sta.library(),
            couplings: &bound.specs,
            boundary,
            spef: Some(&parsed),
            sdc: sdc_input.as_ref().map(|(sdc, _)| sdc),
        };
        let report = nsta_lint::run_lint(&input, &nsta_lint::LintConfig::new());
        if observe {
            rec.disable();
        }
        print!("{}", report.render_human());
        if report.fails(promote) {
            eprintln!(
                "spefbus: pre-flight lint failed at {} level; not running analysis",
                if promote { "deny" } else { "warn" }
            );
            std::process::exit(4);
        }
        (promote, report)
    });

    // The measured analysis: windows + cone-scoped fixed point.
    let t = Instant::now();
    let analysis = sta
        .analyze_with_crosstalk_windows(boundary, &bound.specs, &opts)
        .expect("windowed analysis");
    let analysis_time = t.elapsed();
    let diag = &analysis.diagnostics;
    // A capped fixed point that never settled is a result quality issue,
    // not just a statistic: say so loudly.
    if !diag.converged {
        eprintln!(
            "warning: windowed fixed point hit the iteration cap without converging \
             (final window delta {:.3} ps after {} iteration(s))",
            diag.final_window_delta().unwrap_or(f64::NAN) * 1e12,
            diag.iterations.len(),
        );
    }
    // Gate failures collected here keep the JSON artifact off disk.
    let mut failures: Vec<String> = Vec::new();

    // Observability A/B: repeat the measured analysis with the recorder
    // live. Recording must not perturb the analysis (bit parity) and must
    // stay inside the overhead budget: ≤5% over the measured run, with a
    // 10 ms absolute floor so a few-millisecond CI run is not failed on
    // scheduler noise.
    let obs_run = observe.then(|| {
        rec.enable();
        let t = Instant::now();
        let instrumented = sta
            .analyze_with_crosstalk_windows(boundary, &bound.specs, &opts)
            .expect("instrumented analysis");
        let instrumented_time = t.elapsed();
        rec.disable();
        let bit_identical = instrumented.report == analysis.report
            && instrumented.adjustments == analysis.adjustments;
        if !bit_identical {
            failures.push("instrumented report differs from the uninstrumented report".into());
        }
        let ratio = instrumented_time.as_secs_f64() / analysis_time.as_secs_f64().max(1e-12);
        let budget_ok = ratio <= 1.05
            || instrumented_time.saturating_sub(analysis_time) <= Duration::from_millis(10);
        if !budget_ok {
            failures.push(format!(
                "instrumentation overhead {:.1}% exceeds the 5% budget \
                 ({instrumented_time:.2?} instrumented vs {analysis_time:.2?} baseline)",
                (ratio - 1.0) * 100.0
            ));
        }
        (instrumented_time, ratio, budget_ok, bit_identical)
    });

    // Incremental ECO session: a long-lived TimingSession absorbing a
    // deterministic edit stream. Each edit re-solves only the cones its
    // coupling specs reach; the speedup over `full_time` is what the
    // retained-state machinery buys and is gated in CI. The stream's
    // PRNG seed is fixed, so a run is reproducible bit-for-bit.
    let eco_run = eco_edits.map(|edits| {
        let session_opts = SessionOptions {
            si: opts.clone(),
            // Shadow-audit cadence: at least one mid-stream audit on any
            // nontrivial run, plus the explicit final audit below.
            audit_every_n: Some(8),
        };
        let t = Instant::now();
        let mut session = TimingSession::open(
            sta.clone(),
            parsed.clone(),
            BindOptions::default(),
            BoundaryConditions::uniform(&c),
            session_opts,
        )
        .unwrap_or_else(|e| {
            eprintln!("spefbus: cannot open the timing session: {e}");
            std::process::exit(2);
        });
        let open_time = t.elapsed();
        let mut rng = nsta_obs::XorShift64::new(1);
        let mut edit_times: Vec<Duration> = Vec::new();
        let mut kind_times: Vec<(&'static str, Vec<Duration>)> =
            ["set_load", "set_drive_resistance", "reannotate_net"]
                .into_iter()
                .map(|kind| (kind, Vec::new()))
                .collect();
        let mut committed = 0usize;
        let mut dirty_cone_total = 0usize;
        let mut dirty_net_total = 0usize;
        let mut swept_cone_total = 0usize;
        let mut merge_fallbacks = 0usize;
        for i in 0..edits {
            let g = rng.next_below(groups as u64) as usize;
            let edit = match i % 3 {
                0 => Edit::SetLoad {
                    port: format!("y{g}"),
                    farads: (5 + rng.next_below(50)) as f64 * 1e-15,
                },
                1 => Edit::SetDriveResistance {
                    net: format!("v{g}"),
                    ohms: (120 + rng.next_below(240)) as f64,
                },
                _ => {
                    // Re-extract the victim wire with caps scaled by a
                    // deterministic factor in [0.85, 1.15): the ECO that
                    // changes the mesh itself, forcing a rebind.
                    let mut dnet = session
                        .spef()
                        .net(&format!("v{g}"))
                        .expect("victim D_NET exists")
                        .clone();
                    let scale = 0.85 + 0.3 * (rng.next_below(1000) as f64 / 1000.0);
                    for cap in &mut dnet.caps {
                        cap.value *= scale;
                    }
                    Edit::ReannotateNet { dnet }
                }
            };
            let kind = edit.kind();
            let t = Instant::now();
            let outcome = session.apply(edit);
            let elapsed = t.elapsed();
            edit_times.push(elapsed);
            if let Some((_, times)) = kind_times.iter_mut().find(|(k, _)| *k == kind) {
                times.push(elapsed);
            }
            match outcome {
                EditOutcome::Committed(info) => {
                    committed += 1;
                    dirty_cone_total += info.dirty_cones;
                    dirty_net_total += info.dirty_nets;
                    swept_cone_total += info.swept_cones;
                    merge_fallbacks += info.merge_fallbacks;
                }
                EditOutcome::AuditFailed(f) | EditOutcome::ReadOnly(f) => {
                    eprintln!("spefbus: shadow audit diverged mid-stream: {f}");
                    eprintln!("session quarantined read-only; exiting 6");
                    let _ = std::fs::remove_file(&json_path);
                    std::process::exit(6);
                }
                other => {
                    // The generated stream contains only valid edits: a
                    // rejection or rollback here is a harness bug.
                    failures.push(format!("--eco edit {i} did not commit: {other:?}"));
                }
            }
        }
        // Final shadow audit: the retained incremental state vs a fresh
        // batch analysis. Divergence quarantines the session (exit 6).
        if let Err(f) = session.audit_now() {
            eprintln!("spefbus: final shadow audit failed: {f}");
            eprintln!("session quarantined read-only; exiting 6");
            let _ = std::fs::remove_file(&json_path);
            std::process::exit(6);
        }
        let median = |times: &mut Vec<Duration>| {
            times.sort();
            times.get(times.len() / 2).copied()
        };
        // The denominator of the speedup gate: the median time of
        // from-scratch batch analyses of the exact final session state,
        // every one of which must equal the retained report.
        let mut full_times = Vec::with_capacity(FULL_REANALYSIS_RUNS);
        let mut full_matches = true;
        for _ in 0..FULL_REANALYSIS_RUNS {
            let t = Instant::now();
            let full = sta
                .analyze_with_crosstalk_windows(
                    session.boundary().clone(),
                    session.couplings(),
                    &opts,
                )
                .expect("full reanalysis of the final session state");
            full_times.push(t.elapsed());
            full_matches &= &full.report == session.report();
        }
        if !full_matches {
            failures.push(
                "--eco retained report differs from a from-scratch batch of the same state".into(),
            );
        }
        let full_time = median(&mut full_times).unwrap_or_default();
        let median_edit = median(&mut edit_times).unwrap_or_default();
        let median_edit_by_kind = kind_times
            .into_iter()
            .map(|(kind, mut times)| (kind, median(&mut times)))
            .collect();
        let max_edit = edit_times.last().copied().unwrap_or_default();
        let speedup = full_time.as_secs_f64() / median_edit.as_secs_f64().max(1e-12);
        EcoSummary {
            edits,
            committed,
            open_time,
            median_edit,
            median_edit_by_kind,
            max_edit,
            full_time,
            speedup,
            epoch: session.epoch(),
            dirty_cones_per_edit: dirty_cone_total as f64 / committed.max(1) as f64,
            dirty_nets_per_edit: dirty_net_total as f64 / committed.max(1) as f64,
            swept_cones_per_edit: swept_cone_total as f64 / committed.max(1) as f64,
            merge_fallbacks,
            audits_run: session.audits_run(),
            audit_max_divergence: session.max_audit_divergence(),
        }
    });

    println!(
        "window-filtered: {} pruned aggressor(s), {} iteration(s), converged {}, \
         worst arrival {:.1} ps, {analysis_time:.2?} on {threads} thread(s)",
        analysis.pruned.len(),
        diag.iterations.len(),
        diag.converged,
        analysis.report.worst_arrival() * 1e12,
    );
    println!(
        "shared factors:  {}/{} reduction groups reused a factorization, {} cones, \
         {} backend nnz {}",
        diag.cache_hits,
        diag.cache_hits + diag.cache_misses,
        diag.cones,
        diag.solver_backend.name(),
        diag.solver_nnz,
    );
    if let Some((_, bound_sdc)) = &sdc_input {
        let slack = analysis.report.worst_slack();
        println!(
            "sdc:             clock {:.1} ns, worst slack {}, {} false path(s)",
            bound_sdc.clock_period().unwrap_or(f64::NAN) * 1e9,
            if slack.is_finite() {
                format!("{:.1} ps", slack * 1e12)
            } else {
                "unconstrained".into()
            },
            bound_sdc.boundary.false_paths().len(),
        );
    }
    if let Some((instrumented_time, ratio, _, _)) = &obs_run {
        println!(
            "instrumented:    bit-identical result, {instrumented_time:.2?} \
             ({:+.1}% vs {analysis_time:.2?} uninstrumented, {} trace event(s))",
            (ratio - 1.0) * 100.0,
            rec.event_count(),
        );
    }
    if let Some(eco) = &eco_run {
        println!(
            "eco session:     {} edit(s) ({} committed, epoch {}), median {:.2?}/edit vs \
             {:.2?} median full reanalysis of {FULL_REANALYSIS_RUNS} ({:.1}x), \
             {} audit(s) max div {:.3e} ps",
            eco.edits,
            eco.committed,
            eco.epoch,
            eco.median_edit,
            eco.full_time,
            eco.speedup,
            eco.audits_run,
            eco.audit_max_divergence * 1e12,
        );
    }

    // The gates keep the artifact off disk: a broken run must not leave a
    // green-looking JSON behind for CI to upload.
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("gate failure: {f}");
        }
        let _ = std::fs::remove_file(&json_path);
        eprintln!("gates failed; not writing {json_path}");
        std::process::exit(1);
    }

    // Milliseconds rounded to 3 decimals: raw f64 arithmetic renders
    // artifacts like 0.014372999999999999, which makes committed/archived
    // reports needlessly diff-noisy at sub-nanosecond precision nobody
    // reads.
    let ms = |d: Duration| Json::Num((d.as_secs_f64() * 1e6).round() / 1e3);
    let report = Json::obj([
        ("bench", Json::str("spefbus")),
        ("groups", Json::from(groups)),
        ("threads", Json::from(threads)),
        ("segments", Json::from(segments)),
        (
            "phases_ms",
            Json::obj([
                ("characterize", ms(characterize_time)),
                ("spef_parse", ms(parse_time)),
                ("bind", ms(bind_time)),
                ("windowed_incremental", ms(analysis_time)),
            ]),
        ),
        (
            "solver",
            Json::obj([
                ("backend", Json::str(diag.solver_backend.name())),
                ("nnz", Json::from(diag.solver_nnz)),
            ]),
        ),
        (
            "cache",
            Json::obj([
                ("hits", Json::from(diag.cache_hits)),
                ("misses", Json::from(diag.cache_misses)),
                (
                    "hit_rate",
                    match diag.cache_hits + diag.cache_misses {
                        0 => Json::Null,
                        total => {
                            Json::Num((1e3 * diag.cache_hits as f64 / total as f64).round() / 1e3)
                        }
                    },
                ),
                ("cones", Json::from(diag.cones)),
            ]),
        ),
        (
            "windowed",
            Json::obj([
                ("iterations", Json::from(diag.iterations.len())),
                ("pruned_aggressors", Json::from(analysis.pruned.len())),
                ("converged", Json::from(diag.converged)),
                (
                    "convergence_actions",
                    Json::from(diag.convergence_actions.len()),
                ),
                (
                    "final_window_delta_ps",
                    diag.final_window_delta()
                        .map_or(Json::Null, |d| Json::Num(d * 1e12)),
                ),
                (
                    "worst_arrival_ps",
                    Json::Num(analysis.report.worst_arrival() * 1e12),
                ),
                // The convergence trace: one record per executed
                // fixed-point pass, straight from SiDiagnostics.
                (
                    "convergence",
                    Json::Arr(
                        diag.iterations
                            .iter()
                            .map(|it| {
                                Json::obj([
                                    ("victims_recomputed", Json::from(it.victims_recomputed)),
                                    ("victims_cached", Json::from(it.victims_cached)),
                                    ("aggressors_pruned", Json::from(it.aggressors_pruned)),
                                    ("max_window_delta_ps", Json::Num(it.max_window_delta * 1e12)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "sdc",
            match &sdc_input {
                Some((_, bound_sdc)) => Json::obj([
                    ("path", Json::str(sdc_path.as_deref().unwrap_or(""))),
                    ("analysis_ms", ms(analysis_time)),
                    (
                        "clock_period_ns",
                        bound_sdc
                            .clock_period()
                            .map_or(Json::Null, |p| Json::Num(p * 1e9)),
                    ),
                    ("iterations", Json::from(diag.iterations.len())),
                    ("pruned_aggressors", Json::from(analysis.pruned.len())),
                    (
                        "worst_arrival_ps",
                        Json::Num(analysis.report.worst_arrival() * 1e12),
                    ),
                    (
                        "worst_slack_ps",
                        if analysis.report.worst_slack().is_finite() {
                            Json::Num(analysis.report.worst_slack() * 1e12)
                        } else {
                            Json::Null
                        },
                    ),
                    (
                        "false_paths",
                        Json::from(bound_sdc.boundary.false_paths().len()),
                    ),
                ]),
                None => Json::Null,
            },
        ),
        (
            "lint",
            match &lint_run {
                // A failing lint never reaches this point (exit 4 above),
                // so an archived section always describes a passing run.
                Some((promote, lr)) => Json::obj([
                    ("mode", Json::str(if *promote { "deny" } else { "warn" })),
                    ("rules_run", Json::from(lr.rules_run)),
                    ("warnings", Json::from(lr.warn_count())),
                    ("denials", Json::from(lr.deny_count())),
                    ("clean", Json::from(lr.is_clean())),
                    (
                        "diagnostics",
                        Json::Arr(
                            lr.diagnostics
                                .iter()
                                .map(|d| {
                                    Json::obj([
                                        ("rule_id", Json::str(d.rule_id)),
                                        ("severity", Json::str(d.severity.as_str())),
                                        ("subject", Json::str(d.subject.as_str())),
                                        ("message", Json::str(d.message.as_str())),
                                        ("suggestion", Json::str(d.suggestion.as_str())),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
                None => Json::Null,
            },
        ),
        // Peak-footprint telemetry: process high-water mark plus the
        // largest single factored system.
        (
            "memory",
            Json::obj([
                (
                    "peak_rss_bytes",
                    peak_rss_bytes().map_or(Json::Null, |b| Json::from(b as usize)),
                ),
                ("max_factored_nnz", Json::from(diag.solver_nnz)),
            ]),
        ),
        (
            "obs",
            match &obs_run {
                // A budget/parity failure never reaches this point (the
                // run exits nonzero above), so these flags archive the
                // gate as passed — CI re-asserts them anyway.
                Some((instrumented_time, ratio, budget_ok, bit_identical)) => Json::obj([
                    ("instrumented_ms", ms(*instrumented_time)),
                    ("baseline_ms", ms(analysis_time)),
                    ("overhead_ratio", Json::Num((ratio * 1e4).round() / 1e4)),
                    ("overhead_budget_ok", Json::from(*budget_ok)),
                    ("bit_identical", Json::from(*bit_identical)),
                    ("trace_events", Json::from(rec.event_count())),
                ]),
                None => Json::Null,
            },
        ),
        // Incremental ECO session outcome. The audit flag archives a gate
        // that already passed (a failed audit exits 6 without writing
        // JSON); CI re-asserts it and gates on the speedup.
        (
            "eco",
            match &eco_run {
                Some(eco) => Json::obj([
                    ("edits", Json::from(eco.edits)),
                    ("committed", Json::from(eco.committed)),
                    ("epoch", Json::from(eco.epoch as usize)),
                    ("open_ms", ms(eco.open_time)),
                    ("median_edit_ms", ms(eco.median_edit)),
                    (
                        "median_edit_ms_by_kind",
                        Json::obj(
                            eco.median_edit_by_kind
                                .iter()
                                .map(|&(kind, median)| (kind, median.map_or(Json::Null, ms))),
                        ),
                    ),
                    ("max_edit_ms", ms(eco.max_edit)),
                    ("full_reanalysis_ms", ms(eco.full_time)),
                    ("full_reanalysis_runs", Json::from(FULL_REANALYSIS_RUNS)),
                    ("speedup", Json::Num((eco.speedup * 1e2).round() / 1e2)),
                    (
                        "dirty_cones_per_edit",
                        Json::Num((eco.dirty_cones_per_edit * 1e2).round() / 1e2),
                    ),
                    (
                        "dirty_nets_per_edit",
                        Json::Num((eco.dirty_nets_per_edit * 1e2).round() / 1e2),
                    ),
                    (
                        "swept_cones_per_edit",
                        Json::Num((eco.swept_cones_per_edit * 1e2).round() / 1e2),
                    ),
                    ("merge_fallbacks", Json::from(eco.merge_fallbacks)),
                    (
                        "audit",
                        Json::obj([
                            ("runs", Json::from(eco.audits_run as usize)),
                            ("parity", Json::from(true)),
                            (
                                "max_divergence_ps",
                                Json::Num(eco.audit_max_divergence * 1e12),
                            ),
                        ]),
                    ),
                ]),
                None => Json::Null,
            },
        ),
        // The flat counter/gauge snapshot of the --trace run, keys
        // sorted. Dynamic keys, so this builds Json::Obj directly instead
        // of going through Json::obj's static-str convenience.
        (
            "metrics",
            if observe {
                Json::Obj(
                    rec.metrics()
                        .values
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                )
            } else {
                Json::Null
            },
        ),
    ]);
    write_atomic(&json_path, &(report.render() + "\n"));
    println!("wrote {json_path}");
    if let Some(tp) = &trace_path {
        // pid 1: one analysis process per trace. Worker threads appear
        // as distinct tids in first-use order.
        write_atomic(tp, &rec.chrome_trace(1));
        println!("wrote {tp} ({} event(s))", rec.event_count());
    }
}
