//! SPEF-driven STA workload: a synthetic coupled bus pushed through the
//! full parse → bind → window-filter → crosstalk pipeline.
//!
//! Generates `--groups` independent victim/aggressor groups. Group `i`'s
//! far aggressor sits behind a chain of `2i + 1` inverters, so early
//! groups keep both aggressors inside the victim's switching window while
//! later groups get their far aggressor pruned — exercising both branches
//! of the temporal-correlation filter at scale. The run reports binding
//! statistics, pruning counts, fixed-point iterations and wall-clock time
//! across four analysis configurations: windowed-incremental (the default
//! flow), windowed with a forced full recompute per iteration (isolates the
//! incremental fixed point's benefit), windowed on a worker pool (when
//! `--threads > 1`; results are asserted bit-identical to 1-thread), and
//! unfiltered.
//!
//! With `--sdc FILE` the run additionally binds an SDC constraint set
//! onto the design and repeats the windowed analysis under the resulting
//! per-pin boundary conditions, reporting how the constraint-driven
//! arrival windows change aggressor pruning (the `pruning_delta` field)
//! and the worst slack against the declared clock.
//!
//! The JSON `cache` section reports how many victim reductions shared a
//! factorization within the windowed analysis (the near-clone
//! far-aggressor groups share LU factors) and the cone partition size.
//!
//! Alongside the text report it writes a machine-readable JSON summary
//! (default `BENCH_spefbus.json`) so CI can archive the perf trajectory
//! per PR. The in-binary parity checks (threaded ≡ sequential,
//! incremental ≡ full recompute) gate that artifact:
//! on a parity failure the run deletes any stale JSON at the target path
//! and exits nonzero **without** writing a new one, so CI cannot upload a
//! green-looking report from a broken run.
//!
//! The transient kernel runs on the sparse structure-exploiting backend by
//! default; `--dense-solver` switches the whole run to the dense
//! partial-pivoting baseline, and the default run performs a dense A/B of
//! the windowed analysis, asserting the worst arrival matches within
//! 1e-6 ps (the `solver` JSON section records backend, mesh nnz and the
//! parity flag). `--segments N` scales every victim wire's extraction to
//! N RC segments (same totals), growing the per-victim mesh — the axis on
//! which the sparse backend's asymptotic advantage shows.
//!
//! Observability: `--trace FILE` re-runs the windowed analysis with the
//! `nsta-obs` recorder enabled and writes a Chrome trace-event JSON
//! (loadable in Perfetto / `chrome://tracing`) with per-phase, per-cone
//! and per-iteration spans; `--metrics` merges the flat counter/gauge
//! snapshot into the JSON report as a `metrics` section. Either flag also
//! arms the observability gates: the instrumented run must be
//! bit-identical to the uninstrumented one and its windowed-phase time
//! within the 5% overhead budget (with a 10 ms absolute floor so a few-ms
//! CI run is not failed on scheduler noise) — both recorded in the `obs`
//! JSON section and enforced like every other parity check.
//!
//! A capped fixed point is not silent: non-convergence prints a warning
//! with the final window delta, and `--strict-converge` turns it into
//! exit code 3. The JSON artifact and the trace are written to a temp
//! file and atomically renamed into place (and any pre-existing artifact
//! is removed up front), so a panic mid-analysis cannot leave a stale or
//! partial report from a prior run on disk.
//!
//! Fault injection: `--inject SPEC` (with `--inject-seed N`) repeats the
//! windowed analysis with deterministic faults forced into named pipeline
//! sites — `pivot-loss`, `nan-solve`, `worker-panic`, comma-separated,
//! each optionally `name:count` — under `FaultPolicy::Isolate`. The run
//! must recover every injected fault through the degradation machinery
//! (dense retry, halved timestep, cone retry) and land within the 1e-6 ps
//! parity tolerance of the clean run; the `faults` JSON section records
//! the injected/recovered counts, per-site fire counts, degrade events
//! and the parity delta, and any shortfall is a parity failure (exit 1).
//! The clean analyses are never run with injection armed, so all
//! non-`faults` sections stay bit-identical to an uninjected run.
//!
//! Pre-flight lint: `--lint` runs the `nsta-lint` rule registry over the
//! bound design + SPEF + SDC before any solve and prints the diagnostics;
//! `--lint=deny` additionally promotes warnings, so *any* diagnostic fails
//! the run with exit code 4. Linting is strictly read-only — the timing
//! sections of a `--lint` run are bit-identical to a run without it — and
//! the report lands in the JSON artifact as a `lint` section CI validates.
//!
//! Resource governance: `--deadline-ms N` repeats the windowed analysis
//! under a wall-clock deadline with cooperative cancellation: on expiry
//! the current iteration finishes, remaining cones are skipped, and the
//! partial result is marked `timed_out` with per-net staleness. A generous deadline must complete
//! and be bit-identical to the production run (parity-gated); an expired
//! one is reported as degraded operation, not a failure — unless
//! `--strict-deadline` promotes it to exit code 5. The `memory` and
//! `governance` JSON sections archive peak RSS, the largest factored
//! system, deadline outcome and convergence-governor interventions for
//! CI.
//!
//! Incremental ECO sessions: `--eco N` opens a long-lived
//! `nsta_session::TimingSession` over the same design and absorbs a
//! deterministic stream of N transactional edits (output-load changes,
//! driver-resistance changes, single-net re-annotations, cycled over the
//! groups by a seeded PRNG), each incrementally re-solving only the
//! dirtied coupling clusters. The run then (a) forces one rollback by
//! applying an edit under an already-expired fake deadline and asserts
//! the session stays serviceable, (b) shadow-audits the final state
//! against a from-scratch batch analysis — a divergence quarantines the
//! session and exits 6 — and (c) with `--eco-replay` rebuilds a fresh
//! session from the journal and asserts bit-identity (a mismatch is a
//! parity failure, exit 1). The `eco` JSON section archives per-edit
//! latency, the full-reanalysis latency, their ratio (the incremental
//! speedup CI gates on) and audit/rollback/replay outcomes.
//!
//! Usage: `spefbus [--groups N] [--threads N] [--segments N] [--sdc FILE]
//! [--json PATH] [--trace FILE] [--metrics] [--lint[=deny]]
//! [--strict-converge] [--deadline-ms N] [--strict-deadline]
//! [--dense-solver] [--inject SPEC] [--inject-seed N] [--eco N]
//! [--eco-replay]`

use nsta_bench::busgen::{netlist, spef};
use nsta_bench::json::Json;
use nsta_bench::microbench;
use nsta_constraints::{bind_sdc, parse_sdc};
use nsta_liberty::characterize::{inverter_family, Options};
use nsta_parasitics::{bind_couplings, parse_spef, write_spef, BindOptions};
use nsta_session::{Edit, EditOutcome, SessionOptions, TimingSession};
use nsta_spice::Process;
use nsta_sta::{
    verilog, BoundaryConditions, Constraints, Deadline, DegradeAction, FakeClock, FaultPolicy,
    SiOptions, SolverBackend, Sta,
};
use std::time::{Duration, Instant};

const USAGE: &str = "usage: spefbus [--groups N] [--threads N] [--segments N] \
[--sdc FILE] [--json PATH] [--trace FILE] [--metrics] [--lint[=deny]] \
[--strict-converge] [--deadline-ms N] [--strict-deadline] [--dense-solver] \
[--inject SPEC] [--inject-seed N] [--eco N] [--eco-replay] [--help]";

const HELP: &str = "SPEF-driven crosstalk STA workload with built-in parity gates.

flags:
  --groups N          victim/aggressor groups to generate (default 8)
  --threads N         worker threads for the pooled runs (default 1)
  --segments N        RC segments per victim wire (default 3)
  --sdc FILE          bind an SDC constraint set and repeat the analysis
  --json PATH         JSON report path (default BENCH_spefbus.json)
  --trace FILE        write a Chrome trace of an instrumented re-run
  --metrics           merge the counter snapshot into the JSON report
  --lint              pre-flight lint the design + SPEF + SDC before any
                      solve; deny-level diagnostics exit 4
  --lint=deny         as --lint, but promote warnings: any diagnostic
                      at all exits 4
  --strict-converge   treat fixed-point non-convergence as fatal (exit 3)
  --deadline-ms N     repeat the windowed analysis under an N ms
                      wall-clock deadline with cooperative cancellation;
                      an in-budget run must be bit-identical to the
                      production run, an expired one yields a partial
                      result marked timed_out with per-net staleness
  --strict-deadline   treat a --deadline-ms expiry as fatal (exit 5)
  --dense-solver      use the dense partial-pivot transient backend
  --inject SPEC       force deterministic faults into a recovery run:
                      comma-separated site names (pivot-loss, nan-solve,
                      worker-panic), each optionally name:count
  --inject-seed N     PRNG seed for fault placement (default 1)
  --eco N             open an incremental timing session and stream N
                      deterministic transactional edits through it
                      (seeded by --inject-seed); each edit re-solves
                      only the dirtied coupling clusters, a forced
                      rollback must leave the session serviceable, and
                      the final state is shadow-audited against a
                      from-scratch batch analysis (divergence exits 6)
  --eco-replay        after --eco, rebuild a fresh session from the edit
                      journal and assert bit-identity with the live
                      session (a mismatch is a parity failure, exit 1)
  --help, -h          print this help and exit

exit codes:
  0   success: all parity gates passed, artifacts written
  1   parity-gate failure (stale JSON deleted, no new JSON written)
  2   usage or input error (unknown flag, bad value, unreadable --sdc,
      malformed --inject spec)
  3   fixed point failed to converge under --strict-converge
  4   pre-flight lint failed (deny diagnostics, or any diagnostic
      under --lint=deny); no analysis was run, no JSON written
  5   --deadline-ms expired under --strict-deadline (partial result
      discarded, no JSON written)
  6   --eco shadow audit failed: the incremental session diverged from
      the batch reference; the session was quarantined read-only and no
      JSON was written";

/// Stable wire names for degrade actions in the JSON report.
fn action_name(a: DegradeAction) -> &'static str {
    match a {
        DegradeAction::DenseRetry => "dense-retry",
        DegradeAction::HalvedTimestep => "halved-timestep",
        DegradeAction::ConeRetry => "cone-retry",
        DegradeAction::VictimDropped => "victim-dropped",
        DegradeAction::DeadlineSkipped => "deadline-skipped",
    }
}

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

/// A path-valued flag's operand: missing is a usage error (exit 2), never
/// a silent fallback to the default.
fn string_flag(name: &str, value: Option<String>) -> String {
    value.unwrap_or_else(|| {
        eprintln!("spefbus: missing value for {name}");
        eprintln!("{USAGE}");
        std::process::exit(2);
    })
}

/// Parses a numeric flag value strictly: a missing or unparsable value is
/// a usage error (exit 2), never a silent fallback to the default.
fn numeric_flag(name: &str, value: Option<String>) -> usize {
    match value.as_deref().map(str::parse) {
        Some(Ok(v)) => v,
        Some(Err(_)) => {
            eprintln!(
                "spefbus: invalid value {:?} for {name} (expected a non-negative integer)",
                value.unwrap_or_default()
            );
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
        None => {
            eprintln!("spefbus: missing value for {name}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}

/// Everything the `--eco` session run archives into the JSON report.
struct EcoSummary {
    edits: usize,
    committed: usize,
    open_time: Duration,
    median_edit: Duration,
    max_edit: Duration,
    full_time: Duration,
    speedup: f64,
    epoch: u64,
    dirty_nets_per_edit: f64,
    audits_run: u64,
    audit_max_divergence: f64,
    forced_rollback: bool,
    serviceable_after_rollback: bool,
    replay: Option<(bool, Duration)>,
}

fn main() {
    let mut groups = 8usize;
    let mut threads = 1usize;
    let mut segments = 3usize;
    let mut sdc_path: Option<String> = None;
    let mut json_path = String::from("BENCH_spefbus.json");
    let mut trace_path: Option<String> = None;
    let mut metrics = false;
    // None: no lint. Some(false): lint, gate on deny diagnostics.
    // Some(true): lint, gate on any diagnostic (--lint=deny).
    let mut lint_mode: Option<bool> = None;
    let mut strict_converge = false;
    let mut deadline_ms: Option<usize> = None;
    let mut strict_deadline = false;
    let mut backend = SolverBackend::Sparse;
    let mut inject_spec: Option<String> = None;
    let mut inject_seed = 1u64;
    let mut eco_edits: Option<usize> = None;
    let mut eco_replay = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--groups" => groups = numeric_flag("--groups", args.next()),
            "--threads" => threads = numeric_flag("--threads", args.next()),
            "--segments" => segments = numeric_flag("--segments", args.next()).max(1),
            "--sdc" => sdc_path = Some(string_flag("--sdc", args.next())),
            "--json" => json_path = string_flag("--json", args.next()),
            "--trace" => trace_path = Some(string_flag("--trace", args.next())),
            "--metrics" => metrics = true,
            "--lint" => lint_mode = Some(false),
            "--lint=deny" => lint_mode = Some(true),
            "--strict-converge" => strict_converge = true,
            "--deadline-ms" => deadline_ms = Some(numeric_flag("--deadline-ms", args.next())),
            "--strict-deadline" => strict_deadline = true,
            "--dense-solver" => backend = SolverBackend::Dense,
            "--inject" => {
                let spec = string_flag("--inject", args.next());
                // Validate up front: a typo'd site name is a usage error
                // (exit 2) before any analysis runs, not a silent no-op
                // discovered when the faults gate reports zero fires.
                if let Err(e) = nsta_obs::fault::parse_spec(&spec) {
                    eprintln!("spefbus: invalid --inject spec {spec:?}: {e}");
                    eprintln!("{USAGE}");
                    std::process::exit(2);
                }
                inject_spec = Some(spec);
            }
            "--inject-seed" => inject_seed = numeric_flag("--inject-seed", args.next()) as u64,
            "--eco" => eco_edits = Some(numeric_flag("--eco", args.next())),
            "--eco-replay" => eco_replay = true,
            "--help" | "-h" => {
                println!("{USAGE}\n\n{HELP}");
                std::process::exit(0);
            }
            other => {
                eprintln!("spefbus: unknown flag {other:?}");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
    }
    let threads = threads.max(1);
    if eco_replay && eco_edits.is_none() {
        eprintln!("spefbus: --eco-replay requires --eco N");
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    // Artifacts from a previous run come off disk before any analysis: a
    // panic below must not leave a stale green-looking report behind (the
    // new artifacts are written atomically at the end).
    let _ = std::fs::remove_file(&json_path);
    if let Some(tp) = &trace_path {
        let _ = std::fs::remove_file(tp);
    }
    // Observability: parse/bind spans record up front; the analysis spans
    // come from a dedicated instrumented re-run after the uninstrumented
    // baselines (so the overhead budget is measured against clean runs).
    let observe = trace_path.is_some() || metrics;
    let rec = nsta_obs::recorder();
    if observe {
        rec.enable();
    }
    // Every analysis below starts from this base so one flag switches the
    // whole run between the sparse and dense transient backends.
    let base_opts = SiOptions {
        backend,
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
        // Baselines below must run uninstrumented: they are the reference
        // side of the bit-parity and overhead-budget gates.
        rec.disable();
    }

    let sta = Sta::new(design, lib).expect("sta");
    let c = Constraints::default();

    // SDC read/parse/bind happens ahead of every analysis so the
    // pre-flight lint sees the file-level constraints too; the
    // constrained analysis itself still runs (and is timed) later.
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

    // Pre-flight lint: static semantic analysis over netlist + SPEF + SDC
    // before any solve. Strictly read-only — a linted run's timing
    // sections are bit-identical to an unlinted one — and gating: deny
    // diagnostics (or, under --lint=deny, any diagnostic) exit 4 here,
    // before a single transient system is assembled.
    let lint_run = lint_mode.map(|promote| {
        if observe {
            rec.enable(); // capture the lint.run span + rule counters
        }
        let uniform = BoundaryConditions::uniform(&c);
        let boundary = sdc_input
            .as_ref()
            .map_or(&uniform, |(_, bound_sdc)| &bound_sdc.boundary);
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

    // The production flow: windows + incremental fixed point, 1 thread.
    let t = Instant::now();
    let filtered = sta
        .analyze_with_crosstalk_windows(c, &bound.specs, &base_opts)
        .expect("windowed analysis");
    let filtered_time = t.elapsed();
    // A capped fixed point that never settled is a result quality issue,
    // not just a statistic: say so loudly, and under --strict-converge
    // refuse to bless the run at all.
    if !filtered.converged() {
        eprintln!(
            "warning: windowed fixed point hit the iteration cap without converging \
             (final window delta {:.3} ps after {} iteration(s))",
            filtered
                .diagnostics
                .final_window_delta()
                .unwrap_or(f64::NAN)
                * 1e12,
            filtered.iterations(),
        );
        if strict_converge {
            eprintln!("--strict-converge: treating non-convergence as fatal");
            std::process::exit(3);
        }
    }
    // Same analysis with the victim cache disabled: every fixed-point
    // iteration re-simulates every victim. The gap to `filtered_time` is
    // what the incremental fixed point buys.
    let t = Instant::now();
    let full_recompute = sta
        .analyze_with_crosstalk_windows(
            c,
            &bound.specs,
            &SiOptions {
                incremental: false,
                ..base_opts.clone()
            },
        )
        .expect("full-recompute analysis");
    let full_recompute_time = t.elapsed();
    // Parity failures collected here gate the JSON artifact at the end.
    let mut parity_failures: Vec<String> = Vec::new();
    // Worker-pool run (skipped at --threads 1); must be bit-identical.
    let threaded_time = (threads > 1).then(|| {
        let t = Instant::now();
        let threaded = sta
            .analyze_with_crosstalk_windows(
                c,
                &bound.specs,
                &SiOptions {
                    threads,
                    ..base_opts.clone()
                },
            )
            .expect("threaded analysis");
        (t.elapsed(), threaded)
    });
    let threaded_time = threaded_time.map(|(elapsed, threaded)| {
        if threaded.report != filtered.report {
            parity_failures.push("threaded report differs from the 1-thread report".into());
        }
        if threaded.adjustments != filtered.adjustments {
            parity_failures
                .push("threaded adjustments differ from the 1-thread adjustments".into());
        }
        elapsed
    });
    // Sparse-vs-dense backend A/B (skipped when the whole run is already
    // dense): both backends integrate the identical trapezoidal systems,
    // so worst arrivals must agree to solver round-off. The wall-clock gap
    // is the sparse backend's payoff, growing with --segments.
    const DENSE_PARITY_TOL: f64 = 1e-18; // 1e-6 ps
    let dense_run = (backend == SolverBackend::Sparse).then(|| {
        let t = Instant::now();
        let dense = sta
            .analyze_with_crosstalk_windows(
                c,
                &bound.specs,
                &SiOptions {
                    backend: SolverBackend::Dense,
                    ..base_opts.clone()
                },
            )
            .expect("dense-backend analysis");
        let elapsed = t.elapsed();
        let (ws, wd) = (
            filtered.report.worst_arrival(),
            dense.report.worst_arrival(),
        );
        // Exact equality first: an empty design reports −inf on both
        // backends, and `−inf − (−inf)` is NaN, not 0.
        let delta = if ws == wd { 0.0 } else { (wd - ws).abs() };
        if !(delta <= DENSE_PARITY_TOL) {
            parity_failures.push(format!(
                "sparse worst arrival differs from dense by {:.3e} ps (tolerance 1e-6 ps)",
                delta * 1e12
            ));
        }
        (elapsed, delta)
    });
    let t = Instant::now();
    let unfiltered = sta
        .analyze_with_crosstalk_windows(
            c,
            &bound.specs,
            &SiOptions {
                use_windows: false,
                ..base_opts.clone()
            },
        )
        .expect("unfiltered analysis");
    let unfiltered_time = t.elapsed();

    // Deadline-governed run: the production analysis repeated under a
    // wall-clock budget with cooperative cancellation. Two acceptable
    // outcomes, both archived in the `governance` JSON section:
    //   * in budget — must be bit-identical to the production run
    //     (deadline polling may never perturb a result), parity-gated;
    //   * expired — a well-formed partial result marked timed_out, with
    //     every skipped victim holding stale nominal timing and listed in
    //     stale_nets(). Degraded operation, not a defect — unless
    //     --strict-deadline promotes it to exit code 5.
    let deadline_run = deadline_ms.map(|budget| {
        let t = Instant::now();
        let analysis = sta
            .analyze_with_crosstalk_windows(
                c,
                &bound.specs,
                &SiOptions {
                    deadline: Some(Deadline::within(Duration::from_millis(budget as u64))),
                    ..base_opts.clone()
                },
            )
            .expect("deadline-governed analysis");
        let elapsed = t.elapsed();
        if analysis.timed_out() {
            eprintln!(
                "warning: --deadline-ms {budget} expired mid-analysis after {} iteration(s); \
                 {} stale net(s) kept nominal timing",
                analysis.iterations(),
                analysis.stale_nets().len(),
            );
            if strict_deadline {
                eprintln!("--strict-deadline: treating the expiry as fatal");
                std::process::exit(5);
            }
        } else {
            if analysis.report != filtered.report {
                parity_failures.push(
                    "deadline-governed report differs from the production report \
                     despite finishing in budget"
                        .into(),
                );
            }
            if analysis.adjustments != filtered.adjustments {
                parity_failures.push(
                    "deadline-governed adjustments differ from the production adjustments \
                     despite finishing in budget"
                        .into(),
                );
            }
        }
        (analysis, elapsed)
    });

    // SDC-constrained run: per-pin arrival windows from a real constraint
    // set (bound up front, before the lint), compared against the
    // uniform-constraint pruning above.
    let sdc_run = sdc_input.as_ref().map(|(_, bound_sdc)| {
        let t = Instant::now();
        let analysis = sta
            .analyze_with_crosstalk_windows(&bound_sdc.boundary, &bound.specs, &base_opts)
            .expect("sdc analysis");
        (analysis, bound_sdc, t.elapsed())
    });
    // Cache reuse is tolerance-based (a victim within `convergence_tol` of
    // its cached key is treated as converged), so the incremental run must
    // match the full recompute to within that tolerance. On THIS fixture
    // the bound is exact: groups are independent (no victim sits downstream
    // of another), so cache keys repeat bit-for-bit across iterations and
    // drift is identically 0 — which makes this assert a cheap tripwire
    // for cache bugs. A future workload with chained victims would make
    // sub-tol drift legitimate; relax the bound if you add one.
    let incremental_drift = filtered
        .report
        .nets()
        .iter()
        .zip(full_recompute.report.nets())
        .flat_map(|(a, b)| [(&a.rise, &b.rise), (&a.fall, &b.fall)])
        .filter_map(|(a, b)| Some((a.as_ref()?.arrival - b.as_ref()?.arrival).abs()))
        .fold(0.0f64, f64::max);
    if incremental_drift > SiOptions::default().convergence_tol {
        parity_failures.push(format!(
            "incremental drift {incremental_drift:e} s exceeds the convergence tolerance"
        ));
    }

    // Observability A/B: repeat the production windowed analysis with the
    // recorder live. Recording must not perturb the analysis (bit
    // parity against the clean baseline) and must stay inside the
    // overhead budget: ≤5% over the matching uninstrumented run, with a
    // 10 ms absolute floor so a few-millisecond CI run is not failed on
    // scheduler noise.
    let obs_run = observe.then(|| {
        rec.enable();
        let t = Instant::now();
        let instrumented = sta
            .analyze_with_crosstalk_windows(
                c,
                &bound.specs,
                &SiOptions {
                    threads,
                    ..base_opts.clone()
                },
            )
            .expect("instrumented analysis");
        let instrumented_time = t.elapsed();
        rec.disable();
        let baseline = if threads > 1 {
            threaded_time.unwrap_or(filtered_time)
        } else {
            filtered_time
        };
        let bit_identical = instrumented.report == filtered.report
            && instrumented.adjustments == filtered.adjustments;
        if !bit_identical {
            parity_failures
                .push("instrumented report differs from the uninstrumented report".into());
        }
        let ratio = instrumented_time.as_secs_f64() / baseline.as_secs_f64().max(1e-12);
        let budget_ok = ratio <= 1.05
            || instrumented_time.saturating_sub(baseline) <= std::time::Duration::from_millis(10);
        if !budget_ok {
            parity_failures.push(format!(
                "instrumentation overhead {:.1}% exceeds the 5% budget \
                 ({instrumented_time:.2?} instrumented vs {baseline:.2?} baseline)",
                (ratio - 1.0) * 100.0
            ));
        }
        (instrumented_time, baseline, ratio, budget_ok, bit_identical)
    });

    // Fault-injection run: deterministic faults forced into named pipeline
    // sites, analyzed under FaultPolicy::Isolate. Recovery is gated like
    // every other parity check: every injected fault must be recovered and
    // the result must land within the dense-parity tolerance of the clean
    // run. Injection is armed only around this one analysis, so every
    // other section of the report stays bit-identical to an uninjected
    // run.
    let faults_run = inject_spec.as_ref().and_then(|spec| {
        // The worker-panic site lives in the cone scheduler's worker
        // closure; containment (versus plain propagation on the inline
        // path) needs an actual pool.
        let inj_threads = if spec.contains("worker-panic") {
            threads.max(2)
        } else {
            threads
        };
        nsta_obs::fault::arm(spec, inject_seed).expect("spec validated at parse time");
        let t = Instant::now();
        let outcome = sta.analyze_with_crosstalk_windows(
            c,
            &bound.specs,
            &SiOptions {
                threads: inj_threads,
                fault_policy: FaultPolicy::Isolate,
                ..base_opts.clone()
            },
        );
        let elapsed = t.elapsed();
        let fired = nsta_obs::fault::fired_counts();
        let injected = nsta_obs::fault::total_fired();
        nsta_obs::fault::disarm();
        match outcome {
            Ok(analysis) => Some((analysis, elapsed, fired, injected)),
            Err(e) => {
                parity_failures.push(format!(
                    "injected run failed outright under FaultPolicy::Isolate: {e}"
                ));
                None
            }
        }
    });
    let faults_summary = faults_run.as_ref().map(|(analysis, _, _, injected)| {
        let dropped = analysis
            .degrade_events()
            .iter()
            .filter(|e| e.action == DegradeAction::VictimDropped)
            .count() as u64;
        let recovered = injected.saturating_sub(dropped);
        let (wc, wi) = (
            filtered.report.worst_arrival(),
            analysis.report.worst_arrival(),
        );
        // Exact equality first: −inf − (−inf) is NaN, not 0.
        let delta = if wc == wi { 0.0 } else { (wi - wc).abs() };
        if *injected == 0 {
            parity_failures.push(
                "--inject armed but no fault fired; raise --groups or change --inject-seed".into(),
            );
        }
        if recovered != *injected {
            parity_failures.push(format!(
                "{injected} fault(s) injected but only {recovered} recovered \
                 ({dropped} victim(s) dropped)"
            ));
        }
        if !(delta <= DENSE_PARITY_TOL) {
            parity_failures.push(format!(
                "fault-recovery worst arrival differs from the clean run by {:.3e} ps \
                 (tolerance 1e-6 ps)",
                delta * 1e12
            ));
        }
        (recovered, delta)
    });

    // Incremental ECO session: a long-lived TimingSession absorbing a
    // deterministic edit stream. Each edit re-solves only the dirtied
    // coupling clusters; the speedup over `full_time` is what the
    // retained-state machinery buys and is gated in CI. The stream is
    // seeded by --inject-seed, so a run is reproducible bit-for-bit.
    let eco_run = eco_edits.map(|edits| {
        let session_opts = SessionOptions {
            si: base_opts.clone(),
            // Shadow-audit cadence: at least one mid-stream audit on any
            // nontrivial run, plus the explicit final audit below.
            audit_every_n: Some(8),
            ..SessionOptions::default()
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
        let mut rng = nsta_obs::fault::XorShift64::new(inject_seed.max(1));
        let mut edit_times: Vec<Duration> = Vec::new();
        let mut committed = 0usize;
        let mut dirty_net_total = 0usize;
        for i in 0..edits {
            let g = rng.next_below(groups.max(1) as u64) as usize;
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
            let t = Instant::now();
            let outcome = session.apply(edit);
            edit_times.push(t.elapsed());
            match outcome {
                EditOutcome::Committed(info) => {
                    committed += 1;
                    dirty_net_total += info.dirty_nets;
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
                    parity_failures.push(format!("--eco edit {i} did not commit: {other:?}"));
                }
            }
        }
        // Forced rollback: an edit under an already-expired fake deadline
        // must roll back to the snapshot and leave the session
        // serviceable — the same edit then commits once the deadline is
        // lifted.
        session.set_edit_deadline(Some(Deadline::on_fake(FakeClock::new(0), 0)));
        let doomed = Edit::SetDriveResistance {
            net: "v0".into(),
            ohms: 222.0,
        };
        let before = session.report().clone();
        let forced = session.apply(doomed.clone());
        let forced_rollback =
            matches!(forced, EditOutcome::RolledBack { .. }) && session.report() == &before;
        if !forced_rollback {
            parity_failures.push(format!(
                "--eco forced-rollback edit did not roll back cleanly: {forced:?}"
            ));
        }
        session.set_edit_deadline(None);
        let serviceable = session.apply(doomed).is_committed();
        if !serviceable {
            parity_failures.push("--eco session not serviceable after the forced rollback".into());
        }
        // Final shadow audit: the retained incremental state vs a fresh
        // batch analysis. Divergence quarantines the session (exit 6).
        if let Err(f) = session.audit_now() {
            eprintln!("spefbus: final shadow audit failed: {f}");
            eprintln!("session quarantined read-only; exiting 6");
            let _ = std::fs::remove_file(&json_path);
            std::process::exit(6);
        }
        // The denominator of the speedup gate: a from-scratch batch
        // analysis of the exact final session state.
        let t = Instant::now();
        let full = sta
            .analyze_with_crosstalk_windows(
                session.boundary().clone(),
                session.couplings(),
                &base_opts,
            )
            .expect("full reanalysis of the final session state");
        let full_time = t.elapsed();
        if &full.report != session.report() {
            parity_failures.push(
                "--eco retained report differs from a from-scratch batch of the same state".into(),
            );
        }
        let replay = eco_replay.then(|| {
            let t = Instant::now();
            match session.replay() {
                Ok(fresh) => {
                    let identical = fresh.report() == session.report();
                    if !identical {
                        parity_failures.push(
                            "--eco-replay: journal replay does not reproduce the live session"
                                .into(),
                        );
                    }
                    (identical, t.elapsed())
                }
                Err(e) => {
                    parity_failures.push(format!("--eco-replay failed: {e}"));
                    (false, t.elapsed())
                }
            }
        });
        let mut sorted = edit_times.clone();
        sorted.sort();
        let median_edit = sorted.get(sorted.len() / 2).copied().unwrap_or_default();
        let max_edit = sorted.last().copied().unwrap_or_default();
        let speedup = full_time.as_secs_f64() / median_edit.as_secs_f64().max(1e-12);
        EcoSummary {
            edits,
            committed,
            open_time,
            median_edit,
            max_edit,
            full_time,
            speedup,
            epoch: session.epoch(),
            dirty_nets_per_edit: dirty_net_total as f64 / committed.max(1) as f64,
            audits_run: session.audits_run(),
            audit_max_divergence: session.max_audit_divergence(),
            forced_rollback,
            serviceable_after_rollback: serviceable,
            replay,
        }
    });

    println!(
        "window-filtered: {} pruned aggressor(s), {} iteration(s), converged {}, \
         worst arrival {:.1} ps, {filtered_time:.2?}",
        filtered.pruned.len(),
        filtered.iterations(),
        filtered.converged(),
        filtered.report.worst_arrival() * 1e12,
    );
    println!(
        "full recompute:  max drift {:.3} ps, no victim cache, {full_recompute_time:.2?} \
         (incremental saves {:.1}%)",
        incremental_drift * 1e12,
        100.0 * (1.0 - filtered_time.as_secs_f64() / full_recompute_time.as_secs_f64().max(1e-12)),
    );
    if let Some(threaded) = threaded_time {
        println!("threads={threads}:       bit-identical result, {threaded:.2?}");
    }
    println!(
        "shared factors:  {}/{} reductions reused a factorization, {} cones",
        filtered.cache_hits(),
        filtered.cache_hits() + filtered.cache_misses(),
        filtered.cones(),
    );
    if let Some((dense_time, delta)) = &dense_run {
        println!(
            "dense solver:    worst arrival matches within {:.3e} ps, {dense_time:.2?} \
             (sparse backend is {:.2}x faster, nnz {})",
            delta * 1e12,
            dense_time.as_secs_f64() / filtered_time.as_secs_f64().max(1e-12),
            filtered.solver_nnz(),
        );
    }
    if let Some((instrumented_time, baseline, ratio, _, _)) = &obs_run {
        println!(
            "instrumented:    bit-identical result, {instrumented_time:.2?} \
             ({:+.1}% vs {baseline:.2?} uninstrumented, {} trace event(s))",
            (ratio - 1.0) * 100.0,
            rec.event_count(),
        );
    }
    println!(
        "unfiltered:      0 pruned aggressor(s), {} iteration(s), worst arrival {:.1} ps, \
         {unfiltered_time:.2?}",
        unfiltered.iterations(),
        unfiltered.report.worst_arrival() * 1e12,
    );
    if let Some((analysis, elapsed)) = &deadline_run {
        println!(
            "deadline:        {} ms budget, timed_out {}, {} stale net(s), \
             worst arrival {:.1} ps, {elapsed:.2?}",
            deadline_ms.unwrap_or(0),
            analysis.timed_out(),
            analysis.stale_nets().len(),
            analysis.report.worst_arrival() * 1e12,
        );
    }
    if let (Some((analysis, elapsed, fired, injected)), Some((recovered, delta))) =
        (&faults_run, &faults_summary)
    {
        let sites: Vec<String> = fired
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(name, n)| format!("{name}x{n}"))
            .collect();
        println!(
            "fault inject:    {injected} fired ({}), {recovered} recovered, \
             {} degrade event(s), parity {:.3e} ps, {elapsed:.2?}",
            sites.join(" "),
            analysis.degrade_events().len(),
            delta * 1e12,
        );
    }
    if let Some(eco) = &eco_run {
        println!(
            "eco session:     {} edit(s) ({} committed, epoch {}), median {:.2?}/edit vs \
             {:.2?} full reanalysis ({:.1}x), {} audit(s) max div {:.3e} ps, \
             rollback {}{}",
            eco.edits,
            eco.committed,
            eco.epoch,
            eco.median_edit,
            eco.full_time,
            eco.speedup,
            eco.audits_run,
            eco.audit_max_divergence * 1e12,
            if eco.forced_rollback && eco.serviceable_after_rollback {
                "clean"
            } else {
                "BROKEN"
            },
            match &eco.replay {
                Some((true, d)) => format!(", replay bit-identical in {d:.2?}"),
                Some((false, _)) => ", replay DIVERGED".into(),
                None => String::new(),
            },
        );
    }
    if let Some((analysis, bound_sdc, elapsed)) = &sdc_run {
        let delta = analysis.pruned.len() as i64 - filtered.pruned.len() as i64;
        let slack = analysis.report.worst_slack();
        println!(
            "sdc-windowed:    {} pruned aggressor(s) ({delta:+} vs uniform), {} iteration(s), \
             clock {:.1} ns, worst slack {}, {elapsed:.2?}",
            analysis.pruned.len(),
            analysis.iterations(),
            bound_sdc.clock_period().unwrap_or(f64::NAN) * 1e9,
            if slack.is_finite() {
                format!("{:.1} ps", slack * 1e12)
            } else {
                "unconstrained".into()
            },
        );
    }

    // Parity gates the artifact: a broken run must not leave a
    // green-looking JSON behind for CI to upload.
    if !parity_failures.is_empty() {
        for f in &parity_failures {
            eprintln!("parity failure: {f}");
        }
        let _ = std::fs::remove_file(&json_path);
        eprintln!("parity checks failed; not writing {json_path}");
        std::process::exit(1);
    }

    // Milliseconds rounded to 3 decimals: raw f64 arithmetic renders
    // artifacts like 0.014372999999999999, which makes committed/archived
    // reports needlessly diff-noisy at sub-nanosecond precision nobody
    // reads.
    let ms = |d: std::time::Duration| Json::Num((d.as_secs_f64() * 1e6).round() / 1e3);
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
                ("windowed_incremental", ms(filtered_time)),
                ("windowed_full_recompute", ms(full_recompute_time)),
                ("windowed_threaded", threaded_time.map_or(Json::Null, ms)),
                (
                    "windowed_dense",
                    dense_run.as_ref().map_or(Json::Null, |&(d, _)| ms(d)),
                ),
                (
                    "windowed_deadline",
                    deadline_run.as_ref().map_or(Json::Null, |(_, e)| ms(*e)),
                ),
                ("unfiltered", ms(unfiltered_time)),
            ]),
        ),
        (
            "solver",
            Json::obj([
                ("backend", Json::str(backend.name())),
                ("nnz", Json::from(filtered.solver_nnz())),
                (
                    "parity_vs_dense",
                    if dense_run.is_some() {
                        // A failed parity check never reaches this point:
                        // the run exits nonzero above without writing JSON.
                        Json::from(true)
                    } else {
                        Json::Null
                    },
                ),
                (
                    "dense_delta_ps",
                    dense_run
                        .as_ref()
                        .map_or(Json::Null, |&(_, d)| Json::Num(d * 1e12)),
                ),
            ]),
        ),
        (
            "cache",
            Json::obj([
                ("hits", Json::from(filtered.cache_hits())),
                ("misses", Json::from(filtered.cache_misses())),
                (
                    "hit_rate",
                    match filtered.cache_hits() + filtered.cache_misses() {
                        0 => Json::Null,
                        total => Json::Num(
                            (1e3 * filtered.cache_hits() as f64 / total as f64).round() / 1e3,
                        ),
                    },
                ),
                ("cones", Json::from(filtered.cones())),
            ]),
        ),
        (
            "windowed",
            Json::obj([
                ("iterations", Json::from(filtered.iterations())),
                ("pruned_aggressors", Json::from(filtered.pruned.len())),
                ("converged", Json::from(filtered.converged())),
                (
                    "final_window_delta_ps",
                    filtered
                        .diagnostics
                        .final_window_delta()
                        .map_or(Json::Null, |d| Json::Num(d * 1e12)),
                ),
                (
                    "worst_arrival_ps",
                    Json::Num(filtered.report.worst_arrival() * 1e12),
                ),
                // The convergence trace: one record per executed
                // fixed-point pass, straight from SiDiagnostics.
                (
                    "convergence",
                    Json::Arr(
                        filtered
                            .diagnostics
                            .iterations
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
            "unfiltered",
            Json::obj([
                ("iterations", Json::from(unfiltered.iterations())),
                (
                    "worst_arrival_ps",
                    Json::Num(unfiltered.report.worst_arrival() * 1e12),
                ),
            ]),
        ),
        (
            "sdc",
            match &sdc_run {
                Some((analysis, bound_sdc, elapsed)) => Json::obj([
                    ("path", Json::str(sdc_path.as_deref().unwrap_or(""))),
                    ("analysis_ms", ms(*elapsed)),
                    (
                        "clock_period_ns",
                        bound_sdc
                            .clock_period()
                            .map_or(Json::Null, |p| Json::Num(p * 1e9)),
                    ),
                    ("iterations", Json::from(analysis.iterations())),
                    ("pruned_aggressors", Json::from(analysis.pruned.len())),
                    (
                        "pruning_delta_vs_uniform",
                        Json::Num(analysis.pruned.len() as f64 - filtered.pruned.len() as f64),
                    ),
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
        (
            "parity",
            Json::obj([
                (
                    "incremental_max_drift_ps",
                    Json::Num(incremental_drift * 1e12),
                ),
                (
                    "threaded_equals_single_thread",
                    if threads > 1 {
                        Json::from(true)
                    } else {
                        Json::Null
                    },
                ),
            ]),
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
                ("max_factored_nnz", Json::from(filtered.solver_nnz())),
            ]),
        ),
        // Resource-governance outcome: deadline disposition and
        // convergence-governor interventions. The parity flags archive
        // gates that already passed (a failed gate exits nonzero above
        // without writing JSON); CI re-asserts them anyway.
        (
            "governance",
            Json::obj([
                ("deadline_ms", deadline_ms.map_or(Json::Null, Json::from)),
                (
                    "timed_out",
                    deadline_run
                        .as_ref()
                        .map_or(Json::Null, |(a, _)| Json::from(a.timed_out())),
                ),
                (
                    "stale_nets",
                    deadline_run
                        .as_ref()
                        .map_or(Json::Null, |(a, _)| Json::from(a.stale_nets().len())),
                ),
                (
                    "deadline_parity",
                    match &deadline_run {
                        // Parity is only asserted for in-budget runs; a
                        // timed-out partial result is not comparable.
                        Some((a, _)) if !a.timed_out() => Json::from(true),
                        _ => Json::Null,
                    },
                ),
                (
                    "convergence_governor",
                    Json::from(base_opts.convergence_governor),
                ),
                (
                    "convergence_actions",
                    Json::from(filtered.convergence_actions().len()),
                ),
            ]),
        ),
        (
            "obs",
            match &obs_run {
                // A budget/parity failure never reaches this point (the
                // run exits nonzero above), so these flags archive the
                // gate as passed — CI re-asserts them anyway.
                Some((instrumented_time, baseline, ratio, budget_ok, bit_identical)) => {
                    Json::obj([
                        ("instrumented_ms", ms(*instrumented_time)),
                        ("baseline_ms", ms(*baseline)),
                        ("overhead_ratio", Json::Num((ratio * 1e4).round() / 1e4)),
                        ("overhead_budget_ok", Json::from(*budget_ok)),
                        ("bit_identical", Json::from(*bit_identical)),
                        ("trace_events", Json::from(rec.event_count())),
                    ])
                }
                None => Json::Null,
            },
        ),
        (
            "faults",
            match (&faults_run, &faults_summary) {
                (Some((analysis, elapsed, fired, injected)), Some((recovered, delta))) => {
                    let design = sta.design();
                    Json::obj([
                        ("spec", Json::str(inject_spec.as_deref().unwrap_or(""))),
                        ("seed", Json::from(inject_seed as usize)),
                        ("policy", Json::str("isolate")),
                        ("injected", Json::from(*injected as usize)),
                        ("recovered", Json::from(*recovered as usize)),
                        (
                            "fired",
                            Json::Obj(
                                fired
                                    .iter()
                                    .map(|(name, n)| (name.to_string(), Json::from(*n as usize)))
                                    .collect(),
                            ),
                        ),
                        (
                            "degraded_nets",
                            Json::Arr(
                                analysis
                                    .diagnostics
                                    .degraded_nets()
                                    .iter()
                                    .map(|&n| Json::str(design.net_name(n)))
                                    .collect(),
                            ),
                        ),
                        (
                            "events",
                            Json::Arr(
                                analysis
                                    .degrade_events()
                                    .iter()
                                    .map(|e| {
                                        Json::obj([
                                            (
                                                "net",
                                                e.net.map_or(Json::Null, |n| {
                                                    Json::str(design.net_name(n))
                                                }),
                                            ),
                                            (
                                                "polarity",
                                                e.polarity.map_or(Json::Null, |p| {
                                                    Json::str(if p.is_rise() {
                                                        "rise"
                                                    } else {
                                                        "fall"
                                                    })
                                                }),
                                            ),
                                            ("action", Json::str(action_name(e.action))),
                                            ("cause", Json::str(e.cause.as_str())),
                                            ("recovered", Json::from(e.recovered)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                        ("parity_delta_ps", Json::Num(delta * 1e12)),
                        ("analysis_ms", ms(*elapsed)),
                    ])
                }
                _ => Json::Null,
            },
        ),
        // Incremental ECO session outcome. The audit/rollback/replay
        // flags archive gates that already passed (a failed audit exits
        // 6 and a replay mismatch exits 1, both without writing JSON);
        // CI re-asserts them and gates on the speedup.
        (
            "eco",
            match &eco_run {
                Some(eco) => Json::obj([
                    ("edits", Json::from(eco.edits)),
                    ("committed", Json::from(eco.committed)),
                    ("epoch", Json::from(eco.epoch as usize)),
                    ("open_ms", ms(eco.open_time)),
                    ("median_edit_ms", ms(eco.median_edit)),
                    ("max_edit_ms", ms(eco.max_edit)),
                    ("full_reanalysis_ms", ms(eco.full_time)),
                    ("speedup", Json::Num((eco.speedup * 1e2).round() / 1e2)),
                    (
                        "dirty_nets_per_edit",
                        Json::Num((eco.dirty_nets_per_edit * 1e2).round() / 1e2),
                    ),
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
                    (
                        "rollback",
                        Json::obj([
                            ("forced", Json::from(eco.forced_rollback)),
                            ("serviceable", Json::from(eco.serviceable_after_rollback)),
                        ]),
                    ),
                    (
                        "replay",
                        match &eco.replay {
                            Some((identical, elapsed)) => Json::obj([
                                ("identical", Json::from(*identical)),
                                ("ms", ms(*elapsed)),
                            ]),
                            None => Json::Null,
                        },
                    ),
                ]),
                None => Json::Null,
            },
        ),
        // The flat counter/gauge snapshot, keys sorted. Dynamic keys, so
        // this builds Json::Obj directly instead of going through
        // Json::obj's static-str convenience.
        (
            "metrics",
            if metrics {
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

    // Per-iteration cost of the production mode, measured properly.
    if groups <= 8 {
        microbench::bench("spefbus/windowed_analysis", || {
            sta.analyze_with_crosstalk_windows(c, &bound.specs, &base_opts)
                .expect("analysis")
        });
    }
}
