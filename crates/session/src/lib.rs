//! Long-lived incremental timing sessions with transactional ECO edits.
//!
//! Production STA is not a batch program: a placement/routing loop holds
//! one design open for hours and streams in single-net engineering change
//! orders (ECOs), expecting each to be re-timed in milliseconds without
//! ever serving an answer that differs from a from-scratch analysis. This
//! crate builds that service layer on top of the `nsta-sta` engine's
//! window-based crosstalk fixed point (Nazarian & Pedram, DATE 2005):
//!
//! * [`TimingSession`] loads netlist + SPEF + boundary conditions once
//!   and retains the converged analysis and its propagation states
//!   across edits.
//! * Every edit ([`Edit::SetLoad`], [`Edit::SetDriveResistance`],
//!   [`Edit::ReannotateNet`]) is a **transaction**: validate → preflight
//!   lint the candidate → incrementally re-solve only the dirtied
//!   coupling clusters → splice into the retained state → commit. *Any*
//!   failure — degenerate mesh, injected fault, non-convergence,
//!   deadline expiry — rolls the session back to the last consistent
//!   snapshot and reports a structured [`EditOutcome`] instead of
//!   leaving a torn state. (Candidate state is built beside the live
//!   state and only swapped in on success, so "rollback" is literally
//!   "don't swap".)
//! * The append-only [`TimingSession::journal`] makes any committed
//!   state deterministically reproducible from the seed inputs:
//!   [`TimingSession::replay`] rebuilds a fresh session and re-applies
//!   the journal, and the result must match bit-for-bit.
//! * Shadow audit ([`SessionOptions::audit_every_n`]): every N commits
//!   the session re-runs the *full batch* analysis and verifies the
//!   incremental state matches within [`SessionOptions::audit_tolerance`]
//!   (default 1e-6 ps), with never-dirtied nets bit-identical. A
//!   divergence is a first-class [`AuditFailure`] that quarantines the
//!   session read-only — wrong timing is never served silently.
//! * Epoch counters: each commit bumps the session epoch and the dirty
//!   cones' epoch counters; analysis results carry their epoch in
//!   `SiDiagnostics::epoch`, so a stale retained report is detectable
//!   with [`TimingSession::is_stale`].

#![forbid(unsafe_code)]

use std::borrow::Cow;
use std::collections::HashSet;
use std::fmt;

use nsta_lint::{run_lint, LintConfig, LintDiagnostic, LintInput, Severity};
use nsta_parasitics::{bind_couplings, BindOptions, BoundCouplings, DNet, SpefError, SpefFile};
use nsta_sta::{
    BoundaryConditions, ConeClusters, CouplingSpec, NetId, OutputBoundary, RetainedAnalysis,
    SiAnalysis, SiDiagnostics, SiOptions, Sta, StaError, TimingReport,
};

/// Lint rules whose *new* appearance in an edit's delta rejects the edit
/// outright, whatever their configured severity: both describe inputs the
/// analysis cannot produce meaningful timing for.
const REJECT_RULES: [&str; 2] = ["net.undriven", "spef.nonpositive-rc"];

/// Configuration of a [`TimingSession`].
#[derive(Debug, Clone)]
pub struct SessionOptions {
    /// Analysis options for the initial load and every incremental
    /// re-solve. `si.deadline` bounds each *edit's* re-solve (expiry
    /// rolls the edit back); the shadow audit always runs undeadlined.
    pub si: SiOptions,
    /// Run the full batch analysis and verify the incremental state
    /// against it after every N commits (`None`: only on
    /// [`TimingSession::audit_now`]).
    pub audit_every_n: Option<usize>,
    /// Preflight-lint the candidate state of every edit and reject edits
    /// that introduce new deny-severity, `net.undriven` or
    /// `spef.nonpositive-rc` diagnostics.
    pub preflight: bool,
    /// Shadow-audit tolerance on arrivals/slews/slacks (seconds).
    /// Default `1e-18` (= 1e-6 ps).
    pub audit_tolerance: f64,
}

impl Default for SessionOptions {
    fn default() -> Self {
        SessionOptions {
            si: SiOptions::default(),
            audit_every_n: None,
            preflight: true,
            audit_tolerance: 1e-18,
        }
    }
}

/// One transactional edit. All variants name nets by design name so a
/// journal is meaningful independent of any session's `NetId` mapping.
#[derive(Debug, Clone, PartialEq)]
pub enum Edit {
    /// Replace the capacitive load on a primary output net (F).
    SetLoad {
        /// Primary output net name.
        port: String,
        /// New load (F, finite and non-negative).
        farads: f64,
    },
    /// Replace the Thevenin driver resistance of a coupled victim (Ω).
    SetDriveResistance {
        /// Victim net name (must have a coupling spec).
        net: String,
        /// New driver resistance (Ω, finite and positive).
        ohms: f64,
    },
    /// Replace one net's extracted parasitics (`*D_NET` section) and
    /// rebind every coupling spec the change reaches.
    ReannotateNet {
        /// Replacement section; `dnet.name` selects the net.
        dnet: DNet,
    },
}

impl Edit {
    /// The design net name the edit targets.
    pub fn target(&self) -> &str {
        match self {
            Edit::SetLoad { port, .. } => port,
            Edit::SetDriveResistance { net, .. } => net,
            Edit::ReannotateNet { dnet } => &dnet.name,
        }
    }

    /// Short machine-readable edit kind (for logs and bench output).
    pub fn kind(&self) -> &'static str {
        match self {
            Edit::SetLoad { .. } => "set_load",
            Edit::SetDriveResistance { .. } => "set_drive_resistance",
            Edit::ReannotateNet { .. } => "reannotate_net",
        }
    }
}

/// Why a failed edit was rolled back.
#[derive(Debug, Clone, PartialEq)]
pub enum RollbackCause {
    /// The incremental re-solve failed outright (degenerate mesh,
    /// exhausted numeric fallback chain, injected fault under
    /// `FaultPolicy::Fail`, …).
    Analysis(String),
    /// The window fixed point did not converge on the dirty clusters.
    NonConvergence,
    /// The per-edit deadline expired mid-solve; committing would have
    /// retained stale nominal timing for the skipped victims.
    DeadlineExpired,
}

impl fmt::Display for RollbackCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RollbackCause::Analysis(e) => write!(f, "analysis failed: {e}"),
            RollbackCause::NonConvergence => f.write_str("fixed point did not converge"),
            RollbackCause::DeadlineExpired => f.write_str("edit deadline expired"),
        }
    }
}

/// Result of one shadow audit that passed (or is being reported inside a
/// successful commit).
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// Session epoch the audit certified.
    pub epoch: u64,
    /// Worst |incremental − batch| over arrivals/slews/slacks (s).
    pub max_divergence: f64,
    /// Whether every never-dirtied net compared bit-identical.
    pub untouched_identical: bool,
}

/// A shadow-audit divergence: the incremental state does not match a
/// fresh batch analysis. First-class and terminal — the session is
/// quarantined read-only so the divergent timing is never extended.
#[derive(Debug, Clone)]
pub struct AuditFailure {
    /// Session epoch the failed audit ran at.
    pub epoch: u64,
    /// Net with the worst divergence, when attributable.
    pub worst_net: Option<String>,
    /// Worst |incremental − batch| observed (s).
    pub max_divergence: f64,
    /// What diverged, human-readable.
    pub detail: String,
}

impl fmt::Display for AuditFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shadow audit diverged at epoch {}: {} (max divergence {:.3e} s{})",
            self.epoch,
            self.detail,
            self.max_divergence,
            match &self.worst_net {
                Some(n) => format!(", worst at net {n}"),
                None => String::new(),
            }
        )
    }
}

/// Bookkeeping of one committed edit.
#[derive(Debug, Clone)]
pub struct CommitInfo {
    /// Session epoch after the commit (starts at 0 on load; each commit
    /// increments it).
    pub epoch: u64,
    /// Coupling clusters re-solved.
    pub dirty_clusters: usize,
    /// Cones those clusters span.
    pub dirty_cones: usize,
    /// Nets whose retained state was replaced.
    pub dirty_nets: usize,
    /// Coupling specs re-simulated.
    pub specs_resolved: usize,
    /// Always 0: each re-solve shares factorizations only within itself,
    /// so an edit has nothing to release. Kept only because the
    /// `perfbench` benchmark reads it.
    pub released_cache_entries: usize,
    /// The shadow audit triggered by this commit, if one ran and passed.
    pub audit: Option<AuditReport>,
}

/// Structured outcome of [`TimingSession::apply`]. Never a panic and
/// never a torn state: anything but [`EditOutcome::Committed`] (or
/// [`EditOutcome::AuditFailed`], which commits and then quarantines)
/// leaves the session exactly as it was before the call.
#[derive(Debug, Clone)]
pub enum EditOutcome {
    /// The edit validated, re-solved incrementally and committed.
    Committed(CommitInfo),
    /// The edit was refused before touching any state — unknown net, a
    /// non-finite value, or a preflight-lint regression. `diagnostics`
    /// carries the lint findings that caused a lint rejection.
    Rejected {
        /// Why the edit was refused.
        reason: String,
        /// New lint diagnostics the candidate would have introduced.
        diagnostics: Vec<LintDiagnostic>,
    },
    /// The re-solve failed; the session was rolled back to the last
    /// consistent snapshot.
    RolledBack {
        /// What failed.
        cause: RollbackCause,
    },
    /// The edit committed but the shadow audit it triggered found a
    /// divergence: the session is now quarantined read-only.
    AuditFailed(AuditFailure),
    /// The session is quarantined by an earlier [`AuditFailure`]; the
    /// edit was refused.
    ReadOnly(AuditFailure),
}

impl EditOutcome {
    /// Whether the edit's changes are in the session state (note that
    /// [`EditOutcome::AuditFailed`] commits *and* quarantines).
    pub fn is_committed(&self) -> bool {
        matches!(
            self,
            EditOutcome::Committed(_) | EditOutcome::AuditFailed(_)
        )
    }
}

/// Failure constructing (or replaying) a session.
#[derive(Debug)]
pub enum SessionError {
    /// Engine construction or the seeding batch analysis failed.
    Sta(StaError),
    /// SPEF binding failed.
    Spef(SpefError),
    /// The load-time preflight lint found deny-severity defects.
    Lint(Vec<LintDiagnostic>),
    /// Replay of a journal entry did not commit — the journal does not
    /// reproduce the session (this indicates a bug, not bad input).
    Replay {
        /// Index of the journal entry that failed.
        index: usize,
        /// The outcome it produced instead of committing.
        outcome: Box<EditOutcome>,
    },
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Sta(e) => write!(f, "analysis failed: {e}"),
            SessionError::Spef(e) => write!(f, "parasitics binding failed: {e}"),
            SessionError::Lint(diags) => {
                write!(
                    f,
                    "load preflight found {} deny-level defect(s)",
                    diags.len()
                )
            }
            SessionError::Replay { index, outcome } => {
                write!(f, "journal entry {index} failed to replay: {outcome:?}")
            }
        }
    }
}

impl std::error::Error for SessionError {}

impl From<StaError> for SessionError {
    fn from(e: StaError) -> Self {
        SessionError::Sta(e)
    }
}

impl From<SpefError> for SessionError {
    fn from(e: SpefError) -> Self {
        SessionError::Spef(e)
    }
}

/// Candidate state an edit builds beside the live session: the parts the
/// edit changes are owned, the rest borrow the live state. Committing is
/// swapping the owned parts in; rolling back is dropping them.
struct Candidate<'a> {
    bc: Cow<'a, BoundaryConditions>,
    spef: Cow<'a, SpefFile>,
    bound: Cow<'a, BoundCouplings>,
    clusters: Cow<'a, ConeClusters>,
    /// Nets seeding the dirty closure (edited net + changed victims).
    seeds: Vec<NetId>,
}

/// The owned value of a candidate part the edit changed; `None` when the
/// part still borrows the live state.
fn owned<T: Clone>(part: Cow<'_, T>) -> Option<T> {
    match part {
        Cow::Owned(value) => Some(value),
        Cow::Borrowed(_) => None,
    }
}

/// A long-lived incremental timing session. See the crate docs.
pub struct TimingSession {
    sta: Sta,
    options: SessionOptions,
    bind: BindOptions,
    // Seed inputs, kept verbatim for journaled replay.
    seed_spef: SpefFile,
    seed_bc: BoundaryConditions,
    // Live state (always the last consistent snapshot).
    spef: SpefFile,
    bc: BoundaryConditions,
    bound: BoundCouplings,
    clusters: ConeClusters,
    retained: RetainedAnalysis,
    lint_baseline: HashSet<(String, String)>,
    journal: Vec<Edit>,
    epoch: u64,
    cone_epochs: Vec<u64>,
    /// Per-net: was this net's cone ever re-solved since load? The audit
    /// requires bit-identity for nets where this is still false.
    ever_dirty: Vec<bool>,
    commits_since_audit: usize,
    quarantine: Option<AuditFailure>,
    // Counters surfaced to bench/CI.
    rollbacks: u64,
    rejected: u64,
    audits_run: u64,
    max_audit_divergence: f64,
}

impl TimingSession {
    /// Opens a session: binds `spef` onto the engine's design, preflights
    /// the result (deny-severity lint defects refuse the load), runs the
    /// full batch analysis once, and retains it as epoch 0.
    ///
    /// # Errors
    ///
    /// [`SessionError::Spef`] on binding failure, [`SessionError::Lint`]
    /// on deny-level lint defects, [`SessionError::Sta`] when the seeding
    /// analysis fails.
    pub fn open(
        sta: Sta,
        spef: SpefFile,
        bind: BindOptions,
        bc: BoundaryConditions,
        options: SessionOptions,
    ) -> Result<Self, SessionError> {
        let mut span = nsta_obs::span!("session.open");
        let bound = bind_couplings(&spef, sta.design(), &bind)?;
        let lint = Self::lint(&sta, &spef, &bound.specs, &bc, &LintConfig::new());
        if options.preflight && lint.deny_count() > 0 {
            return Err(SessionError::Lint(
                lint.diagnostics
                    .into_iter()
                    .filter(|d| d.severity == Severity::Deny)
                    .collect(),
            ));
        }
        let lint_baseline = Self::fingerprints(&lint.diagnostics);
        let clusters = sta.cone_clusters(&bound.specs);
        let retained = sta.session_analyze(bc.clone(), &bound.specs, &options.si, None)?;
        let cones = sta.graph().components().len();
        let nets = sta.design().net_count();
        span.set_arg("cones", cones as f64);
        span.set_arg("clusters", clusters.clusters() as f64);
        Ok(TimingSession {
            seed_spef: spef.clone(),
            seed_bc: bc.clone(),
            spef,
            bc,
            bound,
            clusters,
            retained,
            lint_baseline,
            journal: Vec::new(),
            epoch: 0,
            cone_epochs: vec![0; cones],
            ever_dirty: vec![false; nets],
            commits_since_audit: 0,
            quarantine: None,
            rollbacks: 0,
            rejected: 0,
            audits_run: 0,
            max_audit_divergence: 0.0,
            sta,
            options,
            bind,
        })
    }

    fn lint(
        sta: &Sta,
        spef: &SpefFile,
        specs: &[CouplingSpec],
        bc: &BoundaryConditions,
        config: &LintConfig,
    ) -> nsta_lint::LintReport {
        run_lint(
            &LintInput {
                design: sta.design(),
                library: sta.library(),
                couplings: specs,
                boundary: bc,
                spef: Some(spef),
                sdc: None,
            },
            config,
        )
    }

    /// The per-edit preflight lint configuration: rules whose inputs this
    /// edit cannot change are set to `Allow` (skipped entirely). The
    /// netlist and library are immutable for the session's lifetime, so
    /// design-structure rules can never produce a *new* finding; SPEF
    /// content rules only matter when the edit replaces an annotation.
    /// The boundary-reading SDC rules always stay on — they are cheap and
    /// `set_load` does move the boundary. The full-registry lint at
    /// [`TimingSession::open`] is unaffected.
    fn edit_lint_config(edit: &Edit) -> LintConfig {
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
        for rule in DESIGN_RULES {
            config.set(rule, Severity::Allow);
        }
        if !matches!(edit, Edit::ReannotateNet { .. }) {
            for rule in SPEF_RULES {
                config.set(rule, Severity::Allow);
            }
        }
        config
    }

    fn fingerprints(diags: &[LintDiagnostic]) -> HashSet<(String, String)> {
        diags
            .iter()
            .map(|d| (d.rule_id.to_string(), d.subject.clone()))
            .collect()
    }

    /// The retained timing report (always the last committed epoch).
    pub fn report(&self) -> &TimingReport {
        &self.retained.analysis.report
    }

    /// The retained analysis: report, adjustments, pruned aggressors and
    /// diagnostics of the last committed epoch (`diagnostics.epoch`
    /// matches [`TimingSession::epoch`]).
    pub fn analysis(&self) -> &SiAnalysis {
        &self.retained.analysis
    }

    /// Commit counter: 0 after load, +1 per committed edit.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether a result captured earlier is stale: its diagnostics carry
    /// an epoch other than the session's current one.
    pub fn is_stale(&self, diagnostics: &SiDiagnostics) -> bool {
        diagnostics.epoch != self.epoch
    }

    /// Epoch counter of `net`'s cone: the session epoch at which that
    /// cone's retained state was last re-solved.
    pub fn cone_epoch(&self, net: NetId) -> Option<u64> {
        let cone = self.clusters.cone_of_net(net)?;
        self.cone_epochs.get(cone).copied()
    }

    /// The append-only journal of committed edits, oldest first.
    pub fn journal(&self) -> &[Edit] {
        &self.journal
    }

    /// The quarantining audit failure, if the session is read-only.
    pub fn quarantined(&self) -> Option<&AuditFailure> {
        self.quarantine.as_ref()
    }

    /// Rolled-back edit count.
    pub fn rollbacks(&self) -> u64 {
        self.rollbacks
    }

    /// Rejected edit count (validation/lint refusals).
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Shadow audits run (passed or failed).
    pub fn audits_run(&self) -> u64 {
        self.audits_run
    }

    /// Worst audit divergence observed so far (s).
    pub fn max_audit_divergence(&self) -> f64 {
        self.max_audit_divergence
    }

    /// Current coupling specs (post-edit).
    pub fn couplings(&self) -> &[CouplingSpec] {
        &self.bound.specs
    }

    /// Current SPEF state (post-edit).
    pub fn spef(&self) -> &SpefFile {
        &self.spef
    }

    /// Current boundary conditions (post-edit).
    pub fn boundary(&self) -> &BoundaryConditions {
        &self.bc
    }

    /// The engine the session analyzes with.
    pub fn sta(&self) -> &Sta {
        &self.sta
    }

    /// Replaces the per-edit analysis deadline (e.g. to bound one risky
    /// edit); `None` removes it. The shadow audit is never deadlined.
    pub fn set_edit_deadline(&mut self, deadline: Option<nsta_sta::Deadline>) {
        self.options.si.deadline = deadline;
    }

    /// Applies one transactional edit. Never panics and never leaves a
    /// torn state; see [`EditOutcome`] for the contract of each variant.
    pub fn apply(&mut self, edit: Edit) -> EditOutcome {
        let mut span = nsta_obs::span!("session.edit");
        span.set_arg("epoch", self.epoch as f64);
        let outcome = self.apply_inner(&edit);
        match &outcome {
            EditOutcome::Committed(info) => {
                span.set_arg("dirty_cones", info.dirty_cones as f64);
                nsta_obs::count!("session.commits");
            }
            EditOutcome::Rejected { .. } => {
                nsta_obs::count!("session.rejected");
            }
            EditOutcome::RolledBack { .. } => {
                nsta_obs::count!("session.rollbacks");
            }
            EditOutcome::AuditFailed(_) | EditOutcome::ReadOnly(_) => {
                nsta_obs::count!("session.audit_failures");
            }
        }
        outcome
    }

    fn apply_inner(&mut self, edit: &Edit) -> EditOutcome {
        if let Some(failure) = &self.quarantine {
            return EditOutcome::ReadOnly(failure.clone());
        }
        // 1. Validate the edit and build the candidate state beside the
        //    live one. Nothing below mutates `self` until commit.
        let candidate = match self.build_candidate(edit) {
            Ok(c) => c,
            Err(outcome) => {
                self.rejected += 1;
                return outcome;
            }
        };
        // 2. Preflight the candidate: an edit introducing new
        //    deny-severity or REJECT_RULES diagnostics is refused with
        //    the evidence embedded.
        let mut candidate_lint: Option<HashSet<(String, String)>> = None;
        if self.options.preflight {
            let config = Self::edit_lint_config(edit);
            let lint = Self::lint(
                &self.sta,
                &candidate.spef,
                &candidate.bound.specs,
                &candidate.bc,
                &config,
            );
            let fresh: Vec<LintDiagnostic> = lint
                .diagnostics
                .iter()
                .filter(|d| {
                    !self
                        .lint_baseline
                        .contains(&(d.rule_id.to_string(), d.subject.clone()))
                })
                .filter(|d| d.severity == Severity::Deny || REJECT_RULES.contains(&d.rule_id))
                .cloned()
                .collect();
            if !fresh.is_empty() {
                self.rejected += 1;
                return EditOutcome::Rejected {
                    reason: format!(
                        "preflight: edit would introduce {} new lint defect(s)",
                        fresh.len()
                    ),
                    diagnostics: fresh,
                };
            }
            // The re-evaluated rules' fingerprints replace their slice of
            // the baseline; rules the config skipped keep their old
            // fingerprints (their findings are unchanged by construction)
            // — applied only once the edit commits.
            let spef_rerun = matches!(edit, Edit::ReannotateNet { .. });
            let mut next: HashSet<(String, String)> = self
                .lint_baseline
                .iter()
                .filter(|(rule, _)| {
                    rule.starts_with("net.") || (!spef_rerun && rule.starts_with("spef."))
                })
                .cloned()
                .collect();
            next.extend(Self::fingerprints(&lint.diagnostics));
            candidate_lint = Some(next);
        }
        // 3. Dirty closure: clusters reached by the edit.
        let dirty_clusters = candidate.clusters.dirty_clusters(&candidate.seeds);
        let dirty_mask = candidate.clusters.net_mask(&dirty_clusters);
        let cone_mask = candidate.clusters.cone_mask(&dirty_clusters);
        let dirty_specs: Vec<CouplingSpec> = candidate
            .bound
            .specs
            .iter()
            .filter(|s| {
                candidate
                    .clusters
                    .cluster_of_net(s.victim)
                    .is_some_and(|c| dirty_clusters[c])
            })
            .cloned()
            .collect();
        // 4. Incremental re-solve of the dirty clusters only. The sweeps
        //    are scoped to the dirty cones; everything outside them is
        //    discarded by the merge's dirty-net mask.
        let patch = match self.sta.session_analyze(
            candidate.bc.as_ref().clone(),
            &dirty_specs,
            &self.options.si,
            Some(&cone_mask),
        ) {
            Ok(p) => p,
            Err(e) => {
                self.rollbacks += 1;
                return EditOutcome::RolledBack {
                    cause: RollbackCause::Analysis(e.to_string()),
                };
            }
        };
        if patch.analysis.diagnostics.timed_out {
            self.rollbacks += 1;
            return EditOutcome::RolledBack {
                cause: RollbackCause::DeadlineExpired,
            };
        }
        if !patch.analysis.diagnostics.converged {
            self.rollbacks += 1;
            return EditOutcome::RolledBack {
                cause: RollbackCause::NonConvergence,
            };
        }
        // 5. Commit: swap the candidate's changed parts in, splice the
        //    patch into the retained state (bit-identical to a batch run
        //    over the edited design — see nsta-sta's session module
        //    docs), bump epochs, append the journal.
        let next_epoch = self.epoch + 1;
        let dirty_nets = dirty_mask.iter().filter(|&&d| d).count();
        let dirty_cones = candidate.clusters.dirty_cone_count(&dirty_clusters);
        let Candidate {
            bc,
            spef,
            bound,
            clusters,
            ..
        } = candidate;
        let (bc, spef, bound, clusters) = (owned(bc), owned(spef), owned(bound), owned(clusters));
        if let Some(bc) = bc {
            self.bc = bc;
        }
        if let Some(spef) = spef {
            self.spef = spef;
        }
        if let Some(bound) = bound {
            self.bound = bound;
        }
        if let Some(clusters) = clusters {
            self.clusters = clusters;
        }
        self.sta
            .session_merge(&mut self.retained, patch, &dirty_mask, next_epoch);
        let info = CommitInfo {
            epoch: next_epoch,
            dirty_clusters: dirty_clusters.iter().filter(|&&d| d).count(),
            dirty_cones,
            dirty_nets,
            specs_resolved: dirty_specs.len(),
            released_cache_entries: 0,
            audit: None,
        };
        self.epoch = next_epoch;
        // Cone counts can change when a re-annotation rewires clusters;
        // resize before stamping (new cones start at the current epoch).
        self.cone_epochs.resize(cone_mask.len(), next_epoch);
        for (cone, dirty) in cone_mask.iter().enumerate() {
            if *dirty {
                self.cone_epochs[cone] = next_epoch;
            }
        }
        for (net, dirty) in dirty_mask.iter().enumerate() {
            if *dirty {
                self.ever_dirty[net] = true;
            }
        }
        if let Some(fps) = candidate_lint {
            self.lint_baseline = fps;
        }
        self.journal.push(edit.clone());
        // 6. Shadow audit every N commits.
        if let Some(n) = self.options.audit_every_n {
            self.commits_since_audit += 1;
            if n > 0 && self.commits_since_audit >= n {
                self.commits_since_audit = 0;
                return match self.run_audit() {
                    Ok(report) => EditOutcome::Committed(CommitInfo {
                        audit: Some(report),
                        ..info
                    }),
                    Err(failure) => EditOutcome::AuditFailed(failure),
                };
            }
        }
        EditOutcome::Committed(info)
    }

    /// Runs the shadow audit now: a fresh full batch analysis compared
    /// against the retained incremental state. On divergence the session
    /// is quarantined read-only and the failure returned.
    ///
    /// # Errors
    ///
    /// The [`AuditFailure`] that quarantined the session (also stored on
    /// it; see [`TimingSession::quarantined`]).
    pub fn audit_now(&mut self) -> Result<AuditReport, AuditFailure> {
        self.run_audit()
    }

    fn run_audit(&mut self) -> Result<AuditReport, AuditFailure> {
        let _span = nsta_obs::span!("session.audit");
        self.audits_run += 1;
        nsta_obs::count!("session.audits");
        // Fresh batch analysis with no deadline — the reference
        // answer must be complete and deterministic.
        let batch_opts = SiOptions {
            deadline: None,
            ..self.options.si.clone()
        };
        let batch = match self.sta.analyze_with_crosstalk_windows(
            self.bc.clone(),
            &self.bound.specs,
            &batch_opts,
        ) {
            Ok(b) => b,
            Err(e) => {
                let failure = AuditFailure {
                    epoch: self.epoch,
                    worst_net: None,
                    max_divergence: f64::INFINITY,
                    detail: format!("batch reference analysis failed: {e}"),
                };
                self.quarantine = Some(failure.clone());
                return Err(failure);
            }
        };
        let tol = self.options.audit_tolerance;
        let incremental = &self.retained.analysis.report;
        let reference = &batch.report;
        let mut max_div = 0.0f64;
        let mut worst_net: Option<String> = None;
        let mut untouched_identical = true;
        let mut detail: Option<String> = None;
        for (inc, re) in incremental.nets().iter().zip(reference.nets()) {
            let untouched = !self
                .ever_dirty
                .get(inc.net.index())
                .copied()
                .unwrap_or(true);
            if untouched && inc != re {
                untouched_identical = false;
                detail.get_or_insert_with(|| {
                    format!(
                        "never-edited net {} is not bit-identical to batch",
                        inc.name
                    )
                });
                worst_net.get_or_insert_with(|| inc.name.clone());
            }
            for (a, b) in [(&inc.rise, &re.rise), (&inc.fall, &re.fall)] {
                match (a, b) {
                    (Some(a), Some(b)) => {
                        let div = (a.arrival - b.arrival)
                            .abs()
                            .max((a.slew - b.slew).abs())
                            .max(if a.slack.is_finite() || b.slack.is_finite() {
                                (a.slack - b.slack).abs()
                            } else {
                                0.0
                            });
                        if div > max_div {
                            max_div = div;
                            if div > tol {
                                worst_net = Some(inc.name.clone());
                            }
                        }
                    }
                    (None, None) => {}
                    _ => {
                        max_div = f64::INFINITY;
                        worst_net = Some(inc.name.clone());
                        detail.get_or_insert_with(|| {
                            format!("net {} reachable in one analysis only", inc.name)
                        });
                    }
                }
            }
        }
        self.max_audit_divergence = self.max_audit_divergence.max(max_div);
        let within_tol = max_div <= tol;
        if within_tol && untouched_identical {
            return Ok(AuditReport {
                epoch: self.epoch,
                max_divergence: max_div,
                untouched_identical,
            });
        }
        let failure = AuditFailure {
            epoch: self.epoch,
            worst_net,
            max_divergence: max_div,
            detail: detail.unwrap_or_else(|| {
                format!(
                    "incremental state diverges from batch by {max_div:.3e} s (tolerance {tol:.1e})"
                )
            }),
        };
        self.quarantine = Some(failure.clone());
        Err(failure)
    }

    /// Rebuilds a fresh session from the seed inputs and re-applies the
    /// journal — the determinism test hook. The replayed session's report
    /// must equal this session's bit-for-bit; callers assert that.
    ///
    /// # Errors
    ///
    /// Construction errors of the fresh session, or
    /// [`SessionError::Replay`] if a journal entry fails to commit (a
    /// determinism bug by definition).
    pub fn replay(&self) -> Result<TimingSession, SessionError> {
        // Audit cadence is not replayed: the journal captures *edits*;
        // audits are observations.
        let options = SessionOptions {
            audit_every_n: None,
            ..self.options.clone()
        };
        let mut fresh = TimingSession::open(
            self.sta.clone(),
            self.seed_spef.clone(),
            self.bind,
            self.seed_bc.clone(),
            options,
        )?;
        for (index, edit) in self.journal.iter().enumerate() {
            let outcome = fresh.apply(edit.clone());
            if !outcome.is_committed() {
                return Err(SessionError::Replay {
                    index,
                    outcome: Box::new(outcome),
                });
            }
        }
        Ok(fresh)
    }

    fn build_candidate(&self, edit: &Edit) -> Result<Candidate<'_>, EditOutcome> {
        let reject = |reason: String| EditOutcome::Rejected {
            reason,
            diagnostics: Vec::new(),
        };
        match edit {
            Edit::SetLoad { port, farads } => {
                let Some(net) = self.sta.design().find_net(port) else {
                    return Err(reject(format!("set_load: unknown net {port:?}")));
                };
                if !self.sta.design().outputs().contains(&net) {
                    return Err(reject(format!(
                        "set_load: net {port:?} is not a primary output"
                    )));
                }
                if !farads.is_finite() || *farads < 0.0 {
                    return Err(reject(format!(
                        "set_load: load must be finite and >= 0, got {farads:e}"
                    )));
                }
                let mut bc = self.bc.clone();
                let old = bc.output(net);
                bc.set_output(
                    net,
                    OutputBoundary {
                        required: old.required,
                        load: *farads,
                    },
                );
                Ok(Candidate {
                    bc: Cow::Owned(bc),
                    spef: Cow::Borrowed(&self.spef),
                    bound: Cow::Borrowed(&self.bound),
                    clusters: Cow::Borrowed(&self.clusters),
                    seeds: vec![net],
                })
            }
            Edit::SetDriveResistance { net, ohms } => {
                let Some(victim) = self.sta.design().find_net(net) else {
                    return Err(reject(format!("set_drive_resistance: unknown net {net:?}")));
                };
                if !ohms.is_finite() || *ohms <= 0.0 {
                    return Err(reject(format!(
                        "set_drive_resistance: resistance must be finite and > 0, got {ohms:e}"
                    )));
                }
                let mut bound = self.bound.clone();
                let Some(spec) = bound.specs.iter_mut().find(|s| s.victim == victim) else {
                    return Err(reject(format!(
                        "set_drive_resistance: net {net:?} has no coupling spec"
                    )));
                };
                spec.driver_resistance = *ohms;
                Ok(Candidate {
                    bc: Cow::Borrowed(&self.bc),
                    spef: Cow::Borrowed(&self.spef),
                    bound: Cow::Owned(bound),
                    clusters: Cow::Borrowed(&self.clusters),
                    seeds: vec![victim],
                })
            }
            Edit::ReannotateNet { dnet } => {
                let Some(edited) = self.sta.design().find_net(&dnet.name) else {
                    return Err(reject(format!(
                        "reannotate_net: unknown net {:?}",
                        dnet.name
                    )));
                };
                let mut spef = self.spef.clone();
                if let Err(e) = spef.replace_net(dnet.clone()) {
                    return Err(reject(format!("reannotate_net: {e}")));
                }
                let bound = match bind_couplings(&spef, self.sta.design(), &self.bind) {
                    Ok(b) => b,
                    Err(e) => {
                        return Err(reject(format!("reannotate_net: rebind failed: {e}")));
                    }
                };
                // The edit can change more than the edited victim's spec:
                // any spec using the edited wire as an aggressor line
                // model changes too.
                let mut seeds = self.bound.changed_victims(&bound);
                seeds.push(edited);
                // Coupling topology may have changed (aggressors added or
                // dropped): rebuild the cluster partition.
                let clusters = self.sta.cone_clusters(&bound.specs);
                Ok(Candidate {
                    bc: Cow::Borrowed(&self.bc),
                    spef: Cow::Owned(spef),
                    bound: Cow::Owned(bound),
                    clusters: Cow::Owned(clusters),
                    seeds,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsta_liberty::characterize::{inverter_family, Options};
    use nsta_liberty::Library;
    use nsta_parasitics::parse_spef;
    use nsta_spice::Process;
    use nsta_sta::{verilog, Constraints, Deadline, FakeClock};
    use std::sync::OnceLock;

    fn lib() -> &'static Library {
        static LIB: OnceLock<Library> = OnceLock::new();
        LIB.get_or_init(|| {
            inverter_family(&Process::c013(), &[("INVX1", 1.0)], &Options::fast_test())
                .expect("characterization")
        })
    }

    /// Two independent coupled groups: `a0→v0→y0` × `b0→g0→z0` and the
    /// same for group 1. Each group is one coupling cluster, so an edit
    /// in group 0 must never re-solve (or perturb) group 1.
    const SPEF: &str = "*C_UNIT 1 FF\n*R_UNIT 1 OHM\n*NAME_MAP\n*1 v0\n*2 g0\n*3 v1\n*4 g1\n\
        *D_NET *1 80.0\n*CAP\n1 *1:1 15.0\n2 *1:2 15.0\n3 *1:2 *2:2 50.0\n\
        *RES\n1 *1 *1:1 10.0\n2 *1:1 *1:2 10.0\n*END\n\
        *D_NET *2 30.0\n*CAP\n1 *2:1 30.0\n*RES\n1 *2 *2:1 8.0\n*END\n\
        *D_NET *3 80.0\n*CAP\n1 *3:1 15.0\n2 *3:2 15.0\n3 *3:2 *4:2 50.0\n\
        *RES\n1 *3 *3:1 10.0\n2 *3:1 *3:2 10.0\n*END\n\
        *D_NET *4 30.0\n*CAP\n1 *4:1 30.0\n*RES\n1 *4 *4:1 8.0\n*END\n";

    fn sta() -> Sta {
        let design = verilog::parse_design(
            "module m (a0, b0, y0, z0, a1, b1, y1, z1);\
             input a0, b0, a1, b1; output y0, z0, y1, z1;\
             wire v0, g0, v1, g1;\
             INVX1 u1 (.A(a0), .Y(v0)); INVX1 u2 (.A(v0), .Y(y0));\
             INVX1 u3 (.A(b0), .Y(g0)); INVX1 u4 (.A(g0), .Y(z0));\
             INVX1 u5 (.A(a1), .Y(v1)); INVX1 u6 (.A(v1), .Y(y1));\
             INVX1 u7 (.A(b1), .Y(g1)); INVX1 u8 (.A(g1), .Y(z1)); endmodule",
        )
        .expect("netlist");
        Sta::new(design, lib().clone()).expect("sta")
    }

    fn bc() -> BoundaryConditions {
        BoundaryConditions::uniform(&Constraints::default())
    }

    fn open(options: SessionOptions) -> TimingSession {
        let spef = parse_spef(SPEF).expect("spef");
        TimingSession::open(sta(), spef, BindOptions::default(), bc(), options)
            .expect("session opens")
    }

    #[test]
    fn open_retains_the_batch_state_at_epoch_zero() {
        let s = open(SessionOptions::default());
        assert_eq!(s.epoch(), 0);
        assert_eq!(s.couplings().len(), 2);
        let batch = s
            .sta()
            .analyze_with_crosstalk_windows(bc(), s.couplings(), &SessionOptions::default().si)
            .expect("batch");
        assert_eq!(s.report(), &batch.report);
        assert_eq!(s.analysis().diagnostics.epoch, 0);
        assert!(!s.is_stale(&s.analysis().diagnostics));
        assert!(s.journal().is_empty());
        assert!(s.quarantined().is_none());
    }

    #[test]
    fn set_load_commits_incrementally_and_matches_a_fresh_batch() {
        let mut s = open(SessionOptions::default());
        let before = s.report().clone();
        let stale = s.analysis().diagnostics.clone();
        let outcome = s.apply(Edit::SetLoad {
            port: "y0".into(),
            farads: 40e-15,
        });
        let EditOutcome::Committed(info) = outcome else {
            panic!("expected commit, got {outcome:?}");
        };
        assert_eq!(info.epoch, 1);
        assert_eq!(info.dirty_clusters, 1);
        assert_eq!(info.specs_resolved, 1);
        // Only group 0's six nets are re-solved.
        assert_eq!(info.dirty_nets, 6);
        assert_eq!(s.epoch(), 1);
        assert_eq!(s.journal().len(), 1);
        assert!(s.is_stale(&stale), "pre-edit diagnostics must read stale");

        // Bit-identical to a from-scratch batch over the edited state.
        let design = s.sta().design();
        let y0 = design.find_net("y0").expect("y0");
        let mut edited = bc();
        let old = edited.output(y0);
        edited.set_output(
            y0,
            OutputBoundary {
                required: old.required,
                load: 40e-15,
            },
        );
        let batch = s
            .sta()
            .analyze_with_crosstalk_windows(edited, s.couplings(), &SessionOptions::default().si)
            .expect("batch");
        assert_eq!(s.report(), &batch.report);

        // Untouched group 1 is bit-identical to the pre-edit snapshot,
        // and its cone epoch still reads 0 while group 0's reads 1.
        for name in ["v1", "g1", "y1", "z1"] {
            assert_eq!(s.report().net_by_name(name), before.net_by_name(name));
        }
        let v0 = design.find_net("v0").expect("v0");
        let v1 = design.find_net("v1").expect("v1");
        assert_eq!(s.cone_epoch(v0), Some(1));
        assert_eq!(s.cone_epoch(v1), Some(0));
    }

    #[test]
    fn invalid_edits_are_rejected_without_touching_state() {
        let mut s = open(SessionOptions::default());
        let before = s.report().clone();
        let cases = [
            Edit::SetLoad {
                port: "nope".into(),
                farads: 1e-15,
            },
            Edit::SetLoad {
                port: "v0".into(), // internal net, not a primary output
                farads: 1e-15,
            },
            Edit::SetLoad {
                port: "y0".into(),
                farads: -1e-15,
            },
            Edit::SetDriveResistance {
                net: "y0".into(), // no coupling spec
                ohms: 100.0,
            },
            Edit::SetDriveResistance {
                net: "v0".into(),
                ohms: f64::NAN,
            },
        ];
        let n = cases.len() as u64;
        for edit in cases {
            let outcome = s.apply(edit);
            assert!(
                matches!(outcome, EditOutcome::Rejected { .. }),
                "expected rejection, got {outcome:?}"
            );
        }
        assert_eq!(s.rejected(), n);
        assert_eq!(s.epoch(), 0);
        assert!(s.journal().is_empty());
        assert_eq!(s.report(), &before);
    }

    #[test]
    fn preflight_rejects_an_edit_introducing_an_rc_defect() {
        let mut s = open(SessionOptions::default());
        let before = s.report().clone();
        let mut dnet = s.spef().net("v0").expect("v0 section").clone();
        dnet.caps[0].value = 0.0; // nonpositive element: lint-deny territory
        let outcome = s.apply(Edit::ReannotateNet { dnet });
        match outcome {
            EditOutcome::Rejected { diagnostics, .. } => {
                assert!(
                    diagnostics
                        .iter()
                        .any(|d| d.rule_id == "spef.nonpositive-rc"),
                    "expected spef.nonpositive-rc in {diagnostics:?}"
                );
            }
            other => panic!("expected preflight rejection, got {other:?}"),
        }
        assert_eq!(s.epoch(), 0);
        assert_eq!(s.report(), &before);
    }

    #[test]
    fn expired_deadline_rolls_back_and_the_session_stays_serviceable() {
        let mut s = open(SessionOptions::default());
        let before = s.report().clone();
        s.set_edit_deadline(Some(Deadline::on_fake(FakeClock::new(0), 0)));
        let edit = Edit::SetDriveResistance {
            net: "v0".into(),
            ohms: 150.0,
        };
        let outcome = s.apply(edit.clone());
        assert!(
            matches!(
                outcome,
                EditOutcome::RolledBack {
                    cause: RollbackCause::DeadlineExpired
                }
            ),
            "expected deadline rollback, got {outcome:?}"
        );
        assert_eq!(s.report(), &before, "rollback must restore the snapshot");
        assert_eq!(s.epoch(), 0);
        assert_eq!(s.rollbacks(), 1);
        assert!(s.journal().is_empty());

        // Same edit succeeds once the deadline is lifted: no torn state.
        s.set_edit_deadline(None);
        assert!(s.apply(edit).is_committed());
        assert_eq!(s.epoch(), 1);
    }

    #[test]
    fn audits_pass_and_replay_reproduces_the_committed_state() {
        let mut s = open(SessionOptions {
            audit_every_n: Some(1),
            ..SessionOptions::default()
        });
        let o1 = s.apply(Edit::SetLoad {
            port: "y0".into(),
            farads: 35e-15,
        });
        match &o1 {
            EditOutcome::Committed(info) => {
                let audit = info.audit.as_ref().expect("audit ran on commit 1");
                assert!(audit.untouched_identical);
                assert!(audit.max_divergence <= 1e-18, "{audit:?}");
            }
            other => panic!("expected audited commit, got {other:?}"),
        }
        let o2 = s.apply(Edit::SetDriveResistance {
            net: "v1".into(),
            ohms: 240.0,
        });
        assert!(o2.is_committed(), "{o2:?}");
        let mut dnet = s.spef().net("v0").expect("v0 section").clone();
        for c in &mut dnet.caps {
            c.value *= 1.1;
        }
        for r in &mut dnet.ress {
            r.value *= 1.05;
        }
        let o3 = s.apply(Edit::ReannotateNet { dnet });
        assert!(o3.is_committed(), "{o3:?}");
        assert_eq!(s.epoch(), 3);
        assert_eq!(s.audits_run(), 3);
        assert!(s.quarantined().is_none());

        let replayed = s.replay().expect("replay");
        assert_eq!(replayed.epoch(), 3);
        assert_eq!(
            replayed.report(),
            s.report(),
            "replay must be bit-identical"
        );
        assert_eq!(replayed.journal(), s.journal());
    }
}
