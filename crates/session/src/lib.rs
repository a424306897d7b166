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
//!   lint the candidate → compute the cones the edit can reach from the
//!   candidate's own coupling specs → re-solve only those cones, sweeping
//!   just the ones holding a victim or the edited port and reading the
//!   aggressor chains from the retained analysis → splice the swept cones
//!   into the retained state → commit. *Any* failure — degenerate
//!   mesh, injected fault, non-convergence, deadline expiry — rolls the
//!   session back to the last consistent snapshot and reports a
//!   structured [`EditOutcome`] instead of leaving a torn state.
//!   (Candidate state is built beside the live state and only swapped in
//!   on success, so "rollback" is literally "don't swap".)
//! * The append-only [`TimingSession::journal`] makes any committed
//!   state deterministically reproducible from the seed inputs:
//!   [`TimingSession::replay`] rebuilds a fresh session and re-applies
//!   the journal, and the result must match bit-for-bit. The journal
//!   stores each edit compactly (a net id and a value, or a
//!   re-annotation's interned node names and fixed-size element
//!   records) and decodes it on demand.
//! * Shadow audit ([`SessionOptions::audit_every_n`]): every N commits
//!   the session re-runs the *full batch* analysis and verifies the
//!   incremental state matches within 1e-6 ps, with never-dirtied nets
//!   bit-identical. A divergence is a first-class [`AuditFailure`] that
//!   quarantines the session read-only — wrong timing is never served
//!   silently.
//! * Epoch counters: each commit bumps the session epoch and the dirty
//!   cones' epoch counters (a cone still at epoch 0 was never in an
//!   edit's closure, so the audit requires its nets bit-identical);
//!   analysis results carry their epoch in `SiDiagnostics::epoch`, so a
//!   stale retained report is detectable with
//!   [`TimingSession::is_stale`].

#![forbid(unsafe_code)]

mod journal;

use std::borrow::Cow;
use std::collections::HashSet;
use std::fmt;

use journal::Journal;
use nsta_lint::{
    lint_spef_section, run_lint, LintConfig, LintDiagnostic, LintInput, SectionEdit, Severity,
    RULES,
};
use nsta_parasitics::{
    bind_couplings, rebind_net, BindOptions, DNet, ReducedNet, SpefError, SpefFile,
};
use nsta_sta::{
    BoundaryConditions, CouplingSpec, EditScope, NetId, OutputBoundary, RetainedAnalysis,
    SiAnalysis, SiDiagnostics, SiOptions, Sta, StaError, TimingReport,
};

/// Lint rules whose *new* appearance in an edit's delta rejects the edit
/// outright, whatever their configured severity: both describe inputs the
/// analysis cannot produce meaningful timing for.
const REJECT_RULES: [&str; 2] = ["net.undriven", "spef.nonpositive-rc"];

/// Shadow-audit tolerance on arrivals, slews and slacks (s): 1e-6 ps.
const AUDIT_TOLERANCE: f64 = 1e-18;

/// A lint finding's identity across runs: `(rule id, subject)`.
type Fingerprint = (&'static str, String);

/// Configuration of a [`TimingSession`].
///
/// Every edit's candidate state is preflight-linted: an edit that
/// introduces new deny-severity, `net.undriven` or `spef.nonpositive-rc`
/// diagnostics is rejected.
#[derive(Debug, Clone, Default)]
pub struct SessionOptions {
    /// Analysis options for the initial load and every incremental
    /// re-solve. `si.deadline` bounds each *edit's* re-solve (expiry
    /// rolls the edit back); the shadow audit always runs undeadlined.
    pub si: SiOptions,
    /// Run the full batch analysis and verify the incremental state
    /// against it, within 1e-6 ps on arrivals, slews and slacks, after
    /// every N commits (`None`: only on [`TimingSession::audit_now`]).
    pub audit_every_n: Option<usize>,
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
    /// The window fixed point did not converge on the dirty cones.
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
    /// Cones in the edit's dirty closure: every cone linked to an edited
    /// net's cone by a chain of the edited design's coupling specs
    /// ([`Sta::coupled_cones`]).
    pub dirty_cones: usize,
    /// The nets of those cones.
    pub dirty_nets: usize,
    /// Closure cones the re-solve swept and the merge replaced: those
    /// holding a victim (of the edited specs, or one the retained analysis
    /// holds records for) and the cone of a port whose load the edit set.
    /// The others (aggressor chains) were read from the retained analysis,
    /// which holds their nominal sweep ([`nsta_sta::session`]).
    pub swept_cones: usize,
    /// Coupling specs re-simulated: those of the victims in the closure.
    pub specs_resolved: usize,
    /// Always 0: each re-solve shares factorizations only within itself,
    /// so an edit has nothing to release. Kept only because the
    /// `perfbench` benchmark reads it.
    pub released_cache_entries: usize,
    /// The shadow audit triggered by this commit, if one ran and passed.
    pub audit: Option<AuditReport>,
}

/// Structured outcome of [`TimingSession::apply`]. Never a torn state:
/// anything but [`EditOutcome::Committed`] (or
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
    specs: Cow<'a, [CouplingSpec]>,
    change: Change<'a>,
    /// Nets seeding the dirty closure (edited net + changed victims).
    seeds: Vec<NetId>,
}

/// The validated edit with its target resolved: what the journal records
/// on commit and, for a re-annotation, the section swap the commit makes
/// with [`SpefFile::replace_net`] on the live file.
enum Change<'a> {
    SetLoad(NetId, f64),
    SetDriveResistance(NetId, f64),
    ReannotateNet(Reannotation<'a>),
}

/// The `*D_NET` section a re-annotation replaces, its replacement, and
/// the replacement's reduction (which the preflight's
/// `spef.degenerate-extraction` rule reuses).
struct Reannotation<'a> {
    old: &'a DNet,
    new: DNet,
    reduced: ReducedNet,
}

/// How a committing edit changes the lint baseline: the fingerprints it
/// withdraws, then the ones it adds.
struct LintDelta {
    retired: Vec<Fingerprint>,
    added: Vec<Fingerprint>,
}

/// The owned value of a candidate part the edit changed; `None` when the
/// part still borrows the live state.
fn owned<T: ToOwned + ?Sized>(part: Cow<'_, T>) -> Option<T::Owned> {
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
    specs: Vec<CouplingSpec>,
    retained: RetainedAnalysis,
    lint_baseline: HashSet<Fingerprint>,
    journal: Journal,
    epoch: u64,
    /// Per cone (indexed like `TimingGraph::components`): the epoch that
    /// last re-solved it, 0 if none has.
    cone_epochs: Vec<u64>,
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
        let specs = bind_couplings(&spef, sta.design(), &bind)?.specs;
        let lint = Self::lint(&sta, &spef, &specs, &bc, &LintConfig::new());
        if lint.deny_count() > 0 {
            return Err(SessionError::Lint(
                lint.diagnostics
                    .into_iter()
                    .filter(|d| d.severity == Severity::Deny)
                    .collect(),
            ));
        }
        let lint_baseline = Self::fingerprints(&lint.diagnostics).into_iter().collect();
        let retained = sta.session_analyze(bc.clone(), &specs, &options.si)?;
        let cones = sta.graph().components().len();
        span.set_arg("cones", cones as f64);
        Ok(TimingSession {
            seed_spef: spef.clone(),
            seed_bc: bc.clone(),
            spef,
            bc,
            specs,
            retained,
            lint_baseline,
            journal: Journal::default(),
            epoch: 0,
            cone_epochs: vec![0; cones],
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

    /// The lint configuration of a load edit's preflight: only the
    /// boundary-reading SDC rules, the one part of the inputs a load moves.
    /// The netlist and library never change in a session; a drive edit
    /// changes nothing any rule reads, and a re-annotation is linted by
    /// [`lint_spef_section`] instead. The full-registry lint at
    /// [`TimingSession::open`] is unaffected.
    fn boundary_lint_config() -> LintConfig {
        let mut config = LintConfig::new();
        for rule in RULES.iter().filter(|r| !r.id.starts_with("sdc.")) {
            config.set(rule.id, Severity::Allow);
        }
        config
    }

    fn fingerprints(diags: &[LintDiagnostic]) -> Vec<Fingerprint> {
        diags
            .iter()
            .map(|d| (d.rule_id, d.subject.clone()))
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

    /// Epoch counter of `net`'s cone: the session epoch of the last
    /// commit whose dirty closure held that cone, 0 if none did; `None`
    /// for a net the design lacks.
    pub fn cone_epoch(&self, net: NetId) -> Option<u64> {
        let cone = self.sta.graph().cone_of(net)?;
        self.cone_epochs.get(cone).copied()
    }

    /// The append-only journal of committed edits, oldest first, decoded
    /// from its compact form.
    pub fn journal(&self) -> Vec<Edit> {
        self.journal.edits().collect()
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
        &self.specs
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

    /// Applies one transactional edit. Never leaves a torn state; see
    /// [`EditOutcome`] for the contract of each variant. A cone task that
    /// panics is retried once on the coordinator
    /// ([`nsta_sta::DegradeAction::ConeRetry`]). A panic that recurs on
    /// that retry propagates out of this call: raised by the edit's
    /// re-solve, it leaves the session untouched, because the candidate
    /// was never swapped in; raised by a shadow audit, it leaves the edit
    /// committed.
    pub fn apply(&mut self, edit: Edit) -> EditOutcome {
        let mut span = nsta_obs::span!("session.edit");
        span.set_arg("epoch", self.epoch as f64);
        let outcome = self.apply_inner(edit);
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

    fn apply_inner(&mut self, edit: Edit) -> EditOutcome {
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
        let lint_delta = match self.preflight(&candidate) {
            Ok(delta) => delta,
            Err(outcome) => {
                self.rejected += 1;
                return outcome;
            }
        };
        // 3. Dirty closure: the cones the edit reaches through the
        //    candidate's own specs, and the specs of their victims.
        let graph = self.sta.graph();
        let dirty = self.sta.coupled_cones(&candidate.specs, &candidate.seeds);
        let dirty_specs: Vec<CouplingSpec> = candidate
            .specs
            .iter()
            .filter(|s| graph.in_cones(&dirty, s.victim))
            .cloned()
            .collect();
        // 4. Incremental re-solve of the dirty cones only: it sweeps the
        //    closure's victim cones and the cone of a port whose load the
        //    edit changed, and reads every other closure cone from the
        //    retained analysis (nsta-sta's session module docs).
        let boundary_nets = match &candidate.change {
            Change::SetLoad(net, _) => std::slice::from_ref(net),
            _ => &[],
        };
        let patch = match self.sta.session_resolve(
            candidate.bc.as_ref().clone(),
            &dirty_specs,
            &self.options.si,
            Some(EditScope {
                cones: &dirty,
                retained: &self.retained,
                boundary_nets,
            }),
        ) {
            Ok(p) => p,
            Err(e) => {
                self.rollbacks += 1;
                return EditOutcome::RolledBack {
                    cause: RollbackCause::Analysis(e.to_string()),
                };
            }
        };
        if patch.diagnostics.timed_out {
            self.rollbacks += 1;
            return EditOutcome::RolledBack {
                cause: RollbackCause::DeadlineExpired,
            };
        }
        if !patch.diagnostics.converged {
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
        let marked = || graph.components().iter().zip(&dirty).filter(|(_, &d)| d);
        let dirty_cones = marked().count();
        let dirty_nets = marked().map(|(cone, _)| cone.len()).sum();
        let swept_cones = patch.swept_cones();
        let Candidate {
            bc, specs, change, ..
        } = candidate;
        let (bc, specs) = (owned(bc), owned(specs));
        let section = match change {
            Change::SetLoad(net, farads) => {
                self.journal
                    .push_load(self.sta.design().net_name(net), farads);
                None
            }
            Change::SetDriveResistance(net, ohms) => {
                self.journal
                    .push_drive(self.sta.design().net_name(net), ohms);
                None
            }
            Change::ReannotateNet(Reannotation { new, .. }) => {
                self.journal.push_reannotation(&new);
                Some(new)
            }
        };
        if let Some(bc) = bc {
            self.bc = bc;
        }
        if let Some(specs) = specs {
            self.specs = specs;
        }
        if let Some(section) = section {
            // The candidate was built from this file's section of the
            // same name, so the replacement cannot miss.
            let _ = self.spef.replace_net(section);
        }
        self.sta
            .session_merge(&mut self.retained, patch, next_epoch);
        let info = CommitInfo {
            epoch: next_epoch,
            dirty_cones,
            dirty_nets,
            swept_cones,
            specs_resolved: dirty_specs.len(),
            released_cache_entries: 0,
            audit: None,
        };
        self.epoch = next_epoch;
        for (epoch, _) in self.cone_epochs.iter_mut().zip(&dirty).filter(|(_, &d)| d) {
            *epoch = next_epoch;
        }
        for fingerprint in &lint_delta.retired {
            self.lint_baseline.remove(fingerprint);
        }
        self.lint_baseline.extend(lint_delta.added);
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

    /// The per-edit preflight: lints only what the edit changes and
    /// refuses it when that introduces new deny-severity or
    /// [`REJECT_RULES`] diagnostics. A load edit re-runs the boundary
    /// rules ([`TimingSession::boundary_lint_config`]); a re-annotation
    /// runs the section-scoped SPEF preflight ([`lint_spef_section`]); a
    /// drive edit changes nothing any rule reads. On success, returns how
    /// the lint baseline moves once the edit commits: the re-evaluated
    /// findings replace exactly the fingerprints they can produce, and
    /// every other fingerprint is unchanged by construction.
    fn preflight(&self, candidate: &Candidate<'_>) -> Result<LintDelta, EditOutcome> {
        let (diagnostics, retired) = match &candidate.change {
            Change::SetLoad(..) => {
                let lint = Self::lint(
                    &self.sta,
                    &self.spef,
                    &candidate.specs,
                    &candidate.bc,
                    &Self::boundary_lint_config(),
                );
                let retired = self
                    .lint_baseline
                    .iter()
                    .filter(|(rule, _)| rule.starts_with("sdc."))
                    .cloned()
                    .collect();
                (lint.diagnostics, retired)
            }
            Change::SetDriveResistance(..) => (Vec::new(), Vec::new()),
            Change::ReannotateNet(r) => {
                let section = lint_spef_section(
                    &SectionEdit {
                        design: self.sta.design(),
                        spef: &self.spef,
                        old: r.old,
                        new: &r.new,
                        reduced: &r.reduced,
                    },
                    &LintConfig::new(),
                );
                (section.diagnostics, section.retired)
            }
        };
        let fresh: Vec<LintDiagnostic> = diagnostics
            .iter()
            .filter(|d| !self.lint_baseline.contains(&(d.rule_id, d.subject.clone())))
            .filter(|d| d.severity == Severity::Deny || REJECT_RULES.contains(&d.rule_id))
            .cloned()
            .collect();
        if !fresh.is_empty() {
            return Err(EditOutcome::Rejected {
                reason: format!(
                    "preflight: edit would introduce {} new lint defect(s)",
                    fresh.len()
                ),
                diagnostics: fresh,
            });
        }
        Ok(LintDelta {
            retired,
            added: Self::fingerprints(&diagnostics),
        })
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
        let batch =
            match self
                .sta
                .analyze_with_crosstalk_windows(self.bc.clone(), &self.specs, &batch_opts)
            {
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
        let incremental = &self.retained.analysis.report;
        let reference = &batch.report;
        let mut max_div = 0.0f64;
        let mut worst_net: Option<String> = None;
        let mut untouched_identical = true;
        let mut detail: Option<String> = None;
        for (inc, re) in incremental.nets().iter().zip(reference.nets()) {
            let untouched = self.cone_epoch(inc.net) == Some(0);
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
                            if div > AUDIT_TOLERANCE {
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
        let within_tol = max_div <= AUDIT_TOLERANCE;
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
                    "incremental state diverges from batch by {max_div:.3e} s (tolerance {AUDIT_TOLERANCE:.1e})"
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
        for (index, edit) in self.journal.edits().enumerate() {
            let outcome = fresh.apply(edit);
            if !outcome.is_committed() {
                return Err(SessionError::Replay {
                    index,
                    outcome: Box::new(outcome),
                });
            }
        }
        Ok(fresh)
    }

    fn build_candidate(&self, edit: Edit) -> Result<Candidate<'_>, EditOutcome> {
        let reject = |reason: String| EditOutcome::Rejected {
            reason,
            diagnostics: Vec::new(),
        };
        if !self.journal.fits(&edit) {
            return Err(reject("the session journal is full".into()));
        }
        let design = self.sta.design();
        match edit {
            Edit::SetLoad { port, farads } => {
                let Some(net) = design.find_net(&port) else {
                    return Err(reject(format!("set_load: unknown net {port:?}")));
                };
                if !design.is_output(net) {
                    return Err(reject(format!(
                        "set_load: net {port:?} is not a primary output"
                    )));
                }
                if !farads.is_finite() || farads < 0.0 {
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
                        load: farads,
                    },
                );
                Ok(Candidate {
                    bc: Cow::Owned(bc),
                    specs: Cow::Borrowed(&self.specs),
                    change: Change::SetLoad(net, farads),
                    seeds: vec![net],
                })
            }
            Edit::SetDriveResistance { net, ohms } => {
                let Some(victim) = design.find_net(&net) else {
                    return Err(reject(format!("set_drive_resistance: unknown net {net:?}")));
                };
                if !ohms.is_finite() || ohms <= 0.0 {
                    return Err(reject(format!(
                        "set_drive_resistance: resistance must be finite and > 0, got {ohms:e}"
                    )));
                }
                let mut specs = self.specs.clone();
                let Some(spec) = specs.iter_mut().find(|s| s.victim == victim) else {
                    return Err(reject(format!(
                        "set_drive_resistance: net {net:?} has no coupling spec"
                    )));
                };
                spec.driver_resistance = ohms;
                Ok(Candidate {
                    bc: Cow::Borrowed(&self.bc),
                    specs: Cow::Owned(specs),
                    change: Change::SetDriveResistance(victim, ohms),
                    seeds: vec![victim],
                })
            }
            Edit::ReannotateNet { dnet } => {
                let Some(edited) = design.find_net(&dnet.name) else {
                    return Err(reject(format!(
                        "reannotate_net: unknown net {:?}",
                        dnet.name
                    )));
                };
                let Some(old) = self.spef.net(&dnet.name) else {
                    return Err(reject(format!(
                        "reannotate_net: net {:?} has no *D_NET section",
                        dnet.name
                    )));
                };
                // Only the replacement section is reduced, and only the
                // specs naming the edited net are rebuilt (keeping their
                // session-set driver resistances).
                let rebind = match rebind_net(&self.spef, &self.specs, &dnet, design, &self.bind) {
                    Ok(r) => r,
                    Err(e) => {
                        return Err(reject(format!("reannotate_net: rebind failed: {e}")));
                    }
                };
                // The edit can change more than the edited victim's spec:
                // any spec using the edited wire as an aggressor line
                // model changes too.
                let mut seeds = rebind.changed;
                seeds.push(edited);
                Ok(Candidate {
                    bc: Cow::Borrowed(&self.bc),
                    specs: Cow::Owned(rebind.specs),
                    change: Change::ReannotateNet(Reannotation {
                        old,
                        new: dnet,
                        reduced: rebind.reduced,
                    }),
                    seeds,
                })
            }
        }
    }
}

#[cfg(test)]
mod bus_tests;

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
    /// same for group 1. Each group's two cones are linked by its coupling
    /// spec, so an edit in group 0 must never re-solve (or perturb) group 1.
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
        assert_eq!(info.dirty_cones, 2);
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
            Edit::ReannotateNet {
                dnet: DNet {
                    name: "nope".into(),
                    ..s.spef().net("v0").expect("v0 section").clone()
                },
            },
            Edit::ReannotateNet {
                dnet: DNet {
                    name: "y0".into(), // a design net with no *D_NET section
                    ..s.spef().net("v0").expect("v0 section").clone()
                },
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
