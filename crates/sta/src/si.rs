//! Crosstalk-aware propagation: the paper's technique inside an STA sweep.
//!
//! Nets designated by a [`CouplingSpec`] are treated as distributed RC
//! lines capacitively coupled to aggressor nets. During the forward sweep
//! the victim's driver ramp (from its STA arrival/slew) and every
//! aggressor's ramp are played into the linear circuit substrate; the
//! resulting *noisy waveform at the victim's far end* is reduced to an
//! equivalent ramp `Γeff` by the selected technique and replaces the
//! victim's `(arrival, slew)` before fanout gates consume it.
//!
//! This is precisely the integration path the paper proposes for
//! commercial tools: no extra library characterization, one extra waveform
//! reduction per coupled stage.
//!
//! # Cone-partitioned scheduling and determinism
//!
//! Every sweep has one schedule: the **fanout cone** — a weakly-connected
//! component of the timing graph
//! ([`TimingGraph::components`](crate::TimingGraph::components)). No edge
//! crosses between two cones, and every aggressor ramp is taken from the
//! iteration-invariant nominal sweep rather than from in-flight states, so
//! whole cones are mutually independent: with [`SiOptions::threads`] ` > 1`
//! each cone becomes one task on a `std::thread::scope` worker pool
//! (workers pull cones from a shared counter — dynamic load balancing), and
//! a long chain in one cone never waits for another cone. The pool starts
//! at most one worker per cone, so a design with fewer cones than threads
//! runs on fewer workers, and a pass that schedules one cone runs it on
//! the caller's thread, through the same loop and panic containment.
//! Within a cone, nets are processed sequentially in topological order;
//! results are merged back in the fixed cone order. Each cone task
//! performs a fixed sequence of floating-point operations that does not
//! depend on which worker runs it or in what order tasks finish, and
//! per-victim adjustments are emitted in canonical `(net, polarity)`
//! order, so **N-thread results are bit-identical to 1-thread results**.
//!
//! # Shared factorizations
//!
//! Every victim reduction collapses to the same small circuit shape — a
//! Thevenin driver into star-coupled RC lines — whose factored system
//! ([`nsta_circuit::FactoredSystem`]) depends only on element values and
//! the time grid, never on source waveforms. The grid is a cap: it starts
//! at 0 (or at the quantum below a rail departure before 0) and ends a
//! margin after the latest participant's transition, but every sweep
//! stops each column once its stage has settled within
//! `SETTLE_TOLERANCE · Vdd` of its final DC point, which leaves every
//! Γeff bit-identical to a sweep to the cap. A victim net's rise and fall
//! usually quantize to the same grid; they then form one reduction group
//! and share one sweep, not only one factorization: the noiseless and
//! noisy drive of both transitions march as one block of four columns,
//! each column bit-identical to a sweep of its own, until the last of
//! them has settled. A transition whose grid differs from its sibling's
//! is a group of one. Each analysis call
//! (and each session re-solve) builds one map from a topology signature
//! to the factored system, looked up once per group, so electrically
//! identical stages share one LU factorization across victims,
//! fixed-point iterations and worker threads. The map needs no
//! invalidation and no quarantine: the key is the exact bit pattern of
//! every value the system is built from, and a factored system is
//! immutable, so a shared entry is bit-identical to a fresh
//! factorization. The numeric fallback chain retries each transition of
//! a failed group on its own and bypasses the map, since the key does
//! not encode the solver backend.
//!
//! # Cone-scoped fixed point
//!
//! Crosstalk push-out moves switching windows, so
//! [`Sta::analyze_with_crosstalk_windows`] iterates the window filter and
//! the analysis to a fixed point. The nominal forward sweep, which also
//! supplies every aggressor ramp, is iteration-invariant and is computed
//! once, outside the loop. A cone's pass therefore reads only that sweep,
//! the boundary seeds and its own victims' filtered specs: a cone whose
//! victims' filtered specs did not change would reproduce its previous
//! states bit for bit, and a cone holding no victim would reproduce the
//! nominal sweep's.
//!
//! So every pass, the first included, re-solves only the cones holding a
//! victim whose filtered [`CouplingSpec`] is new or differs from the
//! previous pass's (before the first pass every victim is new), and
//! splices their states, report rows and adjustments into the running
//! result, which starts as the nominal sweep's — the splice
//! [`Sta::session_merge`] does for an edit. A cone holding no victim is
//! never re-propagated. When no filtered spec changed, the fixed point has
//! converged and the loop stops without another pass. The result equals
//! one full pass over the final filtered specs bit for bit, and every
//! pass costs O(changed victim cones), not O(cones).
//!
//! # Resource governance
//!
//! Two governors bound the analysis's cost without changing what a
//! healthy, in-budget run computes:
//!
//! * **Deadline** — [`SiOptions::deadline`] is polled cooperatively at
//!   cone-task and iteration boundaries. On expiry, in-flight work
//!   finishes, the cones the pass has not scheduled yet keep their
//!   *nominal* (crosstalk-free) timing, each of their victims is recorded
//!   as a [`DegradeAction::DeadlineSkipped`] event, and the analysis
//!   returns a well-formed partial result with
//!   [`SiDiagnostics::timed_out`] set. A pass schedules only the cones it
//!   re-solves, so an expiry leaves every other cone at the previous
//!   pass's result (the nominal sweep's before the first pass lands):
//!   only the victims of the skipped cones go stale.
//! * **Convergence governor** — [`SiOptions::convergence_governor`]
//!   watches the fixed point's `max_window_delta` sequence; on stagnation
//!   (deltas not shrinking) or cap exhaustion it switches to a
//!   certified-conservative update that widens each participating net's
//!   window to the union of its last two iterates. Kept-aggressor sets
//!   then grow monotonically in a finite space, so the governed loop
//!   terminates; every widening is recorded as a [`ConvergenceAction`] so
//!   the added pessimism is visible, never silent.

use crate::boundary::BoundaryConditions;
use crate::engine::{NetState, PerCone, Sta};
use crate::graph::TimingGraph;
use crate::netlist::NetId;
use crate::report::{NetTiming, TimingReport};
use crate::session::{ConeExtremes, ConePatch, EditScope, RetainedAnalysis};
use crate::StaError;
use nsta_circuit::{
    Circuit, FactoredSystem, NodeId as CktNode, RcLineSpec, SolverBackend, StarCoupledLines,
    TransientOptions,
};
use nsta_obs::Deadline;
use nsta_waveform::{Polarity, SaturatedRamp, Thresholds, Waveform};
use sgdp::gate::{GateModel, TableGate};
use sgdp::{MethodKind, PropagationContext};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Coupling description of one victim net.
#[derive(Debug, Clone, PartialEq)]
pub struct CouplingSpec {
    /// The victim net (must exist in the design).
    pub victim: NetId,
    /// Aggressor nets (their STA arrivals drive the aggressor ramps).
    pub aggressors: Vec<NetId>,
    /// Total coupling capacitance between the victim and each aggressor (F).
    /// Used for every aggressor missing an entry in [`cm_per_aggressor`](Self::cm_per_aggressor).
    pub cm_total: f64,
    /// Per-aggressor coupling totals (F), aligned with
    /// [`aggressors`](Self::aggressors). Extracted parasitics (SPEF) fill
    /// this; hand-written specs may leave it empty to give every aggressor
    /// `cm_total`.
    pub cm_per_aggressor: Vec<f64>,
    /// Distributed RC spec of the victim wire (and of any aggressor wire
    /// missing an entry in [`aggressor_lines`](Self::aggressor_lines)).
    pub line: RcLineSpec,
    /// Per-aggressor wire specs, aligned with
    /// [`aggressors`](Self::aggressors). Extraction supplies each
    /// aggressor's own RC totals; empty means every aggressor reuses the
    /// victim's line.
    pub aggressor_lines: Vec<RcLineSpec>,
    /// Coupling capacitance of *quiet* aggressors (F): aggressors removed
    /// from switching analysis (e.g. by the timing-window filter) still
    /// load the victim through their coupling caps, which a quiet,
    /// low-impedance driver effectively grounds. This total is spread
    /// along the victim line as extra ground capacitance.
    pub quiet_cm: f64,
    /// Receiver load at the victim's far end (F). `None` (default) sums
    /// the fanout pin capacitances from the library; extraction-backed
    /// specs override it with the SPEF `*L` pin load.
    pub receiver_load: Option<f64>,
    /// Thevenin resistance modeling each driver's output stage (Ω).
    pub driver_resistance: f64,
    /// Aggressor alignment offset added to each aggressor's STA arrival (s).
    /// Sweeping this reproduces the paper's noise-injection timing cases.
    pub aggressor_skew: f64,
    /// `true` (default) switches aggressors opposite to the victim — the
    /// worst case for delay push-out.
    pub aggressors_oppose: bool,
    /// Extraction defect carried from the parasitics reducer (`None` for
    /// healthy nets): a victim whose mesh is electrically degenerate —
    /// zero capacitance, a node disconnected from the resistor tree —
    /// has no meaningful transient solution, so the reduction refuses to
    /// run it. Under [`FaultPolicy::Fail`] the analysis returns
    /// [`StaError::DegenerateMesh`]; under [`FaultPolicy::Isolate`] the
    /// victim is dropped and recorded as a degraded net.
    pub defect: Option<String>,
}

impl CouplingSpec {
    /// A spec with the workspace's default electrical assumptions.
    pub fn new(victim: NetId, aggressors: Vec<NetId>, cm_total: f64, line: RcLineSpec) -> Self {
        CouplingSpec {
            victim,
            aggressors,
            cm_total,
            cm_per_aggressor: Vec::new(),
            line,
            aggressor_lines: Vec::new(),
            quiet_cm: 0.0,
            receiver_load: None,
            driver_resistance: 200.0,
            aggressor_skew: 0.0,
            aggressors_oppose: true,
            defect: None,
        }
    }

    /// Coupling total between the victim and aggressor `i` (F).
    pub fn cm_of(&self, i: usize) -> f64 {
        self.cm_per_aggressor
            .get(i)
            .copied()
            .unwrap_or(self.cm_total)
    }

    /// Wire spec of aggressor `i`.
    pub fn line_of(&self, i: usize) -> RcLineSpec {
        self.aggressor_lines.get(i).copied().unwrap_or(self.line)
    }

    /// Transition the aggressors make while the victim makes `victim`.
    fn aggressor_polarity(&self, victim: Polarity) -> Polarity {
        if self.aggressors_oppose {
            victim.inverted()
        } else {
            victim
        }
    }

    /// A copy of this spec restricted to the aggressor indices in `keep`
    /// (preserving per-aggressor alignment). Dropped aggressors' coupling
    /// totals move into [`quiet_cm`](Self::quiet_cm) so the victim keeps
    /// seeing their capacitive load.
    fn restricted(&self, keep: &[usize]) -> CouplingSpec {
        let mut spec = self.clone();
        spec.aggressors = keep.iter().map(|&i| self.aggressors[i]).collect();
        spec.cm_per_aggressor = keep.iter().map(|&i| self.cm_of(i)).collect();
        spec.aggressor_lines = keep.iter().map(|&i| self.line_of(i)).collect();
        let kept_cm: f64 = spec.cm_per_aggressor.iter().sum();
        let all_cm: f64 = (0..self.aggressors.len()).map(|i| self.cm_of(i)).sum();
        spec.quiet_cm = self.quiet_cm + (all_cm - kept_cm).max(0.0);
        spec
    }
}

/// A net's switching window: the span of times a transition can occur on
/// it, over both polarities.
///
/// Production SI flows prune aggressors whose windows cannot overlap the
/// victim's before paying for noise analysis (temporal logical
/// correlation); this is the same filter driven by the workspace's own STA
/// sweeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalWindow {
    /// Earliest possible transition start (s).
    pub earliest: f64,
    /// Latest possible transition end — worst arrival plus its slew (s).
    pub latest: f64,
}

impl ArrivalWindow {
    /// Whether the window is inverted (or contains a NaN edge): its
    /// earliest bound lies strictly after its latest one, so no transition
    /// time satisfies both — the window is empty.
    ///
    /// Inverted windows arise naturally from constant or never-switching
    /// nets whose `+inf`/`−inf` sentinels were never tightened, and from
    /// negative-skew constraint sets; they must never be treated as
    /// "covers everything".
    pub fn is_inverted(&self) -> bool {
        !(self.earliest <= self.latest)
    }

    /// Whether an aggressor window, shifted by `skew`, can overlap this
    /// (victim) window.
    ///
    /// Both windows are **closed** intervals `[earliest, latest]`:
    /// windows that merely touch at a boundary (`aggressor.latest + skew ==
    /// self.earliest`) *do* overlap, and a zero-width window (`earliest ==
    /// latest`) overlaps anything containing its single instant. This is
    /// the conservative choice — a shared boundary instant is a legal
    /// alignment, so the aggressor must be kept.
    ///
    /// Inverted (empty) windows on either side never overlap: an empty
    /// set of candidate transition times cannot align with anything.
    pub fn overlaps(&self, aggressor: &ArrivalWindow, skew: f64) -> bool {
        if self.is_inverted() || aggressor.is_inverted() {
            return false;
        }
        let a_lo = aggressor.earliest + skew;
        let a_hi = aggressor.latest + skew;
        a_lo <= self.latest && self.earliest <= a_hi
    }

    /// The smallest window containing both `self` and `other` (their
    /// convex hull) — the certified-conservative update the convergence
    /// governor applies to an oscillating net: a window that covers both
    /// of the last two iterates admits every aggressor either of them
    /// would, so replacing the iterate with the union can only keep more
    /// aggressors, never drop one.
    pub fn union(&self, other: &ArrivalWindow) -> ArrivalWindow {
        ArrivalWindow {
            earliest: self.earliest.min(other.earliest),
            latest: self.latest.max(other.latest),
        }
    }
}

/// How the analysis reacts when one victim's reduction fails after the
/// numeric fallback chain is exhausted (or its parasitics are
/// degenerate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultPolicy {
    /// Propagate the error: the whole analysis call fails (the
    /// historical behavior, and the default).
    #[default]
    Fail,
    /// Drop only the failing victim's adjustment — it keeps its nominal
    /// (crosstalk-free) timing — record the net as degraded in
    /// [`SiDiagnostics::degrade_events`], and finish the analysis with
    /// partial results.
    Isolate,
}

/// The recovery step a [`DegradeEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeAction {
    /// A sparse factor/solve failed; the victim was retried on the dense
    /// partial-pivot LU backend at the same timestep.
    DenseRetry,
    /// The dense retry failed too; retried once more with the timestep
    /// halved.
    HalvedTimestep,
    /// A cone task panicked, at any worker count; the cone was recomputed
    /// once on the coordinator. Recorded once per victim of the cone.
    ConeRetry,
    /// The fallback chain was exhausted (or the mesh is degenerate)
    /// under [`FaultPolicy::Isolate`]: the victim's adjustment was
    /// dropped and the net keeps its nominal timing.
    VictimDropped,
    /// The analysis deadline expired before this victim's cone was
    /// scheduled: the net keeps its *stale* nominal (crosstalk-free)
    /// timing and the run is marked [`SiDiagnostics::timed_out`].
    DeadlineSkipped,
}

/// One structured record of the fault-tolerance layer acting: what
/// degraded, where, and whether the recovery restored a full result.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradeEvent {
    /// The affected victim net (`None` for events not attributable to
    /// one net).
    pub net: Option<NetId>,
    /// The affected victim transition, when one was being reduced.
    pub polarity: Option<Polarity>,
    /// The recovery step taken.
    pub action: DegradeAction,
    /// The failure that triggered it.
    pub cause: String,
    /// `true` when the step (or a later one in the chain) produced a
    /// full result; `false` when the net ended up degraded.
    pub recovered: bool,
}

/// Options of the timing-window crosstalk analysis.
///
/// Not `Copy`: [`deadline`](Self::deadline) carries shared clock/token
/// state — clone the options to reuse them across runs.
#[derive(Debug, Clone, PartialEq)]
pub struct SiOptions {
    /// Equivalent-waveform reduction technique.
    pub method: MethodKind,
    /// Upper bound on fixed-point iterations. Delay push-out moves victim
    /// windows, which can re-admit previously pruned aggressors, so the
    /// analysis iterates until windows stop moving (the worst per-net
    /// arrival moves by at most 0.1 ps).
    pub max_iterations: usize,
    /// Worker threads of the cone-partitioned sweeps, at most one per
    /// fanout cone; a cone's task also runs its victims' transient
    /// reductions. `1` (default) runs every cone on the caller's thread;
    /// any value produces bit-identical results (see the module docs).
    pub threads: usize,
    /// Linear-solver backend of every victim reduction (default
    /// [`SolverBackend::Sparse`]). [`SolverBackend::Dense`] is the parity
    /// escape hatch: both backends integrate the same trapezoidal system,
    /// so worst arrivals agree to solver round-off (≪ 1 fs).
    pub backend: SolverBackend,
    /// What to do when one victim's reduction fails beyond recovery
    /// (default [`FaultPolicy::Fail`]): fail the whole call, or drop the
    /// victim and finish with partial results.
    pub fault_policy: FaultPolicy,
    /// Wall-clock budget of the analysis (default `None`: unbounded),
    /// polled cooperatively at cone-task and iteration boundaries. See
    /// the module docs ("Resource governance") for expiry semantics.
    pub deadline: Option<Deadline>,
    /// When `true` (default), the fixed point watches for stagnation or
    /// oscillation and switches to the certified-conservative widening
    /// update instead of returning unconverged at the iteration cap (see
    /// the module docs). Never interferes with a run whose deltas are
    /// shrinking, so converging analyses are bit-identical either way.
    pub convergence_governor: bool,
}

impl Default for SiOptions {
    fn default() -> Self {
        SiOptions {
            method: MethodKind::Sgdp,
            max_iterations: 4,
            threads: 1,
            backend: SolverBackend::Sparse,
            fault_policy: FaultPolicy::default(),
            deadline: None,
            convergence_governor: true,
        }
    }
}

/// Convergence threshold of the window fixed point (s): the analysis stops
/// once the worst per-net arrival moves by at most this much between
/// iterations.
const CONVERGENCE_TOL: f64 = 0.1e-12;

/// One aggressor discarded by the timing-window filter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrunedAggressor {
    /// The victim whose spec the aggressor was removed from.
    pub victim: NetId,
    /// The pruned aggressor.
    pub aggressor: NetId,
    /// The victim's window at the deciding iteration.
    pub victim_window: ArrivalWindow,
    /// The aggressor's (unshifted) window at the deciding iteration.
    pub aggressor_window: ArrivalWindow,
}

/// One executed pass of the window fixed point: what the pass cost and
/// how far it moved the solution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiIteration {
    /// Victim transitions reduced in this pass: every valid one in the
    /// cones the pass re-solved, which are the cones holding a victim
    /// whose filtered spec is new or changed — every victim's cone in the
    /// first pass.
    pub victims_recomputed: usize,
    /// Adjustments carried over unchanged from the previous pass, from the
    /// cones this pass did not re-solve (0 in the first pass).
    pub victims_cached: usize,
    /// Aggressors discarded by the window filter feeding this pass.
    pub aggressors_pruned: usize,
    /// Worst per-net arrival movement versus the previous pass's report
    /// (s) — the quantity the convergence test compares against its
    /// 0.1 ps tolerance.
    pub max_window_delta: f64,
}

/// One intervention of the convergence governor: the fixed point was
/// stagnating (or hit its cap unconverged), so this net's window was
/// widened from the iterate the pass computed to the union of its last
/// two iterates — deliberate, *visible* pessimism in exchange for
/// certified termination.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceAction {
    /// 1-based fixed-point iteration the widening was applied after.
    pub iteration: usize,
    /// The net whose window was widened.
    pub net: NetId,
    /// The window the iteration actually computed.
    pub fresh: ArrivalWindow,
    /// The conservative union installed instead (⊇ `fresh` and ⊇ the
    /// previous iterate by construction).
    pub widened: ArrivalWindow,
}

/// One governed (certified-conservative) window update: installs the
/// union of the last two iterates for every participating net, recording
/// a [`ConvergenceAction`] per actual widening. Unions only grow, so
/// repeated application reaches a fixed point: an oscillating iterate
/// sequence is replaced by windows covering *both* iterates, after which
/// further updates change nothing — the termination argument behind the
/// governed iteration cap.
fn governed_window_update(
    graph: &TimingGraph,
    windows: &mut [Vec<Option<ArrivalWindow>>],
    prev_windows: &[Vec<Option<ArrivalWindow>>],
    participants: &[NetId],
    iteration: usize,
    convergence_actions: &mut Vec<ConvergenceAction>,
) {
    for &net in participants {
        let Some(slot) = graph.at_mut(windows, net) else {
            continue;
        };
        let prev = graph.at(prev_windows, net).copied().flatten();
        *slot = match (prev, *slot) {
            (Some(p), Some(f)) => {
                let widened = f.union(&p);
                if widened != f {
                    convergence_actions.push(ConvergenceAction {
                        iteration,
                        net,
                        fresh: f,
                        widened,
                    });
                }
                Some(widened)
            }
            // A net that lost its window keeps the previous one —
            // dropping it would *prune more*, the opposite of
            // conservative.
            (Some(p), None) => Some(p),
            (None, fresh) => fresh,
        };
    }
}

/// Structured convergence and cost diagnostics of one analysis call,
/// read as [`SiAnalysis::diagnostics`].
#[derive(Debug, Clone)]
pub struct SiDiagnostics {
    /// One record per executed fixed-point pass, in order. The loop stops
    /// without a pass once no filtered spec changed, so
    /// `iterations.len()` counts passes actually paid for.
    pub iterations: Vec<SiIteration>,
    /// Whether the window fixed point converged within the iteration cap.
    pub converged: bool,
    /// Independent fanout cones the sweep was partitioned into.
    pub cones: usize,
    /// Reduction groups that reused a factorization shared within this
    /// call, summed over all iterations. A group is a victim net's
    /// recomputed transitions that share a time grid — usually its rise
    /// and fall — and makes one lookup (see the module docs).
    pub cache_hits: usize,
    /// Reduction groups that assembled and factored a fresh system.
    pub cache_misses: usize,
    /// Linear-solver backend the victim reductions ran on.
    pub solver_backend: SolverBackend,
    /// Largest factored-system nonzero count observed while assembling
    /// victim stages.
    pub solver_nnz: usize,
    /// Every action of the fault-tolerance layer during this call, in
    /// canonical `(net, polarity)` order: fallback-chain retries, cone
    /// retries after worker panics, dropped victims, and
    /// deadline-skipped victims. Empty on healthy runs.
    pub degrade_events: Vec<DegradeEvent>,
    /// Whether [`SiOptions::deadline`] expired before the analysis
    /// finished: the result is partial — every skipped victim carries a
    /// [`DegradeAction::DeadlineSkipped`] event and kept its stale
    /// nominal timing.
    pub timed_out: bool,
    /// Every widening the convergence governor applied (see
    /// [`ConvergenceAction`]). Empty whenever the fixed point converged
    /// on its own.
    pub convergence_actions: Vec<ConvergenceAction>,
    /// Session epoch this result belongs to: `0` for a plain batch
    /// analysis; a long-lived [`crate::session`] consumer stamps each
    /// merged incremental result with its commit counter so stale reads
    /// (a report retained across an edit) are detectable by comparison
    /// against the session's current epoch.
    pub epoch: u64,
}

impl SiDiagnostics {
    /// Final pass's worst arrival movement (s); `None` before any pass
    /// recorded.
    pub fn final_window_delta(&self) -> Option<f64> {
        self.iterations.last().map(|it| it.max_window_delta)
    }

    /// Nets whose crosstalk reduction was skipped by deadline expiry —
    /// their reported timing is the stale nominal value — sorted and
    /// deduplicated. Empty iff the run did not time out mid-sweep.
    pub fn stale_nets(&self) -> Vec<NetId> {
        let mut nets: Vec<NetId> = self
            .degrade_events
            .iter()
            .filter(|e| e.action == DegradeAction::DeadlineSkipped)
            .filter_map(|e| e.net)
            .collect();
        nets.sort_unstable();
        nets.dedup();
        nets
    }

    /// Nets whose result is actually degraded — a degrade event that did
    /// not recover (the victim's adjustment was dropped) — sorted and
    /// deduplicated. A subset of the nets of
    /// [`degrade_events`](Self::degrade_events).
    pub fn unrecovered_nets(&self) -> Vec<NetId> {
        let mut nets: Vec<NetId> = self
            .degrade_events
            .iter()
            .filter(|e| !e.recovered)
            .filter_map(|e| e.net)
            .collect();
        nets.sort_unstable();
        nets.dedup();
        nets
    }
}

/// Result of [`Sta::analyze_with_crosstalk_windows`].
#[derive(Debug, Clone)]
pub struct SiAnalysis {
    /// The timing report of the final iteration.
    pub report: TimingReport,
    /// Per-victim adjustments applied in the final iteration.
    pub adjustments: Vec<SiAdjustment>,
    /// Aggressors pruned by the window filter in the final iteration.
    pub pruned: Vec<PrunedAggressor>,
    /// Per-iteration convergence trace plus cache/solver statistics.
    pub diagnostics: SiDiagnostics,
}

/// Outcome of the SI reduction on one victim net.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiAdjustment {
    /// The victim net.
    pub net: NetId,
    /// Victim transition this adjustment applies to.
    pub polarity: Polarity,
    /// Arrival before coupling was considered (s).
    pub base_arrival: f64,
    /// Arrival of `Γeff` after coupling (s).
    pub noisy_arrival: f64,
    /// Slew of `Γeff` (s).
    pub noisy_slew: f64,
}

/// Whether `e` is the kind of failure the numeric fallback chain can
/// plausibly fix — a solver-level error (singular/lost pivot, non-finite
/// values) — as opposed to a structural, library, or specification
/// problem that would fail identically on any backend or grid.
fn is_numeric_failure(e: &StaError) -> bool {
    matches!(e, StaError::Circuit(nsta_circuit::CircuitError::Numeric(_)))
}

/// Canonical topology signature of one victim reduction: the exact bit
/// patterns of every value that enters the factored system — the grid
/// (`dt`, window start, step count), the driver resistance, the victim
/// line with the quiet coupling folded into its ground cap, the receiver
/// load, and per kept aggressor its line and coupling total. Two reductions with equal
/// keys build bit-identical matrices, so they can share one factorization
/// without changing any result bit.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct TopoKey(Vec<u64>);

impl TopoKey {
    fn new(
        dt: f64,
        t_start: f64,
        steps: u64,
        spec: &CouplingSpec,
        victim_line: &RcLineSpec,
        load: f64,
    ) -> Self {
        let mut v = Vec::with_capacity(8 + 4 * spec.aggressors.len());
        v.push(dt.to_bits());
        v.push(t_start.to_bits());
        v.push(steps);
        v.push(spec.driver_resistance.to_bits());
        v.push(victim_line.r_total.to_bits());
        v.push(victim_line.c_total.to_bits());
        v.push(victim_line.segments as u64);
        v.push(load.to_bits());
        for i in 0..spec.aggressors.len() {
            let line = spec.line_of(i);
            v.push(line.r_total.to_bits());
            v.push(line.c_total.to_bits());
            v.push(line.segments as u64);
            v.push(spec.cm_of(i).to_bits());
        }
        TopoKey(v)
    }
}

/// A factored system plus the node the reduction probes, ready for reuse
/// by any victim whose stage matches the key it is stored under.
#[derive(Debug, Clone)]
struct CachedSystem {
    system: Arc<FactoredSystem>,
    victim_far: CktNode,
}

/// The factorizations one analysis call shares (see the module docs),
/// plus its hit/miss/largest-nnz counters. The counters are statistics
/// only: under `threads > 1` two workers may both miss one key and race
/// the insert, which cannot change a result (the first insert wins, and
/// both systems are bit-identical) but can move the hit/miss split.
#[derive(Debug, Default)]
struct Factorizations {
    map: Mutex<HashMap<TopoKey, CachedSystem>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    max_nnz: AtomicUsize,
}

impl Factorizations {
    fn get(&self, key: &TopoKey) -> Option<CachedSystem> {
        // Only single `get`/`insert` calls run under the lock, so a
        // poisoned map is never half-written.
        let found = self
            .map
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(key)
            .cloned();
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            nsta_obs::count!("sta.topo_cache.hits");
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            nsta_obs::count!("sta.topo_cache.misses");
        }
        found
    }

    fn insert(&self, key: TopoKey, entry: CachedSystem) {
        let nnz = entry.system.nnz();
        self.max_nnz.fetch_max(nnz, Ordering::Relaxed);
        nsta_obs::recorder().gauge_max("sta.solver.max_nnz", nnz as f64);
        self.map
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(key)
            .or_insert(entry);
    }
}

/// Timestep buckets the raw `slew / 50` heuristic is rounded **up** into,
/// so reductions with nearby slews land on a shared, cacheable grid. The
/// bounds match the historical `clamp(0.5 ps, 5 ps)`.
const DT_BUCKETS: [f64; 5] = [0.5e-12, 1e-12, 2e-12, 4e-12, 5e-12];

/// Simulation windows are rounded out to multiples of this — the cap up,
/// a negative start down — so victims that settle at nearby times share
/// one grid. A sweep stops on [`SETTLE_TOLERANCE`] before the cap.
const T_STOP_QUANTUM: f64 = 0.5e-9;

/// Settle margin appended after the latest participant's transition ends
/// to size the window's cap. The reduced stage's time constants are
/// `R_drive · C_stage` — tens of picoseconds — so the margin is an upper
/// bound, not the sweep's length: each sweep stops once its stage has
/// settled, and a column that reaches the cap unsettled is counted
/// (`circuit.transient.settled` falls short of `circuit.transient.sweeps`).
const SETTLE_MARGIN: f64 = 1e-9;

/// Settle tolerance of every victim sweep, as a fraction of Vdd: a column
/// stops recording at the first step, at or after the one where its last
/// source reaches its rail, at which every node of the stage lies within
/// `SETTLE_TOLERANCE · Vdd` of the DC point of the final source values
/// ([`TransientOptions::until_settled`]).
///
/// The stop cannot move Γeff. The reduction reads three things: the
/// crossings of 10/50/90% of Vdd, found by scans; samples inside the
/// critical regions, plus or minus half a sensitivity step; and the
/// receiver ramp, whose record ends at max(input end, ramp end). Once
/// every source is final, the RC stage decays passively toward that DC
/// point, where each line sits at its own driver's final rail (coupling
/// capacitors are open at DC); a node within 1e-6·Vdd of it would have to
/// move about 10⁵ times the tolerance to reach a threshold.
/// So nothing the reduction reads lies after the stop, and every Γeff is
/// bit-identical to one reduced on the whole cap. That holds for every
/// [`MethodKind`] but E4, whose area match integrates the noisy record's
/// distance from its rail up to the record's end: the stop drops a tail
/// of area ≈ tolerance × time constant, which moved E4's Γeff by at most
/// 2.7e-4 ps on the four-group test bus.
///
/// The value follows that argument, not the benchmark. The mean points a
/// column records at `spefbus --groups 64` (2 ps steps, a 751-point cap)
/// against the tolerance, in units of Vdd: 1e-2 → 117, 1e-3 → 160,
/// 1e-4 → 204, 1e-5 → 247, 1e-6 → 290, 1e-7 → 334, 1e-8 → 377,
/// 1e-9 → 420 — ≈43 steps (87 ps) per decade, a dominant time constant of
/// ≈38 ps. Every value from 1e-2 to 1e-9 left the bus's Γeff
/// bit-identical, but a looser one buys speed on exactly the traces whose
/// tails the argument protects. A tighter one buys margin the thresholds
/// do not need and nears a floor: on the 16-group, 48-segment bus one
/// column of 72 reaches its cap unsettled at 1e-8, and at 1e-9 all 72 do,
/// although 1e-8 took them ≈400 of their 751 points — the march stops
/// closing in on the DC point, it does not just decay slowly.
const SETTLE_TOLERANCE: f64 = 1e-6;

fn quantize_dt(victim_slew: f64) -> f64 {
    let raw = (victim_slew / 50.0).clamp(0.5e-12, 5e-12);
    // A NaN slew survives the clamp and matches no bucket; hand the raw
    // value on so `TransientOptions::new` rejects it as a recoverable
    // error instead of panicking here.
    DT_BUCKETS
        .iter()
        .find(|&&b| b >= raw)
        .copied()
        .unwrap_or(raw)
}

fn quantize_t_stop(latest: f64) -> f64 {
    ((latest + SETTLE_MARGIN) / T_STOP_QUANTUM).ceil() * T_STOP_QUANTUM
}

/// The window start of a stage whose participants leave their rails at
/// `earliest` at the soonest: 0, or the quantum at or below a negative
/// `earliest` (a negative input delay), so the DC start sits before every
/// transition.
fn quantize_t_start(earliest: f64) -> f64 {
    if earliest < 0.0 {
        (earliest / T_STOP_QUANTUM).floor() * T_STOP_QUANTUM
    } else {
        0.0
    }
}

/// What one crosstalk pass produces: the final states of the cones it
/// scheduled, the applied adjustments, the number of victim transitions it
/// reduced, and any fault-tolerance actions taken along the way.
type PassResult = (
    PerCone<NetState>,
    Vec<SiAdjustment>,
    usize,
    Vec<DegradeEvent>,
);

/// The per-call invariants every function of a crosstalk pass reads.
#[derive(Clone, Copy)]
struct PassContext<'a> {
    bc: &'a BoundaryConditions,
    method: MethodKind,
    backend: SolverBackend,
    /// The nominal sweep's states of the cones this call swept: every
    /// aggressor ramp is built from them ([`PassContext::nominal_state`]).
    base: &'a [Vec<NetState>],
    /// The analysis an edit applies to, whose states are the nominal
    /// sweep's for every closure cone the edit did not sweep; `None` for a
    /// batch analysis, which sweeps every cone.
    retained: Option<&'a RetainedAnalysis>,
    threads: usize,
    policy: FaultPolicy,
    deadline: Option<&'a Deadline>,
    /// The call's shared factorizations; `None` factors every reduction
    /// afresh, the path the fallback chain takes.
    factors: Option<&'a Factorizations>,
}

impl<'a> PassContext<'a> {
    /// The nominal sweep's state of `net`: this call's sweep, or the
    /// retained analysis's for a cone the call did not sweep (see
    /// [`crate::session`]).
    fn nominal_state(&self, graph: &TimingGraph, net: NetId) -> Option<&'a NetState> {
        graph
            .at(self.base, net)
            .or_else(|| graph.at(&self.retained?.states, net))
    }
}

/// One valid victim transition met by a cone task.
struct VictimTransition<'s> {
    spec: &'s CouplingSpec,
    polarity: Polarity,
    arrival: f64,
    slew: f64,
}

impl<'s> VictimTransition<'s> {
    /// The valid transitions of victim `spec` at its sweep `state`, rise
    /// first.
    fn of_net(spec: &'s CouplingSpec, state: &NetState) -> Vec<Self> {
        [Polarity::Rise, Polarity::Fall]
            .into_iter()
            .filter_map(|polarity| {
                let point = state.get(polarity);
                point.valid.then_some(VictimTransition {
                    spec,
                    polarity,
                    arrival: point.arrival,
                    slew: point.slew,
                })
            })
            .collect()
    }
}

/// What resolving the victims of a cone produces, merged deterministically
/// by the pass.
#[derive(Default)]
struct Resolved {
    adjustments: Vec<SiAdjustment>,
    /// Victim transitions reduced, successfully or not.
    recomputed: usize,
    /// Fault-tolerance actions taken while reducing these victims.
    degrades: Vec<DegradeEvent>,
}

impl Resolved {
    /// Settles one victim net: writes the `Γeff` of each of its
    /// transitions, paired with what [`Sta::victim_gammas`] returned for
    /// it, into `state`. A failed transition drops the victim under
    /// [`FaultPolicy::Isolate`] — it keeps its nominal (crosstalk-free)
    /// timing point — and propagates otherwise.
    fn settle_net(
        &mut self,
        th: Thresholds,
        policy: FaultPolicy,
        units: &[VictimTransition<'_>],
        results: Vec<VictimResult>,
        state: &mut NetState,
    ) -> Result<(), StaError> {
        self.recomputed += units.len();
        for (unit, result) in units.iter().zip(results) {
            let net = unit.spec.victim;
            let (gamma, base_arrival) = match result {
                Ok(found) => found,
                Err(e) if policy == FaultPolicy::Isolate => {
                    self.degrades.push(DegradeEvent {
                        net: Some(net),
                        polarity: Some(unit.polarity),
                        action: DegradeAction::VictimDropped,
                        cause: e.to_string(),
                        recovered: false,
                    });
                    continue;
                }
                Err(e) => return Err(e),
            };
            let point = state.get_mut(unit.polarity);
            point.arrival = gamma.arrival_mid();
            point.slew = gamma.slew(th);
            self.adjustments.push(SiAdjustment {
                net,
                polarity: unit.polarity,
                base_arrival,
                noisy_arrival: point.arrival,
                noisy_slew: point.slew,
            });
        }
        Ok(())
    }

    fn append(&mut self, mut other: Resolved) {
        self.adjustments.append(&mut other.adjustments);
        self.recomputed += other.recomputed;
        self.degrades.append(&mut other.degrades);
    }
}

/// One victim transition's reduced stage: what each step of the fallback
/// chain re-runs on its own `(dt, backend)` grid.
struct VictimStage<'s> {
    spec: &'s CouplingSpec,
    polarity: Polarity,
    victim_ramp: SaturatedRamp,
    agg_ramps: Vec<SaturatedRamp>,
    /// The victim wire, with the quiet coupling folded into its ground
    /// capacitance.
    victim_line: RcLineSpec,
    /// Receiver load at the victim far end (F).
    load: f64,
    /// The simulation window: its start and its cap.
    t_start: f64,
    t_stop: f64,
    /// The quantized timestep of the first attempt.
    dt: f64,
}

impl VictimStage<'_> {
    /// Whether two transitions of one victim net run on the same grid. The
    /// spec fixes every other field of their [`TopoKey`], so equal grids
    /// mean equal keys: one factored system serves both.
    fn same_grid(&self, other: &VictimStage<'_>) -> bool {
        self.dt == other.dt && self.t_start == other.t_start && self.t_stop == other.t_stop
    }

    /// The reduced stage's circuit — a Thevenin victim driver into the
    /// victim line, star-coupled to one Thevenin-driven line per kept
    /// aggressor — and its victim far-end node. Voltage source 0 is the
    /// victim driver; sources 1..=N follow aggressor order.
    fn circuit(&self) -> Result<(Circuit, CktNode), StaError> {
        let spec = self.spec;
        let mut ckt = Circuit::new();
        let v_in = ckt.node("victim_in");
        // Sources are registered with a cheap 2-point placeholder: the
        // factored system is driven by explicit source vectors at run
        // time, and keeping victim-specific dense grids out of the shared
        // value stops the first victim's waveforms from being pinned for
        // the whole analysis.
        let placeholder = Waveform::constant(0.0, self.t_start, self.t_stop)?;
        ckt.thevenin_driver(v_in, placeholder.clone(), spec.driver_resistance)?;
        let mut agg_ins = Vec::with_capacity(self.agg_ramps.len());
        for _ in &self.agg_ramps {
            let a_in = ckt.anon_node();
            ckt.thevenin_driver(a_in, placeholder.clone(), spec.driver_resistance)?;
            agg_ins.push(a_in);
        }
        let victim_far = if agg_ins.is_empty() {
            // All aggressors pruned: the victim still sees its wire.
            self.victim_line.build(&mut ckt, v_in, "w")?
        } else {
            let bundle = StarCoupledLines::new(
                self.victim_line,
                (0..agg_ins.len())
                    .map(|i| (spec.line_of(i), spec.cm_of(i)))
                    .collect(),
            )?;
            let (far, _) = bundle.build(&mut ckt, v_in, &agg_ins, "w")?;
            far
        };
        ckt.capacitor(victim_far, Circuit::GROUND, self.load)?;
        Ok((ckt, victim_far))
    }
}

/// A victim transition's fresh `(Γeff, base arrival)`, or why it failed.
type VictimResult = Result<(SaturatedRamp, f64), StaError>;

impl Sta {
    /// Rejects a spec whose victim the design lacks, and two specs naming
    /// the same victim.
    fn check_victims(&self, couplings: &[CouplingSpec]) -> Result<(), StaError> {
        let n = self.design().net_count();
        if let Some(s) = couplings.iter().find(|s| s.victim.0 >= n) {
            return Err(StaError::Unresolved(format!(
                "coupling spec names unknown victim net #{}",
                s.victim.0
            )));
        }
        let mut victims: Vec<NetId> = couplings.iter().map(|s| s.victim).collect();
        victims.sort_unstable();
        if let Some(dup) = victims.windows(2).find(|w| w[0] == w[1]) {
            return Err(StaError::Structure(format!(
                "two coupling specs name the same victim net {}",
                self.design().net_name(dup[0])
            )));
        }
        Ok(())
    }

    /// One crosstalk-adjusted forward sweep. `cx.factors` shares factored
    /// transient systems across structurally identical victim stages.
    ///
    /// The pass is cone-partitioned: each weakly-connected component that
    /// `scope` marks (`None`: every cone) is one task — fanin updates and
    /// victim reductions interleaved in topological order — on a worker
    /// pool with at most one worker per cone, merged in cone order. The
    /// per-victim arithmetic is a fixed operation sequence and the
    /// returned adjustments are sorted into `(net, rise-first)` order, so
    /// results are bit-identical across thread counts. Every victim of
    /// `couplings` is a net of the design ([`Sta::check_victims`]).
    fn crosstalk_pass(
        &self,
        cx: &PassContext<'_>,
        couplings: &[CouplingSpec],
        scope: Option<&[bool]>,
    ) -> Result<PassResult, StaError> {
        let graph = self.graph();
        // The victims of each cone; a cone task looks its nets' specs up
        // by slot.
        let mut victims: Vec<Vec<&CouplingSpec>> = vec![Vec::new(); graph.components().len()];
        for s in couplings {
            if let Some(cone) = graph.cone_of(s.victim) {
                victims[cone].push(s);
            }
        }
        let th = Thresholds::cmos(self.library().voltage);
        // Out-of-scope cones are never propagated and hold no states.
        let active = graph.scoped_cones(scope);
        let (outcomes, retried) = crate::par::par_map_govern(
            cx.threads,
            &active,
            cx.deadline,
            |&cone| -> Result<(Vec<NetState>, Resolved), StaError> {
                // Fault-injection site: a cone task panics at entry,
                // exactly where an assertion or slice bug in the per-cone
                // work would. The pool catches it and the coordinator
                // retries the cone — this site only fires once per
                // opportunity index, so the retry runs clean.
                if nsta_obs::fault::should_fire(nsta_obs::fault::WORKER_PANIC) {
                    panic!("injected: cone worker panic");
                }
                let nets = &graph.components()[cone];
                let mut cone_span = nsta_obs::span!("si.cone");
                cone_span.set_arg("nets", nets.len() as f64);
                let mut spec_at: Vec<Option<&CouplingSpec>> = vec![None; nets.len()];
                for &s in &victims[cone] {
                    spec_at[graph.cone_slot(s.victim)] = Some(s);
                }
                let mut local = self.seed_cone(cx.bc, false, cone);
                let mut out = Resolved::default();
                for (j, &net) in nets.iter().enumerate() {
                    local[j] = self.propagate_net(net, &local, cx.bc, false);
                    let Some(spec) = spec_at[j] else { continue };
                    let units = VictimTransition::of_net(spec, &local[j]);
                    let results = self.victim_gammas(cx, &units, &mut out.degrades);
                    out.settle_net(th, cx.policy, &units, results, &mut local[j])?;
                }
                cone_span.set_arg("recomputed", out.recomputed as f64);
                Ok((local, out))
            },
        );
        // Deterministic merge: cone order is fixed by the graph, the work
        // inside each cone by its topological order.
        let mut states = vec![Vec::new(); graph.components().len()];
        let mut resolved = Resolved::default();
        for (ci, (&cone, outcome)) in active.iter().zip(outcomes).enumerate() {
            let (action, cause) = match outcome {
                // Deadline-skipped cone: its nets keep the nominal
                // (crosstalk-free) sweep's states — valid, just stale —
                // and every victim in it is recorded so the staleness is
                // attributable per net.
                None => {
                    states[cone] = cx.base[cone].clone();
                    (
                        DegradeAction::DeadlineSkipped,
                        "analysis deadline expired before this cone was scheduled; \
                         victim keeps stale nominal timing",
                    )
                }
                Some(outcome) => {
                    let (cone_states, cone_resolved) = outcome?;
                    states[cone] = cone_states;
                    resolved.append(cone_resolved);
                    // A cone the pool recomputed on the coordinator after
                    // a panic: the retry already produced full results.
                    if !retried.contains(&ci) {
                        continue;
                    }
                    (
                        DegradeAction::ConeRetry,
                        "cone task panicked; recomputed on the coordinator",
                    )
                }
            };
            for s in &victims[cone] {
                resolved.degrades.push(DegradeEvent {
                    net: Some(s.victim),
                    polarity: None,
                    action,
                    cause: cause.to_string(),
                    recovered: action == DegradeAction::ConeRetry,
                });
            }
        }
        // Canonical adjustment order, independent of cone order: each
        // `(net, polarity)` appears at most once per pass. Degrade events
        // get the same ordering (stable, so a victim's fallback chain
        // keeps its step order); events with no net sort last.
        resolved
            .adjustments
            .sort_unstable_by_key(|a| (a.net.0, !a.polarity.is_rise()));
        resolved.degrades.sort_by_key(|e| {
            (
                e.net.map_or(usize::MAX, |n| n.0),
                e.polarity.map_or(2usize, |p| !p.is_rise() as usize),
            )
        });
        Ok((
            states,
            resolved.adjustments,
            resolved.recomputed,
            resolved.degrades,
        ))
    }

    /// Switching windows of the nets of the cones `latest` holds rows for:
    /// earliest arrivals from the min sweep, latest-arrival-plus-slew from
    /// `latest` (finished report rows), both taken over rise and fall.
    fn windows_from(
        min_states: &[Vec<NetState>],
        latest: &[Vec<NetTiming>],
    ) -> PerCone<Option<ArrivalWindow>> {
        let window = |min: &NetState, row: &NetTiming| {
            let mut earliest = f64::INFINITY;
            for pol in [Polarity::Rise, Polarity::Fall] {
                let p = min.get(pol);
                if p.valid {
                    earliest = earliest.min(p.arrival);
                }
            }
            let mut end = f64::NEG_INFINITY;
            for pt in [&row.rise, &row.fall].into_iter().flatten() {
                end = end.max(pt.arrival + pt.slew);
            }
            (earliest.is_finite() && end.is_finite()).then_some(ArrivalWindow {
                earliest,
                latest: end,
            })
        };
        min_states
            .iter()
            .zip(latest)
            .map(|(min, rows)| {
                rows.iter()
                    .zip(min)
                    .map(|(row, min)| window(min, row))
                    .collect()
            })
            .collect()
    }

    /// Applies the window filter to `couplings`, returning the surviving
    /// specs plus a record of every pruned aggressor. A net of a cone
    /// `windows` holds nothing for takes its nominal window from
    /// `retained` (see [`crate::session`]). Nets without a window
    /// (unreachable in the sweep) are conservatively kept so the analysis
    /// itself can report them as errors.
    fn window_filter(
        &self,
        couplings: &[CouplingSpec],
        windows: &[Vec<Option<ArrivalWindow>>],
        retained: Option<&RetainedAnalysis>,
    ) -> (Vec<CouplingSpec>, Vec<PrunedAggressor>) {
        let graph = self.graph();
        let window = |net: NetId| {
            graph
                .at(windows, net)
                .or_else(|| graph.at(&retained?.windows, net))
                .copied()
                .flatten()
        };
        let mut filtered = Vec::with_capacity(couplings.len());
        let mut pruned = Vec::new();
        for spec in couplings {
            let Some(victim_window) = window(spec.victim) else {
                filtered.push(spec.clone());
                continue;
            };
            let mut keep = Vec::with_capacity(spec.aggressors.len());
            for (i, &agg) in spec.aggressors.iter().enumerate() {
                match window(agg) {
                    Some(aw) if !victim_window.overlaps(&aw, spec.aggressor_skew) => {
                        pruned.push(PrunedAggressor {
                            victim: spec.victim,
                            aggressor: agg,
                            victim_window,
                            aggressor_window: aw,
                        });
                    }
                    _ => keep.push(i),
                }
            }
            if keep.len() == spec.aggressors.len() {
                filtered.push(spec.clone());
            } else {
                // Keep fully-pruned victims too: their wire RC still adds
                // delay relative to the ideal-wire nominal analysis.
                filtered.push(spec.restricted(&keep));
            }
        }
        (filtered, pruned)
    }

    /// Runs the crosstalk analysis with timing-window aggressor filtering,
    /// iterated to a fixed point.
    ///
    /// Aggressors whose switching windows cannot overlap the victim's
    /// (accounting for `aggressor_skew`) are pruned before any circuit
    /// simulation — the temporal-correlation filter commercial SI flows
    /// apply before paying for noise analysis.
    /// Because crosstalk push-out moves arrival windows, the filter and
    /// analysis repeat until the worst per-net arrival movement drops
    /// to 0.1 ps or less (or the iteration cap is hit).
    ///
    /// The nominal sweep feeding aggressor ramps and earliest windows is
    /// computed once, outside the loop; every pass, the first included,
    /// re-solves only the cones holding a victim whose filtered spec is
    /// new or changed, and with [`SiOptions::threads`] the cones run on a
    /// worker pool (both without changing any result bit — see the module
    /// docs). A design whose pruning never changes runs one pass: the
    /// plain crosstalk analysis over the specs as filtered.
    ///
    /// # Errors
    ///
    /// * [`StaError::Unresolved`] if a spec names an unknown victim net, or
    ///   an aggressor without a computed arrival.
    /// * [`StaError::Structure`] if two specs name the same victim — only
    ///   one spec per victim can be applied, so a duplicate would be
    ///   silently ignored otherwise.
    /// * Propagated circuit/reduction failures. Under
    ///   [`FaultPolicy::Isolate`] a failing victim is dropped instead,
    ///   aggressor lookups included.
    pub fn analyze_with_crosstalk_windows(
        &self,
        constraints: impl Into<BoundaryConditions>,
        couplings: &[CouplingSpec],
        options: &SiOptions,
    ) -> Result<SiAnalysis, StaError> {
        let ConePatch {
            diagnostics,
            states,
            rows,
            adjustments,
            pruned,
            ..
        } = self.session_resolve(constraints, couplings, options, None)?;
        Ok(SiAnalysis {
            report: self.report_from_rows(self.net_rows(rows), &states),
            adjustments,
            pruned,
            diagnostics,
        })
    }

    /// [`Sta::analyze_with_crosstalk_windows`], retaining the final
    /// propagation states, every net's nominal window and every cone's
    /// report extremes, so that a later re-solve ([`Sta::session_resolve`])
    /// can read the cones it does not sweep and [`Sta::session_merge`] can
    /// splice it into the result at the state level (see
    /// [`crate::session`]). A session opens with it.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Sta::analyze_with_crosstalk_windows`].
    pub fn session_analyze(
        &self,
        constraints: impl Into<BoundaryConditions>,
        couplings: &[CouplingSpec],
        options: &SiOptions,
    ) -> Result<RetainedAnalysis, StaError> {
        let ConePatch {
            diagnostics,
            states,
            rows,
            windows,
            adjustments,
            pruned,
            ..
        } = self.session_resolve(constraints, couplings, options, None)?;
        let extremes = rows.iter().map(|cone| ConeExtremes::of(cone)).collect();
        Ok(RetainedAnalysis {
            analysis: SiAnalysis {
                report: self.report_from_rows(self.net_rows(rows), &states),
                adjustments,
                pruned,
                diagnostics,
            },
            states,
            windows,
            extremes,
        })
    }

    /// The fixed point of [`Sta::analyze_with_crosstalk_windows`], returned
    /// as a patch for [`Sta::session_merge`]. `edit: None` is the batch
    /// analysis: every cone is swept. A session edit passes
    /// its [`EditScope`]: its dirty closure ([`Sta::coupled_cones`]), the
    /// specs of the victims in it, and the analysis it applies to.
    ///
    /// Sound when the closure is closed under the specs it holds, as the
    /// edit's closure is: the fixed point and the window filter only ever
    /// read states of coupling participants, all inside it. An edit's
    /// re-solve sweeps only the closure cones holding a victim, a victim
    /// the retained analysis holds records for, or a changed boundary
    /// ([`crate::session`] module docs), and reads the nominal states and
    /// windows of every other closure cone from the retained analysis.
    /// Every per-net buffer of the re-solve holds the swept cones' nets
    /// only, so its cost follows the edit's victim cones, not the closure
    /// or the design.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Sta::analyze_with_crosstalk_windows`].
    pub fn session_resolve(
        &self,
        constraints: impl Into<BoundaryConditions>,
        couplings: &[CouplingSpec],
        options: &SiOptions,
        edit: Option<EditScope<'_>>,
    ) -> Result<ConePatch, StaError> {
        let bc = &constraints.into();
        self.check_victims(couplings)?;
        let mut phase_span = nsta_obs::span!("si.windowed");
        phase_span.set_arg("victims", couplings.len() as f64);
        phase_span.set_arg("threads", options.threads.max(1) as f64);
        // The false-path mask depends only on the graph and the boundary
        // conditions: compute it once, outside the fixed point.
        let mask = self.false_edge_mask(bc);
        let mask = mask.as_ref();
        let threads = options.threads.max(1);
        // Every sweep, pass and row below covers the swept cones only.
        let swept = edit.map(|e| self.swept_cones(couplings, &e));
        let scope = swept.as_deref();
        let retained = edit.map(|e| e.retained);
        // Iteration-invariant work, hoisted out of the fixed point: the
        // nominal sweep (aggressor ramps + latest windows of iteration 0)
        // and the min sweep (earliest window edges, which worst-case
        // push-out never moves). Per-pin boundaries seed the two sweeps
        // from each input's min/max arrival, so windows reflect genuine
        // constraint-set arrival ranges instead of a single point.
        let base = {
            let _sweep_span = nsta_obs::span!("si.nominal_sweep");
            self.forward_sweep_scoped(bc, false, threads, scope)
        };
        let deadline = options.deadline.as_ref();
        let cones = self.graph().components().len();
        phase_span.set_arg("cones", cones as f64);
        let factors = Factorizations::default();
        let cx = PassContext {
            bc,
            method: options.method,
            backend: options.backend,
            base: &base,
            retained,
            threads,
            policy: options.fault_policy,
            deadline,
            factors: Some(&factors),
        };

        let min_states = {
            let _sweep_span = nsta_obs::span!("si.min_sweep");
            self.forward_sweep_scoped(bc, true, threads, scope)
        };
        let clean = self.report_rows(bc, &base, mask, scope);
        let nominal_windows = Self::windows_from(&min_states, &clean);
        let mut windows = nominal_windows.clone();
        // The fixed point's running result, into which each pass splices
        // the cones it re-solved: the nominal states and rows, which a cone
        // holding no victim keeps for good.
        let mut states = base.clone();
        let mut rows = clean;
        let mut adjustments = Vec::new();
        let mut pruned = Vec::new();

        let max_iterations = options.max_iterations.max(1);
        let mut converged = false;
        let mut timed_out = false;
        let mut iteration_trace: Vec<SiIteration> = Vec::new();
        let mut prev_filtered: Option<Vec<CouplingSpec>> = None;
        let mut degrade_events: Vec<DegradeEvent> = Vec::new();
        // Convergence governance (see the module docs): nets that
        // participate in any coupling — the only windows the filter ever
        // reads — and the widening state. `governed` flips once, when the
        // delta sequence stagnates or the cap runs out unconverged.
        let mut convergence_actions: Vec<ConvergenceAction> = Vec::new();
        let mut governed = false;
        let mut participants: Vec<NetId> = couplings
            .iter()
            .flat_map(|s| std::iter::once(s.victim).chain(s.aggressors.iter().copied()))
            .collect();
        participants.sort_unstable();
        participants.dedup();
        let total_pairs: usize = couplings.iter().map(|s| s.aggressors.len()).sum();
        // Termination bound of the governed phase: widened windows only
        // grow, so overlap decisions only flip towards "keep" — the
        // pruned set shrinks monotonically in a space of `total_pairs`
        // pairs, hence goes stationary (triggering the unchanged-spec stop)
        // within `total_pairs + 1` governed iterations.
        let governed_cap = max_iterations + total_pairs + 2;
        let mut iteration_cap = max_iterations;
        while iteration_trace.len() < iteration_cap {
            let (filtered, pass_pruned) = self.window_filter(couplings, &windows, retained);
            // Every pass re-solves only the cones holding a victim whose
            // filtered spec is new or changed (see the module docs). The
            // first pass always runs; after it, no change is convergence.
            let pass_cones = self.changed_cones(&filtered, prev_filtered.as_deref(), scope);
            if !iteration_trace.is_empty() && !pass_cones.contains(&true) {
                converged = true;
                break;
            }
            let mut iter_span = nsta_obs::span!("si.iteration");
            iter_span.set_arg("iter", iteration_trace.len() as f64);
            let (pass_states, pass_adjustments, recomputed, mut degrades) =
                self.crosstalk_pass(&cx, &filtered, Some(&pass_cones))?;
            degrade_events.append(&mut degrades);
            let pass_rows = self.report_rows(bc, &pass_states, mask, Some(&pass_cones));
            let fresh = pass_adjustments.len();
            let moved = self.splice_cones(
                (&mut states, &mut rows, &mut adjustments),
                (pass_states, pass_rows, pass_adjustments),
                &pass_cones,
            );
            // Every fresh adjustment lies in a re-solved cone; the rest were
            // carried over.
            let cached = adjustments.len() - fresh;
            let prev_windows =
                std::mem::replace(&mut windows, Self::windows_from(&min_states, &rows));
            iteration_trace.push(SiIteration {
                victims_recomputed: recomputed,
                victims_cached: cached,
                aggressors_pruned: pass_pruned.len(),
                max_window_delta: moved,
            });
            iter_span.set_arg("victims_recomputed", recomputed as f64);
            iter_span.set_arg("victims_cached", cached as f64);
            iter_span.set_arg("aggressors_pruned", pass_pruned.len() as f64);
            iter_span.set_arg("max_window_delta", moved);
            drop(iter_span);
            prev_filtered = Some(filtered);
            pruned = pass_pruned;
            // Deadline boundary: the iteration that just ran finished (it
            // may have skipped cones internally — those carry
            // DeadlineSkipped events); no further iteration starts.
            if deadline.is_some_and(|d| d.expired()) {
                timed_out = true;
                break;
            }
            // Secondary stop: windows that barely moved cannot change the
            // overlap decisions by more than the tolerance.
            if moved <= CONVERGENCE_TOL {
                converged = true;
                break;
            }
            if options.convergence_governor && !governed {
                let n = iteration_trace.len();
                let delta = |i: usize| iteration_trace[i].max_window_delta;
                // Stagnation: the delta sequence has stopped shrinking
                // over the last two steps (a genuinely converging run
                // shrinks strictly, so this never fires on one)...
                let stagnating =
                    n >= 3 && delta(n - 1) >= delta(n - 2) && delta(n - 2) >= delta(n - 3);
                // ...or the plain cap is exhausted without convergence —
                // where the ungoverned analysis would give up and return
                // `converged: false`.
                let cap_exhausted = n >= max_iterations;
                if stagnating || cap_exhausted {
                    governed = true;
                    iteration_cap = governed_cap;
                    nsta_obs::count!("sta.si.governed_switches");
                }
            }
            if governed {
                governed_window_update(
                    self.graph(),
                    &mut windows,
                    &prev_windows,
                    &participants,
                    iteration_trace.len(),
                    &mut convergence_actions,
                );
            }
        }
        phase_span.set_arg("iterations", iteration_trace.len() as f64);
        Ok(ConePatch {
            // Factorization counters accumulate across iterations;
            // snapshot them once on the surviving analysis.
            diagnostics: SiDiagnostics {
                iterations: iteration_trace,
                converged,
                cones,
                cache_hits: factors.hits.load(Ordering::Relaxed),
                cache_misses: factors.misses.load(Ordering::Relaxed),
                solver_backend: options.backend,
                solver_nnz: factors.max_nnz.load(Ordering::Relaxed),
                degrade_events,
                timed_out,
                convergence_actions,
                epoch: 0,
            },
            cones: swept.unwrap_or_else(|| vec![true; cones]),
            states,
            rows,
            windows: nominal_windows,
            adjustments,
            pruned,
        })
    }

    /// The cones of `scope` (`None`: every cone) holding a victim whose
    /// spec in `filtered` is new or differs from `prev`, the previous
    /// window filter's output over the same couplings (`None` before the
    /// first pass: every victim counts), as a per-cone mask.
    fn changed_cones(
        &self,
        filtered: &[CouplingSpec],
        prev: Option<&[CouplingSpec]>,
        scope: Option<&[bool]>,
    ) -> Vec<bool> {
        let graph = self.graph();
        let mut cones = vec![false; graph.components().len()];
        let changed = filtered
            .iter()
            .enumerate()
            .filter(|&(i, new)| prev.is_none_or(|p| p[i] != *new));
        for cone in changed.filter_map(|(_, new)| graph.cone_of(new.victim)) {
            cones[cone] = scope.is_none_or(|s| s.get(cone).copied().unwrap_or(false));
        }
        cones
    }

    /// Computes `Γeff` for each of one victim net's transitions — the
    /// per-net entry point of every cone task. Returns one result per
    /// unit, in order.
    ///
    /// The transitions that share a time grid form one reduction group: one
    /// factorization lookup and one sweep of up to four columns, each
    /// transition's noiseless and noisy drive (see
    /// [`victim_attempt`](Self::victim_attempt)). A transition whose grid
    /// differs from its sibling's is a group of one. With `cx.factors` the
    /// factored system is shared across every group whose topology
    /// signature matches (see the module docs); either way every column
    /// keeps its one-column operation order, so the results are
    /// bit-identical to reducing each transition on its own.
    ///
    /// # Numeric fallback chain
    ///
    /// A solver-level failure (singular/lost pivot, non-finite values) of
    /// a group's shared factorization or sweep gives each of its
    /// transitions its own [`DegradeAction::DenseRetry`] event with that
    /// cause. Each transition then retries alone with dense partial-pivot
    /// LU on the same grid, then once more with the timestep halved; each
    /// step appends a [`DegradeEvent`] to `degrades` (marked recovered if
    /// any step of that transition's chain succeeds). The chain only runs
    /// on the error path, so healthy reductions are bit-identical to
    /// builds without it.
    fn victim_gammas(
        &self,
        cx: &PassContext<'_>,
        units: &[VictimTransition<'_>],
        degrades: &mut Vec<DegradeEvent>,
    ) -> Vec<VictimResult> {
        let no_result = || {
            Err(StaError::Structure(
                "reduction group returned no result".into(),
            ))
        };
        // Stage every transition (one that cannot be staged fails on its
        // own) and group the staged ones by grid.
        let mut results: Vec<VictimResult> = Vec::with_capacity(units.len());
        let mut groups: Vec<Vec<(usize, VictimStage<'_>)>> = Vec::new();
        for (i, unit) in units.iter().enumerate() {
            match self.victim_stage(cx, unit) {
                Ok(stage) => {
                    results.push(no_result());
                    match groups.iter_mut().find(|g| g[0].1.same_grid(&stage)) {
                        Some(group) => group.push((i, stage)),
                        None => groups.push(vec![(i, stage)]),
                    }
                }
                Err(e) => results.push(Err(e)),
            }
        }
        for group in &groups {
            let stages: Vec<&VictimStage<'_>> = group.iter().map(|(_, stage)| stage).collect();
            let outcomes = match self.victim_attempt(cx, &stages, stages[0].dt) {
                Ok(outcomes) => outcomes,
                Err(e) => stages.iter().map(|_| Err(e.clone())).collect(),
            };
            for ((i, stage), outcome) in group.iter().zip(outcomes) {
                results[*i] = match outcome {
                    Err(e) if is_numeric_failure(&e) => {
                        self.victim_fallback(cx, stage, &e, degrades)
                    }
                    outcome => outcome,
                };
            }
        }
        results
    }

    /// Stages one victim transition: its driver and aggressor ramps, its
    /// quantized grid and the electrical values of its reduced stage.
    fn victim_stage<'s>(
        &self,
        cx: &PassContext<'_>,
        unit: &VictimTransition<'s>,
    ) -> Result<VictimStage<'s>, StaError> {
        let spec = unit.spec;
        let victim_pol = unit.polarity;
        if let Some(reason) = &spec.defect {
            return Err(StaError::DegenerateMesh {
                net: self.design().net_name(spec.victim).to_string(),
                reason: reason.clone(),
            });
        }
        let th = Thresholds::cmos(self.library().voltage);

        // Simulation window: from zero (or from before the earliest rail
        // departure, if that is negative) to a cap comfortably after the
        // latest participant settles.
        let mut latest = unit.arrival + unit.slew;
        let agg_pol = spec.aggressor_polarity(victim_pol);
        let mut agg_ramps = Vec::new();
        for &agg in &spec.aggressors {
            let p = cx
                .nominal_state(self.graph(), agg)
                .map(|s| *s.get(agg_pol))
                .filter(|p| p.valid)
                .ok_or_else(|| {
                    StaError::Unresolved(format!(
                        "aggressor net #{} has no computed arrival",
                        agg.0
                    ))
                })?;
            let arr = p.arrival + spec.aggressor_skew;
            latest = latest.max(arr + p.slew);
            agg_ramps.push(SaturatedRamp::with_slew(
                arr,
                p.slew.max(1e-12),
                th,
                agg_pol.is_rise(),
            )?);
        }

        // The victim stage is a Thevenin driver into star-coupled RC lines
        // — each aggressor couples to the victim individually with its own
        // wire model and coupling total, the structure extracted
        // parasitics describe. Quiet (window-pruned) aggressors still
        // ground their coupling caps onto the victim: fold their total
        // into the line's ground capacitance.
        let victim_line = if spec.quiet_cm > 0.0 {
            RcLineSpec::new(
                spec.line.r_total,
                spec.line.c_total + spec.quiet_cm,
                spec.line.segments,
            )?
        } else {
            spec.line
        };
        let victim_ramp =
            SaturatedRamp::with_slew(unit.arrival, unit.slew.max(1e-12), th, victim_pol.is_rise())?;
        let earliest = agg_ramps
            .iter()
            .map(SaturatedRamp::t_rail_departure)
            .fold(victim_ramp.t_rail_departure(), f64::min);
        Ok(VictimStage {
            spec,
            polarity: victim_pol,
            victim_ramp,
            agg_ramps,
            victim_line,
            // Receiver loading at the victim far end.
            load: spec
                .receiver_load
                .unwrap_or_else(|| self.graph().load(spec.victim))
                .max(1e-16),
            // Quantized grid: the timestep heuristic is rounded up into a
            // fixed bucket set and the window to a fixed quantum, so
            // structurally identical victim stages land on a shared grid —
            // and therefore share one factorization.
            t_start: quantize_t_start(earliest),
            t_stop: quantize_t_stop(latest),
            dt: quantize_dt(unit.slew),
        })
    }

    /// The numeric fallback chain of one transition whose reduction failed
    /// with the solver-level error `cause` (see
    /// [`victim_gammas`](Self::victim_gammas)).
    fn victim_fallback(
        &self,
        cx: &PassContext<'_>,
        stage: &VictimStage<'_>,
        cause: &StaError,
        degrades: &mut Vec<DegradeEvent>,
    ) -> VictimResult {
        let event = |action: DegradeAction, cause: &StaError| DegradeEvent {
            net: Some(stage.spec.victim),
            polarity: Some(stage.polarity),
            action,
            cause: cause.to_string(),
            recovered: false,
        };
        let chain_start = degrades.len();
        // Fallback 1: dense partial-pivot LU on the same grid — immune to
        // the no-pivot elimination's pivot loss. It factors its own
        // system: the shared map's key does not encode the backend.
        degrades.push(event(DegradeAction::DenseRetry, cause));
        let dense = PassContext {
            backend: SolverBackend::Dense,
            factors: None,
            ..*cx
        };
        let alone = |dt: f64| -> VictimResult {
            self.victim_attempt(&dense, &[stage], dt)?
                .pop()
                .ok_or_else(|| StaError::Structure("reduction group returned no result".into()))?
        };
        let result = match alone(stage.dt) {
            Err(e) if is_numeric_failure(&e) => {
                // Fallback 2: halve the timestep — a stiff or marginally
                // conditioned system integrates with a better-conditioned
                // trapezoidal matrix.
                degrades.push(event(DegradeAction::HalvedTimestep, &e));
                alone(stage.dt * 0.5)
            }
            result => result,
        };
        if result.is_ok() {
            for ev in &mut degrades[chain_start..] {
                ev.recovered = true;
            }
        }
        result
    }

    /// One attempt of a reduction group on one `(dt, cx.backend)` grid —
    /// the unit the fallback chain retries with a group of one. `stages`
    /// are transitions of one victim net whose grids are equal, so one
    /// factored system and one sweep serve them all. Every attempt, the
    /// fallback chain's included, sweeps each column until its stage has
    /// settled (see [`SETTLE_TOLERANCE`]). Returns each stage's result in
    /// order; a failure of the shared work (waveforms, factorization,
    /// sweep) fails the whole group.
    fn victim_attempt(
        &self,
        cx: &PassContext<'_>,
        stages: &[&VictimStage<'_>],
        dt: f64,
    ) -> Result<Vec<VictimResult>, StaError> {
        let Some(&first) = stages.first() else {
            return Ok(Vec::new());
        };
        // One net: every stage shares the spec, and with it the circuit.
        let spec = first.spec;
        let (t_start, t_stop) = (first.t_start, first.t_stop);
        let steps = ((t_stop - t_start) / dt).round() as u64;
        let vdd = Thresholds::cmos(self.library().voltage).vdd();

        // Source waveforms in the circuit's order (see
        // `VictimStage::circuit`). A sweep samples each source only up to
        // its hold point — the first grid point at or after its last
        // change, for a ramp its rail arrival — and repeats that sample
        // from there on. So each ramp is recorded only up to the grid
        // point after that one, capped at the window's end. The record's
        // points are the sweep grid's own `t_start + k·dt`, so every sample
        // and hold point equals the full record's; the spare point covers
        // the rounding of `k·dt`.
        let waves_span = nsta_obs::span!("si.victim.waves");
        let ramp_wave = |ramp: &SaturatedRamp| {
            let k = ((ramp.t_rail_arrival() - t_start) / dt).ceil().max(0.0) + 1.0;
            ramp.to_waveform(t_start, (t_start + k * dt).min(t_stop), dt)
        };
        let mut waves = Vec::with_capacity(stages.len());
        for stage in stages {
            let victim = ramp_wave(&stage.victim_ramp)?;
            let aggs: Vec<Waveform> = stage
                .agg_ramps
                .iter()
                .map(ramp_wave)
                .collect::<Result<_, _>>()?;
            waves.push((victim, aggs));
        }
        drop(waves_span);

        // One factorization serves the group — and, via the shared map,
        // every other group with the same signature: assemble and
        // LU-factor only on a miss.
        let key = cx
            .factors
            .map(|_| TopoKey::new(dt, t_start, steps, spec, &first.victim_line, first.load));
        let entry = match cx.factors.zip(key.as_ref()).and_then(|(f, k)| f.get(k)) {
            Some(entry) => entry,
            None => {
                let (ckt, victim_far) = first.circuit()?;
                // Every sweep stops once its stage has settled; the
                // window's end only caps it (see `SETTLE_TOLERANCE`).
                let system = ckt.factor_transient(
                    TransientOptions::new(t_start, t_stop, dt)?
                        .with_backend(cx.backend)
                        .until_settled(SETTLE_TOLERANCE * vdd),
                )?;
                let entry = CachedSystem {
                    system: Arc::new(system),
                    victim_far,
                };
                if let (Some(f), Some(k)) = (cx.factors, key) {
                    f.insert(k, entry.clone());
                }
                entry
            }
        };

        // One sweep runs every stage's noiseless drive (aggressors held
        // at their quiet level) and noisy drive: up to four columns.
        // Non-finite node voltages — a poisoned solve — surface from the
        // transient solver as a recoverable numeric error rather than
        // propagating NaN into the report.
        let transient_span = nsta_obs::span!("si.victim.transient");
        let quiets = stages
            .iter()
            .map(|stage| {
                let agg_pol = spec.aggressor_polarity(stage.polarity);
                let level = if agg_pol.is_rise() { 0.0 } else { vdd };
                Waveform::constant(level, t_start, t_stop)
            })
            .collect::<Result<Vec<_>, _>>()?;
        // With every aggressor pruned the "noisy" circuit is identical to
        // the noiseless one: one column serves both.
        let noisy_too = !first.agg_ramps.is_empty();
        let mut sets: Vec<Vec<&Waveform>> = Vec::with_capacity(2 * stages.len());
        for ((victim, aggs), quiet) in waves.iter().zip(&quiets) {
            sets.push(
                std::iter::once(victim)
                    .chain(aggs.iter().map(|_| quiet))
                    .collect(),
            );
            if noisy_too {
                sets.push(std::iter::once(victim).chain(aggs).collect());
            }
        }
        let sets: Vec<&[&Waveform]> = sets.iter().map(Vec::as_slice).collect();
        let traces = entry.system.run_node_sets(&sets, &[entry.victim_far])?;
        drop(transient_span);

        // One recorded node: each set's traces are its victim trace.
        let mut traces = traces.into_iter().flatten();
        let mut next_trace = || {
            traces.next().ok_or_else(|| {
                StaError::Structure("transient solver returned no trace for victim node".into())
            })
        };
        let mut results = Vec::with_capacity(stages.len());
        for stage in stages {
            let noiseless = next_trace()?;
            let noisy = if noisy_too {
                next_trace()?
            } else {
                noiseless.clone()
            };
            results.push(self.victim_reduce(cx, stage, noiseless, noisy));
        }
        Ok(results)
    }

    /// Reduces one transition's noisy far-end waveform to
    /// `(Γeff, base arrival)`, given its noiseless twin.
    fn victim_reduce(
        &self,
        cx: &PassContext<'_>,
        stage: &VictimStage<'_>,
        noiseless: Waveform,
        noisy: Waveform,
    ) -> VictimResult {
        let th = Thresholds::cmos(self.library().voltage);
        let base_arrival = noiseless.last_crossing_or_err(th.mid())?;

        // Noiseless receiver response through the library tables (the
        // characterization level the paper requires — no extra data). The
        // gate's output load honors a per-pin `set_load` override when the
        // receiver drives a constrained output port, falling back to the
        // default output load (the historical uniform behavior) otherwise.
        let receiver = self
            .graph()
            .fanout_edges(stage.spec.victim)
            .first()
            .map(|&k| {
                let edge = &self.graph().edges()[k];
                let inst = &self.design().instances()[edge.instance];
                self.library()
                    .cell(&inst.cell)
                    .map(|cell| (cell, edge.to))
                    .ok_or_else(|| StaError::Unresolved(format!("cell {}", inst.cell)))
            })
            .transpose()?;
        let noiseless_output = match receiver {
            Some((cell, out_net)) => {
                let _gate_span = nsta_obs::span!("si.victim.gate");
                let load = cx.bc.output(out_net).load.max(1e-15);
                let gate = TableGate::new(cell, load, th).map_err(StaError::from)?;
                Some(gate.response(&noiseless).map_err(StaError::from)?)
            }
            None => None,
        };

        let _reduce_span = nsta_obs::span!("si.victim.reduce");
        let ctx = PropagationContext::new(noiseless, noisy, noiseless_output, th)?;
        let gamma = cx.method.equivalent(&ctx)?;
        Ok((gamma, base_arrival))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verilog::parse_design;
    use crate::{Constraints, Sta};
    use nsta_liberty::characterize::{inverter_family, Options};
    use nsta_liberty::Library;
    use nsta_spice::Process;
    use std::sync::OnceLock;

    fn lib() -> &'static Library {
        static LIB: OnceLock<Library> = OnceLock::new();
        LIB.get_or_init(|| {
            inverter_family(
                &Process::c013(),
                &[("INVX1", 1.0), ("INVX4", 4.0)],
                &Options::fast_test(),
            )
            .unwrap()
        })
    }

    /// Two parallel chains; u1's output net `v` is the victim, `g` the
    /// aggressor.
    fn coupled_design() -> crate::Design {
        parse_design(
            "module m (a, b, y, z); input a, b; output y, z;\
             wire v, g;\
             INVX1 u1 (.A(a), .Y(v)); INVX4 u2 (.A(v), .Y(y));\
             INVX1 u3 (.A(b), .Y(g)); INVX4 u4 (.A(g), .Y(z));\
             endmodule",
        )
        .unwrap()
    }

    fn spec(sta: &Sta) -> CouplingSpec {
        let v = sta.design().find_net("v").unwrap();
        let g = sta.design().find_net("g").unwrap();
        CouplingSpec::new(v, vec![g], 100e-15, RcLineSpec::per_micron(1000.0).unwrap())
    }

    fn win(earliest: f64, latest: f64) -> ArrivalWindow {
        ArrivalWindow { earliest, latest }
    }

    /// One crosstalk pass over `couplings` as given — no window filter, no
    /// fixed point — and its full report: the unfiltered reference of the
    /// window tests, and what the fixed point must equal over its final
    /// filtered specs.
    fn one_pass(
        sta: &Sta,
        constraints: impl Into<BoundaryConditions>,
        couplings: &[CouplingSpec],
        method: MethodKind,
    ) -> Result<(TimingReport, Vec<SiAdjustment>), StaError> {
        let bc = constraints.into();
        let base = sta.forward_sweep(&bc);
        let factors = Factorizations::default();
        let cx = PassContext {
            method,
            ..pass_context(&bc, &base, 1, Some(&factors))
        };
        let (states, adjustments, _, _) = sta.crosstalk_pass(&cx, couplings, None)?;
        let mask = sta.false_edge_mask(&bc);
        Ok((sta.finish_report(&bc, states, mask.as_ref()), adjustments))
    }

    #[test]
    fn window_overlap_boundary_semantics() {
        let victim = win(100e-12, 200e-12);
        // Closed intervals: windows that merely touch DO overlap.
        assert!(victim.overlaps(&win(200e-12, 300e-12), 0.0));
        assert!(victim.overlaps(&win(0.0, 100e-12), 0.0));
        // Strictly disjoint windows do not.
        assert!(!victim.overlaps(&win(201e-12, 300e-12), 0.0));
        // Zero-width windows overlap anything containing their instant...
        assert!(victim.overlaps(&win(150e-12, 150e-12), 0.0));
        assert!(win(150e-12, 150e-12).overlaps(&victim, 0.0));
        // ...including exactly at a boundary.
        assert!(victim.overlaps(&win(100e-12, 100e-12), 0.0));
        // Negative skew slides the aggressor backwards over the victim.
        assert!(victim.overlaps(&win(300e-12, 400e-12), -150e-12));
        assert!(!victim.overlaps(&win(300e-12, 400e-12), 150e-12));
    }

    #[test]
    fn inverted_windows_never_overlap() {
        let victim = win(100e-12, 200e-12);
        // A constant net whose ±inf sentinels never tightened produces an
        // inverted (empty) window; it must not read as "covers everything".
        let sentinel = win(f64::INFINITY, f64::NEG_INFINITY);
        assert!(sentinel.is_inverted());
        assert!(!victim.overlaps(&sentinel, 0.0));
        assert!(!sentinel.overlaps(&victim, 0.0));
        assert!(!sentinel.overlaps(&sentinel, 0.0));
        // Plain inverted windows (min sweep above max sweep) too.
        let inverted = win(300e-12, 250e-12);
        assert!(inverted.is_inverted());
        assert!(!victim.overlaps(&inverted, 0.0));
        assert!(!inverted.overlaps(&victim, 0.0));
        // NaN edges are treated as empty, not as overlapping.
        let nan = win(f64::NAN, 200e-12);
        assert!(nan.is_inverted());
        assert!(!victim.overlaps(&nan, 0.0));
        // Zero-width windows are NOT inverted.
        assert!(!win(1e-12, 1e-12).is_inverted());
    }

    #[test]
    fn crosstalk_pushes_victim_arrival_out() {
        let _guard = crate::obs_test_guard();
        let sta = Sta::new(coupled_design(), lib().clone()).unwrap();
        let c = Constraints::default();
        let nominal = sta.analyze(c).unwrap();
        let (noisy, adj) = one_pass(&sta, c, &[spec(&sta)], MethodKind::Sgdp).unwrap();
        assert_eq!(adj.len(), 2, "rise and fall adjustments recorded");
        // The coupled line adds wire delay plus noise: the victim's fanout
        // (net y) must arrive later than in the nominal ideal-wire run.
        let y = sta.design().find_net("y").unwrap();
        let nom = nominal.net(y).unwrap().rise.as_ref().unwrap().arrival;
        let si = noisy.net(y).unwrap().rise.as_ref().unwrap().arrival;
        assert!(si > nom, "si {si:e} vs nominal {nom:e}");
        // Adjustments carry the push-out relative to the noiseless line.
        for a in &adj {
            assert!(a.noisy_slew > 0.0);
            assert!(a.noisy_arrival + 1e-12 >= a.base_arrival - 100e-12);
        }
    }

    #[test]
    fn aligned_aggressor_hurts_more_than_far_one() {
        let _guard = crate::obs_test_guard();
        let sta = Sta::new(coupled_design(), lib().clone()).unwrap();
        let c = Constraints::default();
        let mut near = spec(&sta);
        near.aggressor_skew = 0.0;
        let mut far = spec(&sta);
        far.aggressor_skew = -1.0e-9;
        let arr = |s: &CouplingSpec| {
            let (report, _) = one_pass(&sta, c, std::slice::from_ref(s), MethodKind::P2).unwrap();
            let y = sta.design().find_net("y").unwrap();
            report.net(y).unwrap().rise.as_ref().unwrap().arrival
        };
        assert!(arr(&near) > arr(&far), "aligned aggressor must delay more");
    }

    #[test]
    fn methods_disagree_on_noisy_nets() {
        let _guard = crate::obs_test_guard();
        let sta = Sta::new(coupled_design(), lib().clone()).unwrap();
        let c = Constraints::default();
        let mut results = Vec::new();
        for method in MethodKind::all() {
            match one_pass(&sta, c, &[spec(&sta)], method) {
                Ok((report, _)) => results.push((method, report.worst_arrival())),
                Err(StaError::Sgdp(_)) => {} // WLS5 may legitimately refuse
                Err(other) => panic!("unexpected failure for {method}: {other}"),
            }
        }
        assert!(results.len() >= 5);
        let min = results
            .iter()
            .map(|&(_, a)| a)
            .fold(f64::INFINITY, f64::min);
        let max = results.iter().map(|&(_, a)| a).fold(0.0f64, f64::max);
        assert!(max > min, "techniques must produce distinct timing");
    }

    /// Victim `v` (one stage from `a`), near aggressor `gn` (one stage
    /// from `b`), far aggressor `gf` at the end of a 12-stage chain whose
    /// switching window lands long after `v` has settled — far enough that
    /// even crosstalk push-out cannot stretch the victim's window onto it
    /// (shorter chains get re-admitted by the fixed-point iteration).
    fn windowed_design() -> crate::Design {
        let stages = 12;
        let mut src = String::from(
            "module m (a, b, c, y, z, w); input a, b, c; output y, z, w;\n\
             wire v, gn, gf;\n\
             INVX1 u1 (.A(a), .Y(v)); INVX4 u2 (.A(v), .Y(y));\n\
             INVX1 u3 (.A(b), .Y(gn)); INVX4 u4 (.A(gn), .Y(z));\n",
        );
        for i in 1..stages {
            src.push_str(&format!("wire f{i};\n"));
        }
        src.push_str("INVX1 c1 (.A(c), .Y(f1));\n");
        for i in 1..stages - 1 {
            src.push_str(&format!("INVX1 c{} (.A(f{}), .Y(f{}));\n", i + 1, i, i + 1));
        }
        src.push_str(&format!(
            "INVX1 c{} (.A(f{}), .Y(gf));\nINVX4 u5 (.A(gf), .Y(w));\nendmodule",
            stages,
            stages - 1
        ));
        parse_design(&src).unwrap()
    }

    fn two_aggressor_spec(sta: &Sta) -> CouplingSpec {
        let v = sta.design().find_net("v").unwrap();
        let gn = sta.design().find_net("gn").unwrap();
        let gf = sta.design().find_net("gf").unwrap();
        CouplingSpec::new(
            v,
            vec![gn, gf],
            50e-15,
            RcLineSpec::per_micron(1000.0).unwrap(),
        )
    }

    #[test]
    fn window_filter_prunes_far_aggressor_and_keeps_pushout() {
        let _guard = crate::obs_test_guard();
        let sta = Sta::new(windowed_design(), lib().clone()).unwrap();
        let c = Constraints::default();
        let nominal = sta.analyze(c).unwrap();
        let analysis = sta
            .analyze_with_crosstalk_windows(c, &[two_aggressor_spec(&sta)], &SiOptions::default())
            .unwrap();
        let gf = sta.design().find_net("gf").unwrap();
        assert!(
            analysis.pruned.iter().any(|p| p.aggressor == gf),
            "the late-switching aggressor must be window-pruned: {:?}",
            analysis.pruned
        );
        let gn = sta.design().find_net("gn").unwrap();
        assert!(
            !analysis.pruned.iter().any(|p| p.aggressor == gn),
            "the aligned aggressor must survive"
        );
        // The surviving aggressor still pushes the victim's fanout out.
        let y = sta.design().find_net("y").unwrap();
        let nom = nominal.net(y).unwrap().rise.as_ref().unwrap().arrival;
        let si = analysis
            .report
            .net(y)
            .unwrap()
            .rise
            .as_ref()
            .unwrap()
            .arrival;
        assert!(si > nom, "si {si:e} vs nominal {nom:e}");
        assert!(!analysis.adjustments.is_empty());
        assert!(!analysis.diagnostics.iterations.is_empty());
        assert!(
            analysis.diagnostics.converged,
            "small designs reach the fixed point"
        );
    }

    #[test]
    fn dense_backend_matches_sparse_within_solver_roundoff() {
        let _guard = crate::obs_test_guard();
        // Both backends integrate the identical trapezoidal system; only
        // storage and elimination order differ, so every victim arrival
        // must agree to solver round-off (1e-6 ps). Checked on the
        // default three-segment victim line and on the same line cut into
        // 32 segments, a ~100-node coupled mesh.
        let sta = Sta::new(windowed_design(), lib().clone()).unwrap();
        let c = Constraints::default();
        let three = two_aggressor_spec(&sta);
        let thirty_two = CouplingSpec {
            line: RcLineSpec::new(three.line.r_total, three.line.c_total, 32).unwrap(),
            ..three.clone()
        };
        for spec in [three, thirty_two] {
            let segments = spec.line.segments;
            let sparse = sta
                .analyze_with_crosstalk_windows(
                    c,
                    std::slice::from_ref(&spec),
                    &SiOptions::default(),
                )
                .unwrap();
            let dense = sta
                .analyze_with_crosstalk_windows(
                    c,
                    &[spec],
                    &SiOptions {
                        backend: SolverBackend::Dense,
                        ..SiOptions::default()
                    },
                )
                .unwrap();
            assert_eq!(sparse.diagnostics.solver_backend, SolverBackend::Sparse);
            assert_eq!(dense.diagnostics.solver_backend, SolverBackend::Dense);
            // The sparse run factored real victim stages: nnz is populated
            // and far below the dense n² of the same mesh.
            assert!(sparse.diagnostics.solver_nnz > 0);
            assert!(dense.diagnostics.solver_nnz > sparse.diagnostics.solver_nnz);
            for (a, b) in sparse.report.nets().iter().zip(dense.report.nets()) {
                for (pa, pb) in [(&a.rise, &b.rise), (&a.fall, &b.fall)] {
                    if let (Some(pa), Some(pb)) = (pa.as_ref(), pb.as_ref()) {
                        assert!(
                            (pa.arrival - pb.arrival).abs() < 1e-18,
                            "{segments} segments, net {:?}: sparse {:e} vs dense {:e}",
                            a.net,
                            pa.arrival,
                            pb.arrival
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn window_filtered_delay_not_below_unfiltered() {
        let _guard = crate::obs_test_guard();
        // Pruning only removes aggressors that cannot align, so the
        // filtered analysis must agree with the unfiltered one on this
        // design (where the far aggressor genuinely cannot overlap).
        let sta = Sta::new(windowed_design(), lib().clone()).unwrap();
        let c = Constraints::default();
        let spec = two_aggressor_spec(&sta);
        let filtered = sta
            .analyze_with_crosstalk_windows(c, std::slice::from_ref(&spec), &SiOptions::default())
            .unwrap();
        let (unfiltered, _) = one_pass(&sta, c, &[spec], MethodKind::Sgdp).unwrap();
        let y = sta.design().find_net("y").unwrap();
        let f = filtered
            .report
            .net(y)
            .unwrap()
            .rise
            .as_ref()
            .unwrap()
            .arrival;
        let u = unfiltered.net(y).unwrap().rise.as_ref().unwrap().arrival;
        // The far aggressor cannot overlap, so dropping it must not change
        // the victim's timing by more than the solver's tolerance.
        assert!((f - u).abs() < 5e-12, "filtered {f:e} vs unfiltered {u:e}");
    }

    #[test]
    fn skew_rescues_a_pruned_aggressor() {
        let _guard = crate::obs_test_guard();
        let sta = Sta::new(windowed_design(), lib().clone()).unwrap();
        let c = Constraints::default();
        let clean = sta.analyze(c).unwrap();
        let v = sta.design().find_net("v").unwrap();
        let gf = sta.design().find_net("gf").unwrap();
        let v_arr = clean.net(v).unwrap().rise.as_ref().unwrap().arrival;
        let g_arr = clean.net(gf).unwrap().rise.as_ref().unwrap().arrival;
        let mut spec = two_aggressor_spec(&sta);
        // Shift every aggressor back so the far chain lands on the victim.
        spec.aggressor_skew = v_arr - g_arr;
        let analysis = sta
            .analyze_with_crosstalk_windows(c, &[spec], &SiOptions::default())
            .unwrap();
        assert!(
            !analysis.pruned.iter().any(|p| p.aggressor == gf),
            "skew moves the far window onto the victim: {:?}",
            analysis.pruned
        );
    }

    #[test]
    fn windows_from_min_and_max_sweeps_are_ordered() {
        let _guard = crate::obs_test_guard();
        let sta = Sta::new(windowed_design(), lib().clone()).unwrap();
        let c = Constraints::default();
        let min_states = sta.forward_sweep_scoped(&BoundaryConditions::from(&c), true, 1, None);
        let report = sta.analyze(c).unwrap();
        let rows = sta
            .graph()
            .components()
            .iter()
            .map(|cone| {
                cone.iter()
                    .map(|&net| report.nets()[net.0].clone())
                    .collect()
            })
            .collect::<Vec<Vec<_>>>();
        let windows = Sta::windows_from(&min_states, &rows);
        let mut seen = 0;
        for w in windows.into_iter().flatten().flatten() {
            assert!(w.earliest <= w.latest);
            seen += 1;
        }
        assert!(seen > 0);
    }

    /// Victim/aggressor groups in the spefbus pattern: group `g`'s far
    /// aggressor sits behind a chain of `2g + 3` inverters, so some groups
    /// keep both aggressors while later ones get window-pruned, and the
    /// fixed point's second pass re-solves some cones but not others.
    fn multi_group_design(groups: usize) -> crate::Design {
        let stages: Vec<usize> = (0..groups).map(|g| 2 * g + 3).collect();
        multi_group_design_with(&stages)
    }

    /// [`multi_group_design`] with group `g`'s far aggressor behind
    /// `stages[g]` inverters.
    fn multi_group_design_with(stages: &[usize]) -> crate::Design {
        let groups = stages.len();
        let mut src = String::from("module m (");
        let ports: Vec<String> = (0..groups)
            .flat_map(|g| vec![format!("a{g}"), format!("b{g}"), format!("c{g}")])
            .chain(
                (0..groups).flat_map(|g| vec![format!("y{g}"), format!("z{g}"), format!("w{g}")]),
            )
            .collect();
        src.push_str(&ports.join(", "));
        src.push_str(");\n");
        for g in 0..groups {
            src.push_str(&format!(
                "input a{g}, b{g}, c{g}; output y{g}, z{g}, w{g};\n"
            ));
        }
        for (g, &stages) in stages.iter().enumerate() {
            src.push_str(&format!(
                "wire v{g}, gn{g}, gf{g};\n\
                 INVX1 u{g}_1 (.A(a{g}), .Y(v{g})); INVX4 u{g}_2 (.A(v{g}), .Y(y{g}));\n\
                 INVX1 u{g}_3 (.A(b{g}), .Y(gn{g})); INVX4 u{g}_4 (.A(gn{g}), .Y(z{g}));\n"
            ));
            let mut prev = format!("c{g}");
            for s in 1..stages {
                src.push_str(&format!(
                    "wire f{g}_{s};\nINVX1 c{g}_{s} (.A({prev}), .Y(f{g}_{s}));\n"
                ));
                prev = format!("f{g}_{s}");
            }
            src.push_str(&format!(
                "INVX1 c{g}_{stages} (.A({prev}), .Y(gf{g}));\nINVX4 u{g}_5 (.A(gf{g}), .Y(w{g}));\n"
            ));
        }
        src.push_str("endmodule");
        parse_design(&src).unwrap()
    }

    fn multi_group_specs(sta: &Sta, groups: usize) -> Vec<CouplingSpec> {
        (0..groups)
            .map(|g| {
                let v = sta.design().find_net(&format!("v{g}")).unwrap();
                let gn = sta.design().find_net(&format!("gn{g}")).unwrap();
                let gf = sta.design().find_net(&format!("gf{g}")).unwrap();
                CouplingSpec::new(
                    v,
                    vec![gn, gf],
                    50e-15,
                    RcLineSpec::per_micron(1000.0).unwrap(),
                )
            })
            .collect()
    }

    fn assert_analyses_identical(a: &SiAnalysis, b: &SiAnalysis) {
        assert_eq!(a.report, b.report);
        assert_eq!(a.adjustments, b.adjustments);
        assert_eq!(a.pruned, b.pruned);
        assert_eq!(
            a.diagnostics.iterations.len(),
            b.diagnostics.iterations.len()
        );
        assert_eq!(a.diagnostics.converged, b.diagnostics.converged);
        // The convergence trace must agree pass for pass wherever it
        // reflects the *solution* (pruning decisions, window movement).
        // Cost fields (victims recomputed vs cached) are checked where the
        // variants run the same passes.
        for (ia, ib) in a
            .diagnostics
            .iterations
            .iter()
            .zip(&b.diagnostics.iterations)
        {
            assert_eq!(ia.aggressors_pruned, ib.aggressors_pruned);
            assert_eq!(ia.max_window_delta.to_bits(), ib.max_window_delta.to_bits());
        }
    }

    #[test]
    fn threaded_analysis_is_bit_identical_to_sequential() {
        let _guard = crate::obs_test_guard();
        let groups = 3;
        let sta = Sta::new(multi_group_design(groups), lib().clone()).unwrap();
        let c = Constraints::default();
        let specs = multi_group_specs(&sta, groups);
        let sequential = sta
            .analyze_with_crosstalk_windows(c, &specs, &SiOptions::default())
            .unwrap();
        let threaded = sta
            .analyze_with_crosstalk_windows(
                c,
                &specs,
                &SiOptions {
                    threads: 4,
                    ..SiOptions::default()
                },
            )
            .unwrap();
        // Bit-identical, not approximately equal: the worker pool must not
        // change a single ulp anywhere in the report.
        assert_analyses_identical(&sequential, &threaded);
        assert!(!sequential.adjustments.is_empty());
        // Cones cover the whole design: every group contributes its three
        // independent chains.
        assert_eq!(sequential.diagnostics.cones, sta.graph().components().len());
        assert!(sequential.diagnostics.cones >= 3 * groups);
    }

    /// The context of one crosstalk pass over the nominal states `base`.
    fn pass_context<'a>(
        bc: &'a BoundaryConditions,
        base: &'a [Vec<NetState>],
        threads: usize,
        factors: Option<&'a Factorizations>,
    ) -> PassContext<'a> {
        PassContext {
            bc,
            method: MethodKind::Sgdp,
            backend: SolverBackend::Sparse,
            base,
            retained: None,
            threads,
            policy: FaultPolicy::Fail,
            deadline: None,
            factors,
        }
    }

    /// Every victim transition of `specs`, staged from its nominal point
    /// and grouped per net, rise first. The crosstalk pass meets each
    /// victim at that point because every fixture victim is driven from a
    /// primary input.
    fn nominal_stages<'s>(
        sta: &Sta,
        cx: &PassContext<'_>,
        specs: &'s [CouplingSpec],
    ) -> Vec<Vec<VictimStage<'s>>> {
        specs
            .iter()
            .map(|spec| {
                [Polarity::Rise, Polarity::Fall]
                    .into_iter()
                    .map(|polarity| {
                        let point = sta.graph().at(cx.base, spec.victim).unwrap().get(polarity);
                        assert!(point.valid);
                        let unit = VictimTransition {
                            spec,
                            polarity,
                            arrival: point.arrival,
                            slew: point.slew,
                        };
                        sta.victim_stage(cx, &unit).unwrap()
                    })
                    .collect()
            })
            .collect()
    }

    /// Reduction groups of a pass over `stages`: one per net whose rise
    /// and fall share a grid, two per net whose grids differ.
    fn group_count(stages: &[Vec<VictimStage<'_>>]) -> usize {
        stages
            .iter()
            .map(|net| match net.as_slice() {
                [rise, fall] if rise.same_grid(fall) => 1,
                net => net.len(),
            })
            .sum()
    }

    #[test]
    fn topo_cache_is_bit_identical_to_uncached_across_threads() {
        // One pass's reduction groups share LU factors across victims;
        // that must not change a single bit of any result — at 1 thread
        // and on the worker pool. The reference is the unshared path the
        // fallback chain takes: every group factors its own system.
        let _guard = crate::obs_test_guard();
        // Group 3 repeats group 0, so the two share one factorization.
        let sta = Sta::new(multi_group_design_with(&[3, 5, 7, 3]), lib().clone()).unwrap();
        let bc = BoundaryConditions::from(&Constraints::default());
        // Group 1 loses its far aggressor and group 2 gains quiet coupling
        // (folded into its wire's ground cap): a key blind to either
        // change would serve them a wrong system.
        let mut specs = multi_group_specs(&sta, 4);
        specs[1] = specs[1].restricted(&[0]);
        specs[2].quiet_cm = 20e-15;
        let base = sta.forward_sweep(&bc);
        let groups = group_count(&nominal_stages(
            &sta,
            &pass_context(&bc, &base, 1, None),
            &specs,
        ));
        let pass = |threads: usize, factors: Option<&Factorizations>| {
            let cx = pass_context(&bc, &base, threads, factors);
            let (states, adjustments, stats, degrades) =
                sta.crosstalk_pass(&cx, &specs, None).unwrap();
            assert!(degrades.is_empty());
            let mask = sta.false_edge_mask(&bc);
            let report = sta.finish_report(&bc, states, mask.as_ref());
            (report, adjustments, stats)
        };
        let unshared = pass(1, None);
        assert_eq!(unshared.1.len(), 8);
        for threads in [1, 4] {
            let factors = Factorizations::default();
            let shared = pass(threads, Some(&factors));
            assert_eq!(shared, unshared, "threads={threads}");
            let hits = factors.hits.load(Ordering::Relaxed);
            let misses = factors.misses.load(Ordering::Relaxed);
            // Groups 0 and 3 share a system. On the worker pool both may
            // miss it at once, so only the sequential pass must hit.
            if threads == 1 {
                assert_eq!(hits, 1, "expected one shared factorization");
            }
            assert!(misses > 0);
            // Every reduction group consults the map exactly once.
            assert_eq!(hits + misses, groups, "threads={threads}");
        }
    }

    /// One transition reduced on its own, as the benchmark's stage probe
    /// replays it (`perfbench/src/bus.rs`): a fresh factorization, one
    /// `run_nodes` call per source set integrated to the window's cap
    /// (no settle stop), then the receiver gate and the reduction.
    fn reduce_alone(sta: &Sta, cx: &PassContext<'_>, stage: &VictimStage<'_>) -> SiAdjustment {
        let (ckt, far) = stage.circuit().unwrap();
        let (t_start, t_stop) = (stage.t_start, stage.t_stop);
        let opts = TransientOptions::new(t_start, t_stop, stage.dt).unwrap();
        let system = ckt.factor_transient(opts).unwrap();
        let wave = |ramp: &SaturatedRamp| ramp.to_waveform(t_start, t_stop, stage.dt).unwrap();
        let victim = wave(&stage.victim_ramp);
        let aggs: Vec<Waveform> = stage.agg_ramps.iter().map(wave).collect();
        let th = Thresholds::cmos(sta.library().voltage);
        let agg_pol = stage.spec.aggressor_polarity(stage.polarity);
        let quiet_level = if agg_pol.is_rise() { 0.0 } else { th.vdd() };
        let quiet = Waveform::constant(quiet_level, t_start, t_stop).unwrap();
        let mut quiet_set = vec![&victim];
        quiet_set.extend(aggs.iter().map(|_| &quiet));
        let mut noisy_set = vec![&victim];
        noisy_set.extend(&aggs);
        let run = |set: &[&Waveform]| system.run_nodes(set, &[far]).unwrap().remove(0);
        let (gamma, base_arrival) = sta
            .victim_reduce(cx, stage, run(&quiet_set), run(&noisy_set))
            .unwrap();
        SiAdjustment {
            net: stage.spec.victim,
            polarity: stage.polarity,
            base_arrival,
            noisy_arrival: gamma.arrival_mid(),
            noisy_slew: gamma.slew(th),
        }
    }

    fn adjustment_bits(adjustments: &[SiAdjustment]) -> Vec<(usize, bool, [u64; 3])> {
        adjustments
            .iter()
            .map(|a| {
                (
                    a.net.0,
                    a.polarity.is_rise(),
                    [a.base_arrival, a.noisy_arrival, a.noisy_slew].map(f64::to_bits),
                )
            })
            .collect()
    }

    #[test]
    fn grouped_reductions_match_one_transition_at_a_time() {
        // A pass reduces both transitions of a victim in one sweep when
        // they share a grid; every adjustment must still equal its
        // transition reduced on its own, bit for bit, inline and on the
        // worker pool.
        let _guard = crate::obs_test_guard();
        let sta = Sta::new(multi_group_design_with(&[3, 5, 7, 3]), lib().clone()).unwrap();
        let bc = BoundaryConditions::from(&Constraints::default());
        let base = sta.forward_sweep(&bc);
        let mut specs = multi_group_specs(&sta, 4);
        // Group 1 loses every aggressor: one column per transition.
        specs[1] = specs[1].restricted(&[]);
        // Group 2's aggressors are skewed so that its far aggressor, the
        // latest participant, ends 0.5 ns in, halfway between its rising
        // and falling ends: with the 1 ns settle margin that sizes each
        // window's cap, its rise and fall caps round up to different
        // 0.5 ns quanta.
        let far = specs[2].aggressors[1];
        let end = |pol: Polarity| {
            let p = sta.graph().at(&base, far).unwrap().get(pol);
            p.arrival + p.slew
        };
        specs[2].aggressor_skew = 0.5e-9 - 0.5 * (end(Polarity::Rise) + end(Polarity::Fall));
        let stages = nominal_stages(&sta, &pass_context(&bc, &base, 1, None), &specs);
        for (g, net) in stages.iter().enumerate() {
            assert_eq!(net[0].same_grid(&net[1]), g != 2, "group {g}");
        }
        let groups = group_count(&stages);
        assert_eq!(groups, 5);

        // Both runs take the cone schedule: one thread runs inline, and the
        // pool clamps `cones + 1` workers to one per cone.
        let cones = sta.graph().components().len();
        for threads in [1, cones + 1] {
            let factors = Factorizations::default();
            let cx = pass_context(&bc, &base, threads, Some(&factors));
            let (_, adjustments, _, degrades) = sta.crosstalk_pass(&cx, &specs, None).unwrap();
            assert!(degrades.is_empty());
            let mut alone: Vec<SiAdjustment> = stages
                .iter()
                .flatten()
                .map(|stage| reduce_alone(&sta, &cx, stage))
                .collect();
            alone.sort_by_key(|a| (a.net.0, !a.polarity.is_rise()));
            assert_eq!(
                adjustment_bits(&adjustments),
                adjustment_bits(&alone),
                "threads={threads}"
            );
            // Group 2's transitions ran as two groups of one.
            let lookups =
                factors.hits.load(Ordering::Relaxed) + factors.misses.load(Ordering::Relaxed);
            assert_eq!(lookups, groups, "threads={threads}");
        }
    }

    #[test]
    fn settled_sweeps_reduce_like_the_full_cap() {
        let _guard = crate::obs_test_guard();
        // A 48-segment victim with two 48-segment aggressors, skewed so
        // that the far one switches 150 ps after the victim: every sweep
        // of the pass stops once its stage has settled, after that late
        // transition, and every adjustment must still equal its
        // transition reduced on the whole cap, bit for bit.
        let sta = Sta::new(multi_group_design_with(&[7]), lib().clone()).unwrap();
        let bc = BoundaryConditions::from(&Constraints::default());
        let base = sta.forward_sweep(&bc);
        let mut specs = multi_group_specs(&sta, 1);
        let line = specs[0].line;
        specs[0].line = RcLineSpec::new(line.r_total, line.c_total, 48).unwrap();
        let mid = |net: NetId| {
            let state = sta.graph().at(&base, net).unwrap();
            0.5 * (state.get(Polarity::Rise).arrival + state.get(Polarity::Fall).arrival)
        };
        specs[0].aggressor_skew = mid(specs[0].victim) + 150e-12 - mid(specs[0].aggressors[1]);
        let factors = Factorizations::default();
        let cx = pass_context(&bc, &base, 1, Some(&factors));
        let (_, adjustments, _, degrades) = sta.crosstalk_pass(&cx, &specs, None).unwrap();
        assert!(degrades.is_empty());
        let stages = nominal_stages(&sta, &cx, &specs);
        let alone: Vec<SiAdjustment> = stages[0]
            .iter()
            .map(|stage| reduce_alone(&sta, &cx, stage))
            .collect();
        assert_eq!(adjustment_bits(&adjustments), adjustment_bits(&alone));

        // The fixture exercises the stop: each noisy sweep settles after
        // the late aggressor has switched, and short of its cap.
        let vdd = Thresholds::cmos(sta.library().voltage).vdd();
        for stage in &stages[0] {
            let (ckt, far) = stage.circuit().unwrap();
            let opts = TransientOptions::new(stage.t_start, stage.t_stop, stage.dt)
                .unwrap()
                .until_settled(SETTLE_TOLERANCE * vdd);
            let system = ckt.factor_transient(opts).unwrap();
            let waves: Vec<Waveform> = std::iter::once(&stage.victim_ramp)
                .chain(&stage.agg_ramps)
                .map(|ramp| ramp.to_waveform(stage.t_start, stage.t_stop, stage.dt))
                .collect::<Result<_, _>>()
                .unwrap();
            let set: Vec<&Waveform> = waves.iter().collect();
            let noisy = system.run_nodes(&set, &[far]).unwrap().remove(0);
            assert!(noisy.t_end() > stage.agg_ramps[1].t_rail_arrival());
            assert!(noisy.len() < system.times().len() / 2);
        }
    }

    #[test]
    fn negative_input_arrival_translates_the_analysis() {
        let _guard = crate::obs_test_guard();
        // An input delay of −0.3 ns makes participants leave their rails
        // before 0, so each stage's window starts at −0.5 ns; the same
        // design at +0.2 ns starts at 0 on a grid that is the exact
        // translate of it (0.5 ns is one quantum and a multiple of every
        // timestep bucket). Every adjustment must be the +0.2 ns one moved
        // by 0.5 ns, to round-off: the largest deviation measures 4.5e-24 s
        // in arrival and 1.6e-23 s in slew.
        let groups = 3;
        let sta = Sta::new(multi_group_design(groups), lib().clone()).unwrap();
        let specs = multi_group_specs(&sta, groups);
        let constraints = |input_arrival: f64| Constraints {
            input_arrival,
            ..Constraints::default()
        };
        let bc = BoundaryConditions::from(&constraints(-0.3e-9));
        let base = sta.forward_sweep(&bc);
        let stages = nominal_stages(&sta, &pass_context(&bc, &base, 1, None), &specs);
        assert!(stages.iter().flatten().all(|s| s.t_start == -0.5e-9));
        let run = |input_arrival: f64| {
            sta.analyze_with_crosstalk_windows(
                constraints(input_arrival),
                &specs,
                &SiOptions::default(),
            )
            .unwrap()
        };
        let (early, late) = (run(-0.3e-9), run(0.2e-9));
        assert_eq!(early.pruned, late.pruned);
        assert_eq!(early.adjustments.len(), late.adjustments.len());
        assert!(!early.adjustments.is_empty());
        let (mut arrival, mut slew) = (0.0f64, 0.0f64);
        for (e, l) in early.adjustments.iter().zip(&late.adjustments) {
            assert_eq!((e.net, e.polarity), (l.net, l.polarity));
            for (a, b) in [
                (e.base_arrival, l.base_arrival),
                (e.noisy_arrival, l.noisy_arrival),
            ] {
                arrival = arrival.max((a + 0.5e-9 - b).abs());
            }
            slew = slew.max((e.noisy_slew - l.noisy_slew).abs());
        }
        assert!(
            arrival <= 1e-22 && slew <= 1e-22,
            "{arrival:e} s, {slew:e} s"
        );
    }

    /// One fully connected cone: input `a` fans out to both the victim
    /// chain and the aggressor chain, so the whole design is a single
    /// weakly-connected component.
    fn single_cone_design() -> crate::Design {
        parse_design(
            "module m (a, y, z); input a; output y, z;\
             wire v, g;\
             INVX1 u1 (.A(a), .Y(v)); INVX4 u2 (.A(v), .Y(y));\
             INVX1 u3 (.A(a), .Y(g)); INVX4 u4 (.A(g), .Y(z));\
             endmodule",
        )
        .unwrap()
    }

    /// The victim `v` of [`single_cone_design`], coupled to `g`.
    fn single_cone_spec(sta: &Sta) -> CouplingSpec {
        let v = sta.design().find_net("v").unwrap();
        let g = sta.design().find_net("g").unwrap();
        CouplingSpec::new(v, vec![g], 100e-15, RcLineSpec::per_micron(1000.0).unwrap())
    }

    #[test]
    fn single_cone_design_is_bit_identical_across_threads() {
        let _guard = crate::obs_test_guard();
        // With one cone, threads > 1 get one worker (the pool starts at
        // most one per cone), and the analysis must reproduce the
        // 1-thread result bit for bit — including the canonical
        // adjustment order.
        let sta = Sta::new(single_cone_design(), lib().clone()).unwrap();
        assert_eq!(sta.graph().components().len(), 1);
        let c = Constraints::default();
        let spec = single_cone_spec(&sta);
        let sequential = sta
            .analyze_with_crosstalk_windows(c, std::slice::from_ref(&spec), &SiOptions::default())
            .unwrap();
        let threaded = sta
            .analyze_with_crosstalk_windows(
                c,
                &[spec],
                &SiOptions {
                    threads: 4,
                    ..SiOptions::default()
                },
            )
            .unwrap();
        assert_analyses_identical(&sequential, &threaded);
        assert!(!sequential.adjustments.is_empty());
        assert_eq!(sequential.diagnostics.cones, 1);
    }

    #[test]
    fn single_cone_deadline_expiry_is_the_same_at_any_thread_count() {
        let _guard = crate::obs_test_guard();
        // A deadline's partial result must not depend on the thread count.
        // One cone is one pool item, so 4 threads poll the deadline where
        // 1 thread does: at the cone task and after each iteration. On a
        // clock that ticks once per poll, budget 0 skips the victim's cone,
        // budget 1 expires after the first iteration and budget 2 outlasts
        // the analysis.
        let sta = Sta::new(single_cone_design(), lib().clone()).unwrap();
        let c = Constraints::default();
        let spec = single_cone_spec(&sta);
        for budget in 0..=2 {
            let run = |threads: usize| {
                let options = SiOptions {
                    threads,
                    deadline: Some(Deadline::on_fake(crate::FakeClock::new(1), budget)),
                    ..SiOptions::default()
                };
                sta.analyze_with_crosstalk_windows(c, std::slice::from_ref(&spec), &options)
                    .unwrap()
            };
            let (sequential, threaded) = (run(1), run(4));
            assert_analyses_identical(&sequential, &threaded);
            assert_eq!(
                sequential.diagnostics.timed_out, threaded.diagnostics.timed_out,
                "budget {budget}"
            );
            assert_eq!(
                sequential.diagnostics.degrade_events, threaded.diagnostics.degrade_events,
                "budget {budget}"
            );
            // (timed out, adjustments, skipped victims) each budget leaves.
            let d = &sequential.diagnostics;
            let skipped = d.degrade_events.iter().filter(|e| {
                e.action == DegradeAction::DeadlineSkipped && e.net == Some(spec.victim)
            });
            assert_eq!(
                (d.timed_out, sequential.adjustments.len(), skipped.count()),
                [(true, 0, 1), (true, 2, 0), (false, 2, 0)][budget as usize],
                "budget {budget}"
            );
        }
    }

    #[test]
    fn instrumented_analysis_is_bit_identical_to_uninstrumented() {
        // Recording must never feed back into the computation: running the
        // exact same analysis with the global recorder enabled has to
        // reproduce every report bit, adjustment and diagnostic record —
        // the contract `spefbus --trace` also gates at scale.
        let _guard = crate::obs_test_guard();
        let groups = 3;
        let sta = Sta::new(multi_group_design(groups), lib().clone()).unwrap();
        let c = Constraints::default();
        let specs = multi_group_specs(&sta, groups);
        let opts = SiOptions {
            threads: 2,
            ..SiOptions::default()
        };
        let baseline = sta
            .analyze_with_crosstalk_windows(c, &specs, &opts)
            .unwrap();
        let rec = nsta_obs::recorder();
        rec.reset();
        rec.enable();
        let instrumented = sta
            .analyze_with_crosstalk_windows(c, &specs, &opts)
            .unwrap();
        rec.disable();
        let events = rec.event_count();
        let trace = rec.chrome_trace(1);
        let metrics = rec.metrics();
        rec.reset();
        assert_analyses_identical(&baseline, &instrumented);
        // Same options, so even the cost fields must agree exactly.
        assert_eq!(
            baseline.diagnostics.iterations,
            instrumented.diagnostics.iterations
        );
        // The hit/miss *split* can race under a worker pool (two cones
        // sharing a key may both miss concurrently), but the number of
        // lookups is a pure function of the victims recomputed.
        assert_eq!(
            baseline.diagnostics.cache_hits + baseline.diagnostics.cache_misses,
            instrumented.diagnostics.cache_hits + instrumented.diagnostics.cache_misses
        );
        // The instrumented run actually recorded: phase + iteration +
        // per-cone spans, and the shared-factorization counters.
        assert!(events > 0, "enabled run must record spans");
        for layer in ["waves", "transient", "gate", "reduce"] {
            let name = format!("\"si.victim.{layer}\"");
            assert!(trace.contains(&name), "per-victim span {name} missing");
        }
        assert!(metrics.get("sta.topo_cache.misses").unwrap_or(0.0) > 0.0);
    }

    /// The specs `analysis` filtered `couplings` to in its last pass:
    /// each victim's aggressors minus those its `pruned` records name.
    fn final_specs(couplings: &[CouplingSpec], analysis: &SiAnalysis) -> Vec<CouplingSpec> {
        couplings
            .iter()
            .map(|spec| {
                let keep: Vec<usize> = (0..spec.aggressors.len())
                    .filter(|&i| {
                        !analysis
                            .pruned
                            .iter()
                            .any(|p| p.victim == spec.victim && p.aggressor == spec.aggressors[i])
                    })
                    .collect();
                if keep.len() == spec.aggressors.len() {
                    spec.clone()
                } else {
                    spec.restricted(&keep)
                }
            })
            .collect()
    }

    /// Asserts that `analysis` equals one unscoped pass over its final
    /// filtered specs, bit for bit: every later pass re-solved exactly the
    /// cones whose specs changed and left the others as they were.
    fn assert_equals_one_pass_over_final_specs(
        sta: &Sta,
        couplings: &[CouplingSpec],
        analysis: &SiAnalysis,
    ) {
        let specs = final_specs(couplings, analysis);
        let (report, adjustments) =
            one_pass(sta, Constraints::default(), &specs, MethodKind::Sgdp).unwrap();
        assert_eq!(analysis.report, report);
        assert_eq!(
            adjustment_bits(&analysis.adjustments),
            adjustment_bits(&adjustments)
        );
    }

    #[test]
    fn fixed_point_equals_one_pass_over_its_final_specs() {
        let _guard = crate::obs_test_guard();
        let groups = 3;
        let sta = Sta::new(multi_group_design(groups), lib().clone()).unwrap();
        let specs = multi_group_specs(&sta, groups);
        let analysis = sta
            .analyze_with_crosstalk_windows(Constraints::default(), &specs, &SiOptions::default())
            .unwrap();
        assert!(
            analysis.diagnostics.iterations.len() >= 2,
            "fixture must exercise the fixed point, got {} iteration(s)",
            analysis.diagnostics.iterations.len()
        );
        assert_equals_one_pass_over_final_specs(&sta, &specs, &analysis);
    }

    #[test]
    fn first_pass_schedules_only_victim_cones() {
        // Three of the fixture's nine cones hold a victim; the other six,
        // the aggressor chains, would reproduce the nominal sweep, so even
        // the first pass leaves them unscheduled and still equals a pass
        // over every cone.
        let _guard = crate::obs_test_guard();
        let groups = 3;
        let sta = Sta::new(multi_group_design(groups), lib().clone()).unwrap();
        assert_eq!(sta.graph().components().len(), 9);
        let specs = multi_group_specs(&sta, groups);
        let first_pass_only = SiOptions {
            max_iterations: 1,
            convergence_governor: false,
            ..SiOptions::default()
        };
        let rec = nsta_obs::recorder();
        rec.reset();
        rec.enable();
        let analysis =
            sta.analyze_with_crosstalk_windows(Constraints::default(), &specs, &first_pass_only);
        rec.disable();
        let processed = rec.metrics().get("par.items_processed");
        rec.reset();
        let analysis = analysis.unwrap();
        assert_eq!(analysis.diagnostics.iterations.len(), 1);
        // The pool counts every item it runs: each of the nine cones in the
        // nominal and the min sweep, then the first pass's victim cones.
        assert_eq!(processed, Some((2 * 9 + groups) as f64));
        assert_equals_one_pass_over_final_specs(&sta, &specs, &analysis);
    }

    /// Victims `v1` and `v2` in one cone (`a → v1 → v2 → y`), coupled to
    /// a near aggressor each; `v1` also to a far aggressor `gf1` behind a
    /// chain of `far` inverters. Victim `v3` sits in a cone of its own
    /// with one near aggressor.
    fn two_victim_cone_design(far: usize) -> crate::Design {
        let mut src = String::from(
            "module m (a, b1, c1, b2, a3, b3, y, z1, w1, z2, y3, z3);\n\
             input a, b1, c1, b2, a3, b3; output y, z1, w1, z2, y3, z3;\n\
             wire v1, v2, gn1, gf1, m2, gn2, v3, gn3;\n\
             INVX1 u1 (.A(a), .Y(v1)); INVX1 u2 (.A(v1), .Y(v2)); INVX4 u3 (.A(v2), .Y(y));\n\
             INVX1 n1 (.A(b1), .Y(gn1)); INVX4 n1o (.A(gn1), .Y(z1));\n\
             INVX1 n2a (.A(b2), .Y(m2)); INVX1 n2 (.A(m2), .Y(gn2)); INVX4 n2o (.A(gn2), .Y(z2));\n\
             INVX1 u4 (.A(a3), .Y(v3)); INVX4 u5 (.A(v3), .Y(y3));\n\
             INVX1 n3 (.A(b3), .Y(gn3)); INVX4 n3o (.A(gn3), .Y(z3));\n",
        );
        let mut prev = String::from("c1");
        for s in 1..far {
            src.push_str(&format!("wire f{s};\nINVX1 c{s} (.A({prev}), .Y(f{s}));\n"));
            prev = format!("f{s}");
        }
        src.push_str(&format!(
            "INVX1 c{far} (.A({prev}), .Y(gf1)); INVX4 w (.A(gf1), .Y(w1));\nendmodule"
        ));
        parse_design(&src).unwrap()
    }

    fn two_victim_cone_specs(sta: &Sta) -> Vec<CouplingSpec> {
        let net = |name: &str| sta.design().find_net(name).unwrap();
        let line = RcLineSpec::per_micron(1000.0).unwrap();
        vec![
            CouplingSpec::new(net("v1"), vec![net("gn1"), net("gf1")], 50e-15, line),
            CouplingSpec::new(net("v2"), vec![net("gn2")], 50e-15, line),
            CouplingSpec::new(net("v3"), vec![net("gn3")], 50e-15, line),
        ]
    }

    #[test]
    fn two_victim_cone_is_re_solved_whole_and_alone() {
        let _guard = crate::obs_test_guard();
        // Pass 1 prunes `gf1` from `v1`, and `v1`'s push-out re-admits it
        // in pass 2. Pass 2 re-solves `v1`'s cone — both of its victims,
        // four transitions — and carries the two adjustments of `v3`'s
        // cone over; pass 3 finds no spec changed and does not run.
        let sta = Sta::new(two_victim_cone_design(3), lib().clone()).unwrap();
        let specs = two_victim_cone_specs(&sta);
        let analysis = sta
            .analyze_with_crosstalk_windows(Constraints::default(), &specs, &SiOptions::default())
            .unwrap();
        let d = &analysis.diagnostics;
        let passes: Vec<(usize, usize, usize)> = d
            .iterations
            .iter()
            .map(|it| {
                (
                    it.aggressors_pruned,
                    it.victims_recomputed,
                    it.victims_cached,
                )
            })
            .collect();
        assert_eq!(passes, [(1, 6, 0), (0, 4, 2)]);
        assert!(d.converged);
        assert_equals_one_pass_over_final_specs(&sta, &specs, &analysis);
    }

    #[test]
    fn per_pin_output_load_reaches_the_receiver_reduction() {
        let _guard = crate::obs_test_guard();
        // The SGDP reduction models the victim's receiver through the
        // library tables; its output load must honor a per-pin override
        // on the net that receiver drives (regression: it used to read
        // the uniform default only).
        let sta = Sta::new(coupled_design(), lib().clone()).unwrap();
        let c = Constraints::default();
        let mut heavy = BoundaryConditions::from(&c);
        let y = sta.design().find_net("y").unwrap();
        let mut ob = heavy.output(y);
        ob.load *= 20.0;
        heavy.set_output(y, ob);
        let (_, base) = one_pass(&sta, c, &[spec(&sta)], MethodKind::Sgdp).unwrap();
        let (_, loaded) = one_pass(&sta, heavy, &[spec(&sta)], MethodKind::Sgdp).unwrap();
        assert_eq!(base.len(), loaded.len());
        assert!(
            base.iter()
                .zip(&loaded)
                .any(|(a, b)| a.noisy_arrival != b.noisy_arrival || a.noisy_slew != b.noisy_slew),
            "a 20x receiver output load must change the reduction"
        );
    }

    #[test]
    fn dt_quantization_rounds_up_and_tolerates_nan() {
        // Buckets round the raw slew/50 heuristic up, clamped to the
        // documented [0.5, 5] ps range.
        assert_eq!(quantize_dt(10e-12), 0.5e-12); // raw clamps up to 0.5 ps
        assert_eq!(quantize_dt(30e-12), 1e-12); // raw 0.6 ps -> 1 ps
        assert_eq!(quantize_dt(75e-12), 2e-12); // raw 1.5 ps -> 2 ps
        assert_eq!(quantize_dt(150e-12), 4e-12); // raw 3 ps -> 4 ps
        assert_eq!(quantize_dt(1e-9), 5e-12); // raw clamps down to 5 ps
                                              // A NaN slew must pass through as NaN — TransientOptions::new then
                                              // rejects it as a recoverable error — never panic in the bucket
                                              // lookup.
        assert!(quantize_dt(f64::NAN).is_nan());
    }

    #[test]
    fn unknown_aggressor_is_reported() {
        let _guard = crate::obs_test_guard();
        let sta = Sta::new(coupled_design(), lib().clone()).unwrap();
        let c = Constraints::default();
        let mut s = spec(&sta);
        s.aggressors = vec![NetId(usize::MAX - 1)];
        let p1 = SiOptions {
            method: MethodKind::P1,
            ..SiOptions::default()
        };
        assert!(matches!(
            sta.analyze_with_crosstalk_windows(c, &[s], &p1),
            Err(StaError::Unresolved(_))
        ));
    }

    #[test]
    fn unknown_victim_is_reported() {
        // Checked up front with the duplicate check, before any per-net
        // table is indexed by the victim.
        let sta = Sta::new(coupled_design(), lib().clone()).unwrap();
        let c = Constraints::default();
        let mut s = spec(&sta);
        s.victim = NetId(usize::MAX - 1);
        assert!(matches!(
            sta.analyze_with_crosstalk_windows(c, &[s], &SiOptions::default()),
            Err(StaError::Unresolved(_))
        ));
    }

    #[test]
    fn duplicate_victim_specs_rejected() {
        // Only one spec per victim can apply; a silent first-wins pick
        // would drop the second spec's aggressors.
        let sta = Sta::new(coupled_design(), lib().clone()).unwrap();
        let c = Constraints::default();
        let s = spec(&sta);
        assert!(matches!(
            sta.analyze_with_crosstalk_windows(c, &[s.clone(), s], &SiOptions::default()),
            Err(StaError::Structure(_))
        ));
    }

    #[test]
    fn governed_update_tames_a_two_victim_oscillation() {
        // Hand-built period-2 oscillation: two coupled victims whose
        // windows flip-flop between iterates A and B (net 0 later/earlier,
        // net 1 the mirror image) — the shape the real loop cannot settle.
        // Net 2 is a bystander (not a participant), net 3 loses its
        // window entirely in phase B.
        let w = |e: f64, l: f64| {
            Some(ArrivalWindow {
                earliest: e,
                latest: l,
            })
        };
        let a = vec![
            w(10e-12, 20e-12),
            w(5e-12, 15e-12),
            w(1e-12, 2e-12),
            w(7e-12, 9e-12),
        ];
        let b = vec![w(30e-12, 40e-12), w(0.0, 8e-12), w(3e-12, 4e-12), None];
        let participants = [NetId(0), NetId(1), NetId(3)];
        // The windows of nets 0-3 of a design, stored per cone and read
        // back per net.
        let sta = Sta::new(coupled_design(), lib().clone()).unwrap();
        let graph = sta.graph();
        let per_cone = |windows: &[Option<ArrivalWindow>]| -> PerCone<Option<ArrivalWindow>> {
            let at = |net: &NetId| windows.get(net.0).copied().flatten();
            graph
                .components()
                .iter()
                .map(|cone| cone.iter().map(at).collect())
                .collect()
        };
        let update = |fresh: &[Option<ArrivalWindow>],
                      prev: &[Option<ArrivalWindow>],
                      iteration: usize,
                      actions: &mut Vec<ConvergenceAction>| {
            let mut windows = per_cone(fresh);
            let prev = per_cone(prev);
            governed_window_update(
                graph,
                &mut windows,
                &prev,
                &participants,
                iteration,
                actions,
            );
            (0..4)
                .map(|i| graph.at(&windows, NetId(i)).copied().flatten())
                .collect::<Vec<_>>()
        };
        // The loop's governed step: prev iterate A, fresh iterate B.
        let mut actions = Vec::new();
        let windows = update(&b, &a, 1, &mut actions);
        // Conservative: every installed window contains BOTH iterates.
        for i in [0usize, 1] {
            let u = windows[i].unwrap();
            for it in [a[i].unwrap(), b[i].unwrap()] {
                assert!(u.earliest <= it.earliest && u.latest >= it.latest);
            }
        }
        // Both oscillating victims' widenings are on record, each
        // certified conservative against the iterate it replaced.
        assert_eq!(actions.len(), 2);
        for act in &actions {
            assert!(act.widened.earliest <= act.fresh.earliest);
            assert!(act.widened.latest >= act.fresh.latest);
        }
        // The bystander is untouched; the window-losing net keeps its
        // previous window (dropping it would prune MORE — the opposite
        // of conservative).
        assert_eq!(windows[2], b[2]);
        assert_eq!(windows[3], a[3]);
        // Termination: unions only grow, so feeding the next oscillation
        // phase back in leaves the installed windows stationary — with
        // stationary windows the filter's specs repeat and the loop's
        // unchanged-spec stop fires.
        let installed = windows.clone();
        let next = update(&a, &installed, 2, &mut Vec::new());
        assert_eq!(next[0], installed[0]);
        assert_eq!(next[1], installed[1]);
        assert_eq!(next[3], installed[3]);
        // And once more from the other phase: still stationary.
        let third = update(&b, &installed, 3, &mut Vec::new());
        assert_eq!(third[0], installed[0]);
        assert_eq!(third[1], installed[1]);
        assert_eq!(third[3], installed[3]);
    }
}
