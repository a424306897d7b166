//! Engine support for long-lived incremental timing sessions.
//!
//! A session (the `nsta-session` crate) retains a converged crosstalk
//! analysis and, on each netlist/parasitics edit, re-solves only the part
//! of the design the edit can reach. This module supplies the three
//! engine-side primitives that make the incremental answer *provably*
//! equal to the batch one:
//!
//! 1. **Dirty closure** ([`Sta::coupled_cones`]): the timing graph's
//!    weakly connected components ([`crate::TimingGraph::components`],
//!    "cones") are the propagation granule — no timing arc crosses a
//!    cone. Coupling specs add cross-cone dependencies (a victim's noisy
//!    arrival depends on its aggressors' nominal arrivals and windows), so
//!    an edit reaches every cone linked to an edited net's cone by a chain
//!    of specs. Each edit computes that closure from its candidate's own
//!    specs, as one per-cone mask; cones outside it cannot change.
//! 2. **Scoped re-solve** ([`Sta::session_resolve`]): the specs of the
//!    closure's victims are re-analyzed over the closure ([`EditScope`]).
//!    Only the closure cones the edit can move are swept; the others are
//!    read from the retained analysis (below). The result is a
//!    [`ConePatch`] holding states, report rows and nominal windows for
//!    the swept cones only. Like any analysis call, each re-solve shares
//!    factorizations only within itself, so an edit leaves nothing behind
//!    to invalidate.
//! 3. **Per-cone merge** ([`Sta::session_merge`]): the retained analysis
//!    keeps its final propagation states, nominal windows and report
//!    extremes (each cone's smallest slack and latest arrival) cone by
//!    cone; the merge moves the patch's states, rows, windows and victim
//!    records into it, cone by cone in place (patch for the swept cones,
//!    retained for all others), and re-derives the report's summary from
//!    the extremes: the worst arrival is the latest cone maximum, and the
//!    worst point is folded over the few points near the smallest slack
//!    only (a restricted fold, which the proof on
//!    `Sta::restricted_worst` shows exact). The critical path is kept
//!    when the worst point did not move and its cone was not swept (the
//!    predecessor walk never leaves a cone), and re-walked otherwise.
//!    Required times and slacks never cross a cone boundary, so every
//!    row is exact — the merged report is bit-identical to a full batch
//!    re-analysis, not merely close to it, and a merge costs the swept
//!    cones plus one pass over the per-cone extremes, not a scan of
//!    every report row.
//!
//! Why the splice is exact: aggressor ramps are taken from the
//! iteration-invariant nominal sweep, a net's windows depend only on its
//! own cone's states, and the window filter consults only the victim's
//! and its aggressors' windows — all inside one closure. Running the
//! fixed point with only the closure's specs therefore reproduces, for
//! its nets, exactly the states the full-spec run would compute, while
//! cones outside it keep their retained states verbatim. One caveat: the
//! convergence *governor* observes global stagnation, so a
//! pathologically oscillating design could in principle widen windows
//! differently under a subset run — the session's shadow audit exists to
//! catch exactly such divergence.
//!
//! Why a closure cone need not be swept: a victim reaches an aggressor
//! only through the aggressor's nominal ramp and its window, so what an
//! edit's fixed point reads of a cone holding no victim (an aggressor
//! chain) is that cone's nominal sweep. The nominal and min sweeps of a
//! cone read only the design, the library and the cone's own port
//! boundaries, and a cone whose retained analysis applied no adjustment
//! was never re-propagated (its victims, if any, kept their nominal
//! timing), so its retained states and rows *are* its nominal sweep's.
//! The re-solve therefore sweeps a closure cone only if it holds a victim
//! of the edited specs (every such cone is re-solved in the first pass
//! anyway), a victim the retained analysis holds an adjustment or a
//! pruned aggressor for (a victim whose spec the edit removed leaves
//! noisy states and records to replace), or a port whose boundary the
//! edit changed ([`EditScope::boundary_nets`]), and reads every other
//! closure cone's states and rows from the retained analysis.
//! Its windows come from [`RetainedAnalysis`]'s nominal windows: the
//! windows the min sweep and the nominal rows give, before any governed
//! widening. A cone the fixed point never re-solves keeps its nominal
//! rows, so every pass would recompute exactly those windows for it, and
//! a governed update unions them with themselves, which changes nothing.

use crate::engine::{later, NetState, PerCone, Sta, WorstPoint, SLACK_TIE};
use crate::graph::find_root;
use crate::netlist::NetId;
use crate::report::{NetTiming, PathPoint, TimingReport};
use crate::si::{
    ArrivalWindow, CouplingSpec, PrunedAggressor, SiAdjustment, SiAnalysis, SiDiagnostics,
};
use nsta_waveform::Polarity;

/// A converged analysis plus what a later edit's re-solve reads of it,
/// cone by cone — the retained value of one session epoch. The per-cone
/// values are engine-internal; they exist so [`Sta::session_merge`] can
/// splice results at the state level and [`Sta::session_resolve`] can
/// skip the closure cones an edit cannot move (see the module docs).
#[derive(Debug, Clone)]
pub struct RetainedAnalysis {
    /// The analysis result (report, adjustments, pruned, diagnostics).
    pub analysis: SiAnalysis,
    /// The final propagation states the report was built from.
    pub(crate) states: PerCone<NetState>,
    /// Each net's nominal window: the first pass's window, from the min
    /// sweep and the nominal rows, before any governed widening.
    pub(crate) windows: PerCone<Option<ArrivalWindow>>,
    /// Each cone's report extremes, from which a merge re-derives the
    /// report's worst arrival and worst point.
    pub(crate) extremes: Vec<ConeExtremes>,
}

/// One cone's report extremes (16 B): the smallest slack and the latest
/// arrival among its points. A [`RetainedAnalysis`] keeps them for every
/// cone, and [`Sta::session_merge`] refreshes those of the cones it
/// replaces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ConeExtremes {
    /// The smallest slack, NaN ignored; `+inf` for a cone without one.
    min_slack: f64,
    /// The latest arrival by [`later`]; `-inf` for a cone without points.
    max_arrival: f64,
}

impl ConeExtremes {
    /// The extremes of the points of `rows`, one cone's report rows.
    pub(crate) fn of(rows: &[NetTiming]) -> Self {
        let mut extremes = ConeExtremes {
            min_slack: f64::INFINITY,
            max_arrival: f64::NEG_INFINITY,
        };
        for (_, p) in rows.iter().flat_map(NetTiming::points) {
            if p.slack < extremes.min_slack {
                extremes.min_slack = p.slack;
            }
            extremes.max_arrival = later(extremes.max_arrival, p.arrival);
        }
        extremes
    }
}

/// The slack gap G of a merge's restricted fold (s): three worst-point
/// tie tolerances ([`Sta::restricted_worst`]).
const FOLD_GAP: f64 = 3.0 * SLACK_TIE;

/// A point's position in the worst-point fold's order: net id, rise
/// first.
fn point_key(net: NetId, polarity: Polarity) -> usize {
    2 * net.0 + usize::from(!polarity.is_rise())
}

/// What an edit's re-solve ([`Sta::session_resolve`]) covers, and the
/// analysis it may read the cones it does not sweep from.
#[derive(Debug, Clone, Copy)]
pub struct EditScope<'a> {
    /// The edit's dirty closure, a per-cone mask indexed like
    /// [`crate::TimingGraph::components`] ([`Sta::coupled_cones`]).
    pub cones: &'a [bool],
    /// The analysis the edit applies to.
    pub retained: &'a RetainedAnalysis,
    /// The ports whose boundary conditions the edit changed: their cones
    /// are swept even when they hold no victim.
    pub boundary_nets: &'a [NetId],
}

/// A scoped re-solve's result ([`Sta::session_resolve`]): the final
/// states, report rows and nominal windows of the cones it swept, and the
/// adjustments and pruned records of their victims, ready to be spliced
/// into a [`RetainedAnalysis`] by [`Sta::session_merge`]. It holds
/// nothing for the cones it did not sweep, so building and merging it
/// costs the swept cones' nets, not the closure's or the design's.
#[derive(Debug, Clone)]
pub struct ConePatch {
    /// The re-solve's diagnostics: a session commits the patch only if it
    /// converged in time.
    pub diagnostics: SiDiagnostics,
    /// The per-cone mask of the cones the re-solve swept.
    pub(crate) cones: Vec<bool>,
    pub(crate) states: PerCone<NetState>,
    pub(crate) rows: PerCone<NetTiming>,
    pub(crate) windows: PerCone<Option<ArrivalWindow>>,
    pub(crate) adjustments: Vec<SiAdjustment>,
    pub(crate) pruned: Vec<PrunedAggressor>,
}

impl ConePatch {
    /// How many cones the re-solve swept: the closure cones holding a
    /// victim or a changed boundary (module docs).
    pub fn swept_cones(&self) -> usize {
        self.cones.iter().filter(|&&swept| swept).count()
    }
}

impl Sta {
    /// The dirty closure of an edit seeded at `seeds` (the edited nets
    /// plus the victims whose spec changed): every cone linked to a seed's
    /// cone by a chain of `couplings`, where a spec links its victim's
    /// cone with each of its aggressors' cones. Returns a per-cone mask
    /// indexed like [`crate::TimingGraph::components`]. Unknown nets in a
    /// spec and out-of-range seeds are ignored — the analysis itself
    /// reports unknown nets.
    pub fn coupled_cones(&self, couplings: &[CouplingSpec], seeds: &[NetId]) -> Vec<bool> {
        let graph = self.graph();
        // Union-find over cone indices: union order does not matter, only
        // which cones end up sharing a root.
        let mut parent: Vec<usize> = (0..graph.components().len()).collect();
        for spec in couplings {
            let Some(victim) = graph.cone_of(spec.victim) else {
                continue;
            };
            for aggressor in spec.aggressors.iter().filter_map(|&a| graph.cone_of(a)) {
                let a = find_root(&mut parent, victim);
                let b = find_root(&mut parent, aggressor);
                parent[b] = a;
            }
        }
        let mut dirty_root = vec![false; parent.len()];
        for cone in seeds.iter().filter_map(|&net| graph.cone_of(net)) {
            dirty_root[find_root(&mut parent, cone)] = true;
        }
        (0..parent.len())
            .map(|cone| dirty_root[find_root(&mut parent, cone)])
            .collect()
    }

    /// The cones of `edit`'s closure its re-solve sweeps (module docs):
    /// those holding a victim of `couplings`, a victim the retained
    /// analysis holds an adjustment or a pruned aggressor for, or one of
    /// [`EditScope::boundary_nets`], as a per-cone mask. Every other
    /// closure cone holds no victim record, and its nominal states, rows
    /// and windows are the retained analysis's.
    pub(crate) fn swept_cones(
        &self,
        couplings: &[CouplingSpec],
        edit: &EditScope<'_>,
    ) -> Vec<bool> {
        let graph = self.graph();
        let mut swept = vec![false; graph.components().len()];
        let retained = &edit.retained.analysis;
        let victims = couplings.iter().map(|s| s.victim);
        let adjusted = retained.adjustments.iter().map(|a| a.net);
        let pruned = retained.pruned.iter().map(|p| p.victim);
        let boundary = edit.boundary_nets.iter().copied();
        let nets = victims.chain(adjusted).chain(pruned).chain(boundary);
        for cone in nets.filter_map(|net| graph.cone_of(net)) {
            swept[cone] |= edit.cones.get(cone) == Some(&true);
        }
        swept
    }

    /// Splices a re-solve's `patch` into `retained`, in place: every cone
    /// the patch swept takes the patch's states, rows, nominal windows,
    /// report extremes and victim records (adjustments and pruned
    /// aggressors), all others keep their own, and the report's summary is
    /// re-derived — bit-identical to a batch run over the edited design
    /// (module docs). `epoch` stamps the merged diagnostics. States, rows
    /// and windows are moved, not copied, so the cost scales with the
    /// swept cones' nets plus one pass over the per-cone extremes, and
    /// with the points near the smallest slack, which the restricted fold
    /// (`Sta::restricted_worst`, with its proof of exactness) visits.
    ///
    /// Returns whether the merge fell back to folding every report row:
    /// only when the smallest slack is not finite (an unconstrained
    /// design) or lies 1 s or more from zero.
    pub fn session_merge(
        &self,
        retained: &mut RetainedAnalysis,
        patch: ConePatch,
        epoch: u64,
    ) -> bool {
        let graph = self.graph();
        let ConePatch {
            mut diagnostics,
            cones,
            mut states,
            mut rows,
            mut windows,
            adjustments,
            pruned,
        } = patch;
        let analysis = &mut retained.analysis;
        let (mut report_rows, critical) = analysis.report.take_parts();
        for cone in graph.scoped_cones(Some(&cones)) {
            let nets = &graph.components()[cone];
            retained.extremes[cone] = ConeExtremes::of(&rows[cone]);
            for (&net, row) in nets.iter().zip(std::mem::take(&mut rows[cone])) {
                report_rows[net.0] = row;
            }
            retained.states[cone] = std::mem::take(&mut states[cone]);
            retained.windows[cone] = std::mem::take(&mut windows[cone]);
        }
        self.splice_adjustments(&mut analysis.adjustments, adjustments, &cones);
        let (report, full_fold) = self.merged_report(
            report_rows,
            &retained.states,
            &retained.extremes,
            &cones,
            critical,
        );
        analysis.report = report;

        let dirty = |net: NetId| graph.in_cones(&cones, net);
        let retained_pruned = &mut analysis.pruned;
        retained_pruned.retain(|p| !dirty(p.victim));
        retained_pruned.extend(pruned.into_iter().filter(|p| dirty(p.victim)));
        retained_pruned.sort_by_key(|p| (p.victim.0, p.aggressor.0));

        diagnostics.epoch = epoch;
        analysis.diagnostics = diagnostics;
        full_fold
    }

    /// The merged report of `nets` (every row, spliced) with `states`,
    /// `extremes` (every cone's) and `previous`, the critical path of the
    /// report before the merge: the summary [`Sta::report_from_rows`]
    /// would derive, bit for bit. The worst arrival is the latest cone
    /// maximum ([`later`] is a total order). The worst point comes from
    /// the restricted fold, or from the fold over every row when that
    /// declines; the returned flag says it did. `previous` is kept when
    /// it ends at the new worst point and that point's cone is not one
    /// `swept` marks, since the predecessor walk reads that cone's states
    /// only, and re-walked otherwise.
    fn merged_report(
        &self,
        nets: Vec<NetTiming>,
        states: &[Vec<NetState>],
        extremes: &[ConeExtremes],
        swept: &[bool],
        previous: Vec<PathPoint>,
    ) -> (TimingReport, bool) {
        let worst_arrival = extremes
            .iter()
            .fold(f64::NEG_INFINITY, |latest, e| later(latest, e.max_arrival));
        let restricted = self.restricted_worst(&nets, extremes);
        let full_fold = restricted.is_none();
        let worst = restricted.unwrap_or_else(|| WorstPoint::of_rows(&nets));
        let point = worst.point();
        let kept = previous.last().is_some_and(|end| {
            point == Some((end.net, end.polarity)) && !self.graph().in_cones(swept, end.net)
        });
        let critical = if kept {
            previous
        } else {
            self.critical_path(point, states)
        };
        (
            TimingReport::new(nets, critical, worst.slack, worst_arrival),
            full_fold,
        )
    }

    /// The worst point of `nets` ([`WorstPoint`] over every point),
    /// folded over the points near the smallest slack only, or `None`
    /// when the caller must fold every point. `extremes` holds every
    /// cone's.
    ///
    /// With m the smallest cone minimum, τ = [`SLACK_TIE`] and
    /// G = [`FOLD_GAP`] = 3τ: T starts at m and grows through the cones
    /// whose minimum is ≤ T + G until none of their points lies in
    /// (T, T + G]. A point of any other cone lies above its cone's
    /// minimum, hence above T + G. So every point is then either ≤ T or
    /// above T + G (a NaN slack is neither), and the fold runs over the
    /// points ≤ T, in the full fold's order (net id, rise first).
    ///
    /// **Exactness.** Let S be the full fold's running slack and q the
    /// first point with slack ≤ T. Every point before q lies above T + G
    /// or has a NaN slack, which never becomes the worst point, so S is
    /// `+inf` or above T + G when q arrives. Then q's slack ≤ T < S − τ:
    /// q passes the first clause of [`WorstPoint::push`], and the full
    /// fold's state becomes (q's slack, q), exactly the state the
    /// restricted fold has after its first point, q. From then on both
    /// folds see the same points in the same order, except the excluded
    /// ones, and S ≤ T. An excluded point's slack exceeds
    /// T + G = T + 3τ ≥ S + 3τ, more than two tolerances above S, so it
    /// fails both clauses (it is neither below S − τ nor within S + τ)
    /// and changes nothing. Both folds end in the same state.
    ///
    /// Rounding: T lies in (−1 s, 1 s), where half an ulp is at most
    /// 1.1e-16 s ≈ 0.11τ. So the computed T + G exceeds T + 2.8τ, and as
    /// rounding is monotone, the computed S − τ exceeds T + 1.7τ before
    /// q, while after q the computed S + τ stays below T + 1.2τ and the
    /// computed S − τ at most T: every comparison keeps a margin of more
    /// than 1.5τ. With G = τ the first margin is lost: near zero, a point
    /// just above T + τ can round S − τ back to T, and q then fails both
    /// clauses.
    ///
    /// Each round of the growth passes over the extremes and the points
    /// taken. Rounds are few: T grows to the largest slack within G, so
    /// every two rounds move it by more than G, through a ladder of
    /// points less than G apart.
    ///
    /// Declines when m is not finite (no constrained point, or an
    /// infinitely late one), when |m| ≥ 1 s, or when T reaches 1 s
    /// (which takes more than 10^14 points).
    pub(crate) fn restricted_worst(
        &self,
        nets: &[NetTiming],
        extremes: &[ConeExtremes],
    ) -> Option<WorstPoint> {
        let graph = self.graph();
        let m = extremes
            .iter()
            .map(|e| e.min_slack)
            .fold(f64::INFINITY, f64::min);
        if m.abs() >= 1.0 {
            return None;
        }
        // The finite-slack points of the cones taken so far, as (slack,
        // point key).
        let mut points: Vec<(f64, usize)> = Vec::new();
        let mut taken = vec![false; extremes.len()];
        let mut t = m;
        loop {
            let reach = t + FOLD_GAP;
            for (cone, e) in extremes.iter().enumerate() {
                if taken[cone] || e.min_slack > reach {
                    continue;
                }
                taken[cone] = true;
                for &net in &graph.components()[cone] {
                    let finite = nets[net.0].points().filter(|(_, p)| p.slack.is_finite());
                    points.extend(finite.map(|(pol, p)| (p.slack, point_key(net, pol))));
                }
            }
            // Grow T to the largest slack in (T, T + G], if any.
            let next = points
                .iter()
                .map(|&(slack, _)| slack)
                .filter(|&slack| slack > t && slack <= reach)
                .fold(t, f64::max);
            if next == t {
                break;
            }
            t = next;
            if t >= 1.0 {
                return None;
            }
        }
        let mut picked: Vec<usize> = points
            .iter()
            .filter(|&&(slack, _)| slack <= t)
            .map(|&(_, key)| key)
            .collect();
        picked.sort_unstable();
        let mut worst = WorstPoint::default();
        for key in picked {
            let (net, pol) = (NetId(key / 2), [Polarity::Rise, Polarity::Fall][key % 2]);
            if let Some(p) = nets[net.0].point(pol) {
                worst.push(net, pol, p);
            }
        }
        Some(worst)
    }

    /// Splices a re-solve's per-cone `(states, report rows, adjustments)`
    /// into an earlier result's, in place: every cone `cones` marks takes
    /// the patch's states and rows (moved, not copied), all others keep
    /// their own, and the adjustments of the marked victims are swapped
    /// for the patch's. Returns the worst arrival movement of a spliced
    /// row (s).
    ///
    /// Required times never cross a cone boundary, so every spliced row is
    /// already exact: the caller re-derives only the report summary
    /// ([`Sta::report_from_rows`]). Every pass of the crosstalk fixed point
    /// splices this way, as [`Sta::session_merge`] does for an edit.
    pub(crate) fn splice_cones(
        &self,
        (states, rows, adjustments): (
            &mut PerCone<NetState>,
            &mut PerCone<NetTiming>,
            &mut Vec<SiAdjustment>,
        ),
        (mut patch_states, mut patch_rows, patch_adjustments): (
            PerCone<NetState>,
            PerCone<NetTiming>,
            Vec<SiAdjustment>,
        ),
        cones: &[bool],
    ) -> f64 {
        let mut moved = 0.0f64;
        for cone in self.graph().scoped_cones(Some(cones)) {
            for (row, patch_row) in rows[cone].iter().zip(&patch_rows[cone]) {
                for (old, new) in [(&row.rise, &patch_row.rise), (&row.fall, &patch_row.fall)] {
                    if let (Some(old), Some(new)) = (old, new) {
                        moved = moved.max((old.arrival - new.arrival).abs());
                    }
                }
            }
            rows[cone] = std::mem::take(&mut patch_rows[cone]);
            states[cone] = std::mem::take(&mut patch_states[cone]);
        }
        self.splice_adjustments(adjustments, patch_adjustments, cones);
        moved
    }

    /// Swaps the adjustments of the victims in the cones `cones` marks for
    /// `patch`'s. Both lists are in the canonical `(net, rise-first)`
    /// order, one entry per key, so one merge of the two keeps it.
    fn splice_adjustments(
        &self,
        adjustments: &mut Vec<SiAdjustment>,
        patch: Vec<SiAdjustment>,
        cones: &[bool],
    ) {
        let marked = |net: NetId| self.graph().in_cones(cones, net);
        let key = |a: &SiAdjustment| (a.net.0, !a.polarity.is_rise());
        let capacity = adjustments.len() + patch.len();
        let kept = std::mem::replace(adjustments, Vec::with_capacity(capacity));
        let mut patch = patch.into_iter().filter(|a| marked(a.net)).peekable();
        for a in kept.into_iter().filter(|a| !marked(a.net)) {
            while let Some(p) = patch.next_if(|p| key(p) < key(&a)) {
                adjustments.push(p);
            }
            adjustments.push(a);
        }
        adjustments.extend(patch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verilog::parse_design;
    use crate::{BoundaryConditions, SiOptions};
    use nsta_circuit::RcLineSpec;
    use nsta_liberty::characterize::{inverter_family, Options};
    use nsta_liberty::Library;
    use nsta_spice::Process;
    use std::sync::OnceLock;

    fn lib() -> &'static Library {
        static LIB: OnceLock<Library> = OnceLock::new();
        LIB.get_or_init(|| {
            inverter_family(&Process::c013(), &[("INVX1", 1.0)], &Options::fast_test()).unwrap()
        })
    }

    /// Three independent two-inverter cones: a→v→y, b→g→z, c→h→w. The
    /// internal wires v/g/h have receiver gates, so they can be victims.
    fn three_cones() -> Sta {
        let src = "module m (a, b, c, y, z, w);\n\
                   input a; input b; input c;\n\
                   output y; output z; output w;\n\
                   wire v; wire g; wire h;\n\
                   INVX1 u0 (.A(a), .Y(v)); INVX1 u1 (.A(v), .Y(y));\n\
                   INVX1 u2 (.A(b), .Y(g)); INVX1 u3 (.A(g), .Y(z));\n\
                   INVX1 u4 (.A(c), .Y(h)); INVX1 u5 (.A(h), .Y(w));\n\
                   endmodule\n";
        let design = parse_design(src).unwrap();
        Sta::new(design, lib().clone()).unwrap()
    }

    fn spec(victim: NetId, aggressors: Vec<NetId>) -> CouplingSpec {
        CouplingSpec {
            victim,
            aggressors,
            cm_total: 10e-15,
            cm_per_aggressor: Vec::new(),
            line: RcLineSpec {
                r_total: 20.0,
                c_total: 10e-15,
                segments: 2,
            },
            aggressor_lines: Vec::new(),
            quiet_cm: 0.0,
            receiver_load: None,
            driver_resistance: 200.0,
            aggressor_skew: 0.0,
            aggressors_oppose: true,
            defect: None,
        }
    }

    #[test]
    fn clusters_merge_cones_linked_by_specs() {
        let sta = three_cones();
        let d = sta.design();
        let (v, g, h) = (
            d.find_net("v").unwrap(),
            d.find_net("g").unwrap(),
            d.find_net("h").unwrap(),
        );
        let cone = |net| sta.graph().cone_of(net).unwrap();
        let marked = |mask: Vec<bool>| -> Vec<usize> {
            assert_eq!(mask.len(), sta.graph().components().len());
            (0..mask.len()).filter(|&c| mask[c]).collect()
        };
        // No specs: editing g dirties only g's cone.
        assert_eq!(marked(sta.coupled_cones(&[], &[g])), [cone(g)]);
        // A spec coupling v's cone to g's links exactly those two: editing
        // either dirties both cones, and never h's.
        let specs = [spec(v, vec![g])];
        let mut linked = vec![cone(v), cone(g)];
        linked.sort_unstable();
        assert!(!linked.contains(&cone(h)));
        for seed in [g, v] {
            assert_eq!(marked(sta.coupled_cones(&specs, &[seed])), linked);
        }
        // Out-of-range seeds are ignored.
        assert_eq!(marked(sta.coupled_cones(&specs, &[NetId(usize::MAX)])), []);
    }

    /// Re-solves `edit` over the specs and boundaries `specs`/`bc`, merges
    /// the patch into `retained` and asserts the result equals a fresh
    /// batch of the edited state bit for bit. Returns the swept cones.
    fn assert_merge_equals_batch(
        sta: &Sta,
        bc: &BoundaryConditions,
        specs: &[CouplingSpec],
        retained: &RetainedAnalysis,
        edit: EditScope<'_>,
    ) -> usize {
        let opts = SiOptions::default();
        let patch = sta
            .session_resolve(bc.clone(), specs, &opts, Some(edit))
            .unwrap();
        let swept = patch.swept_cones();
        let mut merged = retained.clone();
        assert!(!sta.session_merge(&mut merged, patch, 3), "a full fold");
        assert_eq!(merged.analysis.diagnostics.epoch, 3);
        let batch = sta.session_analyze(bc.clone(), specs, &opts).unwrap();
        assert_eq!(merged.analysis.report, batch.analysis.report);
        assert_eq!(merged.analysis.adjustments, batch.analysis.adjustments);
        assert_eq!(merged.analysis.pruned, batch.analysis.pruned);
        assert_eq!(merged.windows, batch.windows);
        assert_eq!(merged.extremes, batch.extremes);
        swept
    }

    #[test]
    fn session_merge_splices_dirty_nets_and_refinishes() {
        let _guard = crate::obs_test_guard();
        let sta = three_cones();
        let d = sta.design();
        let (v, g) = (d.find_net("v").unwrap(), d.find_net("g").unwrap());
        let bc = BoundaryConditions::uniform(&crate::Constraints::default());
        let specs = [spec(v, vec![g])];
        let full = sta
            .session_analyze(bc.clone(), &specs, &SiOptions::default())
            .unwrap();
        // Re-solve every cone / no cone and merge the patch into the full
        // analysis: both must reproduce the batch bit-identically. Of every
        // cone, only v's, the one holding a victim, is swept.
        let cones = sta.graph().components().len();
        for (mask, swept) in [(vec![true; cones], 1), (vec![false; cones], 0)] {
            let edit = EditScope {
                cones: &mask,
                retained: &full,
                boundary_nets: &[],
            };
            let swept_now = assert_merge_equals_batch(&sta, &bc, &specs, &full, edit);
            assert_eq!(swept_now, swept);
        }
    }

    #[test]
    fn scoped_resolve_merges_bit_identically() {
        let _guard = crate::obs_test_guard();
        let sta = three_cones();
        let d = sta.design();
        let (v, g, z) = (
            d.find_net("v").unwrap(),
            d.find_net("g").unwrap(),
            d.find_net("z").unwrap(),
        );
        let bc = BoundaryConditions::uniform(&crate::Constraints::default());
        let specs = vec![spec(v, vec![g])];
        let retained = sta
            .session_analyze(bc.clone(), &specs, &SiOptions::default())
            .unwrap();
        // Edit v's driver. The closure is v's cone and g's, an aggressor-only
        // cone the re-solve reads from the retained analysis instead of
        // sweeping; h's cone is out of scope. Splicing the patch back must
        // reproduce the batch bit for bit.
        let mut edited = specs.clone();
        edited[0].driver_resistance = 350.0;
        let scope = sta.coupled_cones(&edited, &[v]);
        assert_eq!(scope.iter().filter(|&&s| s).count(), 2);
        let edit = EditScope {
            cones: &scope,
            retained: &retained,
            boundary_nets: &[],
        };
        assert_eq!(
            assert_merge_equals_batch(&sta, &bc, &edited, &retained, edit),
            1
        );
        // A load on z moves the aggressor cone's own boundary: that cone is
        // swept too, and its rows change.
        let mut loaded = bc.clone();
        let required = loaded.output(z).required;
        loaded.set_output(
            z,
            crate::OutputBoundary {
                required,
                load: 30e-15,
            },
        );
        let edit = EditScope {
            boundary_nets: &[z],
            ..edit
        };
        assert_eq!(
            assert_merge_equals_batch(&sta, &loaded, &edited, &retained, edit),
            2
        );
        // A victim whose spec the edit removes keeps noisy retained states:
        // its cone is swept although it holds no victim any more.
        let seeds = [v];
        let scope = sta.coupled_cones(&specs, &seeds);
        let edit = EditScope {
            cones: &scope,
            retained: &retained,
            boundary_nets: &[],
        };
        assert!(!retained.analysis.adjustments.is_empty());
        assert_eq!(
            assert_merge_equals_batch(&sta, &bc, &[], &retained, edit),
            1
        );
    }

    /// Five independent inverter chains of 1–4 stages: five cones of
    /// 2–5 nets, so points of one cone interleave with others' in net-id
    /// order.
    fn five_chains() -> Sta {
        let lengths = [1, 3, 2, 4, 1];
        let mut ports = Vec::new();
        let mut body = String::new();
        for (c, &len) in lengths.iter().enumerate() {
            ports.extend([format!("a{c}"), format!("y{c}")]);
            body.push_str(&format!("input a{c}; output y{c};\n"));
            let mut prev = format!("a{c}");
            for s in 1..=len {
                let out = if s == len {
                    format!("y{c}")
                } else {
                    body.push_str(&format!("wire w{c}_{s};\n"));
                    format!("w{c}_{s}")
                };
                body.push_str(&format!("INVX1 u{c}_{s} (.A({prev}), .Y({out}));\n"));
                prev = out;
            }
        }
        let src = format!("module m ({});\n{body}endmodule\n", ports.join(", "));
        Sta::new(parse_design(&src).unwrap(), lib().clone()).unwrap()
    }

    /// Per-cone report rows whose every point takes `(slack, arrival)`
    /// from `point` (`None`: unreachable).
    fn rows_with(
        sta: &Sta,
        mut point: impl FnMut(NetId, Polarity) -> Option<(f64, f64)>,
    ) -> PerCone<NetTiming> {
        let timing = |(slack, arrival)| crate::report::PointTiming {
            arrival,
            slew: 50e-12,
            required: 2e-9,
            slack,
        };
        sta.graph()
            .components()
            .iter()
            .map(|cone| {
                cone.iter()
                    .map(|&net| NetTiming {
                        net,
                        name: sta.design().net_name(net).to_string(),
                        rise: point(net, Polarity::Rise).map(timing),
                        fall: point(net, Polarity::Fall).map(timing),
                    })
                    .collect()
            })
            .collect()
    }

    /// Derives the report of `rows` both ways, the batch fold over every
    /// row and a merge's (per-cone extremes, restricted fold, `previous`
    /// kept unless its end moved or its cone is `swept`), asserts them
    /// equal bit for bit, and returns the batch report and whether the
    /// merge folded every row.
    fn assert_summaries_match(
        sta: &Sta,
        states: &PerCone<NetState>,
        rows: PerCone<NetTiming>,
        swept: &[bool],
        previous: Vec<PathPoint>,
    ) -> (TimingReport, bool) {
        let extremes: Vec<ConeExtremes> = rows.iter().map(|cone| ConeExtremes::of(cone)).collect();
        let nets = sta.net_rows(rows);
        let batch = sta.report_from_rows(nets.clone(), states);
        let (merged, full_fold) = sta.merged_report(nets, states, &extremes, swept, previous);
        assert_eq!(
            merged.worst_slack().to_bits(),
            batch.worst_slack().to_bits(),
            "worst slack {:e} vs batch {:e}",
            merged.worst_slack(),
            batch.worst_slack()
        );
        assert_eq!(
            merged.worst_arrival().to_bits(),
            batch.worst_arrival().to_bits(),
            "worst arrival {:e} vs batch {:e}",
            merged.worst_arrival(),
            batch.worst_arrival()
        );
        assert_eq!(merged.critical_path(), batch.critical_path());
        (batch, full_fold)
    }

    #[test]
    fn restricted_fold_matches_the_full_fold_bit_for_bit() {
        let _guard = crate::obs_test_guard();
        let sta = five_chains();
        let bc = BoundaryConditions::uniform(&crate::Constraints::default());
        let states = sta.forward_sweep(&bc);
        let cones = sta.graph().components().len();
        let mut rng = nsta_obs::XorShift64::new(0x5eed);
        let mut pick = |n: usize| rng.next_below(n as u64) as usize;
        let mut previous = Vec::new();
        let (mut restricted, mut full) = (0, 0);
        for trial in 0..4000 {
            // A base slack near zero (where G = τ loses its margin), at
            // picosecond scale, near the 1 s bound, or past it (a fallback).
            let base = [
                0.0, -2e-15, 1e-15, -282e-12, 3.7e-10, 0.999_999, -0.5, 1.5, -3.0,
            ][pick(9)];
            let step = [1e-15, 0.5e-15, 1.5e-15, 2e-15, 2.9e-15, 3e-15, 3.1e-15][pick(7)];
            let unconstrained = trial % 97 == 0;
            let mut drawn: Vec<f64> = Vec::new();
            let mut slack = |pick: &mut dyn FnMut(usize) -> usize| -> f64 {
                if unconstrained {
                    return f64::INFINITY;
                }
                let value = match pick(16) {
                    // An exact tie with an earlier draw.
                    0 | 1 if !drawn.is_empty() => drawn[pick(drawn.len())],
                    2 => [0.0, -0.0, 5e-324, -5e-324][pick(4)],
                    3 => f64::INFINITY,
                    4 if pick(8) == 0 => f64::NEG_INFINITY,
                    5 if pick(8) == 0 => f64::NAN,
                    6 => base + 5e-12 * pick(4) as f64,
                    // A near-tie chain in steps of about τ, nudged by a few
                    // ulps either way.
                    _ => {
                        let mut v = base + step * (pick(7) as f64 - 3.0);
                        for _ in 0..pick(3) {
                            v = if pick(2) == 0 {
                                v.next_up()
                            } else {
                                v.next_down()
                            };
                        }
                        v
                    }
                };
                drawn.push(value);
                value
            };
            let arrivals = [0.0, -0.0, 1e-12, 2e-12, 5e-12, 5e-12, 2.282e-9];
            let rows = rows_with(&sta, |_, _| {
                (pick(6) != 0).then(|| (slack(&mut pick), arrivals[pick(arrivals.len())]))
            });
            let swept: Vec<bool> = (0..cones).map(|_| pick(2) == 0).collect();
            let (batch, full_fold) = assert_summaries_match(&sta, &states, rows, &swept, previous);
            if unconstrained {
                assert!(full_fold, "an unconstrained design folds every row");
            }
            if full_fold {
                full += 1;
            } else {
                restricted += 1;
            }
            previous = batch.critical_path().to_vec();
        }
        assert!(
            restricted > 1000 && full > 100,
            "{restricted} restricted, {full} full"
        );
    }

    #[test]
    fn restricted_fold_handles_the_tie_break_edge_cases() {
        let _guard = crate::obs_test_guard();
        let sta = five_chains();
        let bc = BoundaryConditions::uniform(&crate::Constraints::default());
        let states = sta.forward_sweep(&bc);
        let cones = sta.graph().components();
        let none = vec![false; cones.len()];
        // Two points, on the first net of cone 0 and the last net of cone
        // 4, so the first comes first in the fold.
        let (first, second) = (cones[0][0], *cones[4].last().unwrap());
        assert!(first < second);
        let two = |a: (f64, f64), b: (f64, f64)| {
            rows_with(&sta, move |net, pol| match (net, pol) {
                (n, Polarity::Rise) if n == first => Some(a),
                (n, Polarity::Rise) if n == second => Some(b),
                _ => None,
            })
        };
        let end = |report: &TimingReport| report.critical_path().last().map(|p| p.net);
        // T must grow: the later, within-tolerance point A (slack 0) wins
        // over B (slack −0.5 fs) and the worst slack stays 0.0.
        let (report, full) = assert_summaries_match(
            &sta,
            &states,
            two((0.0, 5e-12), (-0.5e-15, 1e-12)),
            &none,
            vec![],
        );
        assert!(!full);
        assert_eq!(report.worst_slack().to_bits(), 0.0f64.to_bits());
        assert_eq!(end(&report), Some(first));
        // G must exceed τ: the smallest subnormal lies above T + τ = 0, but
        // it rounds S − τ back to T, so B (slack −τ, earlier arrival) does
        // not take over from it.
        let (report, full) = assert_summaries_match(
            &sta,
            &states,
            two((5e-324, 2e-12), (-1e-15, 1e-12)),
            &none,
            vec![],
        );
        assert!(!full);
        assert_eq!(report.worst_slack(), 5e-324);
        assert_eq!(end(&report), Some(first));
        // Unconstrained, and a smallest slack 1 s or more from zero: every
        // row is folded.
        for (a, b) in [(f64::INFINITY, f64::INFINITY), (-1.0, 0.0), (1.0, 2.0)] {
            let (_, full) =
                assert_summaries_match(&sta, &states, two((a, 1e-12), (b, 2e-12)), &none, vec![]);
            assert!(full, "slacks {a}, {b}");
        }
        // No point at all.
        let (report, full) =
            assert_summaries_match(&sta, &states, rows_with(&sta, |_, _| None), &none, vec![]);
        assert!(full && report.critical_path().is_empty());
    }
}
