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
//!    keeps its final propagation states and nominal windows cone by
//!    cone; the merge moves the patch's states, rows, windows and victim
//!    records into it, cone by cone in place (patch for the swept cones,
//!    retained for all others) and re-derives the worst point and
//!    critical path from the spliced states. Required times and slacks never cross a cone
//!    boundary, so every row is exact, and the worst point tie-break and
//!    the critical-path predecessor walk come from one consistent state
//!    vector — the merged report is bit-identical to a full batch
//!    re-analysis, not merely close to it.
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

use crate::engine::{NetState, PerCone, Sta};
use crate::graph::find_root;
use crate::netlist::NetId;
use crate::report::NetTiming;
use crate::si::{
    ArrivalWindow, CouplingSpec, PrunedAggressor, SiAdjustment, SiAnalysis, SiDiagnostics,
};

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
    /// the patch swept takes the patch's states, rows, nominal windows and
    /// victim records (adjustments and pruned aggressors), all others keep
    /// their own, and the report's worst point and critical path are
    /// re-derived from the spliced states — bit-identical to a batch run
    /// over the edited design (module docs). `epoch` stamps the merged
    /// diagnostics. States, rows and windows are moved, not copied, so the
    /// cost scales with the swept cones' nets plus one scan of the report
    /// for its worst point.
    pub fn session_merge(&self, retained: &mut RetainedAnalysis, patch: ConePatch, epoch: u64) {
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
        let mut report_rows = analysis.report.take_rows();
        for cone in graph.scoped_cones(Some(&cones)) {
            let nets = &graph.components()[cone];
            for (&net, row) in nets.iter().zip(std::mem::take(&mut rows[cone])) {
                report_rows[net.0] = row;
            }
            retained.states[cone] = std::mem::take(&mut states[cone]);
            retained.windows[cone] = std::mem::take(&mut windows[cone]);
        }
        self.splice_adjustments(&mut analysis.adjustments, adjustments, &cones);
        analysis.report = self.report_from_rows(report_rows, &retained.states);

        let dirty = |net: NetId| graph.in_cones(&cones, net);
        let retained_pruned = &mut analysis.pruned;
        retained_pruned.retain(|p| !dirty(p.victim));
        retained_pruned.extend(pruned.into_iter().filter(|p| dirty(p.victim)));
        retained_pruned.sort_by_key(|p| (p.victim.0, p.aggressor.0));

        diagnostics.epoch = epoch;
        analysis.diagnostics = diagnostics;
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
        sta.session_merge(&mut merged, patch, 3);
        assert_eq!(merged.analysis.diagnostics.epoch, 3);
        let batch = sta.session_analyze(bc.clone(), specs, &opts).unwrap();
        assert_eq!(merged.analysis.report, batch.analysis.report);
        assert_eq!(merged.analysis.adjustments, batch.analysis.adjustments);
        assert_eq!(merged.analysis.pruned, batch.analysis.pruned);
        assert_eq!(merged.windows, batch.windows);
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
}
