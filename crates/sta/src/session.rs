//! Engine support for long-lived incremental timing sessions.
//!
//! A session (the `nsta-session` crate) retains a converged crosstalk
//! analysis and, on each netlist/parasitics edit, re-solves only the part
//! of the design the edit can reach. This module supplies the three
//! engine-side primitives that make the incremental answer *provably*
//! equal to the batch one:
//!
//! 1. **Coupling clusters** ([`ConeClusters`]): the timing graph's weakly
//!    connected components ([`crate::TimingGraph::components`], "cones")
//!    are the propagation granule — no timing arc crosses a cone. Coupling
//!    specs add cross-cone dependencies (a victim's noisy arrival depends
//!    on its aggressors' nominal arrivals and windows), so the transitive
//!    invalidation granule is the union of cones linked by any spec: a
//!    *cluster*. Clusters are independent by construction — re-analyzing
//!    one cluster's specs cannot change any net outside it.
//! 2. **Scoped re-solve** ([`Sta::session_analyze`]): the dirty
//!    clusters' specs are re-analyzed with the nominal and min sweeps
//!    restricted to their cones. Like any analysis call, each re-solve
//!    shares factorizations only within itself, so an edit leaves nothing
//!    behind to invalidate.
//! 3. **State-level merge** ([`Sta::session_merge`]): the retained and the
//!    patch analyses both carry their final per-net propagation states;
//!    the merge splices them, and their report rows, per net in place
//!    (patch inside dirty clusters, retained outside) and re-derives the
//!    worst point and critical path from the spliced states. Required
//!    times and slacks never cross a cone boundary, so every row is
//!    exact, and the worst point tie-break and the critical-path
//!    predecessor walk come from one consistent state vector — the merged
//!    report is bit-identical to a full batch re-analysis, not merely
//!    close to it.
//!
//! Why the splice is exact: aggressor ramps are taken from the
//! iteration-invariant nominal sweep, a net's windows depend only on its
//! own cone's states, and the window filter consults only the victim's
//! and its aggressors' windows — all inside one cluster. Running the
//! fixed point with only the dirty clusters' specs therefore reproduces,
//! for dirty-cluster nets, exactly the states the full-spec run would
//! compute, while untouched clusters keep their retained states verbatim.
//! One caveat: the convergence *governor* observes global stagnation, so
//! a pathologically oscillating design could in principle widen windows
//! differently under a subset run — the session's shadow audit exists to
//! catch exactly such divergence.

use crate::boundary::BoundaryConditions;
use crate::engine::{NetState, Sta};
use crate::error::StaError;
use crate::netlist::NetId;
use crate::report::NetTiming;
use crate::si::{CouplingSpec, SiAdjustment, SiAnalysis, SiOptions};

/// Invalidation granules of an incremental session: the design's cones
/// (weakly connected components of the timing graph) merged across every
/// coupling spec that links them. See the module docs.
#[derive(Debug, Clone)]
pub struct ConeClusters {
    /// Cone index per net (position in `TimingGraph::components()`).
    cone_of_net: Vec<usize>,
    /// Cluster id per cone, renumbered densely in first-appearance order.
    cluster_of_cone: Vec<usize>,
    /// Number of distinct clusters.
    clusters: usize,
}

impl ConeClusters {
    /// Number of independent clusters (≤ number of cones).
    pub fn clusters(&self) -> usize {
        self.clusters
    }

    /// Cluster id of `net`, or `None` for an out-of-range id.
    pub fn cluster_of_net(&self, net: NetId) -> Option<usize> {
        self.cone_of_net
            .get(net.0)
            .map(|&cone| self.cluster_of_cone[cone])
    }

    /// Per-cluster dirty mask: a cluster is dirty iff it contains one of
    /// the `seeds` (edited nets plus victims whose spec changed).
    pub fn dirty_clusters(&self, seeds: &[NetId]) -> Vec<bool> {
        let mut dirty = vec![false; self.clusters];
        for &net in seeds {
            if let Some(cluster) = self.cluster_of_net(net) {
                dirty[cluster] = true;
            }
        }
        dirty
    }

    /// Expands a per-cluster dirty mask to a per-net mask.
    pub fn net_mask(&self, dirty_clusters: &[bool]) -> Vec<bool> {
        self.cone_of_net
            .iter()
            .map(|&cone| dirty_clusters[self.cluster_of_cone[cone]])
            .collect()
    }

    /// Number of cones belonging to dirty clusters.
    pub fn dirty_cone_count(&self, dirty_clusters: &[bool]) -> usize {
        self.cluster_of_cone
            .iter()
            .filter(|&&cluster| dirty_clusters[cluster])
            .count()
    }

    /// Expands a per-cluster dirty mask to a per-cone mask (indexed like
    /// [`crate::TimingGraph::components`]) — the granule a session bumps
    /// its cone epoch counters at.
    pub fn cone_mask(&self, dirty_clusters: &[bool]) -> Vec<bool> {
        self.cluster_of_cone
            .iter()
            .map(|&cluster| dirty_clusters[cluster])
            .collect()
    }

    /// Cone index of `net` (position in
    /// [`crate::TimingGraph::components`]), or `None` out of range.
    pub fn cone_of_net(&self, net: NetId) -> Option<usize> {
        self.cone_of_net.get(net.0).copied()
    }
}

/// A converged analysis plus the final per-net propagation states it was
/// reported from — the retained value of one session epoch. The states
/// are engine-internal; they exist so [`Sta::session_merge`] can splice
/// results at the state level (see the module docs).
#[derive(Debug, Clone)]
pub struct RetainedAnalysis {
    /// The analysis result (report, adjustments, pruned, diagnostics).
    pub analysis: SiAnalysis,
    pub(crate) states: Vec<NetState>,
}

impl Sta {
    /// Builds the coupling-cluster partition for `couplings`: union-find
    /// over cone indices, merging each victim's cone with each of its
    /// aggressors' cones. Unknown nets in a spec are ignored here — the
    /// analysis itself reports them as errors.
    pub fn cone_clusters(&self, couplings: &[CouplingSpec]) -> ConeClusters {
        let graph = self.graph();
        let components = graph.components();
        let cone_of_net: Vec<usize> = (0..self.design().net_count())
            .map(|i| graph.cone_of(NetId(i)))
            .collect();
        // Union-find with path halving; union by arbitrary root order is
        // fine at cone counts (thousands at most).
        let mut parent: Vec<usize> = (0..components.len()).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for spec in couplings {
            let Some(&victim_cone) = cone_of_net.get(spec.victim.0) else {
                continue;
            };
            for agg in &spec.aggressors {
                let Some(&agg_cone) = cone_of_net.get(agg.0) else {
                    continue;
                };
                let a = find(&mut parent, victim_cone);
                let b = find(&mut parent, agg_cone);
                if a != b {
                    parent[b] = a;
                }
            }
        }
        // Renumber roots densely in cone order so cluster ids are stable
        // across runs (roots themselves depend on union order).
        let mut cluster_of_root = std::collections::HashMap::new();
        let mut cluster_of_cone = Vec::with_capacity(components.len());
        for cone in 0..components.len() {
            let root = find(&mut parent, cone);
            let next = cluster_of_root.len();
            let id = *cluster_of_root.entry(root).or_insert(next);
            cluster_of_cone.push(id);
        }
        ConeClusters {
            cone_of_net,
            cluster_of_cone,
            clusters: cluster_of_root.len(),
        }
    }

    /// [`Sta::analyze_with_crosstalk_windows`], retaining the final
    /// propagation states for later merging. The session layer's workhorse: the first call analyzes
    /// the full spec set; each edit re-analyzes only the dirty clusters'
    /// specs and splices the result in with [`Sta::session_merge`].
    ///
    /// `scope` optionally restricts the hoisted nominal/min sweeps to a
    /// per-cone mask ([`ConeClusters::cone_mask`] of the dirty clusters):
    /// states of unscoped cones stay at their seed and MUST NOT be merged
    /// — [`Sta::session_merge`]'s dirty-net mask guarantees that when the
    /// mask covers exactly the scoped clusters' nets. `None` sweeps every
    /// cone (required for the initial full analysis).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Sta::analyze_with_crosstalk_windows`].
    pub fn session_analyze(
        &self,
        constraints: impl Into<BoundaryConditions>,
        couplings: &[CouplingSpec],
        options: &SiOptions,
        scope: Option<&[bool]>,
    ) -> Result<RetainedAnalysis, StaError> {
        let (analysis, states) =
            self.analyze_windows_scoped(constraints, couplings, options, scope)?;
        Ok(RetainedAnalysis { analysis, states })
    }

    /// Splices a dirty-cluster `patch` analysis into `retained`, in
    /// place: nets with `dirty_nets[net]` take the patch states and rows,
    /// all others keep their own, and the report's worst point and
    /// critical path are re-derived from the spliced state vector —
    /// bit-identical to a batch run over the edited design (module docs).
    /// Adjustments and pruned records are swapped per dirty victim;
    /// `epoch` stamps the merged diagnostics. The retained rows are moved,
    /// not copied, so the cost scales with the dirty nets plus one scan.
    pub fn session_merge(
        &self,
        retained: &mut RetainedAnalysis,
        patch: RetainedAnalysis,
        dirty_nets: &[bool],
        epoch: u64,
    ) {
        let RetainedAnalysis {
            analysis: mut patch,
            states: patch_states,
        } = patch;
        let analysis = &mut retained.analysis;
        let mut rows = analysis.report.take_rows();
        splice_nets(
            (&mut retained.states, &mut rows, &mut analysis.adjustments),
            (patch_states, patch.report.take_rows(), patch.adjustments),
            Some(dirty_nets),
        );
        analysis.report = self.report_from_rows(rows, &retained.states);

        let dirty = |net: NetId| dirty_nets.get(net.0).copied().unwrap_or(false);
        let pruned = &mut analysis.pruned;
        pruned.retain(|p| !dirty(p.victim));
        pruned.extend(patch.pruned.into_iter().filter(|p| dirty(p.victim)));
        pruned.sort_by_key(|p| (p.victim.0, p.aggressor.0));

        analysis.diagnostics = patch.diagnostics;
        analysis.diagnostics.epoch = epoch;
    }
}

/// Splices a re-solve's per-net `(states, report rows, adjustments)` into
/// an earlier result's, in place: every net `dirty` marks (`None`: every
/// net) takes the patch's state and row, all others keep their own, and
/// the adjustments of the marked victims are swapped for the patch's.
/// Returns the worst arrival movement of a spliced row (s).
///
/// Required times never cross a cone boundary, so when `dirty` covers
/// whole cones every spliced row is already exact: the caller re-derives
/// only the report summary ([`Sta::report_from_rows`]). Both the session
/// merge and every pass of the crosstalk fixed point splice this way.
pub(crate) fn splice_nets(
    (states, rows, adjustments): (&mut [NetState], &mut [NetTiming], &mut Vec<SiAdjustment>),
    (patch_states, patch_rows, patch_adjustments): (
        Vec<NetState>,
        Vec<NetTiming>,
        Vec<SiAdjustment>,
    ),
    dirty: Option<&[bool]>,
) -> f64 {
    let dirty = |net: NetId| dirty.is_none_or(|d| d.get(net.0).copied().unwrap_or(false));
    let mut moved = 0.0f64;
    let patch = patch_states.into_iter().zip(patch_rows);
    for (i, ((state, row), (patch_state, patch_row))) in states
        .iter_mut()
        .zip(rows.iter_mut())
        .zip(patch)
        .enumerate()
    {
        if !dirty(NetId(i)) {
            continue;
        }
        for (old, new) in [(&row.rise, &patch_row.rise), (&row.fall, &patch_row.fall)] {
            if let (Some(old), Some(new)) = (old, new) {
                moved = moved.max((old.arrival - new.arrival).abs());
            }
        }
        *state = patch_state;
        *row = patch_row;
    }
    adjustments.retain(|a| !dirty(a.net));
    adjustments.extend(patch_adjustments.into_iter().filter(|a| dirty(a.net)));
    adjustments.sort_by_key(|a| (a.net.0, !a.polarity.is_rise()));
    moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verilog::parse_design;
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
        // No specs: every cone is its own cluster.
        let free = sta.cone_clusters(&[]);
        assert_eq!(free.clusters(), sta.graph().components().len());
        assert_ne!(free.cluster_of_net(v), free.cluster_of_net(g));
        // A spec coupling v's cone to g's merges exactly those two.
        let clusters = sta.cone_clusters(&[spec(v, vec![g])]);
        assert_eq!(clusters.clusters(), free.clusters() - 1);
        assert_eq!(clusters.cluster_of_net(v), clusters.cluster_of_net(g));
        assert_ne!(clusters.cluster_of_net(v), clusters.cluster_of_net(h));
        // Dirty closure: editing g dirties the merged cluster, not h's.
        let dirty = clusters.dirty_clusters(&[g]);
        assert_eq!(dirty.iter().filter(|&&d| d).count(), 1);
        let mask = clusters.net_mask(&dirty);
        assert!(mask[v.0] && mask[g.0] && !mask[h.0]);
        assert!(clusters.dirty_cone_count(&dirty) >= 2);
        // Out-of-range seeds are ignored.
        let none = clusters.dirty_clusters(&[NetId(usize::MAX)]);
        assert!(none.iter().all(|&d| !d));
    }

    #[test]
    fn session_merge_splices_dirty_nets_and_refinishes() {
        let sta = three_cones();
        let d = sta.design();
        let (v, g) = (d.find_net("v").unwrap(), d.find_net("g").unwrap());
        let c = crate::Constraints::default();
        let bc = BoundaryConditions::uniform(&c);
        let opts = SiOptions::default();
        let specs = [spec(v, vec![g])];
        let full = sta
            .session_analyze(bc.clone(), &specs, &opts, None)
            .unwrap();
        // Merge the full analysis into itself with every net dirty / no
        // net dirty: both must reproduce the batch report bit-identically.
        let all = vec![true; d.net_count()];
        let nothing = vec![false; d.net_count()];
        for mask in [&all, &nothing] {
            let mut merged = full.clone();
            sta.session_merge(&mut merged, full.clone(), mask, 7);
            assert_eq!(merged.analysis.report, full.analysis.report);
            assert_eq!(merged.analysis.adjustments, full.analysis.adjustments);
            assert_eq!(merged.analysis.pruned, full.analysis.pruned);
            assert_eq!(merged.analysis.diagnostics.epoch, 7);
        }
    }

    #[test]
    fn scoped_resolve_merges_bit_identically() {
        let sta = three_cones();
        let d = sta.design();
        let (v, g) = (d.find_net("v").unwrap(), d.find_net("g").unwrap());
        let c = crate::Constraints::default();
        let bc = BoundaryConditions::uniform(&c);
        let opts = SiOptions::default();
        let specs = [spec(v, vec![g])];
        let full = sta
            .session_analyze(bc.clone(), &specs, &opts, None)
            .unwrap();
        // Re-solve only v's cluster with the sweeps scoped to its cones:
        // splicing the patch back over the cluster's nets must reproduce
        // the batch report bit-for-bit, even though the patch never swept
        // h's cone.
        let clusters = sta.cone_clusters(&specs);
        let dirty = clusters.dirty_clusters(&[v]);
        let scope = clusters.cone_mask(&dirty);
        assert!(scope.iter().any(|&s| !s), "h's cone must be out of scope");
        let patch = sta
            .session_analyze(bc.clone(), &specs, &opts, Some(&scope))
            .unwrap();
        let mask = clusters.net_mask(&dirty);
        let mut merged = full.clone();
        sta.session_merge(&mut merged, patch, &mask, 3);
        assert_eq!(merged.analysis.report, full.analysis.report);
        assert_eq!(merged.analysis.adjustments, full.analysis.adjustments);
        assert_eq!(merged.analysis.pruned, full.analysis.pruned);
    }
}
