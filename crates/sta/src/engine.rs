//! Arrival / required / slack propagation.

use crate::boundary::{BoundaryConditions, FalsePathMask};
use crate::graph::TimingGraph;
use crate::netlist::{Design, NetId};
use crate::report::{NetTiming, PathPoint, PointTiming, TimingReport};
use crate::StaError;
use nsta_liberty::{Library, NldmTable, TimingSense};
use nsta_waveform::Polarity;

/// Uniform analysis constraints: one arrival/slew/required/load applied to
/// every port.
///
/// This is the legacy boundary description; the engine's internal currency
/// is [`BoundaryConditions`], which carries per-pin min/max arrivals,
/// per-output requirements and false paths. Every analysis entry point
/// accepts either (`impl Into<BoundaryConditions>`), and the uniform
/// translation (min = max = `input_arrival`) reproduces the historical
/// behavior bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constraints {
    /// Arrival time at every primary input (s).
    pub input_arrival: f64,
    /// Transition time at every primary input (s).
    pub input_slew: f64,
    /// Required time at every primary output (s) — a single-cycle "clock
    /// period" view adequate for combinational blocks.
    pub required_at_outputs: f64,
    /// Extra capacitive load on primary output nets (farads).
    pub output_load: f64,
}

impl Default for Constraints {
    fn default() -> Self {
        Constraints {
            input_arrival: 0.0,
            input_slew: 100e-12,
            required_at_outputs: 2e-9,
            output_load: 5e-15,
        }
    }
}

/// Where an edge's timing arc sits in the library: cell, output pin and
/// arc indices. Edges of one cell type share its tables instead of each
/// holding a copy.
#[derive(Debug, Clone, Copy)]
struct EdgeArc {
    cell: usize,
    pin: usize,
    arc: usize,
}

/// One computed timing point (arrival + slew) during the sweep.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Point {
    pub arrival: f64,
    pub slew: f64,
    pub valid: bool,
    /// `(edge index, source transition)` that set this arrival.
    pub pred: Option<(usize, Polarity)>,
}

/// Rise/fall state of a net during the sweep.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NetState {
    pub rise: Point,
    pub fall: Point,
}

/// Per-net values stored cone by cone: `values[c][j]` belongs to net
/// `components()[c][j]` ([`crate::TimingGraph::components`]; look a net up
/// with [`crate::TimingGraph::at`]). A cone an analysis does not cover
/// holds no values, so scoped work allocates and scans only its own cones.
pub(crate) type PerCone<T> = Vec<Vec<T>>;

impl NetState {
    pub(crate) fn get(&self, pol: Polarity) -> &Point {
        match pol {
            Polarity::Rise => &self.rise,
            Polarity::Fall => &self.fall,
        }
    }

    pub(crate) fn get_mut(&mut self, pol: Polarity) -> &mut Point {
        match pol {
            Polarity::Rise => &mut self.rise,
            Polarity::Fall => &mut self.fall,
        }
    }
}

/// The static timing analyzer: a design bound to a library.
#[derive(Debug, Clone)]
pub struct Sta {
    design: Design,
    library: Library,
    graph: TimingGraph,
    arcs: Vec<EdgeArc>,
}

impl Sta {
    /// Binds a design to a library, building and validating the timing
    /// graph.
    ///
    /// # Errors
    ///
    /// Propagates graph-construction failures (unknown cells, multiple
    /// drivers, combinational cycles).
    pub fn new(design: Design, library: Library) -> Result<Self, StaError> {
        let graph = TimingGraph::build(&design, &library)?;
        let mut arcs = Vec::with_capacity(graph.edges().len());
        for e in graph.edges() {
            let inst = &design.instances()[e.instance];
            let cell = library
                .cells()
                .iter()
                .position(|c| c.name == inst.cell)
                .ok_or_else(|| StaError::Unresolved(format!("cell {}", inst.cell)))?;
            let pins = &library.cells()[cell].pins;
            let pin = pins
                .iter()
                .position(|p| p.name == e.output_pin)
                .ok_or_else(|| StaError::Unresolved(format!("pin {}", e.output_pin)))?;
            let arc = pins[pin]
                .timing
                .iter()
                .position(|a| a.related_pin == e.input_pin)
                .ok_or_else(|| {
                    StaError::Library(format!(
                        "no arc {} -> {} on cell {}",
                        e.input_pin, e.output_pin, inst.cell
                    ))
                })?;
            arcs.push(EdgeArc { cell, pin, arc });
        }
        Ok(Sta {
            design,
            library,
            graph,
            arcs,
        })
    }

    /// The bound design.
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// The bound library.
    pub fn library(&self) -> &Library {
        &self.library
    }

    /// The validated timing graph.
    pub fn graph(&self) -> &TimingGraph {
        &self.graph
    }

    /// Effective load on a net: fanout pin caps plus the boundary load on
    /// primary outputs.
    pub(crate) fn net_load(&self, net: NetId, bc: &BoundaryConditions) -> f64 {
        let mut load = self.graph.load(net);
        if self.design.is_output(net) {
            load += bc.output(net).load;
        }
        load
    }

    /// The output polarity of edge `k` for a source transition of
    /// `from_pol`, with the arc's `(delay, out_slew)` tables for it.
    fn edge_tables(&self, k: usize, from_pol: Polarity) -> (Polarity, &NldmTable, &NldmTable) {
        let EdgeArc { cell, pin, arc } = self.arcs[k];
        let arc = &self.library.cells()[cell].pins[pin].timing[arc];
        let out_pol = match arc.sense {
            TimingSense::NegativeUnate => from_pol.inverted(),
            TimingSense::PositiveUnate => from_pol,
        };
        match out_pol {
            Polarity::Rise => (out_pol, &arc.cell_rise, &arc.rise_transition),
            Polarity::Fall => (out_pol, &arc.cell_fall, &arc.fall_transition),
        }
    }

    /// `(out_pol, delay, out_slew)` of edge `k` for the given source
    /// transition.
    pub(crate) fn edge_timing(
        &self,
        k: usize,
        from_pol: Polarity,
        from_slew: f64,
        load: f64,
    ) -> (Polarity, f64, f64) {
        let (out_pol, delay_t, slew_t) = self.edge_tables(k, from_pol);
        let delay = delay_t.lookup(from_slew, load);
        let slew = slew_t.lookup(from_slew, load).max(1e-13);
        (out_pol, delay, slew)
    }

    /// The initial sweep states of cone `cone`, in cone order: its primary
    /// inputs seeded from their per-pin boundaries (`min_arrival` for the
    /// min sweep, `max_arrival` otherwise), everything else invalid.
    pub(crate) fn seed_cone(
        &self,
        bc: &BoundaryConditions,
        minimize: bool,
        cone: usize,
    ) -> Vec<NetState> {
        let mut states = vec![NetState::default(); self.graph.components()[cone].len()];
        for &input in self.graph.cone_inputs(cone) {
            let boundary = bc.input(input);
            for pol in [Polarity::Rise, Polarity::Fall] {
                let p = states[self.graph.cone_slot(input)].get_mut(pol);
                p.arrival = boundary.arrival(minimize);
                p.slew = boundary.slew;
                p.valid = true;
            }
        }
        states
    }

    /// One net's fanin update: folds every incoming arc into the net's
    /// state in `cone` (the states of its cone, in cone order) and returns
    /// the result. Reads only predecessor states, all inside the net's own
    /// cone, so distinct cones can be swept concurrently; the arithmetic is
    /// a fixed per-net operation sequence, making the outcome independent
    /// of which thread runs it.
    pub(crate) fn propagate_net(
        &self,
        net: NetId,
        cone: &[NetState],
        bc: &BoundaryConditions,
        minimize: bool,
    ) -> NetState {
        let at = |net: NetId| cone[self.graph.cone_slot(net)];
        let mut state = at(net);
        let load = self.net_load(net, bc);
        for &k in self.graph.fanin_edges(net) {
            let edge = &self.graph.edges()[k];
            for from_pol in [Polarity::Rise, Polarity::Fall] {
                let from = *at(edge.from).get(from_pol);
                if !from.valid {
                    continue;
                }
                let (out_pol, delay, slew) = self.edge_timing(k, from_pol, from.slew, load);
                let candidate = from.arrival + delay;
                let p = state.get_mut(out_pol);
                let better = if minimize {
                    candidate < p.arrival
                } else {
                    candidate > p.arrival
                };
                if !p.valid || better {
                    p.arrival = candidate;
                    p.slew = slew;
                    p.valid = true;
                    p.pred = Some((k, from_pol));
                }
            }
        }
        state
    }

    /// The nominal (latest-arrival, single-thread) forward sweep.
    pub(crate) fn forward_sweep(&self, bc: &BoundaryConditions) -> PerCone<NetState> {
        self.forward_sweep_scoped(bc, false, 1, None)
    }

    /// The forward sweep, partitioned by fanout cone: each weakly-connected
    /// component of the graph is one task on a scoped worker pool (at most
    /// one worker per cone), swept sequentially in topological order from
    /// its [`Sta::seed_cone`] states. This is the only sweep loop — the
    /// nominal, min, threaded and session sweeps all go through it — and
    /// each net's fanin fold is a fixed operation sequence, so the result
    /// is bit-identical for every `threads` value (including 1).
    ///
    /// `scope` is an optional per-cone mask indexed like
    /// [`crate::TimingGraph::components`]; `None` means every cone. The
    /// states come back per cone ([`PerCone`]): every scoped cone's nets
    /// get exactly the full sweep's states, and an unscoped cone holds
    /// none, so a scoped sweep allocates and visits only its own cones.
    pub(crate) fn forward_sweep_scoped(
        &self,
        bc: &BoundaryConditions,
        minimize: bool,
        threads: usize,
        scope: Option<&[bool]>,
    ) -> PerCone<NetState> {
        let mut sweep_span = nsta_obs::span!("sta.forward_sweep");
        sweep_span.set_arg("minimize", minimize as u8 as f64);
        sweep_span.set_arg("threads", threads.max(1) as f64);
        let active = self.graph.scoped_cones(scope);
        sweep_span.set_arg("cones", active.len() as f64);
        let outcomes = crate::par::par_map(threads, &active, |&cone| {
            let nets = &self.graph.components()[cone];
            let mut cone_span = nsta_obs::span!("sta.sweep_cone");
            cone_span.set_arg("nets", nets.len() as f64);
            let mut local = self.seed_cone(bc, minimize, cone);
            for (j, &net) in nets.iter().enumerate() {
                local[j] = self.propagate_net(net, &local, bc, minimize);
            }
            local
        });
        let mut states = vec![Vec::new(); self.graph.components().len()];
        for (&cone, outcome) in active.iter().zip(outcomes) {
            states[cone] = outcome;
        }
        states
    }

    /// Runs the nominal (crosstalk-free, latest-arrival) analysis.
    ///
    /// Accepts either the legacy uniform [`Constraints`] or a resolved
    /// per-pin [`BoundaryConditions`] (e.g. bound from an SDC file).
    ///
    /// # Errors
    ///
    /// None: [`Sta::new`] already caught every construction error, and a
    /// table lookup cannot fail. The `Result` is kept so callers need not
    /// change.
    pub fn analyze(
        &self,
        constraints: impl Into<BoundaryConditions>,
    ) -> Result<TimingReport, StaError> {
        let bc = constraints.into();
        let states = self.forward_sweep(&bc);
        let mask = self.false_edge_mask(&bc);
        Ok(self.finish_report(&bc, states, mask.as_ref()))
    }

    /// Runs the earliest-arrival analysis: the forward sweep minimizes
    /// arrivals, seeding each input from its `min_arrival`.
    ///
    /// The report's arrival column then holds *earliest* arrivals — the
    /// lower edges of the switching windows the crosstalk filter prunes
    /// against. Required times and slacks are still computed against the
    /// (setup-style) output requirements, so treat them as informational
    /// here rather than as a hold check.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Sta::analyze`].
    pub fn analyze_earliest(
        &self,
        constraints: impl Into<BoundaryConditions>,
    ) -> Result<TimingReport, StaError> {
        let bc = constraints.into();
        let states = self.forward_sweep_scoped(&bc, true, 1, None);
        let mask = self.false_edge_mask(&bc);
        Ok(self.finish_report(&bc, states, mask.as_ref()))
    }

    /// Builds the false-path exemption mask for this graph, or `None` when
    /// no false paths are declared.
    ///
    /// An edge is masked when **every** `(input, output)` pair routed
    /// through it is covered by a declared false path; an output endpoint
    /// is masked when every input reaching it is falsified against it.
    /// Pairs only *partially* falsified (an edge shared by true and false
    /// paths) are conservatively kept — exact per-path exemption would
    /// need tag-based propagation.
    pub(crate) fn false_edge_mask(&self, bc: &BoundaryConditions) -> Option<FalsePathMask> {
        if bc.false_paths().is_empty() {
            return None;
        }
        let n = self.design.net_count();
        let inputs = self.design.inputs();
        let outputs = self.design.outputs();
        // reach_in[net][i] — input `inputs[i]` reaches `net`.
        let mut reach_in = vec![vec![false; inputs.len()]; n];
        for (i, &inp) in inputs.iter().enumerate() {
            reach_in[inp.0][i] = true;
        }
        for &net in self.graph.topological_order() {
            for &k in self.graph.fanin_edges(net) {
                let from = self.graph.edges()[k].from;
                for i in 0..inputs.len() {
                    if reach_in[from.0][i] {
                        reach_in[net.0][i] = true;
                    }
                }
            }
        }
        // reach_out[net][o] — `net` reaches output `outputs[o]`.
        let mut reach_out = vec![vec![false; outputs.len()]; n];
        for (o, &out) in outputs.iter().enumerate() {
            reach_out[out.0][o] = true;
        }
        for &net in self.graph.topological_order().iter().rev() {
            for &k in self.graph.fanout_edges(net) {
                let to = self.graph.edges()[k].to;
                for o in 0..outputs.len() {
                    if reach_out[to.0][o] {
                        reach_out[net.0][o] = true;
                    }
                }
            }
        }
        // Covered-pair matrix, computed once so the per-edge scan below
        // costs O(I·O) probes instead of re-walking the false-path list
        // per pair. Dense Vec<bool> rows are adequate at this workspace's
        // design sizes; bitset rows would shrink them 8× if needed.
        let covered: Vec<Vec<bool>> = inputs
            .iter()
            .map(|&i| {
                outputs
                    .iter()
                    .map(|&o| bc.false_paths().iter().any(|fp| fp.covers(i, o)))
                    .collect()
            })
            .collect();
        let all_pairs_false = |in_flags: &[bool], out_flags: &[bool]| {
            let mut any = false;
            for (i, &has_in) in in_flags.iter().enumerate() {
                if !has_in {
                    continue;
                }
                for (o, &has_out) in out_flags.iter().enumerate() {
                    if !has_out {
                        continue;
                    }
                    any = true;
                    if !covered[i][o] {
                        return false;
                    }
                }
            }
            any
        };
        let edges = self
            .graph
            .edges()
            .iter()
            .map(|e| all_pairs_false(&reach_in[e.from.0], &reach_out[e.to.0]))
            .collect();
        let output_false = (0..n)
            .map(|i| {
                self.design.is_output(NetId(i)) && all_pairs_false(&reach_in[i], &reach_out[i])
            })
            .collect();
        Some(FalsePathMask {
            edges,
            output_false,
        })
    }

    /// Builds required times, slacks and the critical path from a completed
    /// forward sweep.
    ///
    /// Required times seed from each output's own [`OutputBoundary`](crate::OutputBoundary)
    /// (`+inf` keeps the endpoint unconstrained) and do not propagate
    /// through false-path-masked edges, so declared false paths never
    /// contribute to the worst slack.
    /// `mask` is the false-path exemption mask of `bc` over this graph
    /// (compute it once per analysis with [`Sta::false_edge_mask`] — it is
    /// iteration-invariant, so fixed-point callers must not rebuild it per
    /// iteration).
    pub(crate) fn finish_report(
        &self,
        bc: &BoundaryConditions,
        states: PerCone<NetState>,
        mask: Option<&FalsePathMask>,
    ) -> TimingReport {
        let rows = self.report_rows(bc, &states, mask, None);
        self.report_from_rows(self.net_rows(rows), &states)
    }

    /// The per-cone rows of [`Sta::finish_report`] for the cones a
    /// per-cone `scope` mask marks (`None`: every cone); an unscoped cone
    /// gets no rows. Each cone seeds its outputs' required times and
    /// propagates them back through its own nets only — sound because
    /// cones are weakly-connected components (no edge crosses the scope
    /// boundary), so every scoped row equals the unscoped one, and the
    /// fixed point and a session edit pay only for the cones they
    /// re-solved.
    pub(crate) fn report_rows(
        &self,
        bc: &BoundaryConditions,
        states: &[Vec<NetState>],
        mask: Option<&FalsePathMask>,
        scope: Option<&[bool]>,
    ) -> PerCone<NetTiming> {
        let mut rows = vec![Vec::new(); self.graph.components().len()];
        for cone in self.graph.scoped_cones(scope) {
            rows[cone] = self.cone_rows(bc, cone, &states[cone], mask);
        }
        rows
    }

    /// The report rows of cone `cone` from its sweep `states` (in cone
    /// order): required times seeded at its outputs and swept back in
    /// reverse cone order, which visits every net after all of its fanout.
    fn cone_rows(
        &self,
        bc: &BoundaryConditions,
        cone: usize,
        states: &[NetState],
        mask: Option<&FalsePathMask>,
    ) -> Vec<NetTiming> {
        let nets = &self.graph.components()[cone];
        let slot = |net: NetId| self.graph.cone_slot(net);
        let mut required = vec![[f64::INFINITY; 2]; nets.len()];
        let idx = |p: Polarity| match p {
            Polarity::Rise => 0usize,
            Polarity::Fall => 1usize,
        };
        for &out in self.graph.cone_outputs(cone) {
            if mask.is_some_and(|m| m.output_false[out.0]) {
                continue; // every startpoint falsified: no requirement
            }
            required[slot(out)] = [bc.output(out).required; 2];
        }
        for &net in nets.iter().rev() {
            for &k in self.graph.fanin_edges(net) {
                if mask.is_some_and(|m| m.edges[k]) {
                    continue; // edge lies exclusively on false paths
                }
                let edge = &self.graph.edges()[k];
                let load = self.net_load(net, bc);
                for from_pol in [Polarity::Rise, Polarity::Fall] {
                    let from = *states[slot(edge.from)].get(from_pol);
                    if !from.valid {
                        continue;
                    }
                    // Required times need the delay only, not the slew.
                    let (out_pol, delay_t, _) = self.edge_tables(k, from_pol);
                    let delay = delay_t.lookup(from.slew, load);
                    let req = required[slot(net)][idx(out_pol)] - delay;
                    let entry = &mut required[slot(edge.from)][idx(from_pol)];
                    if req < *entry {
                        *entry = req;
                    }
                }
            }
        }

        let mut rows = Vec::with_capacity(nets.len());
        for ((&net, state), required) in nets.iter().zip(states).zip(&required) {
            let mut timing = NetTiming {
                net,
                name: self.design.net_name(net).to_string(),
                rise: None,
                fall: None,
            };
            for pol in [Polarity::Rise, Polarity::Fall] {
                let p = state.get(pol);
                if !p.valid {
                    continue;
                }
                let req = required[idx(pol)];
                let slack = if req.is_finite() {
                    req - p.arrival
                } else {
                    f64::INFINITY
                };
                let pt = PointTiming {
                    arrival: p.arrival,
                    slew: p.slew,
                    required: req,
                    slack,
                };
                match pol {
                    Polarity::Rise => timing.rise = Some(pt),
                    Polarity::Fall => timing.fall = Some(pt),
                }
            }
            rows.push(timing);
        }
        rows
    }

    /// Per-cone rows covering every cone, rearranged into net-id order —
    /// the order [`TimingReport`] keeps its rows in. The cones partition
    /// the nets, so every net id gets exactly one row.
    pub(crate) fn net_rows(&self, rows: PerCone<NetTiming>) -> Vec<NetTiming> {
        let mut nets: Vec<Option<NetTiming>> = vec![None; self.design.net_count()];
        for (cone, cone_rows) in self.graph.components().iter().zip(rows) {
            for (&net, row) in cone.iter().zip(cone_rows) {
                nets[net.0] = Some(row);
            }
        }
        nets.into_iter().flatten().collect()
    }

    /// Builds a [`TimingReport`] from finished per-net rows and their
    /// propagation states: the worst arrival, the worst point and its
    /// slack ([`WorstPoint`], folded over every point) and the critical
    /// path. Rows spliced from two analyses (a fixed-point pass over the
    /// cones that changed) need nothing more: required times never cross
    /// cone boundaries (cones are weakly-connected components), so a
    /// re-solved cone's rows and an untouched cone's rows are each
    /// bit-identical to a full run's. A session merge derives the same
    /// summary from per-cone extremes instead ([`Sta::session_merge`]).
    pub(crate) fn report_from_rows(
        &self,
        nets: Vec<NetTiming>,
        states: &[Vec<NetState>],
    ) -> TimingReport {
        let worst_arrival = nets
            .iter()
            .flat_map(NetTiming::points)
            .fold(f64::NEG_INFINITY, |latest, (_, p)| later(latest, p.arrival));
        let worst = WorstPoint::of_rows(&nets);
        let critical = self.critical_path(worst.point(), states);
        TimingReport::new(nets, critical, worst.slack, worst_arrival)
    }

    /// The critical path ending at `worst`, startpoint first: the
    /// predecessor walk through `states`, which never leaves the worst
    /// point's cone. Empty when there is no worst point.
    pub(crate) fn critical_path(
        &self,
        worst: Option<(NetId, Polarity)>,
        states: &[Vec<NetState>],
    ) -> Vec<PathPoint> {
        let mut critical = Vec::new();
        let Some((mut net, mut pol)) = worst else {
            return critical;
        };
        while let Some(state) = self.graph.at(states, net) {
            let p = *state.get(pol);
            critical.push(PathPoint {
                net,
                name: self.design.net_name(net).to_string(),
                polarity: pol,
                arrival: p.arrival,
                slew: p.slew,
            });
            match p.pred {
                Some((k, from_pol)) => {
                    net = self.graph.edges()[k].from;
                    pol = from_pol;
                }
                None => break,
            }
        }
        critical.reverse();
        critical
    }
}

/// Tie tolerance of the worst-point fold (s): slacks this close count as
/// equal, and the later arrival wins ([`TimingReport::worst_slack`]).
pub(crate) const SLACK_TIE: f64 = 1e-15;

/// The worst-point fold of a report, whose contract
/// [`TimingReport::worst_slack`] states: fed every point in net-id order,
/// rise first, it settles the worst slack and the worst point. The
/// tie-break is not associative, so a fold over part of the points
/// matches it only where a proof says so (a session merge's restricted
/// fold, [`Sta::session_merge`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct WorstPoint {
    /// The smallest slack among the points that became the worst point;
    /// `+inf` before any did.
    pub slack: f64,
    /// The worst point so far, with its arrival.
    point: Option<(NetId, Polarity, f64)>,
}

impl Default for WorstPoint {
    fn default() -> Self {
        WorstPoint {
            slack: f64::INFINITY,
            point: None,
        }
    }
}

impl WorstPoint {
    /// The fold over every point of `rows`, in order.
    pub(crate) fn of_rows(rows: &[NetTiming]) -> Self {
        let mut worst = WorstPoint::default();
        for row in rows {
            for (pol, p) in row.points() {
                worst.push(row.net, pol, p);
            }
        }
        worst
    }

    /// Folds in point `p`, transition `polarity` of `net`. It becomes the
    /// worst point when its slack lies more than [`SLACK_TIE`] below the
    /// running slack, or within it and it arrives later than the worst
    /// point (so the critical path is reported from its endpoint, not
    /// from an intermediate net sharing the same slack). A NaN slack never
    /// does.
    pub(crate) fn push(&mut self, net: NetId, polarity: Polarity, p: &PointTiming) {
        let better = p.slack < self.slack - SLACK_TIE
            || (p.slack <= self.slack + SLACK_TIE
                && self.point.is_none_or(|(_, _, arrival)| p.arrival > arrival));
        if better {
            // Keep the running slack on a tie, ±0.0 included, where
            // `f64::min` may return either operand.
            if p.slack < self.slack {
                self.slack = p.slack;
            }
            self.point = Some((net, polarity, p.arrival));
        }
    }

    /// The worst point's net and transition.
    pub(crate) fn point(&self) -> Option<(NetId, Polarity)> {
        self.point.map(|(net, pol, _)| (net, pol))
    }
}

/// The later of two arrivals: NaN never wins, and +0.0 is later than
/// −0.0. That is a total order, so the latest arrival of a set does not
/// depend on the order it is folded in (`f64::max` may return either
/// zero), and a maximum of per-cone maxima equals the maximum over every
/// point, bit for bit.
pub(crate) fn later(a: f64, b: f64) -> f64 {
    if b > a || (b == a && b.is_sign_positive()) {
        b
    } else {
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verilog::parse_design;
    use nsta_liberty::characterize::{inverter_family, Options};
    use nsta_spice::Process;
    use std::sync::OnceLock;

    fn lib() -> &'static Library {
        static LIB: OnceLock<Library> = OnceLock::new();
        LIB.get_or_init(|| {
            inverter_family(
                &Process::c013(),
                &[("INVX1", 1.0), ("INVX2", 2.0), ("INVX4", 4.0)],
                &Options::fast_test(),
            )
            .unwrap()
        })
    }

    fn chain(n: usize) -> Design {
        let mut src = String::from("module m (a, y); input a; output y;\n");
        for i in 1..n {
            src.push_str(&format!("wire w{i};\n"));
        }
        for i in 0..n {
            let from = if i == 0 {
                "a".to_string()
            } else {
                format!("w{i}")
            };
            let to = if i == n - 1 {
                "y".to_string()
            } else {
                format!("w{}", i + 1)
            };
            src.push_str(&format!("INVX2 u{i} (.A({from}), .Y({to}));\n"));
        }
        src.push_str("endmodule");
        parse_design(&src).unwrap()
    }

    #[test]
    fn chain_delay_is_sum_of_stage_delays() {
        let _guard = crate::obs_test_guard();
        let sta = Sta::new(chain(4), lib().clone()).unwrap();
        let c = Constraints::default();
        let report = sta.analyze(c).unwrap();
        let y = sta.design().find_net("y").unwrap();
        let yt = report.net(y).unwrap();
        // Both transitions analyzed; arrivals positive and distinct.
        let rise = yt.rise.as_ref().unwrap();
        let fall = yt.fall.as_ref().unwrap();
        assert!(rise.arrival > 0.0 && fall.arrival > 0.0);
        // A 4-stage chain of ~tens of ps per stage lands well under 1 ns.
        assert!(rise.arrival < 1e-9);
        // Hand-accumulate the expected worst arrival along the chain and
        // compare (validates the sweep's bookkeeping end to end).
        let bc = BoundaryConditions::from(&c);
        let mut arr = [c.input_arrival; 2]; // [rise, fall]
        let mut slew = [c.input_slew; 2];
        let order = ["w1", "w2", "w3", "y"];
        for (stage, name) in order.iter().enumerate() {
            let net = sta.design().find_net(name).unwrap();
            let load = sta.net_load(net, &bc);
            let edge = sta.graph().fanin_edges(net)[0];
            // Negative unate inverter: out rise from in fall and vice versa.
            let (_, d_r, s_r) = sta.edge_timing(edge, Polarity::Fall, slew[1], load);
            let (_, d_f, s_f) = sta.edge_timing(edge, Polarity::Rise, slew[0], load);
            let next_rise = arr[1] + d_r;
            let next_fall = arr[0] + d_f;
            arr = [next_rise, next_fall];
            slew = [s_r, s_f];
            let _ = stage;
        }
        assert!((rise.arrival - arr[0]).abs() < 1e-15);
        assert!((fall.arrival - arr[1]).abs() < 1e-15);
    }

    #[test]
    fn longer_chains_are_slower() {
        let _guard = crate::obs_test_guard();
        let c = Constraints::default();
        let t3 = Sta::new(chain(3), lib().clone())
            .unwrap()
            .analyze(c)
            .unwrap()
            .worst_arrival();
        let t6 = Sta::new(chain(6), lib().clone())
            .unwrap()
            .analyze(c)
            .unwrap()
            .worst_arrival();
        assert!(t6 > t3 * 1.5);
    }

    #[test]
    fn slack_and_critical_path() {
        let _guard = crate::obs_test_guard();
        let sta = Sta::new(chain(3), lib().clone()).unwrap();
        let mut c = Constraints {
            required_at_outputs: 1e-9,
            ..Constraints::default()
        };
        let report = sta.analyze(c).unwrap();
        // Slack = required − arrival at the endpoint.
        assert!(report.worst_slack() < 1e-9);
        assert!(
            report.worst_slack() > 0.0,
            "a 3-stage chain meets 1 ns easily"
        );
        // Critical path runs input → output through every stage.
        let path = report.critical_path();
        assert_eq!(path.len(), 4); // a, w1, w2, y
        assert_eq!(path.first().unwrap().name, "a");
        assert_eq!(path.last().unwrap().name, "y");
        // Arrivals increase along the path.
        assert!(path.windows(2).all(|w| w[1].arrival >= w[0].arrival));
        // Negative required time budget produces negative slack.
        c.required_at_outputs = 0.0;
        let tight = sta.analyze(c).unwrap();
        assert!(tight.worst_slack() < 0.0);
    }

    #[test]
    fn report_rows_are_one_per_net_in_id_order() {
        let _guard = crate::obs_test_guard();
        let sta = Sta::new(chain(4), lib().clone()).unwrap();
        let report = sta.analyze(Constraints::default()).unwrap();
        assert_eq!(report.nets().len(), sta.design().net_count());
        for (i, row) in report.nets().iter().enumerate() {
            assert_eq!(row.net, NetId(i));
            assert!(std::ptr::eq(report.net(row.net).unwrap(), row));
        }
        assert!(report.net(NetId(sta.design().net_count())).is_none());
    }

    #[test]
    fn worst_slack_settles_within_the_tie_tolerance() {
        let _guard = crate::obs_test_guard();
        // Row A (slack 0, arrival 5 ps) then row B (slack −0.5 fs, arrival
        // 1 ps): B is within the tolerance of A and arrives earlier, so A
        // stays the worst point and the worst slack reads 0.0, not B's.
        let sta = Sta::new(chain(1), lib().clone()).unwrap();
        let states = sta.forward_sweep(&BoundaryConditions::from(&Constraints::default()));
        let row = |net: usize, slack: f64, arrival: f64| NetTiming {
            net: NetId(net),
            name: sta.design().net_name(NetId(net)).to_string(),
            rise: Some(PointTiming {
                arrival,
                slew: 50e-12,
                required: slack + arrival,
                slack,
            }),
            fall: None,
        };
        let a_then_b = vec![row(0, 0.0, 5e-12), row(1, -0.5e-15, 1e-12)];
        let report = sta.report_from_rows(a_then_b, &states);
        assert_eq!(report.worst_slack().to_bits(), 0.0f64.to_bits());
        assert_eq!(report.critical_path().last().unwrap().net, NetId(0));
        assert_eq!(report.worst_arrival(), 5e-12);
        // B before A: the running slack keeps B's −0.5 fs, while the later
        // A still becomes the worst point.
        let b_then_a = vec![row(0, -0.5e-15, 1e-12), row(1, 0.0, 5e-12)];
        let report = sta.report_from_rows(b_then_a, &states);
        assert_eq!(report.worst_slack(), -0.5e-15);
        assert_eq!(report.critical_path().last().unwrap().net, NetId(1));
    }

    #[test]
    fn per_pin_boundaries_shift_arrivals() {
        let _guard = crate::obs_test_guard();
        // Two independent paths a→y, b→z; delaying only b's arrival must
        // move z and leave y untouched.
        let design = parse_design(
            "module m (a, b, y, z); input a, b; output y, z;\
             INVX1 u1 (.A(a), .Y(y)); INVX1 u2 (.A(b), .Y(z)); endmodule",
        )
        .unwrap();
        let sta = Sta::new(design, lib().clone()).unwrap();
        let c = Constraints::default();
        let uniform = sta.analyze(c).unwrap();
        let mut bc = BoundaryConditions::from(&c);
        let b = sta.design().find_net("b").unwrap();
        bc.set_input(
            b,
            crate::boundary::InputBoundary {
                min_arrival: 100e-12,
                max_arrival: 400e-12,
                slew: c.input_slew,
            },
        );
        let shifted = sta.analyze(&bc).unwrap();
        let arr = |r: &TimingReport, n: &str| {
            let net = sta.design().find_net(n).unwrap();
            r.net(net).unwrap().rise.as_ref().unwrap().arrival
        };
        assert_eq!(arr(&uniform, "y"), arr(&shifted, "y"));
        assert!(
            (arr(&shifted, "z") - (arr(&uniform, "z") + 400e-12)).abs() < 1e-15,
            "z must shift by b's max arrival"
        );
        // The earliest sweep seeds from min_arrival instead.
        let earliest = sta.analyze_earliest(&bc).unwrap();
        assert!(
            (arr(&earliest, "z") - (arr(&uniform, "z") + 100e-12)).abs() < 1e-15,
            "earliest z must shift by b's min arrival"
        );
        assert!(arr(&earliest, "z") < arr(&shifted, "z"));
    }

    #[test]
    fn false_path_relieves_only_its_pair() {
        let _guard = crate::obs_test_guard();
        // a → w → {y, z}: falsifying (a, y) must unconstrain y while z
        // keeps a finite requirement, and the shared edge a→w (which also
        // serves the true pair (a, z)) must keep propagating required time.
        let design = parse_design(
            "module m (a, y, z); input a; output y, z; wire w;\
             INVX1 u1 (.A(a), .Y(w)); INVX2 u2 (.A(w), .Y(y));\
             INVX2 u3 (.A(w), .Y(z)); endmodule",
        )
        .unwrap();
        let sta = Sta::new(design, lib().clone()).unwrap();
        let c = Constraints {
            required_at_outputs: 1e-9,
            ..Constraints::default()
        };
        let mut bc = BoundaryConditions::from(&c);
        let a = sta.design().find_net("a").unwrap();
        let y = sta.design().find_net("y").unwrap();
        let z = sta.design().find_net("z").unwrap();
        bc.add_false_path(crate::boundary::FalsePath {
            from: Some(a),
            to: Some(y),
        });
        let report = sta.analyze(&bc).unwrap();
        let yt = report.net(y).unwrap().rise.as_ref().unwrap();
        assert!(
            yt.required.is_infinite() && yt.slack.is_infinite(),
            "falsified endpoint must be unconstrained, got {yt:?}"
        );
        let zt = report.net(z).unwrap().rise.as_ref().unwrap();
        assert!(zt.required.is_finite() && zt.slack.is_finite());
        // The worst slack comes from the surviving true path.
        assert!(report.worst_slack().is_finite());
        let baseline = sta.analyze(c).unwrap();
        assert_eq!(report.worst_slack(), baseline.worst_slack());
    }

    #[test]
    fn false_path_everything_reports_unconstrained() {
        let _guard = crate::obs_test_guard();
        let sta = Sta::new(chain(3), lib().clone()).unwrap();
        let mut bc = BoundaryConditions::from(&Constraints::default());
        bc.add_false_path(crate::boundary::FalsePath {
            from: None,
            to: None,
        });
        let report = sta.analyze(&bc).unwrap();
        assert!(report.worst_slack().is_infinite());
        assert!(report.to_string().contains("worst slack unconstrained"));
    }

    #[test]
    fn fanout_increases_delay() {
        let _guard = crate::obs_test_guard();
        // One driver, two receivers: the driver's stage delay must exceed
        // the single-receiver case because its load doubles.
        let single = parse_design(
            "module m (a, y); input a; output y; wire w;\
             INVX1 u1 (.A(a), .Y(w)); INVX4 u2 (.A(w), .Y(y)); endmodule",
        )
        .unwrap();
        let double = parse_design(
            "module m (a, y, z); input a; output y, z; wire w;\
             INVX1 u1 (.A(a), .Y(w)); INVX4 u2 (.A(w), .Y(y));\
             INVX4 u3 (.A(w), .Y(z)); endmodule",
        )
        .unwrap();
        let c = Constraints::default();
        let w1 = {
            let sta = Sta::new(single, lib().clone()).unwrap();
            let r = sta.analyze(c).unwrap();
            let w = sta.design().find_net("w").unwrap();
            r.net(w).unwrap().rise.as_ref().unwrap().arrival
        };
        let w2 = {
            let sta = Sta::new(double, lib().clone()).unwrap();
            let r = sta.analyze(c).unwrap();
            let w = sta.design().find_net("w").unwrap();
            r.net(w).unwrap().rise.as_ref().unwrap().arrival
        };
        assert!(w2 > w1, "double fanout {w2:e} vs single {w1:e}");
    }
}
