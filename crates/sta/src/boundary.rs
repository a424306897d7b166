//! Per-pin boundary conditions of a timing run.
//!
//! The original [`Constraints`] struct applies one
//! arrival, one slew and one required time to *every* port — adequate for
//! method comparisons, but real constraint sets (SDC) give each port its
//! own values: an input can arrive anywhere inside a `[min, max]` window,
//! an output owes its data some margin before the clock edge, and declared
//! false paths must not count against the worst slack.
//!
//! [`BoundaryConditions`] is the engine's internal currency for all of
//! that:
//!
//! * per-input [`InputBoundary`] — `{min_arrival, max_arrival, slew}`,
//!   seeding the earliest (min) and latest (max) sweeps separately so
//!   switching windows reflect genuine per-pin arrival ranges;
//! * per-output [`OutputBoundary`] — `{required, load}`, with
//!   `required = +inf` meaning *unconstrained* (no slack contribution);
//! * a list of [`FalsePath`]s — `(from, to)` port pairs excluded from
//!   required-time propagation and hence from the worst slack;
//! * an optional clock period, recorded so reports can relate slack to the
//!   constraint set that produced it.
//!
//! Every public analysis entry point accepts `impl Into<BoundaryConditions>`
//! and a [`From<&Constraints>`] shim maps the legacy uniform struct onto
//! this type (min = max = `input_arrival`), so existing callers keep
//! compiling and produce bit-identical results.

use crate::engine::Constraints;
use crate::netlist::NetId;
use std::collections::HashMap;

/// Arrival-time boundary of one primary input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InputBoundary {
    /// Earliest possible arrival at the port (s). Seeds the min sweep.
    pub min_arrival: f64,
    /// Latest possible arrival at the port (s). Seeds the max sweep.
    pub max_arrival: f64,
    /// Transition time at the port (s).
    pub slew: f64,
}

impl InputBoundary {
    /// A degenerate (point) window: min = max = `arrival`.
    pub fn point(arrival: f64, slew: f64) -> Self {
        InputBoundary {
            min_arrival: arrival,
            max_arrival: arrival,
            slew,
        }
    }

    /// Arrival for the requested sweep direction.
    pub(crate) fn arrival(&self, minimize: bool) -> f64 {
        if minimize {
            self.min_arrival
        } else {
            self.max_arrival
        }
    }
}

/// Requirement boundary of one primary output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutputBoundary {
    /// Required time (s); `+inf` means the output is unconstrained.
    pub required: f64,
    /// Extra capacitive load on the output net (F).
    pub load: f64,
}

impl OutputBoundary {
    /// An unconstrained output carrying only a capacitive load.
    pub fn unconstrained(load: f64) -> Self {
        OutputBoundary {
            required: f64::INFINITY,
            load,
        }
    }
}

/// One declared false path: `(from, to)` with `None` acting as a wildcard
/// on that side. Input/output pairs covered by a false path are exempt
/// from timing: required times do not propagate along edges that lie
/// exclusively on false pairs, and endpoints all of whose startpoints are
/// falsified stay unconstrained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FalsePath {
    /// Startpoint (a primary input net), or `None` for "any input".
    pub from: Option<NetId>,
    /// Endpoint (a primary output net), or `None` for "any output".
    pub to: Option<NetId>,
}

impl FalsePath {
    /// Whether this declaration covers the `(input, output)` pair.
    pub fn covers(&self, input: NetId, output: NetId) -> bool {
        self.from.is_none_or(|f| f == input) && self.to.is_none_or(|t| t == output)
    }
}

/// Per-pin boundary conditions: the resolved form every analysis consumes.
///
/// Ports without an explicit override use the defaults (one
/// [`InputBoundary`] / [`OutputBoundary`] pair), which is exactly how the
/// uniform [`Constraints`] shim is expressed.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundaryConditions {
    default_input: InputBoundary,
    default_output: OutputBoundary,
    inputs: HashMap<NetId, InputBoundary>,
    outputs: HashMap<NetId, OutputBoundary>,
    false_paths: Vec<FalsePath>,
    clock_period: Option<f64>,
}

impl BoundaryConditions {
    /// Boundary conditions where every port uses the given defaults.
    pub fn new(default_input: InputBoundary, default_output: OutputBoundary) -> Self {
        BoundaryConditions {
            default_input,
            default_output,
            inputs: HashMap::new(),
            outputs: HashMap::new(),
            false_paths: Vec::new(),
            clock_period: None,
        }
    }

    /// The uniform translation of a legacy [`Constraints`] value.
    pub fn uniform(c: &Constraints) -> Self {
        BoundaryConditions::new(
            InputBoundary::point(c.input_arrival, c.input_slew),
            OutputBoundary {
                required: c.required_at_outputs,
                load: c.output_load,
            },
        )
    }

    /// Overrides the boundary of one input port.
    pub fn set_input(&mut self, net: NetId, boundary: InputBoundary) {
        self.inputs.insert(net, boundary);
    }

    /// Overrides the boundary of one output port.
    pub fn set_output(&mut self, net: NetId, boundary: OutputBoundary) {
        self.outputs.insert(net, boundary);
    }

    /// Declares a false path.
    pub fn add_false_path(&mut self, path: FalsePath) {
        self.false_paths.push(path);
    }

    /// Records the clock period slacks are computed against (s).
    pub fn set_clock_period(&mut self, period: f64) {
        self.clock_period = Some(period);
    }

    /// The clock period, when one was declared.
    pub fn clock_period(&self) -> Option<f64> {
        self.clock_period
    }

    /// Boundary of an input port (the default when never overridden).
    pub fn input(&self, net: NetId) -> InputBoundary {
        self.inputs.get(&net).copied().unwrap_or(self.default_input)
    }

    /// Boundary of an output port (the default when never overridden).
    pub fn output(&self, net: NetId) -> OutputBoundary {
        self.outputs
            .get(&net)
            .copied()
            .unwrap_or(self.default_output)
    }

    /// The default input boundary (ports without an override).
    pub fn default_input(&self) -> InputBoundary {
        self.default_input
    }

    /// The default output boundary (ports without an override).
    pub fn default_output(&self) -> OutputBoundary {
        self.default_output
    }

    /// All declared false paths.
    pub fn false_paths(&self) -> &[FalsePath] {
        &self.false_paths
    }

    /// Number of input ports with explicit overrides.
    pub fn input_override_count(&self) -> usize {
        self.inputs.len()
    }

    /// Number of output ports with explicit overrides.
    pub fn output_override_count(&self) -> usize {
        self.outputs.len()
    }
}

impl Default for BoundaryConditions {
    fn default() -> Self {
        BoundaryConditions::uniform(&Constraints::default())
    }
}

impl From<Constraints> for BoundaryConditions {
    fn from(c: Constraints) -> Self {
        BoundaryConditions::uniform(&c)
    }
}

impl From<&Constraints> for BoundaryConditions {
    fn from(c: &Constraints) -> Self {
        BoundaryConditions::uniform(c)
    }
}

impl From<&BoundaryConditions> for BoundaryConditions {
    fn from(bc: &BoundaryConditions) -> Self {
        bc.clone()
    }
}

/// Precomputed false-path exemptions over one timing graph: which edges
/// lie exclusively on falsified input/output pairs, and which outputs have
/// every startpoint falsified. Built by the engine (it needs reachability)
/// and consumed by the required-time sweep.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FalsePathMask {
    /// `true` for edges whose every `(input, output)` pair is covered by a
    /// declared false path: required times do not propagate through them.
    pub edges: Vec<bool>,
    /// Per net: `true` when the net is an output and every input reaching
    /// it is falsified against it — the endpoint stays unconstrained.
    pub output_false: Vec<bool>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_shim_maps_every_field() {
        let c = Constraints {
            input_arrival: 1e-10,
            input_slew: 2e-10,
            required_at_outputs: 3e-9,
            output_load: 4e-15,
        };
        let bc: BoundaryConditions = (&c).into();
        let i = bc.input(NetId(7));
        assert_eq!(i.min_arrival, 1e-10);
        assert_eq!(i.max_arrival, 1e-10);
        assert_eq!(i.slew, 2e-10);
        let o = bc.output(NetId(9));
        assert_eq!(o.required, 3e-9);
        assert_eq!(o.load, 4e-15);
        assert!(bc.false_paths().is_empty());
        assert_eq!(bc.clock_period(), None);
    }

    #[test]
    fn overrides_shadow_defaults() {
        let mut bc = BoundaryConditions::default();
        bc.set_input(
            NetId(0),
            InputBoundary {
                min_arrival: 1e-10,
                max_arrival: 5e-10,
                slew: 8e-11,
            },
        );
        bc.set_output(NetId(1), OutputBoundary::unconstrained(2e-15));
        assert_eq!(bc.input(NetId(0)).max_arrival, 5e-10);
        assert_eq!(bc.input(NetId(2)), bc.default_input());
        assert!(bc.output(NetId(1)).required.is_infinite());
        assert_eq!(bc.output(NetId(3)), bc.default_output());
        assert_eq!(bc.input_override_count(), 1);
        assert_eq!(bc.output_override_count(), 1);
    }

    #[test]
    fn false_path_wildcards_cover() {
        let fp = FalsePath {
            from: Some(NetId(1)),
            to: None,
        };
        assert!(fp.covers(NetId(1), NetId(9)));
        assert!(!fp.covers(NetId(2), NetId(9)));
        let any = FalsePath {
            from: None,
            to: None,
        };
        assert!(any.covers(NetId(0), NetId(0)));
    }
}
