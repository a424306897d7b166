//! Gate response models.
//!
//! Equivalent-waveform techniques need two things from the driven gate: the
//! *noiseless output waveform* (for the sensitivity `ρ`), and — when a
//! technique's ramp is evaluated against the golden reference — the output
//! produced by an arbitrary input. [`GateModel`] abstracts both; three
//! fidelity levels are provided across the workspace:
//!
//! * [`SpiceReceiverGate`] — transistor-level simulation of the paper's
//!   receiver stage (golden),
//! * `TableGate` (in this crate, once a characterized library is loaded) —
//!   NLDM delay/slew lookup, the "current level of gate characterization",
//! * [`AnalyticInverterGate`] — a closed-form inverter response used by
//!   unit tests and examples where simulation cost is unwarranted.

use crate::SgdpError;
use nsta_spice::fig1::{self, Fig1Config};
use nsta_waveform::{SaturatedRamp, Thresholds, Waveform};

/// A model that maps an input waveform to the gate's output waveform.
pub trait GateModel {
    /// Computes the gate output for `input`.
    ///
    /// # Errors
    ///
    /// Implementations report their own failure modes (simulation
    /// divergence, table extrapolation, degenerate inputs).
    fn response(&self, input: &Waveform) -> Result<Waveform, SgdpError>;

    /// Supply voltage of the gate (V).
    fn vdd(&self) -> f64;
}

/// Golden gate model: the paper's receiver stage (4× inverter plus its full
/// downstream load network) simulated at transistor level.
#[derive(Debug, Clone)]
pub struct SpiceReceiverGate {
    cfg: Fig1Config,
}

impl SpiceReceiverGate {
    /// Wraps the receiver of the given testbench configuration.
    pub fn new(cfg: Fig1Config) -> Self {
        SpiceReceiverGate { cfg }
    }

    /// The underlying testbench configuration.
    pub fn config(&self) -> &Fig1Config {
        &self.cfg
    }
}

impl GateModel for SpiceReceiverGate {
    fn response(&self, input: &Waveform) -> Result<Waveform, SgdpError> {
        Ok(fig1::run_receiver(&self.cfg, input)?)
    }

    fn vdd(&self) -> f64 {
        self.cfg.proc.vdd
    }
}

/// Closed-form inverting gate for tests and lightweight examples.
///
/// The response is a saturated ramp whose mid-crossing trails the input's
/// *last* mid-crossing by `delay0 + delay_slew_factor · slew_in`, with output
/// slew `slew0 + slew_slew_factor · slew_in` — the shape of a first-order
/// NLDM model. Deliberately simple: it gives techniques a smooth,
/// deterministic gate with tunable intrinsic delay (including large delays
/// that produce non-overlapping transitions).
#[derive(Debug, Clone, Copy)]
pub struct AnalyticInverterGate {
    /// Measurement thresholds (also fixes Vdd).
    pub thresholds: Thresholds,
    /// Intrinsic delay at zero input slew (s).
    pub delay0: f64,
    /// Delay added per second of input slew (dimensionless).
    pub delay_slew_factor: f64,
    /// Output slew at zero input slew (s).
    pub slew0: f64,
    /// Output slew added per second of input slew (dimensionless).
    pub slew_slew_factor: f64,
}

impl AnalyticInverterGate {
    /// A fast inverter whose output overlaps a typical input transition.
    pub fn fast(thresholds: Thresholds) -> Self {
        AnalyticInverterGate {
            thresholds,
            delay0: 30e-12,
            delay_slew_factor: 0.25,
            slew0: 60e-12,
            slew_slew_factor: 0.5,
        }
    }

    /// A slow multi-stage-like gate whose output does *not* overlap the
    /// input transition — the WLS5 failure case.
    pub fn slow(thresholds: Thresholds) -> Self {
        AnalyticInverterGate {
            thresholds,
            delay0: 800e-12,
            delay_slew_factor: 0.25,
            slew0: 80e-12,
            slew_slew_factor: 0.3,
        }
    }
}

impl GateModel for AnalyticInverterGate {
    fn response(&self, input: &Waveform) -> Result<Waveform, SgdpError> {
        let th = self.thresholds;
        let in_pol = input.polarity(th)?;
        let slew_in = input.slew_first_to_last(th, in_pol)?;
        let t50_in = input.last_crossing_or_err(th.mid())?;
        let t50_out = t50_in + self.delay0 + self.delay_slew_factor * slew_in;
        let slew_out = self.slew0 + self.slew_slew_factor * slew_in;
        let out = SaturatedRamp::with_slew(t50_out, slew_out, th, !in_pol.is_rise())?;
        let t_end = input.t_end().max(t50_out + 2.0 * slew_out);
        let dt = (slew_out / 40.0).max(1e-13);
        Ok(out.to_waveform(input.t_start(), t_end, dt)?)
    }

    fn vdd(&self) -> f64 {
        self.thresholds.vdd()
    }
}

/// NLDM table-driven gate model — "the current level of gate
/// characterization in conventional ASIC cell libraries" the paper targets.
///
/// The response is a saturated ramp placed by the cell's delay table and
/// shaped by its transition table, looked up at the input's measured slew
/// and the configured output load. Only single-arc (inverter-like) cells
/// are supported; the arc's unateness decides the output polarity.
///
/// The gate borrows its cell from the library: building one per victim
/// transition copies no table.
#[derive(Debug, Clone)]
pub struct TableGate<'a> {
    cell: &'a nsta_liberty::Cell,
    load: f64,
    thresholds: Thresholds,
}

impl<'a> TableGate<'a> {
    /// Wraps a characterized cell driving `load` farads.
    ///
    /// # Errors
    ///
    /// [`SgdpError::InvalidParameter`] if the cell has no output arc or the
    /// load is not positive and finite.
    pub fn new(
        cell: &'a nsta_liberty::Cell,
        load: f64,
        thresholds: Thresholds,
    ) -> Result<Self, SgdpError> {
        if !(load.is_finite() && load > 0.0) {
            return Err(SgdpError::InvalidParameter(
                "load must be positive and finite",
            ));
        }
        let has_arc = cell.output().is_some_and(|p| !p.timing.is_empty());
        if !has_arc {
            return Err(SgdpError::InvalidParameter(
                "cell has no characterized output arc",
            ));
        }
        Ok(TableGate {
            cell,
            load,
            thresholds,
        })
    }

    /// The configured output load (farads).
    pub fn load(&self) -> f64 {
        self.load
    }
}

impl GateModel for TableGate<'_> {
    fn response(&self, input: &Waveform) -> Result<Waveform, SgdpError> {
        let th = self.thresholds;
        let in_pol = input.polarity(th)?;
        let slew_in = input.slew_first_to_last(th, in_pol)?;
        let t50_in = input.last_crossing_or_err(th.mid())?;
        let arc = &self
            .cell
            .output()
            .ok_or(SgdpError::InvalidParameter("cell has no output pin"))?
            .timing[0];
        let out_rises = match arc.sense {
            nsta_liberty::TimingSense::NegativeUnate => !in_pol.is_rise(),
            nsta_liberty::TimingSense::PositiveUnate => in_pol.is_rise(),
        };
        let (delay_table, slew_table) = if out_rises {
            (&arc.cell_rise, &arc.rise_transition)
        } else {
            (&arc.cell_fall, &arc.fall_transition)
        };
        let delay = delay_table.lookup(slew_in, self.load);
        let slew_out = slew_table.lookup(slew_in, self.load).max(1e-12);
        let out = SaturatedRamp::with_slew(t50_in + delay, slew_out, th, out_rises)?;
        let t_end = input.t_end().max(t50_in + delay + 2.0 * slew_out);
        let dt = (slew_out / 40.0).max(1e-13);
        Ok(out.to_waveform(
            input.t_start().min(t50_in + delay - 2.0 * slew_out),
            t_end,
            dt,
        )?)
    }

    fn vdd(&self) -> f64 {
        self.thresholds.vdd()
    }
}

/// Checks whether input and output transitions overlap: the output must
/// start moving (leave its start level) before the input finishes its
/// critical region. Returns the mid-crossing gap `δ = t50(out) − t50(in)`.
pub(crate) fn transition_gap(
    input: &Waveform,
    output: &Waveform,
    th: Thresholds,
) -> Result<f64, SgdpError> {
    let t50_in = input.last_crossing_or_err(th.mid())?;
    let t50_out = output.last_crossing_or_err(th.mid())?;
    Ok(t50_out - t50_in)
}

/// `true` when the output's critical region overlaps the input's,
/// `(in_a, in_b)` ([`Waveform::critical_region`], which a
/// [`PropagationContext`](crate::PropagationContext) measures once).
pub(crate) fn transitions_overlap(
    (in_a, in_b): (f64, f64),
    output: &Waveform,
    th: Thresholds,
) -> Result<bool, SgdpError> {
    let out_pol = output.polarity(th)?;
    let (out_a, out_b) = output.critical_region(th, out_pol)?;
    Ok(out_a < in_b && in_a < out_b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsta_waveform::Polarity;

    fn ramp_in(th: Thresholds) -> Waveform {
        SaturatedRamp::with_slew(1.0e-9, 150e-12, th, true)
            .unwrap()
            .to_waveform(0.0, 3e-9, 1e-12)
            .unwrap()
    }

    #[test]
    fn analytic_gate_inverts_and_delays() {
        let th = Thresholds::cmos(1.2);
        let gate = AnalyticInverterGate::fast(th);
        let inp = ramp_in(th);
        let out = gate.response(&inp).unwrap();
        assert_eq!(out.polarity(th).unwrap(), Polarity::Fall);
        let gap = transition_gap(&inp, &out, th).unwrap();
        assert!(gap > 0.0, "output must trail input");
        let region = inp.critical_region(th, Polarity::Rise).unwrap();
        assert!(transitions_overlap(region, &out, th).unwrap());
        assert_eq!(gate.vdd(), 1.2);
    }

    #[test]
    fn slow_gate_does_not_overlap() {
        let th = Thresholds::cmos(1.2);
        let gate = AnalyticInverterGate::slow(th);
        let inp = ramp_in(th);
        let out = gate.response(&inp).unwrap();
        let region = inp.critical_region(th, Polarity::Rise).unwrap();
        assert!(!transitions_overlap(region, &out, th).unwrap());
        assert!(transition_gap(&inp, &out, th).unwrap() > 500e-12);
    }

    #[test]
    fn table_gate_places_output_by_lookup() {
        use nsta_liberty::{Cell, Direction, NldmTable, Pin, TimingArc, TimingSense};
        let th = Thresholds::cmos(1.2);
        let table = |scale: f64| {
            NldmTable::new(
                vec![50e-12, 400e-12],
                vec![1e-15, 50e-15],
                vec![scale, 2.0 * scale, 1.5 * scale, 3.0 * scale],
            )
            .unwrap()
        };
        let cell = Cell {
            name: "INVX1".into(),
            area: 1.0,
            pins: vec![Pin {
                name: "Y".into(),
                direction: Direction::Output,
                capacitance: 0.0,
                function: Some("!A".into()),
                timing: vec![TimingArc {
                    related_pin: "A".into(),
                    sense: TimingSense::NegativeUnate,
                    cell_rise: table(40e-12),
                    rise_transition: table(60e-12),
                    cell_fall: table(35e-12),
                    fall_transition: table(55e-12),
                }],
            }],
        };
        let gate = TableGate::new(&cell, 1e-15, th).unwrap();
        let inp = ramp_in(th); // rising, slew 150 ps, t50 = 1 ns
        let out = gate.response(&inp).unwrap();
        assert_eq!(out.polarity(th).unwrap(), Polarity::Fall);
        // Expected delay: cell_fall at (150 ps, 1 fF) interpolates the slew
        // axis between 35 ps (at 50 ps) and 52.5 ps (at 400 ps).
        let expect = 35e-12 + (150.0 - 50.0) / 350.0 * 17.5e-12;
        let got = out.last_crossing(th.mid()).unwrap() - 1.0e-9;
        assert!((got - expect).abs() < 2e-12, "delay {got:e} vs {expect:e}");
        // Invalid configurations rejected.
        assert!(TableGate::new(&cell, -1.0, th).is_err());
        let mut no_arc = cell.clone();
        no_arc.pins[0].timing.clear();
        assert!(TableGate::new(&no_arc, 1e-15, th).is_err());
    }

    #[test]
    fn analytic_gate_delay_scales_with_slew() {
        let th = Thresholds::cmos(1.2);
        let gate = AnalyticInverterGate::fast(th);
        let fast_in = SaturatedRamp::with_slew(1.0e-9, 80e-12, th, true)
            .unwrap()
            .to_waveform(0.0, 3e-9, 1e-12)
            .unwrap();
        let slow_in = SaturatedRamp::with_slew(1.0e-9, 400e-12, th, true)
            .unwrap()
            .to_waveform(0.0, 3e-9, 1e-12)
            .unwrap();
        let g_fast = transition_gap(&fast_in, &gate.response(&fast_in).unwrap(), th).unwrap();
        let g_slow = transition_gap(&slow_in, &gate.response(&slow_in).unwrap(), th).unwrap();
        assert!(g_slow > g_fast);
    }
}
