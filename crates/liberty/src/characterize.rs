//! Cell characterization: filling NLDM tables from transistor-level
//! simulation, the way production libraries are built.
//!
//! For every (input slew × output load) grid point the cell is simulated
//! with a saturated-ramp input; the propagation delay (mid-rail to
//! mid-rail) and output transition time (10–90%) populate the four NLDM
//! tables of each arc.

use crate::library::{Cell, Direction, Library, NldmTable, Pin, TimingArc, TimingSense};
use crate::LibertyError;
use nsta_spice::{cells, Netlist, Process, SimOptions};
use nsta_waveform::{Polarity, Thresholds, Waveform};

/// Characterization grid and simulation settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// Input slew axis (seconds, 10–90%).
    pub slews: Vec<f64>,
    /// Output load axis (farads).
    pub loads: Vec<f64>,
    /// Transient step (seconds).
    pub dt: f64,
}

impl Options {
    /// Production-style 5 × 5 grid.
    pub fn standard() -> Self {
        Options {
            slews: vec![30e-12, 60e-12, 120e-12, 240e-12, 480e-12],
            loads: vec![2e-15, 5e-15, 10e-15, 20e-15, 40e-15],
            dt: 1e-12,
        }
    }

    /// Coarse 3 × 3 grid for fast unit tests.
    pub fn fast_test() -> Self {
        Options {
            slews: vec![60e-12, 150e-12, 300e-12],
            loads: vec![2e-15, 10e-15, 40e-15],
            dt: 2e-12,
        }
    }
}

/// One measured grid point.
struct Measurement {
    delay: f64,
    out_slew: f64,
}

/// Simulates one inverter instance and measures delay/slew for the given
/// input polarity.
fn measure_inverter(
    proc: &Process,
    size: f64,
    slew: f64,
    load: f64,
    input_rising: bool,
    dt: f64,
) -> Result<Measurement, LibertyError> {
    let th = Thresholds::cmos(proc.vdd);
    let full = slew / 0.8;
    let mid = 0.2e-9 + full / 2.0;
    let t_stop = mid + full / 2.0 + 2.0e-9;
    let (v0, v1) = if input_rising {
        (0.0, proc.vdd)
    } else {
        (proc.vdd, 0.0)
    };
    let ramp = Waveform::new(
        vec![0.0, mid - full / 2.0, mid + full / 2.0, t_stop],
        vec![v0, v0, v1, v1],
    )?;

    let mut net = Netlist::new(proc.vdd);
    let inp = net.node("in");
    let out = net.node("out");
    cells::add_inverter(&mut net, proc, size, inp, out, "dut")?;
    cells::add_load_cap(&mut net, out, load)?;
    net.vsource(inp, ramp)?;
    let res = net.run_transient(SimOptions::new(0.0, t_stop, dt)?)?;
    let v_out = res.voltage(out)?;
    let out_pol = if input_rising {
        Polarity::Fall
    } else {
        Polarity::Rise
    };
    let t_out = v_out.last_crossing_or_err(th.mid())?;
    let delay = t_out - mid;
    let out_slew = v_out.slew_first_to_first(th, out_pol)?;
    Ok(Measurement { delay, out_slew })
}

/// Characterizes one inverter as a library [`Cell`].
///
/// # Errors
///
/// Propagates simulation and measurement failures; fails fast on empty
/// grids.
pub fn inverter_cell(
    proc: &Process,
    name: &str,
    size: f64,
    opts: &Options,
) -> Result<Cell, LibertyError> {
    if opts.slews.len() < 2 || opts.loads.len() < 2 {
        return Err(LibertyError::Semantic(
            "characterization grid needs at least 2x2".into(),
        ));
    }
    let n1 = opts.slews.len();
    let n2 = opts.loads.len();
    let mut rise_delay = Vec::with_capacity(n1 * n2);
    let mut rise_slew = Vec::with_capacity(n1 * n2);
    let mut fall_delay = Vec::with_capacity(n1 * n2);
    let mut fall_slew = Vec::with_capacity(n1 * n2);
    for &slew in &opts.slews {
        for &load in &opts.loads {
            // Output rise ⇐ input falls (negative unate).
            let rise = measure_inverter(proc, size, slew, load, false, opts.dt)?;
            rise_delay.push(rise.delay);
            rise_slew.push(rise.out_slew);
            let fall = measure_inverter(proc, size, slew, load, true, opts.dt)?;
            fall_delay.push(fall.delay);
            fall_slew.push(fall.out_slew);
        }
    }
    let table = |values: Vec<f64>| NldmTable::new(opts.slews.clone(), opts.loads.clone(), values);
    let arc = TimingArc {
        related_pin: "A".into(),
        sense: TimingSense::NegativeUnate,
        cell_rise: table(rise_delay)?,
        rise_transition: table(rise_slew)?,
        cell_fall: table(fall_delay)?,
        fall_transition: table(fall_slew)?,
    };
    Ok(Cell {
        name: name.into(),
        area: 1.6 * size,
        pins: vec![
            Pin {
                name: "A".into(),
                direction: Direction::Input,
                capacitance: proc.inverter_input_cap(size),
                function: None,
                timing: vec![],
            },
            Pin {
                name: "Y".into(),
                direction: Direction::Output,
                capacitance: 0.0,
                function: Some("!A".into()),
                timing: vec![arc],
            },
        ],
    })
}

/// Characterizes a family of inverter sizes into a [`Library`].
///
/// # Errors
///
/// Propagates per-cell characterization failures.
pub fn inverter_family(
    proc: &Process,
    sizes: &[(&str, f64)],
    opts: &Options,
) -> Result<Library, LibertyError> {
    let mut lib = Library::new("nsta013", proc.vdd);
    for &(name, size) in sizes {
        lib.push_cell(inverter_cell(proc, name, size, opts)?);
    }
    Ok(lib)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::parse_library;

    #[test]
    fn characterized_tables_are_physically_monotone() {
        let proc = Process::c013();
        let cell = inverter_cell(&proc, "INVX1", 1.0, &Options::fast_test()).unwrap();
        let arc = &cell.output().unwrap().timing[0];
        // Delay grows with load at fixed slew...
        let d_small = arc.cell_fall.lookup(150e-12, 2e-15);
        let d_large = arc.cell_fall.lookup(150e-12, 40e-15);
        assert!(d_large > d_small, "{d_large} vs {d_small}");
        // ...and with input slew at fixed load.
        let d_fast = arc.cell_fall.lookup(60e-12, 10e-15);
        let d_slow = arc.cell_fall.lookup(300e-12, 10e-15);
        assert!(d_slow > d_fast);
        // Output slew grows with load.
        let s_small = arc.fall_transition.lookup(150e-12, 2e-15);
        let s_large = arc.fall_transition.lookup(150e-12, 40e-15);
        assert!(s_large > s_small);
        // Magnitudes are picosecond-scale, not garbage.
        assert!(d_small > 1e-12 && d_small < 1e-9);
    }

    #[test]
    fn family_round_trips_through_liberty_text() {
        let proc = Process::c013();
        let lib = inverter_family(
            &proc,
            &[("INVX1", 1.0), ("INVX4", 4.0)],
            &Options::fast_test(),
        )
        .unwrap();
        let text = lib.to_liberty();
        let parsed = parse_library(&text).unwrap();
        assert_eq!(parsed.cells().len(), 2);
        // Larger cell is faster at the same point.
        let d1 = parsed.cell("INVX1").unwrap().output().unwrap().timing[0]
            .cell_fall
            .lookup(150e-12, 20e-15);
        let d4 = parsed.cell("INVX4").unwrap().output().unwrap().timing[0]
            .cell_fall
            .lookup(150e-12, 20e-15);
        assert!(d4 < d1);
        // Input capacitance scales with size.
        let c1 = parsed.cell("INVX1").unwrap().pin("A").unwrap().capacitance;
        let c4 = parsed.cell("INVX4").unwrap().pin("A").unwrap().capacitance;
        assert!((c4 / c1 - 4.0).abs() < 0.01);
    }

    #[test]
    fn tiny_grids_are_rejected() {
        let proc = Process::c013();
        let opts = Options {
            slews: vec![100e-12],
            loads: vec![1e-15, 2e-15],
            dt: 2e-12,
        };
        assert!(inverter_cell(&proc, "X", 1.0, &opts).is_err());
    }
}
