//! Nonlinear transistor-level transient simulator — the workspace's
//! "HSPICE substitute".
//!
//! The paper evaluates every equivalent-waveform technique against HSPICE on
//! a TSMC 0.13 µm inverter testbench. This crate provides the equivalent
//! golden reference, built from scratch:
//!
//! * [`MosParams`]/[`Mosfet`] — Sakurai–Newton *alpha-power-law* MOSFET
//!   model with symmetric (reverse-conduction) handling and analytic
//!   derivatives,
//! * [`Netlist`] — transistors plus linear R/C elements, ideal sources and
//!   rails,
//! * damped Newton–Raphson DC solve and trapezoidal transient integration
//!   ([`Netlist::dc_operating_point`], [`Netlist::run_transient`]),
//! * [`cells`] — parameterized CMOS cells (inverter, NAND2, NOR2, buffer)
//!   over a 0.13 µm-class [`Process`],
//! * [`fig1`] — the paper's Figure-1 coupled-interconnect testbench
//!   (Configurations I and II) and the receiver-only bench used to evaluate
//!   equivalent waveforms.
//!
//! One Newton iteration costs O(nnz + devices), not `nf²`: the static and
//! capacitive residuals read only the stored entries of the stamped CSR
//! matrices, one device pass adds every MOSFET's current to the residual
//! and its derivatives to the Jacobian values at slots resolved once per
//! run (a device whose terminal voltages did not change reuses its last
//! evaluation), and the sparse LU re-eliminates numerically in a pattern
//! analyzed once. Source values are tabulated once per run in one flat,
//! time-major table. Every recorded voltage is bit-identical to the dense
//! assembly this replaced, which the crate's tests keep as their oracle.
//! On the 2-vCPU VM the Figure-1 bench simulates in ≈10 ms (configuration
//! I) and ≈12 ms (II) per skewed case.
//!
//! The absolute currents are calibrated to 0.13 µm-class magnitudes, not to
//! any proprietary PDK; the reproduction compares *techniques against this
//! golden simulator* exactly as the paper compares them against HSPICE.
//!
//! ```
//! use nsta_spice::{cells, Netlist, Process, SimOptions};
//! use nsta_waveform::{Thresholds, Waveform};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let proc = Process::c013();
//! let mut net = Netlist::new(proc.vdd);
//! let inp = net.node("in");
//! let out = net.node("out");
//! cells::add_inverter(&mut net, &proc, 1.0, inp, out, "u1")?;
//! cells::add_load_cap(&mut net, out, 10e-15)?;
//! let ramp = Waveform::new(vec![0.0, 0.5e-9, 0.65e-9, 3e-9], vec![0.0, 0.0, 1.2, 1.2])?;
//! net.vsource(inp, ramp)?;
//! let res = net.run_transient(SimOptions::new(0.0, 3e-9, 1e-12)?)?;
//! let v_out = res.voltage(out)?;
//! let th = Thresholds::cmos(1.2);
//! assert!(v_out.value_at(0.0) > 1.1);            // starts high
//! assert!(v_out.value_at(2.9e-9) < 0.1);         // ends low
//! assert!(v_out.last_crossing(th.mid()).is_some());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod cells;
mod device;
mod error;
pub mod fig1;
mod netlist;
mod sim;

pub use device::{MosParams, MosType, Mosfet};
pub use error::SpiceError;
pub use netlist::{Netlist, NodeId, Process};
pub use sim::{SimOptions, SimResult};
