//! Linear circuit engine for interconnect analysis.
//!
//! This crate provides the *linear* half of the simulation substrate: RC
//! networks (including star-coupled lines), ideal voltage sources and
//! Thevenin drivers, and a trapezoidal transient solver built on modified
//! nodal analysis. It is used for
//!
//! * the coupled-interconnect wire models of the paper's Figure 1
//!   ([`RcLineSpec`]), and
//! * STA-side crosstalk noise estimation: the noisy far-end waveform of a
//!   victim line driven through a Thevenin resistor, with its aggressors
//!   switching through theirs ([`StarCoupledLines`]).
//!
//! Every run starts from the DC operating point of its sources' first
//! values.
//!
//! Node voltages are solved with the trapezoidal rule, which integrates the
//! piecewise-linear sources used throughout this workspace exactly in their
//! linear segments and is A-stable for stiff RC meshes.
//!
//! ```
//! use nsta_circuit::{Circuit, TransientOptions};
//! use nsta_waveform::Waveform;
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut ckt = Circuit::new();
//! let inp = ckt.node("in");
//! let out = ckt.node("out");
//! ckt.resistor(inp, out, 1_000.0)?;            // 1 kΩ
//! ckt.capacitor(out, Circuit::GROUND, 1e-12)?; // 1 pF
//! let step = Waveform::new(vec![0.0, 1e-12, 10e-9], vec![0.0, 1.0, 1.0])?;
//! ckt.vsource(inp, step)?;
//! let result = ckt.run_transient(TransientOptions::new(0.0, 10e-9, 10e-12)?)?;
//! let v_out = result.voltage(out)?;
//! // RC = 1 ns: ~63% at t = 1 ns.
//! assert!((v_out.value_at(1e-9) - 0.632).abs() < 0.01);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod builder;
mod error;
mod rcline;
mod transient;

pub use builder::{Circuit, NodeId};
pub use error::CircuitError;
// Callers classifying solver failures (the STA fallback chain) need the
// wrapped numeric error without taking their own nsta-numeric dependency.
pub use nsta_numeric::NumericError;
pub use rcline::{RcLineSpec, StarCoupledLines};
pub use transient::{FactoredSystem, SolverBackend, TransientOptions, TransientResult};
