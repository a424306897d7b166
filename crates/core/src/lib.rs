//! # sgdp — sensitivity-based gate delay propagation
//!
//! Implementation of *"Modeling and Propagation of Noisy Waveforms in
//! Static Timing Analysis"* (Nazarian, Pedram, Tuncer, Lin, Ajami —
//! DATE 2005): the **SGDP** technique and the five baselines it is compared
//! against (P1, P2, LSF3, E4, WLS5).
//!
//! Conventional STA reduces every transition to an arrival time plus a slew
//! — a [`SaturatedRamp`](nsta_waveform::SaturatedRamp). When crosstalk
//! distorts the waveform, *how* that reduction is performed dominates the
//! timing accuracy. Each [`MethodKind`] implements one published reduction;
//! [`eval::evaluate_case`] quantifies their gate-delay error against a
//! golden transistor-level simulation ([`gate::SpiceReceiverGate`]).
//!
//! ```
//! use sgdp::{MethodKind, PropagationContext};
//! use sgdp::gate::{AnalyticInverterGate, GateModel};
//! use nsta_waveform::{SaturatedRamp, Thresholds};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let th = Thresholds::cmos(1.2);
//! let gate = AnalyticInverterGate::fast(th);
//! // The clean 150 ps transition conventional STA would propagate...
//! let clean = SaturatedRamp::with_slew(1.0e-9, 150e-12, th, true)?;
//! // ...observed with a deep crosstalk glitch on the real silicon:
//! let noisy = clean
//!     .to_waveform(0.0, 3.0e-9, 1e-12)?
//!     .with_triangular_pulse(1.15e-9, 200e-12, -0.8)?;
//! let ctx = PropagationContext::with_gate(clean, noisy, &gate, th)?;
//! let gamma = MethodKind::Sgdp.equivalent(&ctx)?;
//! // The equivalent ramp arrives later than the clean one: the glitch
//! // pushed the transition out.
//! assert!(gamma.arrival_mid() > 1.0e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod context;
pub mod delay;
mod error;
pub mod eval;
pub mod gate;
pub mod sensitivity;
pub mod techniques;

pub use context::{PropagationContext, DEFAULT_SAMPLES};
pub use error::SgdpError;
pub use techniques::{EquivalentWaveform, MethodKind};
