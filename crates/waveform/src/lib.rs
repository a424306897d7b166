//! Waveform algebra for noisy-waveform static timing analysis.
//!
//! This crate provides the signal representations used throughout the
//! `noisy-sta` workspace:
//!
//! * [`Waveform`] — an immutable, validated, piecewise-linear sampled
//!   voltage waveform `v(t)`,
//! * [`SaturatedRamp`] — the *equivalent linear waveform* `Γ` of the paper:
//!   a line `v(t) = a·t + b` saturated to the supply rails, i.e. an arrival
//!   time plus a constant slew,
//! * [`Thresholds`] — the measurement levels (10% / 50% / 90% of Vdd by
//!   default, as in the paper),
//! * [`Polarity`] — rising vs falling transitions,
//! * noise-pulse injection helpers ([`Waveform::with_triangular_pulse`] and
//!   friends) used to synthesize crosstalk-distorted inputs in tests,
//! * [`metrics`] — waveform distances and the level-bounded areas needed by
//!   the E4 technique.
//!
//! All quantities use SI units: seconds and volts.
//!
//! ```
//! use nsta_waveform::{SaturatedRamp, Thresholds};
//! # fn main() -> Result<(), nsta_waveform::WaveformError> {
//! let th = Thresholds::cmos(1.2);
//! let ramp = SaturatedRamp::with_slew(1.0e-9, 150e-12, th, true)?;
//! assert!((ramp.arrival_mid() - 1.0e-9).abs() < 1e-15);
//! assert!((ramp.slew(th) - 150e-12).abs() < 1e-15);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod edge;
mod error;
pub mod metrics;
mod noise;
mod ramp;
mod wave;

pub use edge::{Polarity, Thresholds};
pub use error::WaveformError;
pub use ramp::SaturatedRamp;
pub use wave::{Sampler, Waveform};
