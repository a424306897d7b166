//! The equivalent-waveform techniques: P1, P2, LSF3, E4, WLS5 and SGDP.
//!
//! Every technique reduces a noisy input waveform to a [`SaturatedRamp`]
//! `Γeff` — the arrival-time-plus-slew abstraction STA engines propagate.
//! They differ in *which* features of the noisy waveform they preserve; the
//! paper's experiments (and this workspace's Table-1 harness) quantify the
//! resulting gate-delay error against a golden transistor-level simulation.

mod energy;
mod lsf;
mod point;
mod sgdp;
mod wls;

pub use energy::E4;
pub use lsf::Lsf3;
pub use point::{P1, P2};
pub use sgdp::Sgdp;
pub use wls::Wls5;

use crate::context::PropagationContext;
use crate::SgdpError;
use nsta_waveform::SaturatedRamp;

/// A technique that reduces a noisy waveform to an equivalent ramp.
pub trait EquivalentWaveform {
    /// Short, stable identifier (matches the paper's naming).
    fn name(&self) -> &'static str;

    /// Computes `Γeff` for the given context.
    ///
    /// # Errors
    ///
    /// Techniques report [`SgdpError::NonOverlapping`] when their
    /// theoretical preconditions fail (WLS5 on non-overlapping transitions)
    /// and [`SgdpError::DegenerateFit`] when the waveform carries no usable
    /// transition; see each implementation.
    fn equivalent(&self, ctx: &PropagationContext) -> Result<SaturatedRamp, SgdpError>;
}

/// Enumeration of all techniques studied in the paper, in its order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MethodKind {
    /// Point-based, noiseless slew (Section 2.1).
    P1,
    /// Point-based, earliest-to-latest noisy slew (Section 2.1).
    P2,
    /// Plain least-squares fit (Section 2.2).
    Lsf3,
    /// Elmore-inspired area matching (Section 2.3).
    E4,
    /// Sensitivity-weighted least squares of Hashimoto et al. (Section 2.4).
    Wls5,
    /// The paper's contribution (Section 3).
    Sgdp,
}

impl MethodKind {
    /// All techniques in the paper's presentation order.
    pub fn all() -> [MethodKind; 6] {
        [
            MethodKind::P1,
            MethodKind::P2,
            MethodKind::Lsf3,
            MethodKind::E4,
            MethodKind::Wls5,
            MethodKind::Sgdp,
        ]
    }

    /// The technique's display name.
    pub fn name(&self) -> &'static str {
        match self {
            MethodKind::P1 => "P1",
            MethodKind::P2 => "P2",
            MethodKind::Lsf3 => "LSF3",
            MethodKind::E4 => "E4",
            MethodKind::Wls5 => "WLS5",
            MethodKind::Sgdp => "SGDP",
        }
    }

    /// Computes `Γeff` with this technique's default configuration.
    ///
    /// # Errors
    ///
    /// See [`EquivalentWaveform::equivalent`].
    pub fn equivalent(&self, ctx: &PropagationContext) -> Result<SaturatedRamp, SgdpError> {
        match self {
            MethodKind::P1 => P1.equivalent(ctx),
            MethodKind::P2 => P2.equivalent(ctx),
            MethodKind::Lsf3 => Lsf3.equivalent(ctx),
            MethodKind::E4 => E4.equivalent(ctx),
            MethodKind::Wls5 => Wls5.equivalent(ctx),
            MethodKind::Sgdp => Sgdp.equivalent(ctx),
        }
    }
}

impl std::fmt::Display for MethodKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Validates that a fitted line transitions in the context's direction and
/// wraps it into a ramp.
pub(crate) fn ramp_from_fit(
    a: f64,
    b: f64,
    ctx: &PropagationContext,
) -> Result<SaturatedRamp, SgdpError> {
    if !a.is_finite() || !b.is_finite() {
        return Err(SgdpError::DegenerateFit(
            "fit produced non-finite coefficients",
        ));
    }
    let rising = ctx.polarity().is_rise();
    if (rising && a <= 0.0) || (!rising && a >= 0.0) {
        return Err(SgdpError::DegenerateFit(
            "fitted slope opposes the transition",
        ));
    }
    Ok(SaturatedRamp::from_coefficients(
        a,
        b,
        ctx.thresholds().vdd(),
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_kind_metadata() {
        assert_eq!(MethodKind::all().len(), 6);
        assert_eq!(MethodKind::Sgdp.name(), "SGDP");
        assert_eq!(MethodKind::Wls5.to_string(), "WLS5");
        // Names are unique.
        let names: std::collections::HashSet<_> =
            MethodKind::all().iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), 6);
    }
}
