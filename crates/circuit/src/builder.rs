use crate::CircuitError;
use nsta_waveform::Waveform;
use std::sync::Arc;

/// Handle to a circuit node.
///
/// Obtained from [`Circuit::node`]; the distinguished [`Circuit::GROUND`]
/// refers to the reference node. Node ids are only meaningful within the
/// circuit that created them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    pub(crate) const GROUND_SENTINEL: usize = usize::MAX;

    /// `true` if this is the ground/reference node.
    pub fn is_ground(self) -> bool {
        self.0 == Self::GROUND_SENTINEL
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Resistor {
    pub a: usize,
    pub b: usize,
    pub conductance: f64,
}

#[derive(Debug, Clone)]
pub(crate) struct Capacitor {
    pub a: usize,
    pub b: usize,
    pub farads: f64,
}

/// Source waveforms are reference-counted so [`Circuit::factor_transient`]
/// can capture them without deep-cloning sample buffers per factorization.
#[derive(Debug, Clone)]
pub(crate) struct VSource {
    pub node: usize,
    pub waveform: Arc<Waveform>,
}

/// A linear circuit under construction: named nodes plus R, C, coupling-C
/// and ideal voltage-source elements.
///
/// Ideal voltage sources pin their node to a [`Waveform`]; such *driven*
/// nodes are eliminated from the MNA unknowns, which keeps the solve small
/// and makes the common "ramp through an RC mesh" case exact for
/// piecewise-linear drives.
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    /// Node names; `None` for anonymous nodes (see [`Circuit::anon_node`]).
    names: Vec<Option<String>>,
    pub(crate) resistors: Vec<Resistor>,
    pub(crate) capacitors: Vec<Capacitor>,
    pub(crate) vsources: Vec<VSource>,
}

impl Circuit {
    /// The reference node: all sources and grounded capacitors refer to it.
    pub const GROUND: NodeId = NodeId(NodeId::GROUND_SENTINEL);

    /// Creates an empty circuit.
    pub fn new() -> Self {
        Circuit::default()
    }

    /// Creates (or looks up) a named node and returns its id.
    ///
    /// Calling `node` twice with the same name returns the same id, so
    /// subcircuit builders can meet at shared connection points by name.
    pub fn node(&mut self, name: &str) -> NodeId {
        if let Some(pos) = self.names.iter().position(|n| n.as_deref() == Some(name)) {
            return NodeId(pos);
        }
        self.names.push(Some(name.to_owned()));
        NodeId(self.names.len() - 1)
    }

    /// Creates a fresh anonymous node.
    ///
    /// Anonymous nodes carry no name: creating one neither allocates a
    /// string nor scans the name table, so hot circuit-construction loops
    /// (one coupled bundle per victim per crosstalk iteration) stay
    /// allocation-free. They can never be returned by [`Circuit::node`].
    pub fn anon_node(&mut self) -> NodeId {
        self.names.push(None);
        NodeId(self.names.len() - 1)
    }

    /// Number of non-ground nodes created so far.
    pub fn node_count(&self) -> usize {
        self.names.len()
    }

    /// Name of a node; anonymous nodes report as `"<anon>"`. A test helper.
    ///
    /// # Errors
    ///
    /// [`CircuitError::UnknownNode`] for ids from another circuit.
    #[cfg(test)]
    pub(crate) fn node_name(&self, id: NodeId) -> Result<&str, CircuitError> {
        if id.is_ground() {
            return Ok("0");
        }
        self.names
            .get(id.0)
            .map(|n| n.as_deref().unwrap_or("<anon>"))
            .ok_or(CircuitError::UnknownNode { index: id.0 })
    }

    fn check(&self, id: NodeId) -> Result<usize, CircuitError> {
        if id.is_ground() {
            return Ok(NodeId::GROUND_SENTINEL);
        }
        if id.0 < self.names.len() {
            Ok(id.0)
        } else {
            Err(CircuitError::UnknownNode { index: id.0 })
        }
    }

    /// Adds a resistor of `ohms` between `a` and `b`.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::InvalidElement`] unless `ohms` is finite and > 0.
    /// * [`CircuitError::DegenerateElement`] if `a == b`.
    /// * [`CircuitError::UnknownNode`] for foreign node ids.
    pub fn resistor(&mut self, a: NodeId, b: NodeId, ohms: f64) -> Result<(), CircuitError> {
        if !(ohms.is_finite() && ohms > 0.0) {
            return Err(CircuitError::InvalidElement(
                "resistance must be finite and positive",
            ));
        }
        let (ia, ib) = (self.check(a)?, self.check(b)?);
        if ia == ib {
            return Err(CircuitError::DegenerateElement(
                "resistor terminals coincide",
            ));
        }
        self.resistors.push(Resistor {
            a: ia,
            b: ib,
            conductance: 1.0 / ohms,
        });
        Ok(())
    }

    /// Adds a capacitor of `farads` between `a` and `b` (use
    /// [`Circuit::GROUND`] for a grounded capacitor; a floating `a`–`b`
    /// capacitor models coupling).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Circuit::resistor`], with capacitance > 0.
    pub fn capacitor(&mut self, a: NodeId, b: NodeId, farads: f64) -> Result<(), CircuitError> {
        if !(farads.is_finite() && farads > 0.0) {
            return Err(CircuitError::InvalidElement(
                "capacitance must be finite and positive",
            ));
        }
        let (ia, ib) = (self.check(a)?, self.check(b)?);
        if ia == ib {
            return Err(CircuitError::DegenerateElement(
                "capacitor terminals coincide",
            ));
        }
        self.capacitors.push(Capacitor {
            a: ia,
            b: ib,
            farads,
        });
        Ok(())
    }

    /// Pins `node` to the voltage `waveform` with an ideal source.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::AlreadyDriven`] if the node is already pinned.
    /// * [`CircuitError::DegenerateElement`] when driving ground.
    /// * [`CircuitError::UnknownNode`] for foreign node ids.
    pub fn vsource(&mut self, node: NodeId, waveform: Waveform) -> Result<(), CircuitError> {
        let idx = self.check(node)?;
        if node.is_ground() {
            return Err(CircuitError::DegenerateElement(
                "cannot drive the ground node",
            ));
        }
        if self.vsources.iter().any(|s| s.node == idx) {
            return Err(CircuitError::AlreadyDriven {
                name: self.names[idx].clone().unwrap_or_else(|| "<anon>".into()),
            });
        }
        self.vsources.push(VSource {
            node: idx,
            waveform: Arc::new(waveform),
        });
        Ok(())
    }

    /// Adds a Thevenin driver: an ideal source with `waveform` behind
    /// `r_drive` ohms, attached to `node`. Returns the internal source node.
    ///
    /// This is the standard STA abstraction of a driving gate for linear SI
    /// noise analysis.
    ///
    /// # Errors
    ///
    /// Propagates the underlying [`Circuit::vsource`]/[`Circuit::resistor`]
    /// failures.
    pub fn thevenin_driver(
        &mut self,
        node: NodeId,
        waveform: Waveform,
        r_drive: f64,
    ) -> Result<NodeId, CircuitError> {
        let src = self.anon_node();
        self.vsource(src, waveform)?;
        self.resistor(src, node, r_drive)?;
        Ok(src)
    }

    /// Total capacitance attached to `node` (grounded plus coupling). A
    /// test helper.
    ///
    /// # Errors
    ///
    /// [`CircuitError::UnknownNode`] for foreign node ids.
    #[cfg(test)]
    pub(crate) fn total_capacitance_at(&self, node: NodeId) -> Result<f64, CircuitError> {
        let idx = self.check(node)?;
        Ok(self
            .capacitors
            .iter()
            .filter(|c| c.a == idx || c.b == idx)
            .map(|c| c.farads)
            .sum())
    }

    /// Element counts `(resistors, capacitors, vsources)`. A test helper.
    #[cfg(test)]
    pub(crate) fn element_counts(&self) -> (usize, usize, usize) {
        (
            self.resistors.len(),
            self.capacitors.len(),
            self.vsources.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step() -> Waveform {
        Waveform::new(vec![0.0, 1.0], vec![0.0, 1.0]).unwrap()
    }

    #[test]
    fn node_identity_by_name() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        assert_ne!(a, b);
        assert_eq!(c.node("a"), a);
        assert_eq!(c.node_count(), 2);
        assert_eq!(c.node_name(a).unwrap(), "a");
        assert_eq!(c.node_name(Circuit::GROUND).unwrap(), "0");
    }

    #[test]
    fn element_validation() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        assert!(c.resistor(a, b, 100.0).is_ok());
        assert!(c.resistor(a, b, 0.0).is_err());
        assert!(c.resistor(a, b, -5.0).is_err());
        assert!(c.resistor(a, a, 1.0).is_err());
        assert!(c.capacitor(a, Circuit::GROUND, 1e-15).is_ok());
        assert!(c.capacitor(a, Circuit::GROUND, f64::NAN).is_err());
        let foreign = NodeId(99);
        assert!(matches!(
            c.resistor(a, foreign, 1.0),
            Err(CircuitError::UnknownNode { .. })
        ));
    }

    #[test]
    fn vsource_rules() {
        let mut c = Circuit::new();
        let a = c.node("a");
        assert!(c.vsource(a, step()).is_ok());
        assert!(matches!(
            c.vsource(a, step()),
            Err(CircuitError::AlreadyDriven { .. })
        ));
        assert!(c.vsource(Circuit::GROUND, step()).is_err());
    }

    #[test]
    fn thevenin_driver_adds_source_and_resistor() {
        let mut c = Circuit::new();
        let load = c.node("load");
        let src = c.thevenin_driver(load, step(), 120.0).unwrap();
        assert!(!src.is_ground());
        assert_eq!(c.element_counts(), (1, 0, 1));
    }

    #[test]
    fn total_capacitance_sums_both_kinds() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.capacitor(a, Circuit::GROUND, 1e-15).unwrap();
        c.capacitor(a, b, 2e-15).unwrap();
        c.capacitor(b, Circuit::GROUND, 4e-15).unwrap();
        assert!((c.total_capacitance_at(a).unwrap() - 3e-15).abs() < 1e-21);
        assert!((c.total_capacitance_at(b).unwrap() - 6e-15).abs() < 1e-21);
    }
}
