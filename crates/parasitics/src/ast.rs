//! The SPEF data model.
//!
//! All electrical quantities are stored in SI units (seconds, farads, ohms):
//! the parser applies the header's `*T_UNIT` / `*C_UNIT` / `*R_UNIT` scales
//! once, and every consumer downstream works in SI. Name-map references are
//! resolved at parse time, so nodes carry final net names.

use std::fmt;

/// Unit scales declared in the SPEF header, as multipliers to SI.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Units {
    /// Seconds per declared time unit.
    pub time: f64,
    /// Farads per declared capacitance unit.
    pub capacitance: f64,
    /// Ohms per declared resistance unit.
    pub resistance: f64,
    /// Henries per declared inductance unit.
    pub inductance: f64,
}

impl Default for Units {
    /// SPEF's most common header: `1 NS`, `1 PF`, `1 OHM`, `1 HENRY`.
    fn default() -> Self {
        Units {
            time: 1e-9,
            capacitance: 1e-12,
            resistance: 1.0,
            inductance: 1.0,
        }
    }
}

/// One RC-network node: a net plus an optional internal-node tail
/// (`net:3`), or an instance pin (`u2:A`) for boundary nodes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SpefNode {
    /// Net or instance base name (name-map references already resolved).
    pub base: String,
    /// Internal node index or pin name after the delimiter, if any.
    pub tail: Option<String>,
}

impl SpefNode {
    /// A node on the net itself (no tail).
    pub fn net(base: &str) -> Self {
        SpefNode {
            base: base.into(),
            tail: None,
        }
    }

    /// An internal or pin node `base:tail`.
    pub fn sub(base: &str, tail: &str) -> Self {
        SpefNode {
            base: base.into(),
            tail: Some(tail.into()),
        }
    }
}

impl fmt::Display for SpefNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.tail {
            Some(t) => write!(f, "{}:{}", self.base, t),
            None => write!(f, "{}", self.base),
        }
    }
}

/// Direction of a port or internal connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConnDirection {
    /// Input.
    Input,
    /// Output.
    Output,
    /// Bidirectional.
    Bidirectional,
}

impl ConnDirection {
    /// The single-letter SPEF encoding.
    pub fn letter(self) -> char {
        match self {
            ConnDirection::Input => 'I',
            ConnDirection::Output => 'O',
            ConnDirection::Bidirectional => 'B',
        }
    }
}

/// Kind of a `*CONN` entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConnKind {
    /// `*P` — a top-level port.
    Port,
    /// `*I` — an internal instance pin.
    Internal,
}

/// One `*CONN` entry of a `*D_NET` section.
#[derive(Debug, Clone, PartialEq)]
pub struct Conn {
    /// Port or internal pin.
    pub kind: ConnKind,
    /// The connected port or pin.
    pub node: SpefNode,
    /// Direction attribute.
    pub direction: ConnDirection,
    /// `*L` pin load (farads), if given.
    pub load: Option<f64>,
    /// `*D` driving-cell name, if given.
    pub driver_cell: Option<String>,
}

/// One `*CAP` entry: a ground capacitance (one node) or a coupling
/// capacitance (two nodes on different nets).
#[derive(Debug, Clone, PartialEq)]
pub struct CapElem {
    /// Entry id as written in the file.
    pub id: u64,
    /// First node (always on the section's net in well-formed SPEF).
    pub a: SpefNode,
    /// Second node for coupling capacitances.
    pub b: Option<SpefNode>,
    /// Capacitance (farads).
    pub value: f64,
}

impl CapElem {
    /// `true` when this entry couples two nets.
    pub fn is_coupling(&self) -> bool {
        self.b.is_some()
    }
}

/// One `*RES` entry: a wire-segment resistance between two nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct ResElem {
    /// Entry id as written in the file.
    pub id: u64,
    /// One end of the segment.
    pub a: SpefNode,
    /// The other end.
    pub b: SpefNode,
    /// Resistance (ohms).
    pub value: f64,
}

/// One `*D_NET` section: the extracted RC network of a single net.
#[derive(Debug, Clone, PartialEq)]
pub struct DNet {
    /// Net name (name-map resolved).
    pub name: String,
    /// The section header's total capacitance (farads) — ground plus
    /// coupling, as extractors conventionally write it.
    pub total_cap: f64,
    /// Connection points.
    pub conns: Vec<Conn>,
    /// Capacitance elements.
    pub caps: Vec<CapElem>,
    /// Resistance elements.
    pub ress: Vec<ResElem>,
}

impl DNet {
    /// Sum of ground (single-node) capacitances (farads).
    pub fn ground_cap(&self) -> f64 {
        self.caps
            .iter()
            .filter(|c| !c.is_coupling())
            .map(|c| c.value)
            .sum()
    }

    /// Sum of coupling (two-node) capacitances (farads).
    pub fn coupling_cap(&self) -> f64 {
        self.caps
            .iter()
            .filter(|c| c.is_coupling())
            .map(|c| c.value)
            .sum()
    }

    /// Total series resistance of the net's own segments (ohms).
    pub fn total_resistance(&self) -> f64 {
        self.ress.iter().map(|r| r.value).sum()
    }
}

/// A parsed SPEF file.
#[derive(Debug, Clone, PartialEq)]
pub struct SpefFile {
    /// `*DESIGN` name.
    pub design: String,
    /// `*DIVIDER` hierarchy character.
    pub divider: char,
    /// `*DELIMITER` pin/node character.
    pub delimiter: char,
    /// Header unit scales (already applied to all stored values).
    pub units: Units,
    /// Top-level ports from the `*PORTS` section.
    pub ports: Vec<Conn>,
    /// All `*D_NET` sections in file order.
    pub nets: Vec<DNet>,
}

impl SpefFile {
    /// The section of a specific net, if present.
    pub fn net(&self, name: &str) -> Option<&DNet> {
        self.nets.iter().find(|n| n.name == name)
    }

    /// Replaces the `*D_NET` section named `dnet.name` in place (keeping
    /// file order, which downstream spec ordering follows) and returns
    /// the previous section — the single-net re-annotation primitive of
    /// an incremental ECO flow, where one wire's extraction changes and
    /// the rest of the file must stay bit-identical.
    ///
    /// # Errors
    ///
    /// [`crate::SpefError::Semantic`] if no section with that name
    /// exists; the file is left unchanged.
    pub fn replace_net(&mut self, dnet: DNet) -> Result<DNet, crate::SpefError> {
        match self.nets.iter_mut().find(|n| n.name == dnet.name) {
            Some(slot) => Ok(std::mem::replace(slot, dnet)),
            None => Err(crate::SpefError::Semantic(format!(
                "re-annotation names unknown net {:?}",
                dnet.name
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dnet_aggregates() {
        let net = DNet {
            name: "v".into(),
            total_cap: 0.25e-12,
            conns: vec![],
            caps: vec![
                CapElem {
                    id: 1,
                    a: SpefNode::sub("v", "1"),
                    b: None,
                    value: 0.1e-12,
                },
                CapElem {
                    id: 2,
                    a: SpefNode::sub("v", "2"),
                    b: Some(SpefNode::sub("g", "2")),
                    value: 0.15e-12,
                },
            ],
            ress: vec![
                ResElem {
                    id: 1,
                    a: SpefNode::net("v"),
                    b: SpefNode::sub("v", "1"),
                    value: 12.0,
                },
                ResElem {
                    id: 2,
                    a: SpefNode::sub("v", "1"),
                    b: SpefNode::sub("v", "2"),
                    value: 13.0,
                },
            ],
        };
        assert!((net.ground_cap() - 0.1e-12).abs() < 1e-20);
        assert!((net.coupling_cap() - 0.15e-12).abs() < 1e-20);
        assert!((net.total_resistance() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn node_display() {
        assert_eq!(SpefNode::net("a").to_string(), "a");
        assert_eq!(SpefNode::sub("a", "3").to_string(), "a:3");
    }
}
