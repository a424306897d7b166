//! RC reduction: collapsing each extracted `*D_NET` into the lumped model
//! the STA crosstalk substrate consumes.
//!
//! The crosstalk engine ([`nsta_sta::si`]) models a victim as a distributed
//! RC line ([`RcLineSpec`]) with per-aggressor coupling totals. This module
//! folds a net's full extracted network into exactly that: total series
//! resistance, total ground capacitance, a segment count matching the
//! extracted topology, and the coupling capacitance summed per partner net.

use crate::ast::{DNet, SpefFile};
use crate::SpefError;
use nsta_circuit::RcLineSpec;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Floor applied to degenerate (resistance-free) nets so the lumped line
/// stays electrically valid (Ω).
const MIN_RESISTANCE: f64 = 1e-3;
/// Floor applied to capacitance-free nets (F).
const MIN_CAPACITANCE: f64 = 1e-18;

/// The lumped view of one extracted net.
#[derive(Debug, Clone, PartialEq)]
pub struct ReducedNet {
    /// Net name.
    pub name: String,
    /// Total series resistance of the net's own segments (Ω).
    pub r_total: f64,
    /// Total ground capacitance (F).
    pub c_ground: f64,
    /// Number of resistive segments in the extraction (≥ 1 after
    /// reduction, even for resistance-free nets).
    pub segments: usize,
    /// Coupling capacitance per partner net (F), keyed by partner name,
    /// deterministically ordered.
    pub couplings: BTreeMap<String, f64>,
    /// Sum of `*L` pin loads over the net's connections (F) — the same
    /// semantics as the STA graph's summed fanout pin capacitances.
    pub pin_load: f64,
    /// Electrical defects found during reduction (empty for healthy
    /// nets): zero-capacitance extractions and ground-cap nodes with no
    /// resistive path from the net root. Reduction still produces the
    /// floored lumped model, but the SI flow refuses to simulate a
    /// defective victim (see `CouplingSpec::defect`), failing or
    /// degrading it per the fault policy instead of analyzing a
    /// stand-in with no relation to the real wire.
    pub defects: Vec<String>,
}

/// `(instance, pin) → owning net`, built from every section's `*CONN`
/// entries. Lets coupling caps anchored at a *pin* of some other net
/// (`u9:Z`) resolve to that net's name.
pub(crate) type PinOwners = HashMap<(String, String), String>;

pub(crate) fn pin_owners(spef: &SpefFile) -> PinOwners {
    let mut owners = PinOwners::new();
    for net in &spef.nets {
        for conn in &net.conns {
            if let Some(tail) = &conn.node.tail {
                owners.insert((conn.node.base.clone(), tail.clone()), net.name.clone());
            }
        }
    }
    owners
}

/// The entries of [`pin_owners`] that `net`'s coupling caps can look up:
/// one read-only pass over the file's `*CONN` entries that clones only
/// the pins some coupling endpoint of `net` names.
pub(crate) fn pin_owners_of(spef: &SpefFile, net: &DNet) -> PinOwners {
    let wanted: HashSet<(&str, &str)> = net
        .caps
        .iter()
        .filter_map(|c| c.b.as_ref().map(|b| [&c.a, b]))
        .flatten()
        .filter_map(|n| n.tail.as_deref().map(|tail| (n.base.as_str(), tail)))
        .collect();
    let mut owners = PinOwners::new();
    if wanted.is_empty() {
        return owners;
    }
    for section in &spef.nets {
        for conn in &section.conns {
            if let Some(tail) = &conn.node.tail {
                if wanted.contains(&(conn.node.base.as_str(), tail.as_str())) {
                    owners.insert((conn.node.base.clone(), tail.clone()), section.name.clone());
                }
            }
        }
    }
    owners
}

impl ReducedNet {
    /// Reduces one `*D_NET` section in isolation.
    ///
    /// Coupling caps whose foreign endpoint is an instance pin of another
    /// net can only be attributed with the whole file in view; prefer
    /// [`reduce_spef`], which resolves those through every section's
    /// `*CONN` entries.
    pub fn from_dnet(net: &DNet) -> Self {
        Self::from_dnet_with_pins(net, &PinOwners::new())
    }

    pub(crate) fn from_dnet_with_pins(net: &DNet, owners: &PinOwners) -> Self {
        // Resolves a foreign endpoint to its net: directly by net name, or
        // through the cross-section pin map for pin-anchored caps.
        let foreign_net = |node: &crate::ast::SpefNode| -> String {
            node.tail
                .as_ref()
                .and_then(|tail| owners.get(&(node.base.clone(), tail.clone())))
                .cloned()
                .unwrap_or_else(|| node.base.clone())
        };
        let mut couplings: BTreeMap<String, f64> = BTreeMap::new();
        for cap in &net.caps {
            let Some(b) = &cap.b else { continue };
            // The foreign node names the partner net. Either endpoint may
            // be written first, and the endpoint on this net may be a net
            // node (`v:2`) *or* one of the net's connection pins
            // (`u2:A`) — extractors anchor coupling caps at pins too. Pins
            // must match base *and* tail: another pin of a shared instance
            // (`u2:Y`) belongs to a different net.
            let on_this_net = |node: &crate::ast::SpefNode| {
                node.base == net.name || net.conns.iter().any(|c| c.node == *node)
            };
            let partner = if on_this_net(&cap.a) {
                foreign_net(b)
            } else if on_this_net(b) {
                foreign_net(&cap.a)
            } else {
                // Neither endpoint is recognizably local; keep the SPEF
                // convention that the first node belongs to the section.
                foreign_net(b)
            };
            *couplings.entry(partner).or_insert(0.0) += cap.value;
        }
        let mut c_ground = net.ground_cap();
        if c_ground <= 0.0 {
            // Lumped-only extraction: fall back to the header total minus
            // the couplings it conventionally includes.
            c_ground = (net.total_cap - net.coupling_cap()).max(0.0);
        }
        let pin_load = net.conns.iter().filter_map(|c| c.load).sum();
        let defects = detect_defects(net, c_ground);
        ReducedNet {
            name: net.name.clone(),
            r_total: net.total_resistance(),
            c_ground,
            segments: net.ress.len().max(1),
            couplings,
            pin_load,
            defects,
        }
    }

    /// Total coupling capacitance to all partners (F).
    pub fn coupling_total(&self) -> f64 {
        self.couplings.values().sum()
    }

    /// The distributed-line spec of this net for the crosstalk substrate.
    ///
    /// Degenerate extractions (no resistors, no ground capacitance) are
    /// floored to tiny positive values rather than rejected: a zero-R net
    /// is an ideal wire, which the line model represents as a negligible
    /// impedance.
    ///
    /// # Errors
    ///
    /// Propagates [`RcLineSpec`] validation failures (non-finite totals).
    pub fn to_line_spec(&self) -> Result<RcLineSpec, SpefError> {
        RcLineSpec::new(
            self.r_total.max(MIN_RESISTANCE),
            self.c_ground.max(MIN_CAPACITANCE),
            self.segments,
        )
        .map_err(SpefError::from)
    }
}

/// Scans one extraction for electrical defects the lumped model would
/// silently paper over.
///
/// Two classes are detected. *Zero capacitance*: the section carries
/// explicit ground caps, yet they — and the header-total fallback — sum
/// to nothing, so the floored line `to_line_spec` would build bears no
/// relation to the real wire. *Disconnected node*: the section has a
/// resistor network, but some ground-cap-bearing node of this net is
/// unreachable from the net root through resistor segments, i.e. part of
/// the extracted charge can never couple to the driver. Lumped-only
/// sections (no `*RES`) carry no topology to check and are exempt from
/// the connectivity scan.
fn detect_defects(net: &DNet, c_ground: f64) -> Vec<String> {
    /// A SPEF node identity: (base name, optional `:tail` suffix).
    type NodeKey = (String, Option<String>);
    let mut defects = Vec::new();
    let has_ground_caps = net.caps.iter().any(|c| c.b.is_none());
    if has_ground_caps && c_ground <= 0.0 {
        defects.push("zero capacitance: explicit ground caps sum to 0 F".to_string());
    }
    if !net.ress.is_empty() {
        let key = |n: &crate::ast::SpefNode| -> NodeKey { (n.base.clone(), n.tail.clone()) };
        let mut adj: HashMap<NodeKey, Vec<NodeKey>> = HashMap::new();
        for r in &net.ress {
            adj.entry(key(&r.a)).or_default().push(key(&r.b));
            adj.entry(key(&r.b)).or_default().push(key(&r.a));
        }
        // Flood from the driver side: the bare net node when the
        // extraction names one, otherwise the first resistor endpoint.
        let root = adj
            .keys()
            .find(|(base, tail)| *base == net.name && tail.is_none())
            .cloned()
            .unwrap_or_else(|| key(&net.ress[0].a));
        let mut reached = std::collections::HashSet::new();
        let mut queue = std::collections::VecDeque::from([root]);
        while let Some(node) = queue.pop_front() {
            if !reached.insert(node.clone()) {
                continue;
            }
            if let Some(next) = adj.get(&node) {
                queue.extend(next.iter().cloned());
            }
        }
        for cap in &net.caps {
            if cap.b.is_some() {
                continue;
            }
            let k = key(&cap.a);
            // Only the net's own nodes participate: pin-anchored ground
            // caps (`u2:A`) sit at *CONN endpoints outside the resistor
            // mesh by construction.
            if k.0 == net.name && !reached.contains(&k) {
                let node = match &k.1 {
                    Some(tail) => format!("{}:{tail}", k.0),
                    None => k.0.clone(),
                };
                defects.push(format!(
                    "disconnected node {node}: no resistive path from the net root"
                ));
            }
        }
    }
    defects
}

/// Reduces every net of a parsed SPEF file, preserving file order.
/// Coupling caps anchored at another net's instance pins are attributed
/// to that net via the file's `*CONN` entries.
pub fn reduce_spef(spef: &SpefFile) -> Vec<ReducedNet> {
    let owners = pin_owners(spef);
    spef.nets
        .iter()
        .map(|net| ReducedNet::from_dnet_with_pins(net, &owners))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_spef;

    fn spef() -> SpefFile {
        parse_spef(
            "*C_UNIT 1 FF\n*R_UNIT 1 OHM\n*NAME_MAP\n*1 v\n*2 g\n*3 h\n\
             *D_NET *1 100.0\n\
             *CONN\n*I u2:A I *L 5.0\n*I u9:B I *L 7.0\n\
             *CAP\n1 *1:1 10.0\n2 *1:2 10.0\n3 *1:1 *2:1 30.0\n4 *1:2 *2:2 20.0\n\
             5 *1:2 *3:1 15.0\n\
             *RES\n1 *1 *1:1 8.0\n2 *1:1 *1:2 9.0\n*END\n\
             *D_NET *2 20.0\n*CAP\n1 *2:1 20.0\n*END\n",
        )
        .unwrap()
    }

    #[test]
    fn sums_r_c_and_per_partner_couplings() {
        let reduced = reduce_spef(&spef());
        assert_eq!(reduced.len(), 2);
        let v = &reduced[0];
        assert_eq!(v.name, "v");
        assert!((v.r_total - 17.0).abs() < 1e-12);
        assert!((v.c_ground - 20e-15).abs() < 1e-28);
        assert_eq!(v.segments, 2);
        assert!((v.couplings["g"] - 50e-15).abs() < 1e-28);
        assert!((v.couplings["h"] - 15e-15).abs() < 1e-28);
        assert!((v.coupling_total() - 65e-15).abs() < 1e-28);
        // Receiver loads sum (5 + 7 fF), matching the STA graph's
        // summed-fanout semantics.
        assert!((v.pin_load - 12e-15).abs() < 1e-28);
    }

    #[test]
    fn resistance_free_net_gets_floored_line() {
        let reduced = reduce_spef(&spef());
        let g = &reduced[1];
        assert_eq!(g.segments, 1);
        let line = g.to_line_spec().unwrap();
        assert!(line.r_total > 0.0);
        assert!((line.c_total - 20e-15).abs() < 1e-28);
    }

    #[test]
    fn lumped_only_net_falls_back_to_header_total() {
        let spef = parse_spef("*C_UNIT 1 FF\n*D_NET n 42.0\n*CAP\n1 n:1 x:1 12.0\n*END").unwrap();
        let r = ReducedNet::from_dnet(&spef.nets[0]);
        // Header total (42 fF) minus coupling (12 fF).
        assert!((r.c_ground - 30e-15).abs() < 1e-28);
        assert!((r.couplings["x"] - 12e-15).abs() < 1e-28);
    }

    #[test]
    fn pin_anchored_coupling_attributes_the_foreign_net() {
        // Extractors may anchor a coupling cap at one of the victim's
        // *pins* (`u2:A`) rather than a net node; the partner must still
        // be the other endpoint's net, not the pin's instance name.
        let spef = parse_spef(
            "*C_UNIT 1 FF\n*NAME_MAP\n*1 v\n*2 g\n\
             *D_NET *1 40.0\n\
             *CONN\n*I u2:A I *L 5.0\n\
             *CAP\n1 *1:1 10.0\n2 u2:A *2:1 30.0\n*END",
        )
        .unwrap();
        let r = ReducedNet::from_dnet(&spef.nets[0]);
        assert!((r.couplings["g"] - 30e-15).abs() < 1e-28);
        assert!(!r.couplings.contains_key("u2"));
    }

    #[test]
    fn foreign_pin_endpoint_resolves_to_owning_net() {
        // The coupling cap's foreign end is written as another net's
        // receiver pin (`u9:Z`); the partner must resolve to that net
        // through its *CONN entry, not to the instance name.
        let spef = parse_spef(
            "*C_UNIT 1 FF\n*NAME_MAP\n*1 v\n*2 g\n\
             *D_NET *1 40.0\n*CAP\n1 *1:1 10.0\n2 *1:1 u9:Z 30.0\n\
             *RES\n1 *1 *1:1 5.0\n*END\n\
             *D_NET *2 5.0\n*CONN\n*I u9:Z I *L 2.0\n*CAP\n1 *2:1 5.0\n*END\n",
        )
        .unwrap();
        let reduced = reduce_spef(&spef);
        let v = &reduced[0];
        assert!((v.couplings["g"] - 30e-15).abs() < 1e-28);
        assert!(!v.couplings.contains_key("u9"));
    }

    #[test]
    fn shared_instance_other_pin_is_foreign() {
        // u2:A is one of v's pins, but u2:Y drives net y. A cap written
        // foreign-endpoint-first (`u2:Y v:1`) must attribute partner y —
        // matching on the instance base alone would call u2:Y local and
        // produce a bogus v→v self-coupling.
        let spef = parse_spef(
            "*C_UNIT 1 FF\n*NAME_MAP\n*1 v\n*2 y\n\
             *D_NET *1 40.0\n*CONN\n*I u2:A I *L 5.0\n\
             *CAP\n1 *1:1 10.0\n2 u2:Y *1:1 30.0\n*END\n\
             *D_NET *2 5.0\n*CONN\n*I u2:Y O *D INVX1\n*CAP\n1 *2:1 5.0\n*END\n",
        )
        .unwrap();
        let reduced = reduce_spef(&spef);
        let v = &reduced[0];
        assert!((v.couplings["y"] - 30e-15).abs() < 1e-28);
        assert!(!v.couplings.contains_key("v"));
        assert!(!v.couplings.contains_key("u2"));
    }

    #[test]
    fn healthy_nets_report_no_defects() {
        for net in reduce_spef(&spef()) {
            assert!(net.defects.is_empty(), "{}: {:?}", net.name, net.defects);
        }
    }

    #[test]
    fn zero_capacitance_extraction_is_flagged() {
        // Explicit ground caps that sum to 0 F, and a header total that
        // the couplings fully consume: nothing left to drive.
        let spef = parse_spef(
            "*C_UNIT 1 FF\n*NAME_MAP\n*1 v\n*2 g\n\
             *D_NET *1 12.0\n\
             *CAP\n1 *1:1 0.0\n2 *1:1 *2:1 12.0\n\
             *RES\n1 *1 *1:1 5.0\n*END\n",
        )
        .unwrap();
        let r = ReducedNet::from_dnet(&spef.nets[0]);
        assert_eq!(r.defects.len(), 1);
        assert!(r.defects[0].contains("zero capacitance"), "{:?}", r.defects);
    }

    #[test]
    fn disconnected_ground_cap_node_is_flagged() {
        // v:9 carries charge but no resistor reaches it from the root.
        let spef = parse_spef(
            "*C_UNIT 1 FF\n*NAME_MAP\n*1 v\n\
             *D_NET *1 30.0\n\
             *CAP\n1 *1:1 10.0\n2 *1:9 20.0\n\
             *RES\n1 *1 *1:1 5.0\n*END\n",
        )
        .unwrap();
        let r = ReducedNet::from_dnet(&spef.nets[0]);
        assert_eq!(r.defects.len(), 1);
        assert!(
            r.defects[0].contains("disconnected node v:9"),
            "{:?}",
            r.defects
        );
    }

    #[test]
    fn lumped_only_sections_skip_the_connectivity_scan() {
        // No *RES section: there is no topology to be disconnected from,
        // so a lone ground cap on a net node is healthy.
        let spef = parse_spef("*C_UNIT 1 FF\n*D_NET n 20.0\n*CAP\n1 n:1 20.0\n*END").unwrap();
        let r = ReducedNet::from_dnet(&spef.nets[0]);
        assert!(r.defects.is_empty(), "{:?}", r.defects);
    }

    #[test]
    fn ports_loads_are_unit_scaled() {
        let spef = parse_spef("*C_UNIT 1 FF\n*PORTS\nout O *L 5.2").unwrap();
        assert!((spef.ports[0].load.unwrap() - 5.2e-15).abs() < 1e-27);
    }

    #[test]
    fn line_spec_reflects_totals() {
        let reduced = reduce_spef(&spef());
        let line = reduced[0].to_line_spec().unwrap();
        assert!((line.r_total - 17.0).abs() < 1e-12);
        assert!((line.c_total - 20e-15).abs() < 1e-28);
        assert_eq!(line.segments, 2);
    }
}
