//! Binding extracted parasitics onto a timing [`Design`].
//!
//! [`bind_couplings`] matches every reduced SPEF net against the design's
//! nets by name and auto-derives the [`CouplingSpec`]s that
//! `Sta::analyze_with_crosstalk_windows` consumes: the victim's distributed line
//! from its own RC totals, each aggressor's line from *its* extraction, and
//! the per-aggressor coupling totals. This is the glue that makes the flow
//! drivable from a netlist + SPEF pair instead of hand-written specs.

use crate::ast::{Conn, DNet, SpefFile};
use crate::reduce::{pin_owners, pin_owners_of, reduce_spef, ReducedNet};
use crate::SpefError;
use nsta_circuit::RcLineSpec;
use nsta_sta::{CouplingSpec, Design, NetId};
use std::collections::HashMap;

/// Knobs of the SPEF-to-design binder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BindOptions {
    /// Thevenin resistance modeling each driver's output stage (Ω).
    pub driver_resistance: f64,
    /// Couplings weaker than this are dropped as electrically irrelevant
    /// (F). Mirrors the aggressor-filtering thresholds of production SI
    /// flows.
    pub min_coupling: f64,
    /// Aggressor alignment offset forwarded to every generated spec (s).
    pub aggressor_skew: f64,
    /// Whether aggressors switch opposite to the victim (worst case).
    pub aggressors_oppose: bool,
}

impl Default for BindOptions {
    fn default() -> Self {
        BindOptions {
            driver_resistance: 200.0,
            min_coupling: 1e-18,
            aggressor_skew: 0.0,
            aggressors_oppose: true,
        }
    }
}

/// Why a SPEF net or coupling did not produce (part of) a spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DropReason {
    /// The net name does not exist in the design.
    UnknownNet,
    /// The coupling total fell below [`BindOptions::min_coupling`].
    BelowThreshold,
}

/// Result of binding a SPEF file onto a design.
#[derive(Debug, Clone)]
pub struct BoundCouplings {
    /// One spec per victim net that survived matching, in SPEF file order.
    pub specs: Vec<CouplingSpec>,
    /// SPEF victim nets skipped entirely, with the reason.
    pub skipped_victims: Vec<(String, DropReason)>,
    /// `(victim, aggressor)` pairs dropped from otherwise-bound specs.
    pub dropped_aggressors: Vec<(String, String, DropReason)>,
}

impl BoundCouplings {
    /// The spec whose victim is the named design net, if any.
    pub fn spec_for<'a>(&'a self, design: &Design, name: &str) -> Option<&'a CouplingSpec> {
        let id = design.find_net(name)?;
        self.specs.iter().find(|s| s.victim == id)
    }
}

/// Matches reduced SPEF nets to design nets and derives coupling specs.
///
/// Victim candidates are the SPEF nets with at least one coupling
/// capacitance. A candidate binds when its name exists in the design; each
/// of its coupling partners becomes an aggressor when *that* name exists
/// too and the coupling total clears `opts.min_coupling`. Aggressor wires
/// use their own extracted line model when the partner net has a `*D_NET`
/// section, falling back to the victim's line otherwise.
///
/// # Errors
///
/// [`SpefError::Reduction`] when a bound victim's extraction cannot form a
/// valid line model.
pub fn bind_couplings(
    spef: &SpefFile,
    design: &Design,
    opts: &BindOptions,
) -> Result<BoundCouplings, SpefError> {
    let mut span = nsta_obs::span!("parasitics.bind_couplings");
    span.set_arg("nets", spef.nets.len() as f64);
    let reduced = reduce_spef(spef);
    let by_name: HashMap<&str, &ReducedNet> =
        reduced.iter().map(|r| (r.name.as_str(), r)).collect();

    let mut specs = Vec::new();
    let mut skipped_victims = Vec::new();
    let mut dropped_aggressors = Vec::new();

    for net in &reduced {
        if net.couplings.is_empty() {
            continue; // uncoupled nets need no SI treatment
        }
        let Some(victim) = design.find_net(&net.name) else {
            skipped_victims.push((net.name.clone(), DropReason::UnknownNet));
            continue;
        };
        let partner_line = |partner: &str| by_name.get(partner).map(|r| r.to_line_spec());
        match bind_victim(
            net,
            victim,
            design,
            opts,
            partner_line,
            &mut dropped_aggressors,
        )? {
            Some(spec) => specs.push(spec),
            None => skipped_victims.push((net.name.clone(), DropReason::BelowThreshold)),
        }
    }
    Ok(BoundCouplings {
        specs,
        skipped_victims,
        dropped_aggressors,
    })
}

/// Binds one coupled reduced net as the victim `victim`: `None` when no
/// aggressor survives. `partner_line(name)` is a partner's own line model
/// when it has a `*D_NET` section; dropped couplings are appended to
/// `dropped`.
fn bind_victim(
    net: &ReducedNet,
    victim: NetId,
    design: &Design,
    opts: &BindOptions,
    partner_line: impl Fn(&str) -> Option<Result<RcLineSpec, SpefError>>,
    dropped: &mut Vec<(String, String, DropReason)>,
) -> Result<Option<CouplingSpec>, SpefError> {
    let victim_line = net.to_line_spec()?;
    let mut aggressors = Vec::new();
    let mut aggressor_lines = Vec::new();
    let mut cms = Vec::new();
    // Couplings to dropped partners still load the victim: their quiet
    // drivers ground the caps, exactly like window-pruned aggressors in
    // the SI analysis.
    let mut quiet_cm = 0.0;
    for (partner, &cm) in &net.couplings {
        if cm < opts.min_coupling {
            quiet_cm += cm;
            dropped.push((
                net.name.clone(),
                partner.clone(),
                DropReason::BelowThreshold,
            ));
            continue;
        }
        let Some(agg) = design.find_net(partner) else {
            quiet_cm += cm;
            dropped.push((net.name.clone(), partner.clone(), DropReason::UnknownNet));
            continue;
        };
        let line = match partner_line(partner) {
            Some(line) => line?,
            None => victim_line,
        };
        aggressors.push(agg);
        aggressor_lines.push(line);
        cms.push(cm);
    }
    if aggressors.is_empty() {
        return Ok(None);
    }
    let cm_total: f64 = cms.iter().sum();
    let mut spec = CouplingSpec::new(victim, aggressors, cm_total, victim_line);
    // Extraction defects travel with the spec: the SI flow fails or
    // degrades the victim per its fault policy instead of simulating the
    // floored stand-in.
    spec.defect = (!net.defects.is_empty()).then(|| net.defects.join("; "));
    spec.cm_per_aggressor = cms;
    spec.aggressor_lines = aggressor_lines;
    spec.quiet_cm = quiet_cm;
    // The extraction's own receiver pin load, when the *CONN section
    // carried one, overrides the library-derived fanout load.
    if net.pin_load > 0.0 {
        spec.receiver_load = Some(net.pin_load);
    }
    spec.driver_resistance = opts.driver_resistance;
    spec.aggressor_skew = opts.aggressor_skew;
    spec.aggressors_oppose = opts.aggressors_oppose;
    Ok(Some(spec))
}

/// What one `*D_NET` re-annotation does to a bound spec list: the result
/// of [`rebind_net`].
#[derive(Debug, Clone)]
pub struct Rebind {
    /// The spec list of the edited file, in SPEF file order.
    pub specs: Vec<CouplingSpec>,
    /// Victims whose spec changed (field-wise, including a spec the edit
    /// adds or drops), sorted and deduplicated.
    pub changed: Vec<NetId>,
    /// The replacement section's reduction, with pin-anchored coupling
    /// endpoints attributed through the file's `*CONN` entries.
    pub reduced: ReducedNet,
}

/// Re-binds one `*D_NET` re-annotation onto `specs`, the bound spec list
/// of `spef`: the single-net rebind of an incremental ECO flow.
///
/// The result equals [`bind_couplings`] over `spef` with `dnet` replacing
/// its same-named section ([`SpefFile::replace_net`]), except that every
/// spec keeps the `driver_resistance` it has in `specs` (a caller's
/// per-victim overrides survive; a spec the edit adds takes
/// `opts.driver_resistance`). Only the replacement section is reduced.
/// Its own spec is rebuilt from that reduction and one reduction per
/// bound partner's section (for the partner's line model). Every spec that lists the edited net as
/// an aggressor takes its new line. No other spec is touched. When the
/// replacement changes the section's `*CONN` pins (whose owners
/// attribute pin-anchored coupling caps in *other* sections) or the net
/// has more than one section, the whole file is rebound instead.
///
/// # Errors
///
/// [`SpefError::Semantic`] when `spef` has no section named `dnet.name`;
/// [`SpefError::Reduction`] when a rebuilt spec's line model is invalid.
pub fn rebind_net(
    spef: &SpefFile,
    specs: &[CouplingSpec],
    dnet: &DNet,
    design: &Design,
    opts: &BindOptions,
) -> Result<Rebind, SpefError> {
    let mut span = nsta_obs::span!("parasitics.rebind_net");
    let mut sections = spef
        .nets
        .iter()
        .enumerate()
        .filter(|(_, net)| net.name == dnet.name);
    let Some((index, old)) = sections.next() else {
        return Err(SpefError::Semantic(format!(
            "re-annotation names unknown net {:?}",
            dnet.name
        )));
    };
    let pins_moved = !old
        .conns
        .iter()
        .filter_map(pin)
        .eq(dnet.conns.iter().filter_map(pin));
    if sections.next().is_some() || pins_moved {
        span.set_arg("whole_file", 1.0);
        return rebind_file(spef, specs, dnet, design, opts);
    }
    let reduced = ReducedNet::from_dnet_with_pins(dnet, &pin_owners_of(spef, dnet));
    let line = reduced.to_line_spec();
    let mut next = specs.to_vec();
    let mut changed = Vec::new();
    let Some(edited) = design.find_net(&dnet.name) else {
        // Not a design net: it can neither be a victim nor an aggressor.
        return Ok(Rebind {
            specs: next,
            changed,
            reduced,
        });
    };
    // Specs that drive the edited wire as an aggressor take its new line.
    for spec in next
        .iter_mut()
        .filter(|s| s.victim != edited && s.aggressors.contains(&edited))
    {
        let before = spec.clone();
        for (agg, agg_line) in spec.aggressors.iter().zip(&mut spec.aggressor_lines) {
            if *agg == edited {
                *agg_line = line.clone()?;
            }
        }
        if *spec != before {
            changed.push(spec.victim);
        }
    }
    // The edited net's own spec, from the new reduction and its partners'
    // sections (the replacement itself for a self-coupling; otherwise the
    // last section of the name, the one `bind_couplings`' map keeps).
    let partner_line = |partner: &str| {
        if partner == dnet.name {
            Some(line.clone())
        } else {
            spef.nets
                .iter()
                .rev()
                .find(|net| net.name == partner)
                .map(|net| ReducedNet::from_dnet(net).to_line_spec())
        }
    };
    let rebuilt = if reduced.couplings.is_empty() {
        None
    } else {
        bind_victim(
            &reduced,
            edited,
            design,
            opts,
            partner_line,
            &mut Vec::new(),
        )?
    };
    match (next.iter().position(|s| s.victim == edited), rebuilt) {
        (Some(at), Some(mut spec)) => {
            spec.driver_resistance = next[at].driver_resistance;
            if spec != next[at] {
                changed.push(edited);
                next[at] = spec;
            }
        }
        (Some(at), None) => {
            next.remove(at);
            changed.push(edited);
        }
        (None, Some(spec)) => {
            // Specs follow file order: count those whose victim section
            // precedes the edited one.
            let mut at = 0;
            for net in &spef.nets[..index] {
                if next
                    .get(at)
                    .is_some_and(|s| design.find_net(&net.name) == Some(s.victim))
                {
                    at += 1;
                }
            }
            next.insert(at, spec);
            changed.push(edited);
        }
        (None, None) => {}
    }
    changed.sort_unstable();
    changed.dedup();
    span.set_arg("changed", changed.len() as f64);
    Ok(Rebind {
        specs: next,
        changed,
        reduced,
    })
}

/// A `*CONN` entry's key in the file's pin-owner map, if it has one.
fn pin(conn: &Conn) -> Option<(&str, &str)> {
    let tail = conn.node.tail.as_deref()?;
    Some((conn.node.base.as_str(), tail))
}

/// [`rebind_net`]'s whole-file path: binds the edited file from scratch,
/// carries each surviving victim's `driver_resistance` over from `specs`
/// and diffs the two spec lists.
fn rebind_file(
    spef: &SpefFile,
    specs: &[CouplingSpec],
    dnet: &DNet,
    design: &Design,
    opts: &BindOptions,
) -> Result<Rebind, SpefError> {
    let mut file = spef.clone();
    file.replace_net(dnet.clone())?;
    let mut bound = bind_couplings(&file, design, opts)?;
    let old: HashMap<NetId, &CouplingSpec> = specs.iter().map(|s| (s.victim, s)).collect();
    for spec in &mut bound.specs {
        if let Some(before) = old.get(&spec.victim) {
            spec.driver_resistance = before.driver_resistance;
        }
    }
    let new: HashMap<NetId, &CouplingSpec> = bound.specs.iter().map(|s| (s.victim, s)).collect();
    let mut changed: Vec<NetId> = old
        .iter()
        .filter(|(victim, spec)| new.get(victim) != Some(*spec))
        .map(|(&victim, _)| victim)
        .chain(new.keys().filter(|v| !old.contains_key(v)).copied())
        .collect();
    changed.sort_unstable();
    changed.dedup();
    let reduced = ReducedNet::from_dnet_with_pins(dnet, &pin_owners(&file));
    Ok(Rebind {
        specs: bound.specs,
        changed,
        reduced,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_spef;

    fn design() -> Design {
        let mut d = Design::new("m");
        let a = d.net("a");
        let v = d.net("v");
        let g = d.net("g");
        let y = d.net("y");
        d.mark_input(a);
        d.mark_output(y);
        let _ = (v, g);
        d
    }

    fn spef() -> SpefFile {
        parse_spef(
            "*C_UNIT 1 FF\n*R_UNIT 1 OHM\n*NAME_MAP\n*1 v\n*2 g\n*3 phantom\n\
             *D_NET *1 120.0\n\
             *CAP\n1 *1:1 20.0\n2 *1:1 *2:1 60.0\n3 *1:2 *3:1 39.0\n4 *1:2 *2:2 0.0005\n\
             *RES\n1 *1 *1:1 10.0\n2 *1:1 *1:2 10.0\n*END\n\
             *D_NET *2 30.0\n*CAP\n1 *2:1 30.0\n*RES\n1 *2 *2:1 4.0\n*END\n",
        )
        .unwrap()
    }

    #[test]
    fn binds_matching_nets_and_drops_the_rest() {
        let d = design();
        let opts = BindOptions {
            min_coupling: 1e-18,
            ..BindOptions::default()
        };
        let bound = bind_couplings(&spef(), &d, &opts).unwrap();
        assert_eq!(bound.specs.len(), 1);
        let spec = bound.spec_for(&d, "v").unwrap();
        assert_eq!(spec.aggressors, vec![d.find_net("g").unwrap()]);
        // Both v→g couplings summed: 60 fF + 0.0005 fF.
        assert!((spec.cm_per_aggressor[0] - 60.0005e-15).abs() < 1e-24);
        // The phantom partner's 39 fF still loads the victim as quiet
        // grounded capacitance.
        assert!((spec.quiet_cm - 39e-15).abs() < 1e-27);
        // The aggressor's own extraction supplies its line model.
        assert!((spec.aggressor_lines[0].r_total - 4.0).abs() < 1e-12);
        assert!((spec.line.r_total - 20.0).abs() < 1e-12);
        // The phantom partner is reported, not silently ignored.
        assert!(bound
            .dropped_aggressors
            .iter()
            .any(|(v, a, r)| v == "v" && a == "phantom" && *r == DropReason::UnknownNet));
    }

    #[test]
    fn threshold_prunes_weak_couplings() {
        let d = design();
        let opts = BindOptions {
            min_coupling: 70e-15,
            ..BindOptions::default()
        };
        let bound = bind_couplings(&spef(), &d, &opts).unwrap();
        // 60.0005 fF to g falls below 70 fF: no aggressors remain.
        assert!(bound.specs.is_empty());
        assert!(bound
            .skipped_victims
            .iter()
            .any(|(n, r)| n == "v" && *r == DropReason::BelowThreshold));
    }

    #[test]
    fn extraction_defects_ride_on_the_spec() {
        let d = design();
        let spef = parse_spef(
            "*C_UNIT 1 FF\n*NAME_MAP\n*1 v\n*2 g\n\
             *D_NET *1 12.0\n\
             *CAP\n1 *1:1 0.0\n2 *1:1 *2:1 12.0\n\
             *RES\n1 *1 *1:1 5.0\n*END\n\
             *D_NET *2 30.0\n*CAP\n1 *2:1 30.0\n*RES\n1 *2 *2:1 4.0\n*END\n",
        )
        .unwrap();
        let bound = bind_couplings(&spef, &d, &BindOptions::default()).unwrap();
        let spec = bound.spec_for(&d, "v").unwrap();
        let defect = spec.defect.as_deref().unwrap();
        assert!(defect.contains("zero capacitance"), "{defect}");
        // The healthy bound spec for a defect-free victim carries none.
        assert!(bound
            .specs
            .iter()
            .filter(|s| s.victim != spec.victim)
            .all(|s| s.defect.is_none()));
    }

    #[test]
    fn unknown_victims_are_reported() {
        let mut d = Design::new("m");
        d.net("unrelated");
        let bound = bind_couplings(&spef(), &d, &BindOptions::default()).unwrap();
        assert!(bound.specs.is_empty());
        assert!(bound
            .skipped_victims
            .iter()
            .any(|(n, r)| n == "v" && *r == DropReason::UnknownNet));
    }
}
