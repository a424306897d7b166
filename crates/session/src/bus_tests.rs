//! Re-annotation tests on the 8-group benchmark bus: drive overrides
//! surviving a rebind, and the scoped rebind + section preflight against
//! the whole-file path over edits that change the coupling topology.

use super::*;
use nsta_bench::busgen;
use nsta_liberty::characterize::{inverter_family, Options};
use nsta_liberty::Library;
use nsta_parasitics::{CapElem, Conn, ConnDirection, ConnKind, ResElem, SpefNode};
use nsta_spice::Process;
use nsta_sta::{verilog, Constraints};
use std::collections::HashMap;
use std::sync::OnceLock;

const GROUPS: usize = 8;

fn lib() -> &'static Library {
    static LIB: OnceLock<Library> = OnceLock::new();
    LIB.get_or_init(|| {
        inverter_family(
            &Process::c013(),
            &[("INVX1", 1.0), ("INVX4", 4.0)],
            &Options::fast_test(),
        )
        .expect("characterization")
    })
}

fn open_bus() -> TimingSession {
    let design = verilog::parse_design(&busgen::netlist(GROUPS)).expect("netlist");
    let sta = Sta::new(design, lib().clone()).expect("sta");
    let options = SessionOptions {
        si: SiOptions {
            threads: 1,
            ..SiOptions::default()
        },
        audit_every_n: None,
    };
    TimingSession::open(
        sta,
        busgen::spef(GROUPS, 3),
        BindOptions::default(),
        BoundaryConditions::uniform(&Constraints::default()),
        options,
    )
    .expect("session opens")
}

fn spec<'a>(s: &'a TimingSession, net: &str) -> Option<&'a CouplingSpec> {
    let id = s.sta().design().find_net(net)?;
    s.couplings().iter().find(|spec| spec.victim == id)
}

fn section(s: &TimingSession, net: &str) -> DNet {
    s.spef().net(net).expect("section").clone()
}

fn committed(outcome: EditOutcome) -> CommitInfo {
    match outcome {
        EditOutcome::Committed(info) => info,
        other => panic!("expected a commit, got {other:?}"),
    }
}

#[test]
fn drive_resistance_edits_survive_a_reannotation() {
    let mut s = open_bus();
    committed(s.apply(Edit::SetDriveResistance {
        net: "v5".into(),
        ohms: 300.0,
    }));
    // v2's own, unchanged section: nothing but v2's group is reached (its
    // victim cone and its two aggressor chains).
    let dnet = section(&s, "v2");
    let info = committed(s.apply(Edit::ReannotateNet { dnet }));
    assert_eq!(info.dirty_cones, 3);
    assert_eq!(info.specs_resolved, 1);
    assert_eq!(spec(&s, "v5").expect("v5 spec").driver_resistance, 300.0);
    // Re-annotating v5 itself keeps its resistance too.
    let mut dnet = section(&s, "v5");
    for cap in &mut dnet.caps {
        cap.value *= 1.1;
    }
    let info = committed(s.apply(Edit::ReannotateNet { dnet }));
    assert_eq!(info.dirty_cones, 3);
    assert_eq!(spec(&s, "v5").expect("v5 spec").driver_resistance, 300.0);
    let audit = s.audit_now().expect("audit");
    assert_eq!(audit.max_divergence, 0.0);
}

#[test]
fn each_edit_sweeps_only_its_victim_cone_and_changed_boundaries() {
    let mut s = open_bus();
    let mut dnet = section(&s, "v5");
    for cap in &mut dnet.caps {
        cap.value *= 0.9;
    }
    // Every edit's closure is group 5's three cones. A load on the
    // victim's port, a drive edit and a re-annotation sweep the victim
    // cone alone and read both aggressor chains from the retained
    // analysis.
    let victim_edits = [
        Edit::SetLoad {
            port: "y5".into(),
            farads: 20e-15,
        },
        Edit::SetDriveResistance {
            net: "v5".into(),
            ohms: 310.0,
        },
        Edit::ReannotateNet { dnet },
    ];
    for edit in victim_edits {
        let kind = edit.kind();
        let info = committed(s.apply(edit));
        assert_eq!((info.dirty_cones, info.swept_cones), (3, 1), "{kind}");
    }
    // A load on the far chain's port changes that cone's boundary: it is
    // swept beside the victim cone, and the near chain is still read.
    let info = committed(s.apply(Edit::SetLoad {
        port: "w5".into(),
        farads: 30e-15,
    }));
    assert_eq!((info.dirty_cones, info.swept_cones), (3, 2));
    let batch = s
        .sta()
        .analyze_with_crosstalk_windows(s.boundary().clone(), s.couplings(), &s.options.si)
        .expect("batch");
    assert_eq!(s.report(), &batch.report);
    assert_eq!(s.analysis().adjustments, batch.adjustments);
    assert_eq!(s.analysis().pruned, batch.pruned);
}

/// What the whole-file path decides for one re-annotation: rebind the
/// edited file with `bind_couplings` (driver resistances carried over)
/// and lint it with every SPEF and SDC rule.
struct Reference {
    fresh: Vec<LintDiagnostic>,
    baseline: HashSet<Fingerprint>,
    specs: Vec<CouplingSpec>,
    changed: Vec<NetId>,
}

fn reference(s: &TimingSession, dnet: &DNet) -> Reference {
    let design = s.sta().design();
    let mut spef = s.spef().clone();
    spef.replace_net(dnet.clone()).expect("section exists");
    let mut specs = bind_couplings(&spef, design, &BindOptions::default())
        .expect("bind")
        .specs;
    let old: HashMap<NetId, &CouplingSpec> = s.couplings().iter().map(|c| (c.victim, c)).collect();
    for spec in &mut specs {
        if let Some(before) = old.get(&spec.victim) {
            spec.driver_resistance = before.driver_resistance;
        }
    }
    let new: HashMap<NetId, &CouplingSpec> = specs.iter().map(|c| (c.victim, c)).collect();
    let mut changed: Vec<NetId> = old
        .keys()
        .chain(new.keys())
        .filter(|v| old.get(v) != new.get(v))
        .copied()
        .collect();
    changed.sort_unstable();
    changed.dedup();
    let mut config = LintConfig::new();
    for rule in RULES.iter().filter(|r| r.id.starts_with("net.")) {
        config.set(rule.id, Severity::Allow);
    }
    let lint = TimingSession::lint(s.sta(), &spef, &specs, s.boundary(), &config);
    let fresh = lint
        .diagnostics
        .iter()
        .filter(|d| !s.lint_baseline.contains(&(d.rule_id, d.subject.clone())))
        .filter(|d| d.severity == Severity::Deny || REJECT_RULES.contains(&d.rule_id))
        .cloned()
        .collect();
    let baseline = s
        .lint_baseline
        .iter()
        .filter(|(rule, _)| rule.starts_with("net."))
        .cloned()
        .chain(TimingSession::fingerprints(&lint.diagnostics))
        .collect();
    Reference {
        fresh,
        baseline,
        specs,
        changed,
    }
}

fn coupling(id: u64, a: SpefNode, b: SpefNode, value: f64) -> CapElem {
    CapElem {
        id,
        a,
        b: Some(b),
        value,
    }
}

/// Edits that move the coupling topology. A committing edit carries the
/// (`dirty_cones`, `swept_cones`, `specs_resolved`) of its closure over the
/// new topology; `None` marks an edit the preflight refuses.
type TopologyEdit = (&'static str, DNet, Option<(usize, usize, usize)>);

fn topology_edits(s: &TimingSession) -> Vec<TopologyEdit> {
    let mut edits = Vec::new();
    let mut dnet = section(s, "v1");
    dnet.caps.push(coupling(
        6,
        SpefNode::sub("v1", "3"),
        SpefNode::sub("gn2", "1"),
        20e-15,
    ));
    edits.push(("coupling to a new partner", dnet, Some((6, 2, 2))));
    let mut dnet = section(s, "v3");
    dnet.caps.retain(|c| c.id != 5);
    edits.push(("partner dropped", dnet, Some((2, 1, 1))));
    let mut dnet = section(s, "v4");
    dnet.caps.retain(|c| !c.is_coupling());
    // v4's cone holds no victim any more, but its retained states are
    // noisy: it is swept.
    edits.push(("all couplings dropped", dnet, Some((1, 1, 0))));
    let mut dnet = section(s, "v5");
    dnet.caps.push(coupling(
        6,
        SpefNode::sub("v5", "3"),
        SpefNode::sub("f5_1", "1"),
        15e-15,
    ));
    edits.push((
        "coupling to an unannotated design net",
        dnet,
        Some((3, 1, 1)),
    ));
    edits.push((
        "unannotated partner dropped again",
        section(s, "v5"),
        Some((3, 1, 1)),
    ));
    let mut dnet = section(s, "v6");
    dnet.caps.push(CapElem {
        id: 6,
        a: SpefNode::sub("v6", "4"),
        b: None,
        value: 4e-15,
    });
    dnet.ress.push(ResElem {
        id: 4,
        a: SpefNode::sub("v6", "3"),
        b: SpefNode::sub("v6", "4"),
        value: 6.0,
    });
    edits.push(("new internal node", dnet, Some((3, 1, 1))));
    let mut dnet = section(s, "v7");
    dnet.conns.push(Conn {
        kind: ConnKind::Internal,
        node: SpefNode::sub("u7_2", "A"),
        direction: ConnDirection::Input,
        load: Some(3e-15),
        driver_cell: None,
    });
    edits.push(("changed *CONN pin", dnet, Some((3, 1, 1))));
    let mut dnet = section(s, "gn0");
    for cap in &mut dnet.caps {
        cap.value *= 1.2;
    }
    // The edited wire's cone holds no victim and keeps its boundary: only
    // v0's cone is swept.
    edits.push(("aggressor wire re-extracted", dnet, Some((3, 1, 1))));
    let mut dnet = section(s, "gf0");
    dnet.caps.push(coupling(
        4,
        SpefNode::sub("gf0", "2"),
        SpefNode::sub("gn1", "2"),
        30e-15,
    ));
    edits.push(("aggressor wire becomes a victim", dnet, Some((9, 4, 4))));
    let mut dnet = section(s, "v2");
    dnet.caps.push(coupling(
        6,
        SpefNode::sub("v2", "3"),
        SpefNode::sub("ghost", "1"),
        10e-15,
    ));
    edits.push(("coupling to a net the design lacks", dnet, Some((9, 4, 4))));
    let mut dnet = section(s, "v0");
    dnet.caps.push(CapElem {
        id: 6,
        a: SpefNode::sub("v0", "9"),
        b: None,
        value: 5e-15,
    });
    edits.push(("disconnected ground-cap node", dnet, None));
    let mut dnet = section(s, "v0");
    dnet.ress[1].value = 0.0;
    edits.push(("zero resistance", dnet, None));
    edits
}

#[test]
fn scoped_reannotation_matches_the_whole_file_path() {
    let mut s = open_bus();
    for (net, ohms) in [("v1", 300.0), ("v3", 150.0), ("v5", 260.0)] {
        committed(s.apply(Edit::SetDriveResistance {
            net: net.into(),
            ohms,
        }));
    }
    let mut journal = s.journal();
    for (what, dnet, closure) in topology_edits(&s) {
        let commits = closure.is_some();
        let want = reference(&s, &dnet);
        let edited = s.sta().design().find_net(&dnet.name).expect("design net");
        let candidate = s
            .build_candidate(Edit::ReannotateNet { dnet: dnet.clone() })
            .unwrap_or_else(|o| panic!("{what}: candidate refused: {o:?}"));
        assert_eq!(&candidate.specs[..], &want.specs[..], "{what}: specs");
        let mut seeds = want.changed.clone();
        seeds.push(edited);
        assert_eq!(candidate.seeds, seeds, "{what}: changed victims");
        match s.preflight(&candidate) {
            Ok(delta) => {
                assert!(commits, "{what}: preflight passed");
                assert!(want.fresh.is_empty(), "{what}: {:?}", want.fresh);
                let mut next = s.lint_baseline.clone();
                for fingerprint in &delta.retired {
                    next.remove(fingerprint);
                }
                next.extend(delta.added);
                assert_eq!(next, want.baseline, "{what}: next lint baseline");
            }
            Err(EditOutcome::Rejected { diagnostics, .. }) => {
                assert!(!commits, "{what}: preflight refused");
                assert_eq!(diagnostics, want.fresh, "{what}: fresh diagnostics");
            }
            Err(other) => panic!("{what}: {other:?}"),
        }
        drop(candidate);
        let edit = Edit::ReannotateNet { dnet };
        let outcome = s.apply(edit.clone());
        assert_eq!(outcome.is_committed(), commits, "{what}: {outcome:?}");
        if let Some(closure) = closure {
            // The closure follows the new topology: no cone more or less.
            let info = committed(outcome);
            let resolved = (info.dirty_cones, info.swept_cones, info.specs_resolved);
            assert_eq!(resolved, closure, "{what}: dirty cones, swept, specs");
            journal.push(edit);
            assert_eq!(s.couplings(), &want.specs[..], "{what}: committed specs");
            assert_eq!(s.lint_baseline, want.baseline, "{what}: committed baseline");
            let audit = s.audit_now().unwrap_or_else(|f| panic!("{what}: {f}"));
            assert_eq!(audit.max_divergence, 0.0, "{what}");
        }
    }
    // The topology moved: v1 now couples into group 2, v4 and v3's far
    // aggressor left, gf0 became a victim.
    assert!(spec(&s, "v4").is_none());
    assert!(spec(&s, "gf0").is_some());
    assert_eq!(spec(&s, "v1").expect("v1").aggressors.len(), 3);
    assert!(s
        .lint_baseline
        .contains(&("spef.unknown-coupling-net", "v2:6".to_string())));
    // The compact journal decodes to exactly the committed edits, and
    // replaying them reproduces the session bit for bit.
    assert_eq!(s.journal(), journal);
    let replayed = s.replay().expect("replay");
    assert_eq!(replayed.report(), s.report());
    assert_eq!(replayed.couplings(), s.couplings());
    assert_eq!(replayed.journal(), journal);
}
