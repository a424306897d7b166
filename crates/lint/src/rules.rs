//! The rule registry and rule implementations.
//!
//! Each rule has a stable id (`layer.name`), a default severity, and an
//! implementation that inspects the bound design **read-only** — no rule
//! runs a transient solve or mutates anything, so linting cannot perturb
//! timing results. Rules are evaluated in registry order and emit
//! findings in deterministic (creation/file) order, so reports are
//! bit-stable run to run.

use std::collections::{BTreeMap, BTreeSet};

use nsta_constraints::{SdcCommand, SdcFile};
use nsta_liberty::{Direction, Library};
use nsta_parasitics::{reduce_spef, DNet, ReducedNet, SpefFile};
use nsta_sta::{BoundaryConditions, CouplingSpec, Design, Edge, NetId, TimingGraph};

use crate::config::LintConfig;
use crate::diag::{LintDiagnostic, LintReport, Severity};

/// A registered rule: stable id, default severity, and catalog summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleDescriptor {
    /// Stable identifier, `layer.name` (never renamed once released).
    pub id: &'static str,
    /// Severity when no config override applies.
    pub default_severity: Severity,
    /// One-line catalog description of what the rule catches.
    pub summary: &'static str,
    /// Observability counter bumped once per finding.
    pub counter: &'static str,
}

/// The full rule registry, in evaluation order.
pub const RULES: &[RuleDescriptor] = &[
    RuleDescriptor {
        id: "net.undriven",
        default_severity: Severity::Deny,
        summary: "a net is read by pins or ports but nothing drives it",
        counter: "lint.rule.net.undriven",
    },
    RuleDescriptor {
        id: "net.multi-driven",
        default_severity: Severity::Deny,
        summary: "a net has more than one driver (short between outputs)",
        counter: "lint.rule.net.multi-driven",
    },
    RuleDescriptor {
        id: "net.floating",
        default_severity: Severity::Warn,
        summary: "an internal net has no fanout: nothing reads it",
        counter: "lint.rule.net.floating",
    },
    RuleDescriptor {
        id: "spef.unknown-net",
        default_severity: Severity::Warn,
        summary: "a SPEF D_NET annotates a net that is not in the design",
        counter: "lint.rule.spef.unknown-net",
    },
    RuleDescriptor {
        id: "spef.unknown-coupling-net",
        default_severity: Severity::Warn,
        summary: "a coupling cap references a net unknown to the design",
        counter: "lint.rule.spef.unknown-coupling-net",
    },
    RuleDescriptor {
        id: "spef.missing-annotation",
        default_severity: Severity::Warn,
        summary: "a design net participates in coupling but has no D_NET",
        counter: "lint.rule.spef.missing-annotation",
    },
    RuleDescriptor {
        id: "spef.nonpositive-rc",
        default_severity: Severity::Deny,
        summary: "an R or C element is zero, negative, or NaN",
        counter: "lint.rule.spef.nonpositive-rc",
    },
    RuleDescriptor {
        id: "spef.degenerate-extraction",
        default_severity: Severity::Deny,
        summary: "an extracted net is electrically degenerate (zero cap, disconnected node)",
        counter: "lint.rule.spef.degenerate-extraction",
    },
    RuleDescriptor {
        id: "spef.duplicate-annotation",
        default_severity: Severity::Deny,
        summary: "one net carries more than one D_NET section",
        counter: "lint.rule.spef.duplicate-annotation",
    },
    RuleDescriptor {
        id: "sdc.unknown-port",
        default_severity: Severity::Deny,
        summary: "an SDC command references a nonexistent or wrong-direction port",
        counter: "lint.rule.sdc.unknown-port",
    },
    RuleDescriptor {
        id: "sdc.unconstrained-endpoint",
        default_severity: Severity::Warn,
        summary: "a primary output has no required time and is never checked",
        counter: "lint.rule.sdc.unconstrained-endpoint",
    },
    RuleDescriptor {
        id: "sdc.clock-period",
        default_severity: Severity::Warn,
        summary: "the clock period is shorter than the fastest-corner longest path",
        counter: "lint.rule.sdc.clock-period",
    },
];

/// Looks a rule up by its stable id.
pub fn rule(id: &str) -> Option<&'static RuleDescriptor> {
    RULES.iter().find(|r| r.id == id)
}

/// Everything the linter inspects, borrowed read-only from the caller.
///
/// `spef` and `sdc` are optional: flows that bind couplings or
/// constraints programmatically still get the netlist-, coupling- and
/// boundary-level rules; the file-level rules simply do not fire.
#[derive(Clone, Copy)]
pub struct LintInput<'a> {
    /// The gate-level netlist.
    pub design: &'a Design,
    /// The cell library (pin directions, timing tables).
    pub library: &'a Library,
    /// Bound coupling specs (used for context in SPEF-level rules).
    pub couplings: &'a [CouplingSpec],
    /// Resolved per-pin boundary conditions.
    pub boundary: &'a BoundaryConditions,
    /// The parsed SPEF file, when the flow reads one.
    pub spef: Option<&'a SpefFile>,
    /// The parsed SDC file, when the flow reads one.
    pub sdc: Option<&'a SdcFile>,
}

/// One rule finding before it is stamped with its id and severity.
struct Finding {
    subject: String,
    message: String,
    suggestion: String,
}

impl Finding {
    fn new(
        subject: impl Into<String>,
        message: impl Into<String>,
        suggestion: impl Into<String>,
    ) -> Self {
        Finding {
            subject: subject.into(),
            message: message.into(),
            suggestion: suggestion.into(),
        }
    }
}

/// Driver/reader census of every net, shared by the netlist rules.
struct NetRoles {
    /// Driver labels per net: `inst/PIN` for cell outputs, plus a marker
    /// for primary inputs.
    drivers: BTreeMap<NetId, Vec<String>>,
    /// Count of reading connections (cell input pins + primary outputs).
    readers: BTreeMap<NetId, usize>,
}

impl NetRoles {
    fn build(design: &Design, library: &Library) -> Self {
        let mut drivers: BTreeMap<NetId, Vec<String>> =
            design.nets().map(|n| (n, Vec::new())).collect();
        let mut readers: BTreeMap<NetId, usize> = design.nets().map(|n| (n, 0)).collect();
        for inst in design.instances() {
            let Some(cell) = library.cell(&inst.cell) else {
                // Unknown cells are a binding error the graph build reports;
                // the census cannot judge their pins.
                continue;
            };
            for (pin, net) in &inst.connections {
                match cell.pin(pin).map(|p| p.direction) {
                    Some(Direction::Output) => {
                        if let Some(d) = drivers.get_mut(net) {
                            d.push(format!("{}/{}", inst.name, pin));
                        }
                    }
                    Some(Direction::Input) => {
                        if let Some(r) = readers.get_mut(net) {
                            *r += 1;
                        }
                    }
                    None => {}
                }
            }
        }
        for &input in design.inputs() {
            if let Some(d) = drivers.get_mut(&input) {
                d.push("primary input port".into());
            }
        }
        for &output in design.outputs() {
            if let Some(r) = readers.get_mut(&output) {
                *r += 1;
            }
        }
        NetRoles { drivers, readers }
    }

    fn driver_count(&self, net: NetId) -> usize {
        self.drivers.get(&net).map_or(0, Vec::len)
    }

    fn reader_count(&self, net: NetId) -> usize {
        self.readers.get(&net).copied().unwrap_or(0)
    }
}

/// Runs every configured rule over `input` and collects the report.
///
/// Rules configured [`Severity::Allow`] are skipped entirely (and not
/// counted in [`LintReport::rules_run`]). The run is wrapped in a
/// `lint.run` observability span, and each finding bumps its rule's
/// `lint.rule.<id>` counter.
pub fn run_lint(input: &LintInput<'_>, config: &LintConfig) -> LintReport {
    let mut span = nsta_obs::recorder().span_cat("lint", "lint.run");
    // Pin-role extraction walks every instance against the library; skip
    // it when every design-structure rule is configured `Allow` (e.g. a
    // session's per-edit preflight, where the netlist is immutable).
    let needs_roles = RULES.iter().any(|d| {
        matches!(d.id, "net.undriven" | "net.multi-driven" | "net.floating")
            && config.severity_for(d) != Severity::Allow
    });
    let roles = needs_roles.then(|| NetRoles::build(input.design, input.library));
    let roles = roles.as_ref();

    let mut report = LintReport::default();
    for descriptor in RULES {
        let severity = config.severity_for(descriptor);
        if severity == Severity::Allow {
            continue;
        }
        report.rules_run += 1;
        let findings = match descriptor.id {
            // The design rules only run when `needs_roles` held, so
            // `roles` is always `Some` here; `map` keeps that local.
            "net.undriven" => roles
                .map(|r| rule_undriven(input.design, r))
                .unwrap_or_default(),
            "net.multi-driven" => roles
                .map(|r| rule_multi_driven(input.design, r))
                .unwrap_or_default(),
            "net.floating" => roles
                .map(|r| rule_floating(input.design, r))
                .unwrap_or_default(),
            "spef.unknown-net" => rule_spef_unknown_net(input),
            "spef.unknown-coupling-net" => rule_spef_unknown_coupling_net(input),
            "spef.missing-annotation" => rule_spef_missing_annotation(input),
            "spef.nonpositive-rc" => rule_spef_nonpositive_rc(input),
            "spef.degenerate-extraction" => rule_spef_degenerate(input),
            "spef.duplicate-annotation" => rule_spef_duplicate(input),
            "sdc.unknown-port" => rule_sdc_unknown_port(input),
            "sdc.unconstrained-endpoint" => rule_unconstrained_endpoint(input),
            "sdc.clock-period" => rule_clock_period(input),
            _ => Vec::new(),
        };
        stamp(descriptor, severity, findings, &mut report.diagnostics);
    }
    span.set_arg("rules_run", report.rules_run as f64);
    span.set_arg("diagnostics", report.diagnostics.len() as f64);
    nsta_obs::count!("lint.diagnostics", report.diagnostics.len() as u64);
    report
}

/// Stamps one rule's findings with its id and severity into `out`,
/// bumping the rule's counter.
fn stamp(
    descriptor: &RuleDescriptor,
    severity: Severity,
    findings: Vec<Finding>,
    out: &mut Vec<LintDiagnostic>,
) {
    if !findings.is_empty() {
        nsta_obs::recorder().add(descriptor.counter, findings.len() as u64);
    }
    out.extend(findings.into_iter().map(|f| LintDiagnostic {
        rule_id: descriptor.id,
        severity,
        subject: f.subject,
        message: f.message,
        suggestion: f.suggestion,
    }));
}

/// One `*D_NET` replacement, as the section-scoped SPEF preflight
/// ([`lint_spef_section`]) sees it.
#[derive(Clone, Copy)]
pub struct SectionEdit<'a> {
    /// The design the file annotates.
    pub design: &'a Design,
    /// The file before the edit; `old` is one of its sections.
    pub spef: &'a SpefFile,
    /// The section being replaced.
    pub old: &'a DNet,
    /// Its replacement, under the same net name.
    pub new: &'a DNet,
    /// The replacement's reduction (e.g. `nsta_parasitics::Rebind::reduced`):
    /// `spef.degenerate-extraction` reads its defects instead of reducing
    /// the section again.
    pub reduced: &'a ReducedNet,
}

/// How one section replacement changes a file's SPEF findings; see
/// [`lint_spef_section`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SectionLint {
    /// Findings the edited file has that the replacement brings in, in
    /// registry order, each exactly as [`run_lint`] over the edited file
    /// reports it: every section-local finding of the new section, plus
    /// `spef.missing-annotation` for each unannotated partner it gains.
    pub diagnostics: Vec<LintDiagnostic>,
    /// `(rule id, subject)` fingerprints the replacement withdraws: the
    /// old section's section-local findings, plus `spef.missing-annotation`
    /// for each partner it loses that no other section still names.
    pub retired: Vec<(&'static str, String)>,
}

/// The section-scoped SPEF preflight of a single-net re-annotation.
///
/// If `F` is the fingerprint set of the file's findings before the edit,
/// `F − retired + fingerprints(diagnostics)` is the edited file's set for
/// every SPEF rule `config` enables. The section-local rules
/// (`spef.unknown-coupling-net`, `spef.nonpositive-rc`,
/// `spef.degenerate-extraction`) run on the two sections alone;
/// `spef.missing-annotation` looks at the rest of the file only for the
/// partners the section gains or loses. `spef.unknown-net` and
/// `spef.duplicate-annotation` are not run: a same-name replacement of a
/// design net's section cannot change their findings.
pub fn lint_spef_section(edit: &SectionEdit<'_>, config: &LintConfig) -> SectionLint {
    let mut span = nsta_obs::recorder().span_cat("lint", "lint.spef_section");
    let name = edit.new.name.as_str();
    let spef = edit.spef;
    let is_old = |net: &DNet| std::ptr::eq(net, edit.old);
    let names =
        |net: &DNet, partner: &str| coupling_partners(edit.design, net).any(|p| p == partner);
    let annotated = |partner: &str| spef.nets.iter().any(|n| n.name == partner);
    let mut lint = SectionLint::default();
    for descriptor in RULES {
        let severity = config.severity_for(descriptor);
        if severity == Severity::Allow {
            continue;
        }
        // The old section's findings of a rule: all withdrawn, since the
        // subjects of a section-local rule name the section's own net.
        let mut old_findings = Vec::new();
        let mut retired = Vec::new();
        let mut findings = Vec::new();
        match descriptor.id {
            "spef.unknown-coupling-net" => {
                unknown_coupling_findings(edit.design, edit.old, &mut old_findings);
                unknown_coupling_findings(edit.design, edit.new, &mut findings);
            }
            "spef.missing-annotation" => {
                let old: BTreeSet<&str> = coupling_partners(edit.design, edit.old).collect();
                let new: BTreeSet<&str> = coupling_partners(edit.design, edit.new).collect();
                for &partner in old.difference(&new) {
                    if !annotated(partner)
                        && !spef.nets.iter().any(|n| !is_old(n) && names(n, partner))
                    {
                        retired.push(partner.to_string());
                    }
                }
                for &partner in new.difference(&old) {
                    if annotated(partner) {
                        continue;
                    }
                    // run_lint names the first section in file order that
                    // couples to the partner.
                    let victim = spef
                        .nets
                        .iter()
                        .take_while(|n| !is_old(n))
                        .find(|n| names(n, partner))
                        .map_or(name, |n| n.name.as_str());
                    findings.push(missing_annotation_finding(partner, victim));
                }
            }
            "spef.nonpositive-rc" => {
                nonpositive_findings(edit.old, &mut old_findings);
                nonpositive_findings(edit.new, &mut findings);
            }
            "spef.degenerate-extraction" => {
                // Withdrawn unconditionally: the subject is the net name,
                // which no other section carries.
                retired.push(name.to_string());
                findings.extend(degenerate_finding(edit.reduced));
            }
            _ => continue,
        }
        retired.extend(old_findings.into_iter().map(|f| f.subject));
        lint.retired
            .extend(retired.into_iter().map(|subject| (descriptor.id, subject)));
        stamp(descriptor, severity, findings, &mut lint.diagnostics);
    }
    span.set_arg("diagnostics", lint.diagnostics.len() as f64);
    lint
}

fn rule_undriven(design: &Design, roles: &NetRoles) -> Vec<Finding> {
    design
        .nets()
        .filter(|&n| roles.driver_count(n) == 0 && roles.reader_count(n) > 0)
        .map(|n| {
            let name = design.net_name(n);
            Finding::new(
                name,
                format!(
                    "net {name} is read by {} connection(s) but has no driver",
                    roles.reader_count(n)
                ),
                "connect a cell output to the net or declare it a primary input",
            )
        })
        .collect()
}

fn rule_multi_driven(design: &Design, roles: &NetRoles) -> Vec<Finding> {
    design
        .nets()
        .filter(|&n| roles.driver_count(n) > 1)
        .map(|n| {
            let name = design.net_name(n);
            let drivers = roles
                .drivers
                .get(&n)
                .map(|d| d.join(", "))
                .unwrap_or_default();
            Finding::new(
                name,
                format!(
                    "net {name} has {} drivers: {drivers}",
                    roles.driver_count(n)
                ),
                "keep exactly one driver per net; split the net or drop the extra output",
            )
        })
        .collect()
}

fn rule_floating(design: &Design, roles: &NetRoles) -> Vec<Finding> {
    design
        .nets()
        .filter(|&n| roles.reader_count(n) == 0)
        .map(|n| {
            let name = design.net_name(n);
            Finding::new(
                name,
                format!("net {name} has no fanout: no input pin or output port reads it"),
                "connect a receiver, mark the net as a primary output, or remove it",
            )
        })
        .collect()
}

fn rule_spef_unknown_net(input: &LintInput<'_>) -> Vec<Finding> {
    let Some(spef) = input.spef else {
        return Vec::new();
    };
    spef.nets
        .iter()
        .filter(|net| input.design.find_net(&net.name).is_none())
        .map(|net| {
            Finding::new(
                net.name.clone(),
                format!(
                    "SPEF annotates net {}, which does not exist in design {}",
                    net.name, input.design.name
                ),
                "re-extract from the current netlist revision or fix the SPEF name map",
            )
        })
        .collect()
}

fn rule_spef_unknown_coupling_net(input: &LintInput<'_>) -> Vec<Finding> {
    let Some(spef) = input.spef else {
        return Vec::new();
    };
    let mut findings = Vec::new();
    for net in &spef.nets {
        unknown_coupling_findings(input.design, net, &mut findings);
    }
    findings
}

/// `spef.unknown-coupling-net` over one section.
fn unknown_coupling_findings(design: &Design, net: &DNet, findings: &mut Vec<Finding>) {
    for cap in net.caps.iter().filter(|c| c.is_coupling()) {
        let Some(partner) = &cap.b else { continue };
        if partner.base != net.name && design.find_net(&partner.base).is_none() {
            findings.push(Finding::new(
                format!("{}:{}", net.name, cap.id),
                format!(
                    "coupling cap {} on net {} references unknown net {}",
                    cap.id, net.name, partner.base
                ),
                "re-extract from the current netlist revision or fix the SPEF name map",
            ));
        }
    }
}

fn rule_spef_missing_annotation(input: &LintInput<'_>) -> Vec<Finding> {
    let Some(spef) = input.spef else {
        return Vec::new();
    };
    let annotated: BTreeSet<&str> = spef.nets.iter().map(|n| n.name.as_str()).collect();
    // Coupling partners that exist in the design but carry no extraction
    // of their own: the analysis falls back to the victim's wire model
    // for them, which hides the aggressor's real drive strength.
    let mut missing: BTreeMap<&str, &str> = BTreeMap::new();
    for net in &spef.nets {
        for base in coupling_partners(input.design, net) {
            if !annotated.contains(base) {
                missing.entry(base).or_insert(net.name.as_str());
            }
        }
    }
    missing
        .into_iter()
        .map(|(partner, victim)| missing_annotation_finding(partner, victim))
        .collect()
}

/// The design nets one section's coupling caps name as partners (the
/// caps' second node), excluding the section's own net.
fn coupling_partners<'a>(design: &'a Design, net: &'a DNet) -> impl Iterator<Item = &'a str> {
    net.caps
        .iter()
        .filter_map(|c| c.b.as_ref())
        .map(|b| b.base.as_str())
        .filter(move |&base| base != net.name && design.find_net(base).is_some())
}

fn missing_annotation_finding(partner: &str, victim: &str) -> Finding {
    Finding::new(
        partner,
        format!("net {partner} is coupled to {victim} but has no D_NET annotation of its own"),
        "extract the aggressor's RC network too; its wire model otherwise \
         falls back to the victim's",
    )
}

fn rule_spef_nonpositive_rc(input: &LintInput<'_>) -> Vec<Finding> {
    let Some(spef) = input.spef else {
        return Vec::new();
    };
    let mut findings = Vec::new();
    for net in &spef.nets {
        nonpositive_findings(net, &mut findings);
    }
    findings
}

/// `spef.nonpositive-rc` over one section.
fn nonpositive_findings(net: &DNet, findings: &mut Vec<Finding>) {
    for cap in &net.caps {
        if !(cap.value > 0.0) {
            findings.push(Finding::new(
                format!("{}:{}", net.name, cap.id),
                format!(
                    "capacitance {} on net {} is {} F (must be positive and finite)",
                    cap.id, net.name, cap.value
                ),
                "fix the extractor output; non-positive or NaN elements have no \
                 physical meaning",
            ));
        }
    }
    for res in &net.ress {
        if !(res.value > 0.0) {
            findings.push(Finding::new(
                format!("{}:{}", net.name, res.id),
                format!(
                    "resistance {} on net {} is {} Ω (must be positive and finite)",
                    res.id, net.name, res.value
                ),
                "fix the extractor output; non-positive or NaN elements have no \
                 physical meaning",
            ));
        }
    }
}

fn rule_spef_degenerate(input: &LintInput<'_>) -> Vec<Finding> {
    let Some(spef) = input.spef else {
        return Vec::new();
    };
    reduce_spef(spef)
        .iter()
        .filter_map(degenerate_finding)
        .collect()
}

/// `spef.degenerate-extraction` over one reduced section.
fn degenerate_finding(net: &ReducedNet) -> Option<Finding> {
    if net.defects.is_empty() {
        return None;
    }
    Some(Finding::new(
        net.name.clone(),
        format!(
            "extraction of net {} is electrically degenerate: {}",
            net.name,
            net.defects.join("; ")
        ),
        "re-extract the net; the solver refuses (or isolates) degenerate \
         meshes at analysis time",
    ))
}

fn rule_spef_duplicate(input: &LintInput<'_>) -> Vec<Finding> {
    let Some(spef) = input.spef else {
        return Vec::new();
    };
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for net in &spef.nets {
        *counts.entry(net.name.as_str()).or_insert(0) += 1;
    }
    counts
        .into_iter()
        .filter(|&(_, k)| k > 1)
        .map(|(name, k)| {
            Finding::new(
                name,
                format!("net {name} has {k} D_NET sections"),
                "merge the sections into one; duplicate annotations make the net's \
                 total parasitics ambiguous",
            )
        })
        .collect()
}

fn rule_sdc_unknown_port(input: &LintInput<'_>) -> Vec<Finding> {
    let Some(sdc) = input.sdc else {
        return Vec::new();
    };
    let design = input.design;
    let mut findings = Vec::new();
    // (keyword, port, expected direction) triples in command order —
    // exactly the references `bind_sdc` would reject.
    let check = |keyword: &str, port: &str, want_input: bool, findings: &mut Vec<Finding>| {
        let direction = if want_input { "input" } else { "output" };
        match design.find_net(port) {
            None => findings.push(Finding::new(
                format!("{keyword} {port}"),
                format!("{keyword} references port {port}, which does not exist in the design"),
                "fix the port name or regenerate the SDC for the current netlist",
            )),
            Some(net) => {
                let ok = if want_input {
                    design.inputs().contains(&net)
                } else {
                    design.outputs().contains(&net)
                };
                if !ok {
                    findings.push(Finding::new(
                        format!("{keyword} {port}"),
                        format!("{keyword} references {port}, which is not a primary {direction}"),
                        "fix the port name or regenerate the SDC for the current netlist",
                    ));
                }
            }
        }
    };
    for command in &sdc.commands {
        let keyword = command.keyword();
        match command {
            SdcCommand::CreateClock(cc) => {
                for port in &cc.ports {
                    check(keyword, port, true, &mut findings);
                }
            }
            SdcCommand::SetInputDelay(pd) => {
                for port in &pd.ports {
                    check(keyword, port, true, &mut findings);
                }
            }
            SdcCommand::SetOutputDelay(pd) => {
                for port in &pd.ports {
                    check(keyword, port, false, &mut findings);
                }
            }
            SdcCommand::SetInputTransition(st) => {
                for port in &st.ports {
                    check(keyword, port, true, &mut findings);
                }
            }
            SdcCommand::SetLoad(sl) => {
                for port in &sl.ports {
                    check(keyword, port, false, &mut findings);
                }
            }
            SdcCommand::SetFalsePath(fp) => {
                for port in &fp.from {
                    check(keyword, port, true, &mut findings);
                }
                for port in &fp.to {
                    check(keyword, port, false, &mut findings);
                }
            }
        }
    }
    findings
}

fn rule_unconstrained_endpoint(input: &LintInput<'_>) -> Vec<Finding> {
    let design = input.design;
    let boundary = input.boundary;
    design
        .outputs()
        .iter()
        .filter(|&&out| {
            boundary.output(out).required.is_infinite()
                // A wildcard-from false path ending here (or covering
                // everything) makes the endpoint unconstrained on purpose.
                && !boundary
                    .false_paths()
                    .iter()
                    .any(|fp| fp.from.is_none() && fp.to.is_none_or(|t| t == out))
        })
        .map(|&out| {
            let name = design.net_name(out);
            Finding::new(
                name,
                format!(
                    "primary output {name} has no required time: paths ending here \
                     are never checked"
                ),
                "add a set_output_delay relative to a clock, or declare \
                 set_false_path -to if the endpoint is intentionally untimed",
            )
        })
        .collect()
}

fn rule_clock_period(input: &LintInput<'_>) -> Vec<Finding> {
    // Clock period: prefer the bound boundary conditions, else the raw
    // SDC (periods there are in ns).
    let period = input.boundary.clock_period().or_else(|| {
        input.sdc.and_then(|sdc| {
            sdc.clocks()
                .map(|cc| cc.period * 1e-9)
                .fold(None, |acc: Option<f64>, p| {
                    Some(acc.map_or(p, |a| a.min(p)))
                })
        })
    });
    let Some(period) = period else {
        return Vec::new();
    };
    if !(period > 0.0) {
        return vec![Finding::new(
            "clock",
            format!("clock period {period} s is not a positive number"),
            "fix the create_clock -period value",
        )];
    }
    // Static longest path under the *fastest* possible gate delays (the
    // smallest slew/load corner of each NLDM table, no wire delay): if
    // even that cannot fit the period, no solve can.
    let Ok(graph) = TimingGraph::build(input.design, input.library) else {
        // Structural problems are the netlist rules' domain.
        return Vec::new();
    };
    let mut arrival: BTreeMap<NetId, f64> = input.design.nets().map(|n| (n, 0.0)).collect();
    let mut worst: Option<(NetId, f64)> = None;
    for &net in graph.topological_order() {
        let mut t = 0.0f64;
        for &edge_index in graph.fanin_edges(net) {
            let edge = &graph.edges()[edge_index];
            let from = arrival.get(&edge.from).copied().unwrap_or(0.0);
            t = t.max(from + min_edge_delay(input, edge));
        }
        arrival.insert(net, t);
        if input.design.outputs().contains(&net) && worst.is_none_or(|(_, w)| t > w) {
            worst = Some((net, t));
        }
    }
    let Some((endpoint, longest)) = worst else {
        return Vec::new();
    };
    if longest <= period {
        return Vec::new();
    }
    vec![Finding::new(
        input.design.net_name(endpoint),
        format!(
            "clock period {:.3} ps is shorter than the fastest-corner longest path \
             {:.3} ps ending at {}",
            period * 1e12,
            longest * 1e12,
            input.design.net_name(endpoint)
        ),
        "increase the clock period or shorten the path; even zero-load gates \
         cannot fit this period",
    )]
}

/// The smallest delay any NLDM corner of this edge's arc can produce.
fn min_edge_delay(input: &LintInput<'_>, edge: &Edge) -> f64 {
    let Some(inst) = input.design.instances().get(edge.instance) else {
        return 0.0;
    };
    let Some(cell) = input.library.cell(&inst.cell) else {
        return 0.0;
    };
    let Some(out) = cell.pin(&edge.output_pin) else {
        return 0.0;
    };
    let arc = out
        .timing
        .iter()
        .find(|a| a.related_pin == edge.input_pin)
        .or_else(|| out.timing.first());
    let Some(arc) = arc else {
        return 0.0;
    };
    let mut best = f64::INFINITY;
    for table in [&arc.cell_rise, &arc.cell_fall] {
        let (Some(&slew), Some(&load)) = (table.slews().first(), table.loads().first()) else {
            continue;
        };
        best = best.min(table.lookup(slew, load));
    }
    if best.is_finite() {
        best.max(0.0)
    } else {
        0.0
    }
}
