//! Pre-flight static design linter (`nsta-lint`).
//!
//! The noise-aware STA flow silently assumes well-formed inputs: every
//! victim has parasitics, every endpoint a constraint, every coupling cap
//! a known aggressor. PR 7's fault-tolerance layer recovers when that
//! assumption breaks *mid-solve*; this crate catches the same class of
//! defect *statically, before any solve runs* — the correctness-tooling
//! counterpart to runtime fault isolation.
//!
//! The linter performs semantic analysis over the fully bound design —
//! Verilog netlist + SPEF parasitics + SDC constraints + timing graph —
//! and reports structured [`LintDiagnostic`]s through a registry of rules
//! (see [`RULES`]) spanning every input layer:
//!
//! | layer    | rules |
//! |----------|-------|
//! | netlist  | undriven net, multi-driven net, floating net |
//! | SPEF     | missing annotation, unknown net, unknown coupling partner, non-positive/NaN R/C, degenerate extraction, duplicate annotation |
//! | SDC      | unknown port, unconstrained endpoint, clock-period sanity |
//!
//! Severity is configurable per rule (allow / warn / deny) via
//! [`LintConfig`], which parses a simple `rule.id = level` file. Reports
//! render both human-readable ([`LintReport::render_human`]) and
//! machine-readable JSON ([`LintReport::to_json`], one object per
//! diagnostic with stable `rule_id`s).
//!
//! The linter is **strictly read-only**: it never mutates the design and
//! never runs a transient solve, so enabling it cannot perturb timing
//! results. Entry points:
//!
//! * [`run_lint`] over a [`LintInput`] bundle,
//! * [`Preflight::preflight`] as an extension method on
//!   [`nsta_sta::Sta`] for incremental (ECO-server) use, or
//! * [`lint_spef_section`] for a single `*D_NET` re-annotation: the SPEF
//!   findings one section replacement adds and withdraws, without
//!   re-linting the rest of the file.

#![forbid(unsafe_code)]

pub mod config;
pub mod diag;
pub mod preflight;
pub mod rules;

pub use config::{LintConfig, LintConfigError};
pub use diag::{LintDiagnostic, LintReport, Severity};
pub use preflight::Preflight;
pub use rules::{
    lint_spef_section, rule, run_lint, LintInput, RuleDescriptor, SectionEdit, SectionLint, RULES,
};
