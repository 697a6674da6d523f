//! Static analysis for McNetKAT: program/model lints and diagram audits.
//!
//! Two cooperating layers (see DESIGN.md § "Static analysis & invariant
//! auditing"):
//!
//! * **Layer 1 — linter** ([`lint_program`], [`lint_model`]): runs over
//!   `core::ast` programs and [`mcnetkat_net::NetworkModel`]s *before*
//!   compilation, reporting [`Diagnostic`]s with stable `NL0xx` codes —
//!   def-use problems, dead tests, topology/scheme inconsistencies,
//!   static mass loss, and guaranteed-divergent loops (the static
//!   counterpart of the loop solver's `Singular` error).
//! * **Layer 2 — diagram auditor** (`Manager::audit()` in
//!   `mcnetkat-fdd`, behind the `audit` cargo feature): walks the live
//!   node and interning tables of a manager, verifying the structural
//!   invariants every compiled diagram rests on. With the feature on, the
//!   fused and parallel compile pipelines self-audit every diagram they
//!   return, including scratch-field freedom.
//!
//! The `netlint` binary runs layer 1 over every shipped example/figure
//! model: `cargo run -p mcnetkat-analysis --bin netlint`.

#![forbid(unsafe_code)]

use std::fmt;

mod lint;
mod model_lint;

pub use lint::{lint_program, LintConfig};
pub use model_lint::{lint_model, lint_switch_program};

/// How bad a finding is. Errors mean the program/model is wrong (a rule
/// can never fire, mass is lost, a loop cannot terminate); warnings flag
/// smells that are occasionally intentional.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Severity {
    /// Suspicious but possibly intentional.
    Warning,
    /// A defect: some declared behaviour is unreachable or unsound.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable lint codes. The numbering is append-only: codes are never
/// renumbered or reused, so they can be referenced in CI logs and docs.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum LintCode {
    /// `NL001`: a non-input field is tested against a nonzero value
    /// before any possible assignment — unset fields read as 0, so the
    /// test cannot hold on entry paths.
    TestBeforeAssign,
    /// `NL002`: a field is written but never tested anywhere — dead
    /// state, or a scratch field that should be declared (and eliminated)
    /// as such.
    WriteOnlyField,
    /// `NL003`: a scratch field (`up_i`/`grp_j`) may leave a hop body
    /// holding a nonzero value, leaking per-hop randomness into the loop
    /// state.
    ScratchEscape,
    /// `NL004`: a test that can never hold — its value lies outside the
    /// field's declared domain (e.g. `sw = n` for a nonexistent switch
    /// `n`), or upstream assignments pin the field to a different
    /// constant.
    DeadTest,
    /// `NL005`: an assignment targets a value outside the field's
    /// declared assignment domain — e.g. a scheme forwarding to a port
    /// the topology does not have on that switch.
    AssignOutOfDomain,
    /// `NL006`: a switch is unreachable from every ingress, so its
    /// forwarding rules can never fire.
    UnreachableSwitch,
    /// `NL007`: a failure-prone link whose effective failure probability
    /// is zero under the spec — it is never actually drawn, which usually
    /// means a forgotten override or a zero-probability group.
    UndrawnLink,
    /// `NL008`: a probabilistic choice branch that statically drops all
    /// mass, making the program sub-stochastic by construction.
    MassLoss,
    /// `NL009`: a `while` loop whose body neither modifies any guard
    /// field nor drops — no transient state can reach an absorbing state,
    /// the static counterpart of the loop solver's `Singular` error.
    DivergentLoop,
}

impl LintCode {
    /// The stable code string (`NL001` … `NL009`).
    pub fn code(self) -> &'static str {
        match self {
            LintCode::TestBeforeAssign => "NL001",
            LintCode::WriteOnlyField => "NL002",
            LintCode::ScratchEscape => "NL003",
            LintCode::DeadTest => "NL004",
            LintCode::AssignOutOfDomain => "NL005",
            LintCode::UnreachableSwitch => "NL006",
            LintCode::UndrawnLink => "NL007",
            LintCode::MassLoss => "NL008",
            LintCode::DivergentLoop => "NL009",
        }
    }

    /// The severity every diagnostic with this code carries.
    pub fn severity(self) -> Severity {
        match self {
            LintCode::TestBeforeAssign
            | LintCode::WriteOnlyField
            | LintCode::UnreachableSwitch
            | LintCode::UndrawnLink
            | LintCode::MassLoss => Severity::Warning,
            LintCode::ScratchEscape
            | LintCode::DeadTest
            | LintCode::AssignOutOfDomain
            | LintCode::DivergentLoop => Severity::Error,
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// One linter finding.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// The stable lint code.
    pub code: LintCode,
    /// Where in the program/model the finding anchors — a breadcrumb
    /// path through the AST (programs carry no source spans).
    pub at: String,
    /// What is wrong, in one sentence.
    pub message: String,
}

impl Diagnostic {
    /// The severity, derived from the code.
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity(),
            self.code,
            self.at,
            self.message
        )
    }
}

/// Everything a lint pass found, in walk order.
#[derive(Clone, Default, Debug)]
pub struct LintReport {
    /// The findings.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// No findings at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// The error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Error)
    }

    /// The warning-severity findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Warning)
    }

    /// The findings carrying `code`.
    pub fn with_code(&self, code: LintCode) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.code == code)
    }

    /// Appends another report's findings.
    pub fn merge(&mut self, other: LintReport) {
        self.diagnostics.extend(other.diagnostics);
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        Ok(())
    }
}
