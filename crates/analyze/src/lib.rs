//! Static verification of a compiled SDX policy, run before any flow rule
//! reaches the fabric.
//!
//! The SDX compiler (§4 of the paper) is trusted to translate faithfully —
//! but a faithful translation of a *defective* policy still installs
//! defective rules. This crate analyzes the compiler's output together with
//! a summary of its input and reports [`Diagnostic`]s from four passes:
//!
//! 1. **Shadow** ([`shadow`]) — participant clauses and compiled rules that
//!    no packet can reach because the *union* of earlier entries covers
//!    them (multi-rule cover, beyond pairwise subsumption).
//! 2. **Conflict / blackhole** ([`conflict`]) — cross-participant
//!    contradictions: A forwards traffic that B's inbound policy drops; A
//!    forwards towards a peer that never advertised a matching prefix (the
//!    paper's BGP-safety invariant, §4.3); traffic steered at a remote
//!    participant that its inbound clauses don't catch.
//! 3. **Loop** ([`loops`]) — cycles in the virtual-switch forwarding graph,
//!    and compiled rules whose egress is an unresolved virtual port.
//! 4. **VNH / ARP** ([`vnh`]) — every VMAC the flow table matches on must
//!    trace back to an allocated virtual next hop (and, when ARP state is
//!    supplied, an ARP binding); allocated VNHs must be distinct.
//!
//! Findings carry provenance (participant, clause, rule index) and, where
//! the defect is about concrete traffic, a **witness packet** constructed by
//! the region analysis in [`sdx_policy::witness_outside`] — a counterexample
//! the packet interpreter can replay.
//!
//! The crate deliberately depends only on `sdx-policy` and `sdx-ip`: the
//! controller (`sdx-core`) converts its richer state into an
//! [`AnalysisInput`] and gates installation on the result.

use std::collections::BTreeSet;
use std::fmt;
use std::net::Ipv4Addr;

use sdx_ip::PrefixSet;
use sdx_policy::{Classifier, Field, Match, Packet};
use serde::{Deserialize, Serialize};

pub mod conflict;
pub mod diff;
pub mod hs;
pub mod loops;
pub mod reach;
pub mod shadow;
pub mod vnh;

pub use diff::{DiffReport, DiffSide};
pub use reach::{
    EmissionKey, FibEntry, FibModel, GroupBinding, ReachReport, ReachTimes, VerifyInput,
};

/// When the controller runs the analyzer, and what it does with errors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum AnalysisMode {
    /// Do not analyze (the default; compilation benchmarks measure the
    /// compiler alone).
    #[default]
    Off,
    /// Analyze and record diagnostics, but always install.
    Warn,
    /// Analyze and refuse to install if any [`Severity::Error`] is found.
    Deny,
}

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but not traffic-harming (e.g. a redundant compiled rule).
    Warning,
    /// A policy defect: dead policy, dropped traffic, or inconsistent
    /// forwarding state. Blocks installation in [`AnalysisMode::Deny`].
    Error,
}

/// Which pass produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassKind {
    /// Reachability / shadow analysis.
    Shadow,
    /// Cross-participant conflict and blackhole detection.
    Conflict,
    /// Forwarding-loop detection.
    Loop,
    /// VNH / ARP consistency.
    Vnh,
    /// Whole-fabric BGP consistency / isolation (symbolic reachability).
    Isolation,
    /// Whole-fabric cross-stage blackhole detection (symbolic reachability).
    Blackhole,
    /// Whole-fabric VNH / FIB tag integrity.
    VnhIntegrity,
    /// Differential equivalence of an incremental recompile against a
    /// from-scratch compile.
    Differential,
    /// Update-plan safety: intermediate-state checking of rule-level install
    /// orderings (the `sdx-plan` gate).
    Plan,
}

impl fmt::Display for PassKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PassKind::Shadow => write!(f, "shadow"),
            PassKind::Conflict => write!(f, "conflict"),
            PassKind::Loop => write!(f, "loop"),
            PassKind::Vnh => write!(f, "vnh"),
            PassKind::Isolation => write!(f, "isolation"),
            PassKind::Blackhole => write!(f, "blackhole"),
            PassKind::VnhIntegrity => write!(f, "vnh-integrity"),
            PassKind::Differential => write!(f, "differential"),
            PassKind::Plan => write!(f, "plan"),
        }
    }
}

/// Whether a clause is outbound or inbound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Applied where the participant's traffic enters the fabric.
    Outbound,
    /// Applied at the participant's virtual port.
    Inbound,
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Direction::Outbound => write!(f, "outbound"),
            Direction::Inbound => write!(f, "inbound"),
        }
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// How bad it is.
    pub severity: Severity,
    /// The pass that found it.
    pub pass: PassKind,
    /// Stable machine-readable code, e.g. `"shadowed-clause"`.
    pub code: &'static str,
    /// Human-readable description.
    pub message: String,
    /// The participant the finding is about, if any.
    pub participant: Option<u32>,
    /// The clause it is anchored to (direction, index), if any.
    pub clause: Option<(Direction, usize)>,
    /// A concrete packet demonstrating the defect, if the finding is about
    /// traffic (replayable through the packet interpreter).
    pub witness: Option<Packet>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            Severity::Warning => "warning",
            Severity::Error => "error",
        };
        write!(f, "{sev}[{}/{}]", self.pass, self.code)?;
        if let Some(p) = self.participant {
            write!(f, " P{p}")?;
        }
        if let Some((dir, i)) = self.clause {
            write!(f, " {dir} clause {i}")?;
        }
        write!(f, ": {}", self.message)?;
        if let Some(w) = &self.witness {
            write!(f, " (witness: {w})")?;
        }
        Ok(())
    }
}

/// The analyzer's verdict: every finding, in pass order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Analysis {
    /// All findings.
    pub diagnostics: Vec<Diagnostic>,
}

impl Analysis {
    /// Number of [`Severity::Error`] findings.
    pub fn errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of [`Severity::Warning`] findings.
    pub fn warnings(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// Any install-blocking findings?
    pub fn has_errors(&self) -> bool {
        self.errors() > 0
    }

    /// Findings with a given code (test and tooling convenience).
    pub fn with_code<'a>(&'a self, code: &'a str) -> impl Iterator<Item = &'a Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.code == code)
    }

    /// Rendered messages of the error-severity findings.
    pub fn error_messages(&self) -> Vec<String> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .map(|d| d.to_string())
            .collect()
    }
}

/// Apply the install gate: `Err` with the rendered error findings when
/// `mode` is [`AnalysisMode::Deny`] and the analysis found errors.
pub fn gate(mode: AnalysisMode, analysis: &Analysis) -> Result<(), Vec<String>> {
    if mode == AnalysisMode::Deny && analysis.has_errors() {
        return Err(analysis.error_messages());
    }
    Ok(())
}

/// Where a clause sends matching traffic (mirror of the controller's
/// `Dest`, kept here so the analyzer does not depend on `sdx-core`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClauseDest {
    /// To another participant's virtual switch.
    Participant(u32),
    /// To one of the author's own physical ports.
    OwnPort(u32),
    /// Dropped.
    Drop,
    /// Resolved against BGP at compile time.
    BgpDefault,
}

/// A participant clause, reduced to what the passes need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClauseInfo {
    /// The pass-matches of the clause's compiled predicate (its traffic
    /// region as a union of cubes; empty for a `False` predicate).
    pub matches: Vec<Match>,
    /// Where matching traffic goes.
    pub dest: ClauseDest,
    /// Field rewrites the clause applies, in order.
    pub rewrites: Vec<(Field, u64)>,
    /// Whether the clause bypasses the BGP-consistency filter.
    pub unfiltered: bool,
    /// For a BGP-filtered outbound clause towards a participant, its
    /// effective set: the in-scope prefixes the target exports to the
    /// author. The clause catches only traffic towards these; the rest
    /// falls through to later clauses. `None` when no filter applies (drop,
    /// own port, BGP default, unfiltered, inbound).
    pub effective: Option<PrefixSet>,
}

/// A participant, reduced to what the passes need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParticipantInfo {
    /// Participant number (the controller's `ParticipantId`).
    pub id: u32,
    /// Its virtual port in the fabric's port namespace.
    pub vport: u32,
    /// Its physical fabric ports (empty for remote participants).
    pub ports: Vec<u32>,
    /// Its border routers' interface MACs, as raw 48-bit values.
    pub router_macs: Vec<u64>,
    /// Its outbound clauses, in priority order.
    pub outbound: Vec<ClauseInfo>,
    /// Its inbound clauses, in priority order.
    pub inbound: Vec<ClauseInfo>,
}

impl ParticipantInfo {
    /// Does the participant have a physical presence at the exchange?
    pub fn is_physical(&self) -> bool {
        !self.ports.is_empty()
    }
}

/// Everything the analyzer reads: compiled tables plus a summary of the
/// compiler's input. The controller builds this from its `Compilation`.
#[derive(Debug, Clone, Default)]
pub struct AnalysisInput {
    /// All participants.
    pub participants: Vec<ParticipantInfo>,
    /// The composed single-table fabric (ignored when `multi_table`).
    pub fabric: Classifier,
    /// The sender stage.
    pub stage1: Classifier,
    /// The receiver stage.
    pub stage2: Classifier,
    /// Allocated virtual next hops: (VNH IP, VMAC as a raw 48-bit value),
    /// parallel to the compiler's FEC groups.
    pub vnh: Vec<(Ipv4Addr, u64)>,
    /// IPs the ARP responder answers for, when known. `None` skips the ARP
    /// binding check (e.g. when analyzing before installation).
    pub arp_bound: Option<BTreeSet<Ipv4Addr>>,
    /// First port number of the virtual-port namespace.
    pub vport_base: u32,
    /// Compiled for a two-table pipeline (no composed fabric)?
    pub multi_table: bool,
}

impl AnalysisInput {
    /// The participant with the given id.
    pub fn participant(&self, id: u32) -> Option<&ParticipantInfo> {
        self.participants.iter().find(|p| p.id == id)
    }

    /// Is `port` in the virtual-port namespace?
    pub fn is_vport(&self, port: u64) -> bool {
        port >= self.vport_base as u64
    }
}

/// Run all four passes.
pub fn analyze(input: &AnalysisInput) -> Analysis {
    let mut analysis = Analysis::default();
    shadow::run(input, &mut analysis.diagnostics);
    conflict::run(input, &mut analysis.diagnostics);
    loops::run(input, &mut analysis.diagnostics);
    vnh::run(input, &mut analysis.diagnostics);
    analysis
}
