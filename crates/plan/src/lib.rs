//! Static update-plan safety analysis for the SDX.
//!
//! A churn-driven recompile replaces the fabric's flow tables. Installing
//! the new tables rule-by-rule walks through intermediate states, and an
//! unlucky interleaving can transiently blackhole traffic or leak it to a
//! participant that never advertised the destination — even when both the
//! old and the new state are individually safe. This crate closes that
//! window *statically*, before any rule moves:
//!
//! 1. [`delta`] computes the rule-level difference between the two states
//!    (install/remove steps against the live tuple-space-indexed tables,
//!    not a wholesale rebuild);
//! 2. [`check`] judges any intermediate state against the header-space
//!    invariants (isolation, blackhole-freedom, per-packet consistency),
//!    reusing the [`sdx_analyze::hs`] engine incrementally — a step pinned
//!    to one VMAC tag only re-verifies that tag's injections;
//! 3. [`search`] synthesizes a safe *ordering* of the steps by
//!    verifier-guided depth-first search with backtracking, falling back
//!    to a per-packet-consistent two-phase (install / barrier / drain)
//!    plan when no safe single-phase ordering exists.
//!
//! The controller (`sdx-core`) runs [`plan`] as its third compile gate and
//! applies the synthesized schedule to the live tables; `sdx-lint --plan`
//! surfaces the naive-ordering violations with named step-and-witness
//! evidence.

use std::time::Instant;

use sdx_analyze::{Diagnostic, PassKind, Severity, VerifyInput};

pub mod check;
pub mod delta;
pub mod incremental;
pub mod search;

pub use check::{Checker, Phase, Violation, ViolationKind};
pub use delta::{
    classifier_of, diff, state_of_classifier, state_of_cookie, state_of_table, DeltaOp, PlanRule,
    PlanStep, TableState,
};
pub use incremental::{DeltaEvent, DeltaReport, DeltaVerdict, EmissionKey, IncrementalChecker};
pub use search::{judge_order, make_before_break, synthesize, Schedule, SearchResult};

/// Default DFS node budget: far above what SDX churn deltas need, low
/// enough that a pathological delta falls back to two-phase promptly.
pub const DEFAULT_SEARCH_BUDGET: usize = 20_000;

/// Cap on recorded naive-ordering violations. The naive judgement is
/// evidence that ordering matters, never a gate — at workload scale a bad
/// ordering can flag tens of thousands of (injection, step) pairs, and
/// rendering them all as diagnostics would dwarf the compile itself. Once
/// the cap is hit the judgement stops early.
pub const MAX_NAIVE_VIOLATIONS: usize = 256;

/// Everything the planner reads.
pub struct PlanInput<'a> {
    /// The installed (pre-update) tables, rule content per table.
    pub old_state: Vec<TableState>,
    /// The target (post-update) tables.
    pub new_state: Vec<TableState>,
    /// Verifier view of the old fabric (tables + FIBs + ground truth).
    pub old_verify: &'a VerifyInput,
    /// Verifier view of the new fabric.
    pub new_verify: &'a VerifyInput,
    /// DFS node budget ([`DEFAULT_SEARCH_BUDGET`] when in doubt).
    pub budget: usize,
}

/// Wall-clock breakdown of one planning run, microseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanTimes {
    /// Computing the rule-level delta.
    pub delta_us: u128,
    /// Judging the naive install-stream ordering.
    pub naive_us: u128,
    /// Ordering search plus fallback (includes its checking).
    pub search_us: u128,
}

/// The planner's verdict.
#[derive(Debug)]
pub struct PlanReport {
    /// The rule-level delta in naive install-stream order (removals then
    /// installs per table — what a differ would emit).
    pub steps: Vec<PlanStep>,
    /// The synthesized safe schedule, when one exists.
    pub schedule: Option<Schedule>,
    /// Violations of the *naive* ordering (evidence that ordering matters;
    /// never blocks installation).
    pub naive_violations: Vec<Violation>,
    /// Violations that doomed the fallback when no safe schedule exists.
    pub violations: Vec<Violation>,
    /// Search nodes expanded (intermediate states checked).
    pub explored: usize,
    /// Microseconds spent in intermediate-state checking during synthesis.
    pub check_us: u128,
    /// Per-step check cost of the synthesized schedule, µs (averaged).
    pub per_step_check_us: u128,
    /// Stage timing.
    pub times: PlanTimes,
}

impl PlanReport {
    /// Does a safe schedule exist?
    pub fn safe(&self) -> bool {
        self.schedule.is_some()
    }

    /// Was the two-phase fallback needed?
    pub fn two_phase(&self) -> bool {
        self.schedule.as_ref().map(|s| s.two_phase).unwrap_or(false)
    }

    /// Render the report as analyzer diagnostics:
    ///
    /// * `plan-naive-*` (**error**): the naive install-stream ordering
    ///   traverses an unsafe intermediate state — step index and witness
    ///   packet attached. Evidence, not a gate: a safe schedule may and
    ///   usually does exist.
    /// * `plan-ordered` / `plan-two-phase` (**warning**): summary of the
    ///   synthesized schedule.
    /// * `plan-unsafe` (**error**): no per-packet-consistent schedule
    ///   exists at rule granularity; violations of the best fallback
    ///   attached. This is the finding the `Deny` gate blocks on.
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for v in &self.naive_violations {
            out.push(Diagnostic {
                severity: Severity::Error,
                pass: PassKind::Plan,
                code: match v.kind {
                    ViolationKind::Blackhole => "plan-naive-blackhole",
                    ViolationKind::IsolationLeak => "plan-naive-leak",
                    ViolationKind::Inconsistent => "plan-naive-inconsistent",
                    ViolationKind::Undecided => "plan-naive-undecided",
                },
                message: format!(
                    "naive ordering unsafe after step {} ({}): {}",
                    v.step, v.step_desc, v.message
                ),
                participant: Some(v.sender),
                clause: None,
                witness: v.witness.clone(),
            });
        }
        match &self.schedule {
            Some(s) => out.push(Diagnostic {
                severity: Severity::Warning,
                pass: PassKind::Plan,
                code: if s.two_phase {
                    "plan-two-phase"
                } else {
                    "plan-ordered"
                },
                message: if s.two_phase {
                    format!(
                        "no safe single-phase ordering; synthesized two-phase plan: \
                         {} install step(s), barrier, {} removal step(s) \
                         ({} state(s) explored)",
                        s.barrier,
                        s.order.len() - s.barrier,
                        self.explored
                    )
                } else {
                    format!(
                        "synthesized safe ordering of {} step(s) ({} before the \
                         drain barrier; {} state(s) explored)",
                        s.order.len(),
                        s.barrier,
                        self.explored
                    )
                },
                participant: None,
                clause: None,
                witness: None,
            }),
            None => {
                for v in &self.violations {
                    out.push(Diagnostic {
                        severity: Severity::Error,
                        pass: PassKind::Plan,
                        code: "plan-unsafe",
                        message: format!(
                            "no safe schedule exists; fallback unsafe after step {} \
                             ({}): {}",
                            v.step, v.step_desc, v.message
                        ),
                        participant: Some(v.sender),
                        clause: None,
                        witness: v.witness.clone(),
                    });
                }
            }
        }
        out
    }
}

/// Run the full analysis: delta, naive-order judgement, safe-ordering
/// synthesis (with two-phase fallback).
pub fn plan(input: &PlanInput<'_>) -> PlanReport {
    let checker = Checker::new(input.old_verify, input.new_verify);

    let t0 = Instant::now();
    let steps = diff(&input.old_state, &input.new_state);
    let delta_us = t0.elapsed().as_micros();

    let (naive_violations, naive_us) = judge_order(&checker, &input.old_state, &steps);

    let t1 = Instant::now();
    let result = synthesize(&checker, &input.old_state, &steps, input.budget);
    let search_us = t1.elapsed().as_micros();

    let per_step = result
        .schedule
        .as_ref()
        .filter(|s| !s.order.is_empty())
        .map(|s| result.check_us / s.order.len() as u128)
        .unwrap_or(0);

    PlanReport {
        steps,
        schedule: result.schedule,
        naive_violations,
        violations: result.violations,
        explored: result.explored,
        check_us: result.check_us,
        per_step_check_us: per_step,
        times: PlanTimes {
            delta_us,
            naive_us,
            search_us,
        },
    }
}
