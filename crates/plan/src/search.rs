//! Safe-ordering synthesis: verifier-guided search over step permutations.
//!
//! Given the rule-level delta and a [`Checker`], find an ordering of the
//! steps whose every intermediate state passes the safety checks. The
//! search is a depth-first walk with backtracking:
//!
//! * **Drain partition.** Steps that only remove rules pinned to *retired*
//!   VMAC tags cannot be taken safely before the routers stop emitting
//!   those tags — and are trivially safe afterwards. They are peeled off
//!   up front and appended after the plan's barrier, shrinking the search
//!   space to the steps that actually interact.
//! * **Heuristic ordering.** At each node, candidate steps are tried
//!   installs-first (highest priority first — make-before-break), then
//!   removals (lowest priority first — dismantle from the bottom). For
//!   update patterns produced by the SDX compiler this usually finds a
//!   safe order on the first descent; the backtracking only pays when the
//!   greedy choice wedges.
//! * **Incremental re-checking.** A step pinned to one VMAC tag can only
//!   change that tag's behavior, so only that tag's injections are
//!   re-verified after it (see [`Checker::affected_tag`]).
//! * **Budget.** The walk explores at most `budget` nodes; exhaustion
//!   falls through to the two-phase fallback rather than hanging.
//!
//! When no safe single-phase ordering exists (or the budget runs out), the
//! planner falls back to a **two-phase** plan in the spirit of consistent
//! updates: phase A installs every new rule (the flow table's
//! first-installed-wins tie-break keeps old rules authoritative inside
//! equal-priority bands, so behavior is unchanged — verified, not
//! assumed), the barrier lets in-flight packets drain and the routers flip
//! to the new tags, then phase B removes the old rules (traffic must
//! already see exactly the new behavior — also verified). If even the
//! two-phase plan fails its checks, the delta genuinely has no
//! per-packet-consistent rule-granularity schedule and the plan is
//! reported unsafe with the violating steps as witnesses.
//!
//! One loop judges every schedule with a barrier ([`judge_schedule`]): the
//! two-phase fallback here and the streamed delta gate's proposed schedule
//! in [`crate::incremental`]. [`judge_order`] judges a barrier-free
//! ordering with the same per-step check.

use std::fmt;

use crate::check::{Checker, Phase, Violation};
use crate::delta::{apply, DeltaOp, PlanStep, TableState};

/// The synthesized schedule.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// The steps, in execution order.
    pub order: Vec<PlanStep>,
    /// Steps `order[..barrier]` run first; the plan then waits for the
    /// route flip / packet drain before running `order[barrier..]`.
    pub barrier: usize,
    /// Was the two-phase fallback used (vs. a safe single-phase ordering)?
    pub two_phase: bool,
}

/// What the search produced.
#[derive(Debug)]
pub struct SearchResult {
    /// The safe schedule, when one exists.
    pub schedule: Option<Schedule>,
    /// Violations that doomed the two-phase fallback (empty on success).
    pub violations: Vec<Violation>,
    /// Search nodes expanded (states checked) across the DFS.
    pub explored: usize,
    /// Microseconds spent inside intermediate-state checking.
    pub check_us: u128,
}

/// The make-before-break ordering of a delta whose install and removal
/// sides are known to match **disjoint** packet sets (e.g. fast-path
/// fragments pinned to distinct exact VMAC tags): all installs first, then
/// the barrier, then the removals. Every intermediate state forwards each
/// packet exactly as either the old or the new state does — old-tag
/// traffic keeps hitting the old rules until they drain, new-tag traffic
/// only ever sees the complete new fragment or falls through to the base
/// table — so the schedule is per-packet consistent *by construction* and
/// needs no search. Callers are responsible for the disjointness
/// precondition; overlapping matches void the guarantee.
pub fn make_before_break(steps: &[PlanStep]) -> Schedule {
    let mut order: Vec<PlanStep> = Vec::with_capacity(steps.len());
    order.extend(steps.iter().filter(|s| s.op == DeltaOp::Install).cloned());
    let barrier = order.len();
    order.extend(steps.iter().filter(|s| s.op == DeltaOp::Remove).cloned());
    Schedule {
        order,
        barrier,
        two_phase: true,
    }
}

/// Apply `step` to `state` and check, in `phase`, the injections whose
/// behavior the step can change (see [`Checker::affected_tag`]). The
/// violations carry no step provenance yet.
fn step_violations(
    checker: &Checker,
    state: &mut Vec<TableState>,
    step: &PlanStep,
    phase: Phase,
) -> Vec<Violation> {
    apply(state, step);
    let dirty = checker.dirty_injections(Checker::affected_tag(step));
    checker.check_state(state, &dirty, phase)
}

/// Stamp `found` with the step (index `step` of the judged ordering,
/// rendered as `desc`) after which it occurs, and append it to `out`.
fn stamp(found: Vec<Violation>, step: usize, desc: &dyn fmt::Display, out: &mut Vec<Violation>) {
    out.extend(found.into_iter().map(|mut v| {
        v.step = step;
        v.step_desc = desc.to_string();
        v
    }));
}

/// Judge an explicit ordering (e.g. the naive differ emission order):
/// apply the steps one by one and record every intermediate-state
/// violation, stamped with the step index after which it occurs. An
/// explicit order has no barrier, so every step — including retired-tag
/// drains — is judged in the pre-barrier [`Phase::Update`], where old-tag
/// traffic is still being emitted. Recording stops early once
/// [`crate::MAX_NAIVE_VIOLATIONS`] pile up: the judgement is evidence,
/// not a gate, and a bad ordering at workload scale flags tens of
/// thousands of (injection, step) pairs.
pub fn judge_order(
    checker: &Checker,
    initial: &[TableState],
    order: &[PlanStep],
) -> (Vec<Violation>, u128) {
    let mut state = initial.to_vec();
    let mut violations = Vec::new();
    let start = std::time::Instant::now();
    for (i, step) in order.iter().enumerate() {
        let found = step_violations(checker, &mut state, step, Phase::Update);
        stamp(found, i, step, &mut violations);
        if violations.len() >= crate::MAX_NAIVE_VIOLATIONS {
            violations.truncate(crate::MAX_NAIVE_VIOLATIONS);
            break;
        }
    }
    (violations, start.elapsed().as_micros())
}

/// Judge a schedule with a barrier: apply the steps in order and check
/// each intermediate state against the injections its step can change,
/// in [`Phase::Update`] before the barrier and [`Phase::NewExact`] after
/// it; the barrier state itself is checked in [`Phase::NewExact`] against
/// every injection. Returns the stamped violations and the number of
/// states checked.
pub(crate) fn judge_schedule(
    checker: &Checker,
    initial: &[TableState],
    schedule: &Schedule,
) -> (Vec<Violation>, usize) {
    // Once the routers flip, the barrier state must already show exactly
    // the new behavior to the new generation, before any later step runs.
    let check_barrier = |state: &[TableState], step: usize, out: &mut Vec<Violation>| {
        let found = checker.check_state(state, &checker.all_injections(), Phase::NewExact);
        stamp(found, step, &"barrier", out);
    };
    let mut state = initial.to_vec();
    let mut violations = Vec::new();
    let mut states = 0usize;
    let barrier = schedule.barrier.min(schedule.order.len());
    if barrier == 0 && !schedule.order.is_empty() {
        states += 1;
        check_barrier(&state, 0, &mut violations);
    }
    for (i, step) in schedule.order.iter().enumerate() {
        let phase = if i < barrier {
            Phase::Update
        } else {
            Phase::NewExact
        };
        let found = step_violations(checker, &mut state, step, phase);
        stamp(found, i, step, &mut violations);
        states += 1;
        if i + 1 == barrier {
            states += 1;
            check_barrier(&state, i, &mut violations);
        }
    }
    (violations, states)
}

/// Is `step` a pure drain: the removal of a rule pinned to a retired tag?
fn is_drain(checker: &Checker, step: &PlanStep) -> bool {
    step.op == DeltaOp::Remove
        && Checker::affected_tag(step)
            .map(|t| checker.is_retired_tag(t))
            .unwrap_or(false)
}

/// Heuristic candidate order: installs by priority descending, then
/// removals by priority ascending. Returns indices into `steps`.
fn heuristic_order(steps: &[PlanStep], pending: &[bool]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..steps.len()).filter(|&i| pending[i]).collect();
    idx.sort_by_key(|&i| {
        let s = &steps[i];
        match s.op {
            DeltaOp::Install => (0u8, u32::MAX - s.rule.priority),
            DeltaOp::Remove => (1u8, s.rule.priority),
        }
    });
    idx
}

/// Synthesize a safe schedule for `steps` applied to `initial`.
pub fn synthesize(
    checker: &Checker,
    initial: &[TableState],
    steps: &[PlanStep],
    budget: usize,
) -> SearchResult {
    let start = std::time::Instant::now();
    let mut explored = 0usize;

    // Peel off the drain steps; they run after the barrier.
    let (update, drain): (Vec<PlanStep>, Vec<PlanStep>) =
        steps.iter().cloned().partition(|s| !is_drain(checker, s));

    // DFS over the update steps.
    let mut order: Vec<usize> = Vec::with_capacity(update.len());
    let mut pending = vec![true; update.len()];
    let mut state = initial.to_vec();
    let found = dfs(
        checker,
        &update,
        &mut state,
        &mut order,
        &mut pending,
        budget,
        &mut explored,
    );

    if found {
        let mut full: Vec<PlanStep> = order.iter().map(|&i| update[i].clone()).collect();
        let barrier = full.len();
        full.extend(drain);
        return SearchResult {
            schedule: Some(Schedule {
                order: full,
                barrier,
                two_phase: false,
            }),
            violations: Vec::new(),
            explored,
            check_us: start.elapsed().as_micros(),
        };
    }

    // Two-phase fallback: installs (old behavior must hold — the flow
    // table's first-installed-wins tie-break shields old rules inside
    // equal-priority bands), barrier, removals (new behavior must hold).
    // The barrier lands on the post-phase-A state: old rules still present,
    // it must already show exactly the new behavior.
    let mut order: Vec<PlanStep> = update
        .iter()
        .chain(drain.iter())
        .filter(|s| s.op == DeltaOp::Install)
        .cloned()
        .collect();
    order.sort_by_key(|s| u32::MAX - s.rule.priority);
    let barrier = order.len();
    let mut phase_b: Vec<PlanStep> = update
        .iter()
        .chain(drain.iter())
        .filter(|s| s.op == DeltaOp::Remove)
        .cloned()
        .collect();
    phase_b.sort_by_key(|s| s.rule.priority);
    order.extend(phase_b);
    let schedule = Schedule {
        order,
        barrier,
        two_phase: true,
    };
    let (violations, states) = judge_schedule(checker, initial, &schedule);
    explored += states;
    SearchResult {
        schedule: violations.is_empty().then_some(schedule),
        violations,
        explored,
        check_us: start.elapsed().as_micros(),
    }
}

/// Depth-first search for a safe single-phase ordering. `order` and
/// `pending` are the mutable frontier; `state` always reflects `order`
/// applied to the initial state. Returns `true` with `order` complete on
/// success.
fn dfs(
    checker: &Checker,
    steps: &[PlanStep],
    state: &mut Vec<TableState>,
    order: &mut Vec<usize>,
    pending: &mut [bool],
    budget: usize,
    explored: &mut usize,
) -> bool {
    if order.len() == steps.len() {
        return true;
    }
    for i in heuristic_order(steps, pending) {
        if *explored >= budget {
            return false;
        }
        *explored += 1;
        let step = &steps[i];
        // Snapshot for the undo: the inverse op is not position-exact
        // inside equal-priority bands, and first-installed-wins makes
        // position behavior-relevant there.
        let saved = state.clone();
        if step_violations(checker, state, step, Phase::Update).is_empty() {
            pending[i] = false;
            order.push(i);
            if dfs(checker, steps, state, order, pending, budget, explored) {
                return true;
            }
            order.pop();
            pending[i] = true;
        }
        *state = saved;
    }
    false
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use sdx_ip::{Prefix, PrefixSet};
    use sdx_policy::{Action, Field, Match, Pattern};

    use super::*;
    use crate::check::Injection;
    use crate::delta::{classifier_of, diff, PlanRule};

    const SENDER: u32 = 1;
    const PORT: u32 = 10;
    const PORT_A: u32 = 20;
    const PORT_C: u32 = 30;
    const T: u64 = 0xAA;
    const T2: u64 = 0xBB;

    fn pfx(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn rule(priority: u32, tag: u64, dst: Option<Prefix>, out: u32) -> PlanRule {
        let mut m = Match::on(Field::Port, Pattern::Exact(u64::from(PORT)))
            .and(Field::DstMac, Pattern::Exact(tag))
            .unwrap();
        if let Some(p) = dst {
            m = m.and(Field::DstIp, Pattern::Prefix(p)).unwrap();
        }
        PlanRule {
            priority,
            match_: m,
            actions: vec![Action::set(Field::Port, out)],
            goto_table: None,
        }
    }

    /// One sender emits p and q under T; the update moves p to T2. Removing
    /// O (T, p) before the barrier blackholes p while T still carries q, so
    /// T is not retired and no single-phase order exists. Installing M,
    /// the barrier, then removing O is per-packet consistent.
    #[test]
    fn two_phase_fallback_synthesizes_install_barrier_remove() {
        let (p, q) = (pfx("10.1.0.0/16"), pfx("10.2.0.0/16"));
        let o = rule(200, T, Some(p), PORT_A);
        let o2 = rule(100, T, Some(q), PORT_C);
        let m = rule(300, T2, None, PORT_A);
        let old = vec![vec![o.clone(), o2.clone()]];
        let new = vec![vec![m.clone(), o2]];
        let injections = vec![
            Injection {
                sender: SENDER,
                port: PORT,
                tag: T,
                old_prefixes: vec![p, q],
                new_prefixes: vec![q],
            },
            Injection {
                sender: SENDER,
                port: PORT,
                tag: T2,
                old_prefixes: vec![],
                new_prefixes: vec![p],
            },
        ];
        let entitled = |prefix| {
            let mut set = PrefixSet::new();
            set.insert(prefix);
            set
        };
        let advertised: BTreeMap<(u32, u32), PrefixSet> =
            [((2, SENDER), entitled(p)), ((3, SENDER), entitled(q))].into();
        let checker = Checker::from_parts(
            old.iter().map(classifier_of).collect(),
            new.iter().map(classifier_of).collect(),
            injections,
            advertised,
            [(PORT, SENDER), (PORT_A, 2), (PORT_C, 3)].into(),
            1000,
        );

        let result = synthesize(
            &checker,
            &old,
            &diff(&old, &new),
            crate::DEFAULT_SEARCH_BUDGET,
        );
        assert!(result.violations.is_empty());
        let schedule = result.schedule.expect("the two-phase plan is safe");
        assert!(schedule.two_phase);
        assert_eq!(schedule.barrier, 1);
        assert_eq!(result.explored, 6);
        let order: Vec<(DeltaOp, PlanRule)> =
            schedule.order.into_iter().map(|s| (s.op, s.rule)).collect();
        assert_eq!(order, [(DeltaOp::Install, m), (DeltaOp::Remove, o)]);
    }
}
