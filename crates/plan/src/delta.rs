//! Rule-level deltas between two fabric states.
//!
//! A [`TableState`] is the behavior-relevant content of one pipeline table:
//! `(priority, match, actions, goto)` per rule, priority-ordered, with
//! cookies and install sequence numbers deliberately absent (an update plan
//! retires rules by content, not by which generation installed them — the
//! same abstraction [`FlowTable::fingerprint`] hashes). The delta between
//! two states is a *multiset* difference per table: rules present only in
//! the old state become [`DeltaOp::Remove`] steps, rules present only in the
//! new state become [`DeltaOp::Install`] steps. Rules present in both are
//! never touched — that is what makes the delta an incremental update
//! stream rather than a wholesale rebuild.
//!
//! [`FlowTable::fingerprint`]: sdx_switch::FlowTable::fingerprint

use std::collections::BTreeMap;
use std::fmt;

use sdx_policy::{Action, Classifier, Match, Rule};
use sdx_switch::{FlowRule, FlowTable};

/// The behavior-relevant content of one flow rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanRule {
    /// Higher wins.
    pub priority: u32,
    /// The match.
    pub match_: Match,
    /// The action list (empty = drop).
    pub actions: Vec<Action>,
    /// OpenFlow `goto_table` continuation, if any.
    pub goto_table: Option<usize>,
}

impl PlanRule {
    /// The rendered form used as the multiset-diff key (and mirrored by
    /// [`FlowTable::fingerprint`]'s per-rule line).
    pub(crate) fn key(&self) -> String {
        self.to_string()
    }

    /// Lower to a [`FlowRule`] carrying `cookie`.
    pub fn to_flow_rule(&self, cookie: u64) -> FlowRule {
        let mut fr = FlowRule::new(self.priority, self.match_.clone(), self.actions.clone())
            .with_cookie(cookie);
        if let Some(t) = self.goto_table {
            fr = fr.with_goto(t);
        }
        fr
    }
}

impl fmt::Display for PlanRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "prio={} {} ->", self.priority, self.match_)?;
        if self.actions.is_empty() {
            write!(f, " drop")?;
        } else {
            for a in &self.actions {
                write!(f, " {a}")?;
            }
        }
        if let Some(t) = self.goto_table {
            write!(f, " goto({t})")?;
        }
        Ok(())
    }
}

/// What one update step does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaOp {
    /// Add the rule to the table.
    Install,
    /// Retire the rule from the table.
    Remove,
}

/// One step of an update plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanStep {
    /// Which pipeline table the step touches.
    pub table: usize,
    /// Install or remove.
    pub op: DeltaOp,
    /// The rule content.
    pub rule: PlanRule,
}

impl fmt::Display for PlanStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op = match self.op {
            DeltaOp::Install => "install",
            DeltaOp::Remove => "remove",
        };
        write!(f, "{op} table {} {}", self.table, self.rule)
    }
}

/// One pipeline table's rule content, sorted like a [`FlowTable`]: priority
/// descending, first-installed-wins within equal priorities.
pub type TableState = Vec<PlanRule>;

/// The [`TableState`] of a live flow table.
pub fn state_of_table(table: &FlowTable) -> TableState {
    table
        .rules()
        .iter()
        .map(|r| PlanRule {
            priority: r.priority,
            match_: r.match_.clone(),
            actions: r.actions.clone(),
            goto_table: r.goto_table,
        })
        .collect()
}

/// The [`TableState`] of just the rules in `table` carrying `cookie` —
/// the live content of one install generation (e.g. a fast-path overlay
/// fragment), in table order.
pub fn state_of_cookie(table: &FlowTable, cookie: u64) -> TableState {
    table
        .rules()
        .iter()
        .filter(|r| r.cookie == cookie)
        .map(|r| PlanRule {
            priority: r.priority,
            match_: r.match_.clone(),
            actions: r.actions.clone(),
            goto_table: r.goto_table,
        })
        .collect()
}

/// The [`TableState`] a fresh `install_classifier` of `classifier` would
/// produce: rule `i` at priority `len - i`, `goto` on every non-drop rule
/// when given (mirrors `FlowTable::install_classifier_goto`).
pub fn state_of_classifier(classifier: &Classifier, goto: Option<usize>) -> TableState {
    let n = classifier.len() as u32;
    classifier
        .rules()
        .iter()
        .enumerate()
        .map(|(i, r)| PlanRule {
            priority: n - i as u32,
            match_: r.match_.clone(),
            actions: r.actions.clone(),
            goto_table: match (goto, r.is_drop()) {
                (Some(t), false) => Some(t),
                _ => None,
            },
        })
        .collect()
}

/// Render a state as a classifier for the symbolic engine: rules in table
/// order (priority descending) become first-match-wins rules.
pub fn classifier_of(state: &TableState) -> Classifier {
    Classifier::new(
        state
            .iter()
            .map(|r| Rule {
                match_: r.match_.clone(),
                actions: r.actions.clone(),
            })
            .collect(),
    )
}

/// The rule-level delta from `old` to `new`, in the **naive install-stream
/// order** a differ would emit: per table, removals (old table order) then
/// installs (new table order). This is exactly the ordering the safety
/// analysis judges — the synthesized plan is a permutation of these steps.
pub fn diff(old: &[TableState], new: &[TableState]) -> Vec<PlanStep> {
    let tables = old.len().max(new.len());
    let empty = TableState::new();
    let mut steps = Vec::new();
    for t in 0..tables {
        let o = old.get(t).unwrap_or(&empty);
        let n = new.get(t).unwrap_or(&empty);
        // Multiset occurrence counts of new-side rules by content key.
        let mut counts: BTreeMap<String, usize> = BTreeMap::new();
        for rule in n {
            *counts.entry(rule.key()).or_default() += 1;
        }
        // Old rules not absorbed by a new-side occurrence are removals.
        let mut keep: BTreeMap<String, usize> = BTreeMap::new();
        for rule in o {
            let key = rule.key();
            match counts.get_mut(&key) {
                Some(c) if *c > 0 => {
                    *c -= 1;
                    *keep.entry(key).or_default() += 1;
                }
                _ => steps.push(PlanStep {
                    table: t,
                    op: DeltaOp::Remove,
                    rule: rule.clone(),
                }),
            }
        }
        // New rules not matched by a kept old-side occurrence are installs.
        for rule in n {
            let key = rule.key();
            match keep.get_mut(&key) {
                Some(c) if *c > 0 => *c -= 1,
                _ => steps.push(PlanStep {
                    table: t,
                    op: DeltaOp::Install,
                    rule: rule.clone(),
                }),
            }
        }
    }
    steps
}

/// Apply one step to a state vector, mirroring [`FlowTable`] semantics:
/// installs land at the end of their priority band (first installed wins),
/// removals retire the first content-equal rule. Returns whether the step
/// changed anything (a removal of an absent rule is a no-op).
pub fn apply(state: &mut Vec<TableState>, step: &PlanStep) -> bool {
    while state.len() <= step.table {
        state.push(TableState::new());
    }
    let table = &mut state[step.table];
    match step.op {
        DeltaOp::Install => {
            let pos = table.partition_point(|r| r.priority >= step.rule.priority);
            table.insert(pos, step.rule.clone());
            true
        }
        DeltaOp::Remove => match table.iter().position(|r| *r == step.rule) {
            Some(pos) => {
                table.remove(pos);
                true
            }
            None => false,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdx_policy::{Field, Pattern};

    fn rule(priority: u32, port: u32, out: Option<u32>) -> PlanRule {
        PlanRule {
            priority,
            match_: Match::on(Field::Port, Pattern::Exact(port as u64)),
            actions: out
                .map(|o| vec![Action::set(Field::Port, o)])
                .unwrap_or_default(),
            goto_table: None,
        }
    }

    #[test]
    fn diff_is_minimal_and_ordered() {
        let old = vec![vec![
            rule(3, 1, Some(9)),
            rule(2, 2, Some(8)),
            rule(1, 3, None),
        ]];
        let new = vec![vec![
            rule(3, 1, Some(7)),
            rule(2, 2, Some(8)),
            rule(1, 3, None),
        ]];
        let steps = diff(&old, &new);
        // Only the changed rule appears, removal before install.
        assert_eq!(steps.len(), 2);
        assert_eq!(steps[0].op, DeltaOp::Remove);
        assert_eq!(steps[0].rule, rule(3, 1, Some(9)));
        assert_eq!(steps[1].op, DeltaOp::Install);
        assert_eq!(steps[1].rule, rule(3, 1, Some(7)));
    }

    #[test]
    fn state_of_cookie_filters_one_generation() {
        let mut table = FlowTable::new();
        table.install(rule(3, 1, Some(9)).to_flow_rule(7));
        table.install(rule(2, 2, Some(8)).to_flow_rule(9));
        table.install(rule(1, 3, None).to_flow_rule(7));
        let state = state_of_cookie(&table, 7);
        assert_eq!(state, vec![rule(3, 1, Some(9)), rule(1, 3, None)]);
        assert!(state_of_cookie(&table, 42).is_empty());
    }

    #[test]
    fn make_before_break_installs_then_removes() {
        let old = vec![vec![rule(3, 1, Some(9)), rule(2, 2, Some(8))]];
        let new = vec![vec![rule(3, 1, Some(7)), rule(1, 3, None)]];
        let steps = diff(&old, &new);
        let schedule = crate::search::make_before_break(&steps);
        assert_eq!(schedule.order.len(), steps.len());
        assert_eq!(schedule.barrier, 2); // both installs precede the barrier
        assert!(schedule.order[..schedule.barrier]
            .iter()
            .all(|s| s.op == DeltaOp::Install));
        assert!(schedule.order[schedule.barrier..]
            .iter()
            .all(|s| s.op == DeltaOp::Remove));
        // Applying the schedule lands on the new state regardless of the
        // interleaving the differ emitted.
        let mut state = old.clone();
        for step in &schedule.order {
            assert!(apply(&mut state, step));
        }
        assert_eq!(state, new);
    }

    #[test]
    fn apply_round_trips_to_new_state() {
        let old = vec![vec![rule(3, 1, Some(9)), rule(1, 3, None)]];
        let new = vec![vec![
            rule(4, 5, Some(2)),
            rule(3, 1, Some(9)),
            rule(2, 2, Some(8)),
        ]];
        let mut state = old.clone();
        for step in diff(&old, &new) {
            assert!(apply(&mut state, &step));
        }
        assert_eq!(state, new);
    }
}
