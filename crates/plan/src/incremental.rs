//! Incremental delta-safety verification: header-space checking of every
//! streamed update at churn rate.
//!
//! The batch planner ([`crate::plan`]) proves per-packet consistency for a
//! full recompile by checking every intermediate state of the schedule
//! against both FIB generations — milliseconds of symbolic work that would
//! cap a streaming fast path at a few hundred updates per second. The
//! [`IncrementalChecker`] gets the same verdict at microsecond cost by
//! keeping the checking context alive across events and confining symbolic
//! work to the header regions a delta actually touches:
//!
//! * **One record per prefix.** The model keeps, for each prefix, the
//!   emission keys (sender, ingress port, VMAC tag) whose border routers tag
//!   it and the (advertiser, viewer) pairs entitled to it, plus an index
//!   from each tag to the prefixes it carries. A delta re-homes exactly one
//!   prefix, so committing it replaces one record.
//! * **Dirty-region gate.** Each schedule step's match signature is
//!   converted to a header-space [`Region`]. An injection needs re-checking
//!   in a phase only if (a) its region intersects a step applied in that
//!   phase and (b) the phase's FIB generation actually emits packets into
//!   it. Fast-path deltas install rules pinned to a *fresh* VMAC tag (no
//!   old-generation emissions) and remove rules pinned to a *dying*
//!   per-prefix tag (no new-generation emissions), so both conditions fail
//!   for every injection and the schedule is **structurally certified**
//!   with zero symbolic work — the common case at churn rate.
//! * **Symbolic fallback.** A delta the gate cannot certify is judged by a
//!   transient [`Checker`] built for the event, over the tag-closed
//!   universe of emission keys its steps can touch.
//!
//! Only [`seed`](IncrementalChecker::seed) and
//! [`commit`](IncrementalChecker::commit) change the model; checking a
//! delta only reads it. The verdict pipeline mirrors the batch planner:
//! judge the proposed `make_before_break` schedule with the one schedule
//! judge the planner's two-phase fallback also runs (pre-barrier states
//! in [`Phase::Update`], the barrier and post-barrier states in
//! [`Phase::NewExact`]); on violations, rerun the DFS ordering search
//! scoped to the dirty set; if that also fails, reject with the witness
//! packets. The soundness claim — that the restricted check decides
//! exactly what checking *every* injection at *every* intermediate state
//! would — is executable: [`IncrementalChecker::check_from_scratch`] runs
//! the same protocol with no gate and the full injection universe, and the
//! `delta_prop` integration test asserts verdict equality on every event
//! of random churn fabrics.
//!
//! One modeling assumption underpins the region math: pipeline tables may
//! rewrite the destination MAC only *away from* the tag space (tag → real
//! router MAC), never from one live tag to another, so a rule pinned to an
//! exact tag can only affect that tag's injections. The SDX compiler
//! upholds this by construction (VMACs are locally administered and never
//! assigned to router interfaces); steps in later pipeline tables are
//! conservatively reduced to their DstMac constraint because stage 1
//! rewrites the port field.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use sdx_analyze::hs;
pub use sdx_analyze::EmissionKey;
use sdx_analyze::VerifyInput;
use sdx_ip::{Prefix, PrefixSet};
use sdx_policy::{Classifier, Field, Match, Region};

use crate::check::{Checker, Injection, Phase, Violation};
use crate::delta::{apply, classifier_of, DeltaOp, PlanStep, TableState};
use crate::search::{judge_order, judge_schedule, synthesize, Schedule};

/// How the checker decided one streamed delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaVerdict {
    /// The proposed schedule is safe as given.
    Certified,
    /// The proposed schedule had an unsafe intermediate state, but the
    /// ordering search found a safe schedule ([`DeltaReport::schedule`]).
    Reordered,
    /// No per-packet-consistent schedule exists (or safety could not be
    /// decided); [`DeltaReport::violations`] carries the witnesses.
    Rejected,
}

impl DeltaVerdict {
    /// Stable lowercase label (diagnostics, JSON, lint output).
    pub fn label(self) -> &'static str {
        match self {
            DeltaVerdict::Certified => "certified",
            DeltaVerdict::Reordered => "reordered",
            DeltaVerdict::Rejected => "rejected",
        }
    }
}

/// One streamed delta, as the runtime's fast path sees it: the prefix being
/// re-homed, the emission keys that will carry it after the event, the
/// advertisement ground truth after the event, and the proposed schedule.
///
/// `adds` and `advert_now` must be sorted and deduplicated (order carries
/// no meaning): the structural gate membership-tests `adds` by binary
/// search, and [`IncrementalChecker::commit`] stores both lists as they
/// are. Build with [`DeltaEvent::normalize`] or keep them sorted by
/// construction.
#[derive(Debug, Clone)]
pub struct DeltaEvent {
    /// The prefix whose forwarding the delta migrates.
    pub prefix: Prefix,
    /// Emission keys that emit `prefix` *after* the event (new FIB
    /// generation). Every key currently emitting it implicitly loses it.
    pub adds: Vec<EmissionKey>,
    /// `(advertiser, viewer)` pairs entitled to `prefix` after the event;
    /// leak classification uses the union of this and the pre-event truth.
    pub advert_now: Vec<(u32, u32)>,
    /// The proposed (make-before-break) schedule. With naive judging on
    /// (`sdx-lint --delta`), its removals followed by its installs — the
    /// order a differ emits — are judged too, for evidence.
    pub schedule: Schedule,
}

impl DeltaEvent {
    /// Restore the sorting invariant of `adds` and `advert_now`.
    pub fn normalize(&mut self) {
        self.adds.sort_unstable();
        self.adds.dedup();
        self.advert_now.sort_unstable();
        self.advert_now.dedup();
    }
}

/// The verdict and its evidence for one streamed delta.
#[derive(Debug, Clone)]
pub struct DeltaReport {
    /// The decision.
    pub verdict: DeltaVerdict,
    /// Did the structural (region-disjointness) gate certify without any
    /// symbolic work?
    pub structural: bool,
    /// The safe reordering, when [`DeltaVerdict::Reordered`].
    pub schedule: Option<Schedule>,
    /// Violations of the *proposed* schedule (the rejection witnesses; also
    /// populated on [`DeltaVerdict::Reordered`] as the evidence that forced
    /// the reorder).
    pub violations: Vec<Violation>,
    /// Violations of the naive differ ordering (only when naive judging is
    /// enabled; evidence, not a gate).
    pub naive_violations: Vec<Violation>,
    /// Injections in the dirty set handed to symbolic checking.
    pub dirty_injections: usize,
    /// Intermediate states symbolically checked (judging + search).
    pub states_checked: usize,
    /// Microseconds the check took (stamped by the caller's clock when
    /// embedded in runtime records; 0 from the pure API).
    pub check_us: u64,
}

impl DeltaReport {
    fn certified(structural: bool) -> DeltaReport {
        DeltaReport {
            verdict: DeltaVerdict::Certified,
            structural,
            schedule: None,
            violations: Vec::new(),
            naive_violations: Vec::new(),
            dirty_injections: 0,
            states_checked: 0,
            check_us: 0,
        }
    }

    /// Is the delta safe to install (as proposed or reordered)?
    pub fn safe(&self) -> bool {
        self.verdict != DeltaVerdict::Rejected
    }

    /// The violation set reduced to its order- and provenance-independent
    /// content: the incremental judge visits each (injection, state) pair
    /// once while a from-scratch judge revisits unchanged regions at every
    /// step, so step indices and repeat counts differ while the *witness
    /// content* must not.
    pub fn violation_keys(&self) -> BTreeSet<String> {
        self.violations
            .iter()
            .map(|v| {
                format!(
                    "{}|{}|{:?}|{}",
                    v.kind.code_suffix(),
                    v.sender,
                    v.witness,
                    v.message
                )
            })
            .collect()
    }

    /// Do two reports agree on verdict, schedule, and witness content?
    /// (The soundness relation the equivalence proptest asserts.)
    pub fn agrees_with(&self, other: &DeltaReport) -> bool {
        self.verdict == other.verdict
            && render_schedule(&self.schedule) == render_schedule(&other.schedule)
            && self.violation_keys() == other.violation_keys()
    }
}

fn render_schedule(s: &Option<Schedule>) -> String {
    match s {
        None => String::new(),
        Some(s) => format!(
            "{}@{}:{}",
            s.order
                .iter()
                .map(|st| st.to_string())
                .collect::<Vec<_>>()
                .join(";"),
            s.barrier,
            s.two_phase
        ),
    }
}

/// One prefix's share of the model: the emission keys whose routers tag it
/// and the `(advertiser, viewer)` pairs entitled to it, each sorted and
/// deduplicated. After a delta commits, the prefix's record is exactly the
/// event's `adds` and `advert_now`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Record {
    keys: Vec<EmissionKey>,
    adverts: Vec<(u32, u32)>,
}

/// The persistent incremental verifier. One instance lives inside the
/// runtime, reseeded at every full compile and consulted on every streamed
/// delta before it is installed.
///
/// The model is one [`Record`] per prefix plus an index from each tag to the
/// prefixes carried under it. No record and no index entry is ever empty,
/// so two checkers holding the same model compare equal.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct IncrementalChecker {
    records: HashMap<Prefix, Record>,
    /// Tag → the prefixes whose records hold a key under that tag.
    by_tag: HashMap<u64, BTreeSet<Prefix>>,
    port_owner: BTreeMap<u32, u32>,
    vport_base: u32,
    /// Judge the naive differ order of every delta for evidence
    /// (`sdx-lint --delta`; forces symbolic machinery per event).
    judge_naive: bool,
}

/// The header-space region of one emission key: its ingress port and tag.
fn key_region(key: &EmissionKey) -> Region {
    hs::injection_region(key.1, key.2)
}

/// The distinct tags of `keys`, ascending.
fn tags_of<'a>(keys: impl IntoIterator<Item = &'a EmissionKey>) -> Vec<u64> {
    let mut tags: Vec<u64> = keys.into_iter().map(|k| k.2).collect();
    tags.sort_unstable();
    tags.dedup();
    tags
}

/// The header-space region a step's rule can affect, as seen at pipeline
/// ingress. Table 0 matches original headers, so the full match signature
/// applies; later tables see a rewritten port, so only the (stable) DstMac
/// constraint survives the projection.
fn step_region(step: &PlanStep) -> Region {
    if step.table == 0 {
        Region::from_match(step.rule.match_.clone())
    } else {
        match step.rule.match_.get(Field::DstMac) {
            Some(p) => Region::from_match(Match::on(Field::DstMac, *p)),
            None => Region::from_match(Match::any()),
        }
    }
}

/// The order a rule differ emits a schedule's steps in: removals, then
/// installs. For a make-before-break schedule (a stable partition) this is
/// the step list the schedule was built from.
fn naive_order(schedule: &Schedule) -> Vec<PlanStep> {
    let removals = schedule.order.iter().filter(|s| s.op == DeltaOp::Remove);
    let installs = schedule.order.iter().filter(|s| s.op == DeltaOp::Install);
    removals.chain(installs).cloned().collect()
}

impl IncrementalChecker {
    /// Fresh, empty checker (no emissions; certifies everything until
    /// seeded).
    pub fn new() -> IncrementalChecker {
        IncrementalChecker::default()
    }

    /// Reseed from a full compile's live verifier input: its FIBs decide
    /// the emission keys, `advertised` the ground truth.
    pub fn seed(&mut self, vi: &VerifyInput) {
        self.records.clear();
        self.by_tag.clear();
        // Both sources iterate in key order, so every list of a record
        // arrives sorted and deduplicated.
        for (key, prefixes) in vi.emissions() {
            for p in prefixes {
                self.records.entry(p).or_default().keys.push(key);
            }
        }
        for (p, record) in &self.records {
            for tag in tags_of(&record.keys) {
                self.by_tag.entry(tag).or_default().insert(*p);
            }
        }
        for (pair, prefixes) in &vi.advertised {
            for p in prefixes {
                self.records.entry(*p).or_default().adverts.push(*pair);
            }
        }
        self.port_owner = vi
            .participants
            .iter()
            .flat_map(|(id, ports)| ports.iter().map(|p| (*p, *id)))
            .collect();
        self.vport_base = vi.vport_base;
    }

    /// Enable judging the naive differ order of every delta (evidence for
    /// `sdx-lint --delta`; forces per-event symbolic work).
    pub fn set_judge_naive(&mut self, on: bool) {
        self.judge_naive = on;
    }

    /// Does deciding this event require the installed table state? True
    /// when the structural gate finds a dirty injection (symbolic checking
    /// needed) or naive judging is on. The caller materializes tables only
    /// on `true` — the churn-rate path never pays for it.
    pub fn needs_tables(&self, ev: &DeltaEvent) -> bool {
        (self.judge_naive && !ev.schedule.order.is_empty()) || self.is_dirty(ev)
    }

    /// The structural gate: does a pre-barrier step meet a key that sends
    /// before the barrier, or a post-barrier step one that sends after it?
    fn is_dirty(&self, ev: &DeltaEvent) -> bool {
        let barrier = ev.schedule.barrier.min(ev.schedule.order.len());
        let (before, after) = ev.schedule.order.split_at(barrier);
        self.phase_has_dirty(before, ev, Phase::Update)
            || self.phase_has_dirty(after, ev, Phase::NewExact)
    }

    /// The records of the prefixes carried under `tag` (every record when
    /// `None`); under one tag, in prefix order.
    fn records_under(&self, tag: Option<u64>) -> impl Iterator<Item = (&Prefix, &Record)> + '_ {
        let tagged = tag.map(|t| {
            let prefixes = self.by_tag.get(&t).into_iter().flatten();
            prefixes.filter_map(|p| self.records.get_key_value(p))
        });
        let all = tag.is_none().then(|| self.records.iter());
        tagged
            .into_iter()
            .flatten()
            .chain(all.into_iter().flatten())
    }

    /// The emission keys under `tag` (under every tag when `None`) that
    /// send anything in `phase`. Before the barrier these are the keys in
    /// the records of the tag's prefixes; after it, the same without the
    /// event's own prefix, plus the event's `adds`.
    fn sending_keys(
        &self,
        tag: Option<u64>,
        ev: &DeltaEvent,
        phase: Phase,
    ) -> BTreeSet<EmissionKey> {
        let on_tag = |k: &&EmissionKey| tag.is_none_or(|t| k.2 == t);
        let after = phase == Phase::NewExact;
        let mut keys: BTreeSet<EmissionKey> = self
            .records_under(tag)
            .filter(|(p, _)| !(after && **p == ev.prefix))
            .flat_map(|(_, record)| record.keys.iter().filter(on_tag))
            .copied()
            .collect();
        if after {
            keys.extend(ev.adds.iter().filter(on_tag));
        }
        keys
    }

    /// The structural dirty-region gate for one phase: does any step's
    /// region meet the region of a key that sends in this phase under the
    /// step's tag?
    fn phase_has_dirty(&self, steps: &[PlanStep], ev: &DeltaEvent, phase: Phase) -> bool {
        // Steps in a phase overwhelmingly share one tag (a re-homing retires
        // one old tag and installs one new one), so the sending keys are
        // looked up once per tag. The per-step work is then just region
        // intersections against the (almost always empty) sending set.
        let mut memo: BTreeMap<Option<u64>, Vec<Region>> = BTreeMap::new();
        steps.iter().any(|step| {
            let regions = memo
                .entry(Checker::affected_tag(step))
                .or_insert_with_key(|tag| {
                    let keys = self.sending_keys(*tag, ev, phase);
                    keys.iter().map(key_region).collect()
                });
            !regions.is_empty() && {
                let sregion = step_region(step);
                regions.iter().any(|r| r.intersect(&sregion).is_some())
            }
        })
    }

    /// The keys under `tag` that send in either phase. Under every tag
    /// (`None`) this is the from-scratch universe: every key the event
    /// involves.
    fn involved(&self, tag: Option<u64>, ev: &DeltaEvent) -> BTreeSet<EmissionKey> {
        let mut keys = self.sending_keys(tag, ev, Phase::Update);
        keys.extend(self.sending_keys(tag, ev, Phase::NewExact));
        keys
    }

    /// The symbolic universe for this event: every emission key whose tag
    /// appears in the schedule (every key, if any step is unpinned). The
    /// universe is deliberately a tag-closed superset of the region-dirty
    /// set so tag-global judgements (retired-tag detection in the ordering
    /// search) match the full-universe ones.
    fn universe(&self, ev: &DeltaEvent) -> BTreeSet<EmissionKey> {
        let tags: Option<BTreeSet<u64>> = ev
            .schedule
            .order
            .iter()
            .map(Checker::affected_tag)
            .collect();
        match tags {
            Some(tags) => tags
                .into_iter()
                .flat_map(|t| self.involved(Some(t), ev))
                .collect(),
            None => self.involved(None, ev),
        }
    }

    /// Materialize [`Injection`]s for `keys` under the event's re-homing.
    /// Every key of a universe sends in at least one generation.
    fn build_injections(&self, ev: &DeltaEvent, keys: &BTreeSet<EmissionKey>) -> Vec<Injection> {
        // Invert the records of the universe's tags once: each key's
        // pre-event prefixes, in prefix order.
        let mut old: BTreeMap<EmissionKey, Vec<Prefix>> =
            keys.iter().map(|k| (*k, Vec::new())).collect();
        for tag in tags_of(keys) {
            for (p, record) in self.records_under(Some(tag)) {
                for key in record.keys.iter().filter(|k| k.2 == tag) {
                    if let Some(prefixes) = old.get_mut(key) {
                        prefixes.push(*p);
                    }
                }
            }
        }
        old.into_iter()
            .map(|(key, old_prefixes)| {
                let mut new_prefixes = old_prefixes.clone();
                new_prefixes.retain(|p| *p != ev.prefix);
                if ev.adds.binary_search(&key).is_ok() {
                    let at = new_prefixes.partition_point(|p| *p < ev.prefix);
                    new_prefixes.insert(at, ev.prefix);
                }
                Injection {
                    sender: key.0,
                    port: key.1,
                    tag: key.2,
                    old_prefixes,
                    new_prefixes,
                }
            })
            .collect()
    }

    /// Build the transient [`Checker`] for one event over `keys`: the
    /// tables before and after the proposed schedule, and the union ground
    /// truth of the prefixes the injections carry — leak classification
    /// looks up only a witness's destination, one of its injection's own
    /// prefixes.
    fn transient_checker(
        &self,
        ev: &DeltaEvent,
        keys: &BTreeSet<EmissionKey>,
        initial: &[TableState],
    ) -> Checker {
        let injections = self.build_injections(ev, keys);
        let old_tables: Vec<Classifier> = initial.iter().map(classifier_of).collect();
        let mut new_state = initial.to_vec();
        for step in &ev.schedule.order {
            apply(&mut new_state, step);
        }
        let new_tables: Vec<Classifier> = new_state.iter().map(classifier_of).collect();
        let carried: BTreeSet<Prefix> = injections
            .iter()
            .flat_map(|i| i.old_prefixes.iter().chain(&i.new_prefixes))
            .copied()
            .collect();
        let mut advertised: BTreeMap<(u32, u32), PrefixSet> = BTreeMap::new();
        for p in &carried {
            for pair in self.records.get(p).into_iter().flat_map(|r| &r.adverts) {
                advertised.entry(*pair).or_default().insert(*p);
            }
        }
        for pair in &ev.advert_now {
            advertised.entry(*pair).or_default().insert(ev.prefix);
        }
        Checker::from_parts(
            old_tables,
            new_tables,
            injections,
            advertised,
            self.port_owner.clone(),
            self.vport_base,
        )
    }

    /// Check a streamed delta. `tables` (the installed state) is required
    /// exactly when [`needs_tables`](Self::needs_tables) says so; the
    /// structural fast path never touches it. Checking changes nothing:
    /// call [`commit`](Self::commit) once the delta is installed; a delta
    /// whose install is skipped needs no call.
    pub fn check_delta(&self, ev: &DeltaEvent, tables: Option<&[TableState]>) -> DeltaReport {
        // `tables == None` is the caller asserting `needs_tables` said no —
        // don't re-run the structural gate it just ran (it is the hot path
        // at churn rate); re-check only under debug assertions.
        let symbolic = if tables.is_none() && !self.judge_naive {
            debug_assert!(
                !self.is_dirty(ev),
                "symbolic delta checked without table state"
            );
            false
        } else {
            self.is_dirty(ev)
        };

        let mut report = if !symbolic {
            DeltaReport::certified(true)
        } else {
            let Some(initial) = tables else {
                // Caller violated the needs_tables protocol; refuse rather
                // than guess.
                debug_assert!(false, "symbolic check requested without table state");
                let mut r = DeltaReport::certified(false);
                r.verdict = DeltaVerdict::Rejected;
                return r;
            };
            self.check_symbolic(ev, &self.universe(ev), initial)
        };

        if self.judge_naive && !ev.schedule.order.is_empty() {
            if let Some(initial) = tables {
                let checker = self.transient_checker(ev, &self.involved(None, ev), initial);
                let (naive, _us) = judge_order(&checker, initial, &naive_order(&ev.schedule));
                report.naive_violations = naive;
            }
        }
        report
    }

    /// The symbolic pipeline over one universe: judge the proposed
    /// schedule, search for a reorder on violations. Shared verbatim by the
    /// incremental path (restricted universe) and the from-scratch oracle
    /// (full universe) — the equivalence test compares exactly these two
    /// instantiations.
    fn check_symbolic(
        &self,
        ev: &DeltaEvent,
        keys: &BTreeSet<EmissionKey>,
        initial: &[TableState],
    ) -> DeltaReport {
        let checker = self.transient_checker(ev, keys, initial);
        let dirty_injections = keys.len();
        let (violations, mut states_checked) = judge_schedule(&checker, initial, &ev.schedule);

        let (verdict, schedule) = if violations.is_empty() {
            (DeltaVerdict::Certified, None)
        } else {
            let result = synthesize(
                &checker,
                initial,
                &ev.schedule.order,
                crate::DEFAULT_SEARCH_BUDGET,
            );
            states_checked += result.explored;
            match result.schedule {
                Some(s) => (DeltaVerdict::Reordered, Some(s)),
                None => (DeltaVerdict::Rejected, None),
            }
        };

        DeltaReport {
            verdict,
            structural: false,
            schedule,
            violations,
            naive_violations: Vec::new(),
            dirty_injections,
            states_checked,
            check_us: 0,
        }
    }

    /// The from-scratch oracle: the identical verdict pipeline with no
    /// structural gate and the full injection universe — what a batch
    /// `sdx-plan` check of every intermediate state decides. Used by the
    /// soundness test and the bench's speedup measurement.
    pub fn check_from_scratch(&self, ev: &DeltaEvent, tables: &[TableState]) -> DeltaReport {
        self.check_symbolic(ev, &self.involved(None, ev), tables)
    }

    /// Commit an installed delta: the prefix's record becomes the event's
    /// `adds` and `advert_now` (kept sorted by
    /// [`DeltaEvent::normalize`]), and the tag index follows its keys.
    pub fn commit(&mut self, ev: &DeltaEvent) {
        debug_assert!(
            ev.adds.is_sorted() && ev.advert_now.is_sorted(),
            "commit of an unnormalized event"
        );
        let record = Record {
            keys: ev.adds.clone(),
            adverts: ev.advert_now.clone(),
        };
        let new_tags = tags_of(&record.keys);
        let old = if record == Record::default() {
            self.records.remove(&ev.prefix)
        } else {
            self.records.insert(ev.prefix, record)
        };
        for tag in tags_of(old.iter().flat_map(|r| &r.keys)) {
            if let Some(prefixes) = self.by_tag.get_mut(&tag) {
                prefixes.remove(&ev.prefix);
                if prefixes.is_empty() {
                    self.by_tag.remove(&tag);
                }
            }
        }
        for tag in new_tags {
            self.by_tag.entry(tag).or_default().insert(ev.prefix);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::{DeltaOp, PlanRule};
    use crate::make_before_break;
    use sdx_policy::{Action, Pattern};

    const SENDER: u32 = 1;
    const PORT: u32 = 10;
    const EGRESS: u32 = 20;
    const OLD_TAG: u64 = 0xAA;
    const NEW_TAG: u64 = 0xBB;

    fn pfx(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn fwd_rule(tag: u64, priority: u32) -> PlanRule {
        PlanRule {
            priority,
            match_: Match::on(Field::Port, Pattern::Exact(PORT as u64))
                .and(Field::DstMac, Pattern::Exact(tag))
                .unwrap(),
            actions: vec![Action::set(Field::Port, EGRESS as u64)],
            goto_table: None,
        }
    }

    fn step(op: DeltaOp, rule: PlanRule) -> PlanStep {
        PlanStep { table: 0, op, rule }
    }

    /// Give `prefix` the record `keys` / `adverts`, through the model's
    /// own writer: a commit with an empty schedule.
    fn record(
        c: &mut IncrementalChecker,
        prefix: Prefix,
        keys: &[EmissionKey],
        adverts: &[(u32, u32)],
    ) {
        c.commit(&DeltaEvent {
            prefix,
            adds: keys.to_vec(),
            advert_now: adverts.to_vec(),
            schedule: make_before_break(&[]),
        });
    }

    /// A checker whose world has one sender emitting `prefix` under
    /// `OLD_TAG`, forwarded by one pinned rule, with the receiver entitled.
    fn seeded() -> (IncrementalChecker, Vec<TableState>) {
        let mut c = IncrementalChecker::new();
        let key = (SENDER, PORT, OLD_TAG);
        record(&mut c, pfx("10.0.0.0/8"), &[key], &[(2, SENDER)]);
        c.port_owner = [(PORT, SENDER), (EGRESS, 2u32)].into();
        c.vport_base = 1000;
        let state = vec![vec![fwd_rule(OLD_TAG, 100)]];
        (c, state)
    }

    fn rehoming_event() -> DeltaEvent {
        // Re-home 10.0.0.0/8 from OLD_TAG to NEW_TAG: install the new-tag
        // rule, remove the old-tag rule.
        let steps = vec![
            step(DeltaOp::Remove, fwd_rule(OLD_TAG, 100)),
            step(DeltaOp::Install, fwd_rule(NEW_TAG, 101)),
        ];
        DeltaEvent {
            prefix: pfx("10.0.0.0/8"),
            adds: vec![(SENDER, PORT, NEW_TAG)],
            advert_now: vec![(2, SENDER)],
            schedule: make_before_break(&steps),
        }
    }

    #[test]
    fn empty_schedule_structurally_certified() {
        let (c, _state) = seeded();
        let ev = DeltaEvent {
            prefix: pfx("10.0.0.0/8"),
            adds: vec![],
            advert_now: vec![],
            schedule: Schedule {
                order: vec![],
                barrier: 0,
                two_phase: true,
            },
        };
        assert!(!c.needs_tables(&ev));
        let r = c.check_delta(&ev, None);
        assert_eq!(r.verdict, DeltaVerdict::Certified);
        assert!(r.structural);
    }

    #[test]
    fn tag_disjoint_mbb_structurally_certified() {
        let (mut c, state) = seeded();
        let ev = rehoming_event();
        // Installs pin the fresh tag (no old emissions), removals pin the
        // dying tag (no new emissions): zero dirty regions.
        assert!(!c.needs_tables(&ev));
        let r = c.check_delta(&ev, None);
        assert_eq!(r.verdict, DeltaVerdict::Certified);
        assert!(r.structural);
        // ... and the from-scratch oracle agrees.
        let fs = c.check_from_scratch(&ev, &state);
        assert_eq!(fs.verdict, DeltaVerdict::Certified);
        assert!(r.agrees_with(&fs));
        c.commit(&ev);
        let moved = Record {
            keys: vec![(SENDER, PORT, NEW_TAG)],
            adverts: vec![(2, SENDER)],
        };
        assert_eq!(c.records, [(pfx("10.0.0.0/8"), moved)].into());
        assert_eq!(c.by_tag, [(NEW_TAG, [pfx("10.0.0.0/8")].into())].into());
    }

    #[test]
    fn naive_order_blackhole_is_judged_but_mbb_reorders() {
        let (mut c, state) = seeded();
        c.set_judge_naive(true);
        let ev = rehoming_event();
        // Naive order removes the old-tag rule first — while the routers
        // still emit OLD_TAG — transiently blackholing the prefix.
        assert!(c.needs_tables(&ev));
        let r = c.check_delta(&ev, Some(&state));
        assert_eq!(r.verdict, DeltaVerdict::Certified);
        assert!(!r.naive_violations.is_empty(), "naive order must violate");
        assert!(r
            .naive_violations
            .iter()
            .any(|v| v.kind == crate::ViolationKind::Blackhole));
    }

    #[test]
    fn premature_removal_schedule_is_reordered() {
        let (c, state) = seeded();
        // A deliberately bad proposed schedule: removal before the barrier,
        // install after — every pre-barrier state blackholes OLD_TAG.
        let steps = vec![
            step(DeltaOp::Remove, fwd_rule(OLD_TAG, 100)),
            step(DeltaOp::Install, fwd_rule(NEW_TAG, 101)),
        ];
        let ev = DeltaEvent {
            prefix: pfx("10.0.0.0/8"),
            adds: vec![(SENDER, PORT, NEW_TAG)],
            advert_now: vec![(2, SENDER)],
            schedule: Schedule {
                order: steps.clone(),
                barrier: 1,
                two_phase: false,
            },
        };
        assert!(c.needs_tables(&ev));
        let r = c.check_delta(&ev, Some(&state));
        assert_eq!(r.verdict, DeltaVerdict::Reordered);
        assert!(!r.violations.is_empty());
        let s = r.schedule.clone().expect("reordered schedule");
        // The safe order installs before removing.
        assert_eq!(s.order[0].op, DeltaOp::Install);
        let fs = c.check_from_scratch(&ev, &state);
        assert!(r.agrees_with(&fs), "incremental vs from-scratch verdict");
    }

    #[test]
    fn doomed_delta_is_rejected_with_witness() {
        // A genuinely unschedulable delta. Old: OLD_TAG carries p_n and p_r
        // via O1 (p_n-specific) over O2 (catch-all). New: p_r re-homes to
        // NEW_TAG (rule M), p_n stays on OLD_TAG but via N1 — installed at
        // *lower* priority than the old rules it replaces, so until the old
        // rules go, the new fragment is shadowed and the barrier can never
        // certify; yet neither old rule can be removed pre-barrier (p_r
        // traffic has no new-generation claim under OLD_TAG, so removing
        // O2 blackholes it, and removing O1 exposes the O2 hybrid to p_n).
        let p_n = pfx("10.1.0.0/16");
        let p_r = pfx("10.2.0.0/16");
        let pin = |tag: u64, p: Prefix, pri: u32, out: u64| PlanRule {
            priority: pri,
            match_: Match::on(Field::Port, Pattern::Exact(PORT as u64))
                .and(Field::DstMac, Pattern::Exact(tag))
                .unwrap()
                .and(Field::DstIp, Pattern::Prefix(p))
                .unwrap(),
            actions: vec![Action::set(Field::Port, out)],
            goto_table: None,
        };
        let o1 = pin(OLD_TAG, p_n, 210, 20);
        let o2 = fwd_rule(OLD_TAG, 200); // catch-all → EGRESS
        let n1 = pin(OLD_TAG, p_n, 110, 22);
        let m = fwd_rule(NEW_TAG, 300);

        let mut c = IncrementalChecker::new();
        for p in [p_n, p_r] {
            record(&mut c, p, &[(SENDER, PORT, OLD_TAG)], &[(2, SENDER)]);
        }
        c.port_owner = [(PORT, SENDER), (EGRESS, 2u32), (22, 2), (23, 2)].into();
        c.vport_base = 1000;
        let state = vec![vec![o1.clone(), o2.clone()]];

        let steps = vec![
            step(DeltaOp::Install, n1),
            step(DeltaOp::Install, m),
            step(DeltaOp::Remove, o1),
            step(DeltaOp::Remove, o2),
        ];
        let ev = DeltaEvent {
            prefix: p_r,
            adds: vec![(SENDER, PORT, NEW_TAG)],
            advert_now: vec![(2, SENDER)],
            schedule: make_before_break(&steps),
        };
        assert!(c.needs_tables(&ev));
        let r = c.check_delta(&ev, Some(&state));
        assert_eq!(r.verdict, DeltaVerdict::Rejected);
        assert!(r.violations.iter().any(|v| v.witness.is_some()));
        let fs = c.check_from_scratch(&ev, &state);
        assert!(r.agrees_with(&fs));
    }

    #[test]
    fn withdraw_event_commits_emission_removal() {
        let (mut c, _) = seeded();
        let steps = vec![step(DeltaOp::Remove, fwd_rule(OLD_TAG, 100))];
        let ev = DeltaEvent {
            prefix: pfx("10.0.0.0/8"),
            adds: vec![],
            advert_now: vec![],
            schedule: Schedule {
                order: steps,
                barrier: 0,
                two_phase: true,
            },
        };
        // Post-barrier removal of a tag with no new-generation emissions:
        // structurally certified.
        assert!(!c.needs_tables(&ev));
        let r = c.check_delta(&ev, None);
        assert_eq!(r.verdict, DeltaVerdict::Certified);
        c.commit(&ev);
        assert!(c.records.is_empty());
        assert!(c.by_tag.is_empty());
    }
}
