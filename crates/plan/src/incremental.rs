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
//! * **Persistent emissions model.** The per-(sender, port, tag) emission
//!   map — which destinations each border router emits under which VMAC
//!   tag — is maintained incrementally: a delta re-homes exactly one
//!   prefix, so the map changes in O(affected keys), not O(RIB).
//! * **Dirty-region gate.** Each schedule step's match signature is
//!   converted to a header-space [`Region`]. An injection needs re-checking
//!   in a phase only if (a) its region intersects a step applied in that
//!   phase and (b) the phase's FIB generation actually emits packets into
//!   it. Fast-path deltas install rules pinned to a *fresh* VMAC tag (no
//!   old-generation emissions) and remove rules pinned to a *dying*
//!   per-prefix tag (no new-generation emissions), so both conditions fail
//!   for every injection and the schedule is **structurally certified**
//!   with zero symbolic work — the common case at churn rate.
//! * **Seeded partition cache.** When a delta does force symbolic work, the
//!   transient [`Checker`] is seeded with the persistent per-injection
//!   terminal-region partitions of the current tables (the "old" side of
//!   the event), and the new-side partitions it computes are harvested
//!   back once the delta commits. Cache entries are invalidated by tag:
//!   a committed step pinned to tag *t* drops exactly the partitions whose
//!   injection region carries *t*; an unpinned step drops everything.
//! * **Tag → rule dependency index.** Rule counts per pinned tag (and the
//!   unpinned-rule count) are maintained from the committed steps, giving
//!   the gate its candidate injections without scanning tables.
//!
//! The verdict pipeline mirrors the batch planner: judge the proposed
//! `make_before_break` schedule (pre-barrier states in [`Phase::Update`],
//! the barrier and post-barrier states in [`Phase::NewExact`]); on
//! violations, rerun the DFS ordering search scoped to the dirty set; if
//! that also fails, reject with the witness packets. The soundness claim —
//! that the restricted check decides exactly what checking *every*
//! injection at *every* intermediate state would — is executable:
//! [`IncrementalChecker::check_from_scratch`] runs the same protocol with
//! no cache, no gate, and the full injection universe, and the
//! `delta_check_prop` proptest asserts verdict equality over random churn
//! fabrics.
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

pub use sdx_analyze::EmissionKey;
use sdx_analyze::VerifyInput;
use sdx_ip::{Prefix, PrefixSet};
use sdx_policy::{Classifier, Field, Match, Pattern, Region};

use crate::check::{Checker, Injection, Phase, SidePartition, Violation};
use crate::delta::{apply, classifier_of, PlanStep, TableState};
use crate::search::{judge_order, synthesize, Schedule};

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
#[derive(Debug, Clone)]
pub struct DeltaEvent {
    /// The prefix whose forwarding the delta migrates.
    pub prefix: Prefix,
    /// Emission keys that emit `prefix` *after* the event (new FIB
    /// generation). Every key currently emitting it implicitly loses it.
    /// Must be sorted (order is not semantic) so the hot structural gate
    /// can membership-test by binary search; build with
    /// [`DeltaEvent::normalize`] or keep it sorted by construction.
    pub adds: Vec<EmissionKey>,
    /// `(advertiser, viewer)` pairs entitled to `prefix` after the event;
    /// leak classification uses the union of this and the pre-event truth.
    pub advert_now: Vec<(u32, u32)>,
    /// The proposed (make-before-break) schedule.
    pub schedule: Schedule,
    /// The naive differ emission order (removals before installs), judged
    /// for evidence when naive judging is enabled (`sdx-lint --delta`).
    pub naive: Vec<PlanStep>,
}

impl DeltaEvent {
    /// Restore the `adds` sorting invariant (order carries no meaning).
    pub fn normalize(&mut self) {
        self.adds.sort_unstable();
        self.adds.dedup();
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

/// Counters for the incremental checker (all saturating).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncStats {
    /// Deltas checked.
    pub events: u64,
    /// Certified by the structural region-disjointness gate alone.
    pub certified_structural: u64,
    /// Certified after symbolic checking of the dirty set.
    pub certified_symbolic: u64,
    /// Reordered by the DFS search.
    pub reordered: u64,
    /// Rejected as unsafe (or undecidable).
    pub rejected: u64,
    /// Intermediate states symbolically checked.
    pub states_checked: u64,
    /// Dirty injections handed to symbolic checking.
    pub injections_dirty: u64,
    /// Transient checkers seeded from the persistent partition cache.
    pub partition_seeded: u64,
    /// New-side partitions harvested back into the cache.
    pub partition_harvested: u64,
    /// Full reseeds (one per compile).
    pub seeds: u64,
}

fn sat(c: &mut u64, by: u64) {
    *c = c.saturating_add(by);
}

/// The persistent incremental verifier. One instance lives inside the
/// runtime, reseeded at every full compile and consulted on every streamed
/// delta before it is installed.
#[derive(Debug, Default)]
pub struct IncrementalChecker {
    /// Current emission map: key → destinations that key's router emits.
    ///
    /// The per-event maps (`emissions`, `by_prefix`, `keys_by_tag`,
    /// `advert_by_prefix`, `tag_rules`) are hash maps, not ordered maps:
    /// with thousands of live prefixes the commit path performs hundreds of
    /// probes per streamed event, and flat hashing beats deep tree walks
    /// both in probe cost and in cache footprint. Nothing observable
    /// iterates them directly — every consumer collects into an ordered
    /// set first, so verdicts stay deterministic.
    emissions: HashMap<EmissionKey, BTreeSet<Prefix>>,
    /// Reverse index: prefix → emission keys currently carrying it
    /// (sorted, deduplicated vectors — contiguous storage keeps the
    /// per-event commit from churning the allocator at update rate).
    by_prefix: HashMap<Prefix, Vec<EmissionKey>>,
    /// Tag → emission keys carrying that tag (gate candidates).
    keys_by_tag: HashMap<u64, BTreeSet<EmissionKey>>,
    /// Current advertisement ground truth (leak classification).
    advertised: BTreeMap<(u32, u32), PrefixSet>,
    /// Reverse index: prefix → (advertiser, viewer) pairs entitled to it
    /// (sorted, deduplicated).
    advert_by_prefix: HashMap<Prefix, Vec<(u32, u32)>>,
    port_owner: BTreeMap<u32, u32>,
    vport_base: u32,
    /// Per-injection terminal-region partitions of the *current* tables.
    partitions: BTreeMap<EmissionKey, SidePartition>,
    /// Tag → live rules pinned to it (dependency index; maintained from
    /// committed steps).
    tag_rules: HashMap<u64, usize>,
    /// Live rules with no exact-DstMac pin.
    unpinned_rules: usize,
    /// New-side partitions awaiting commit of the checked delta.
    pending: Option<BTreeMap<EmissionKey, SidePartition>>,
    /// Judge the naive differ order of every delta for evidence
    /// (`sdx-lint --delta`; forces symbolic machinery per event).
    judge_naive: bool,
    stats: IncStats,
}

/// The header-space region of one emission key: its ingress port and tag.
fn key_region(key: &EmissionKey) -> Region {
    Region::from_match(
        Match::on(Field::Port, Pattern::Exact(key.1 as u64))
            .and(Field::DstMac, Pattern::Exact(key.2))
            .expect("distinct fields"),
    )
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

impl IncrementalChecker {
    /// Fresh, empty checker (no emissions; certifies everything until
    /// seeded).
    pub fn new() -> IncrementalChecker {
        IncrementalChecker::default()
    }

    /// Reseed from a full compile: the live verifier input (FIBs decide the
    /// emissions, `advertised` the ground truth) and the installed table
    /// state (rebuilds the tag → rule dependency index). Drops every cached
    /// partition — the tables just changed wholesale.
    pub fn seed(&mut self, vi: &VerifyInput, state: &[TableState]) {
        self.emissions = vi.emissions().into_iter().collect();
        self.by_prefix.clear();
        self.keys_by_tag.clear();
        for (key, prefixes) in &self.emissions {
            self.keys_by_tag.entry(key.2).or_default().insert(*key);
            for p in prefixes {
                self.by_prefix.entry(*p).or_default().push(*key);
            }
        }
        for keys in self.by_prefix.values_mut() {
            keys.sort_unstable();
            keys.dedup();
        }
        self.advertised = vi.advertised.clone();
        self.advert_by_prefix.clear();
        for (pair, set) in &self.advertised {
            for p in set.iter() {
                self.advert_by_prefix.entry(*p).or_default().push(*pair);
            }
        }
        for pairs in self.advert_by_prefix.values_mut() {
            pairs.sort_unstable();
            pairs.dedup();
        }
        self.port_owner = vi
            .participants
            .iter()
            .flat_map(|(id, ports)| ports.iter().map(|p| (*p, *id)))
            .collect();
        self.vport_base = vi.vport_base;
        self.partitions.clear();
        self.pending = None;
        self.tag_rules.clear();
        self.unpinned_rules = 0;
        for table in state {
            for rule in table {
                match rule.match_.get(Field::DstMac) {
                    Some(Pattern::Exact(t)) => *self.tag_rules.entry(*t).or_insert(0) += 1,
                    _ => self.unpinned_rules += 1,
                }
            }
        }
        sat(&mut self.stats.seeds, 1);
    }

    /// Counters.
    pub fn stats(&self) -> IncStats {
        self.stats
    }

    /// Live rules pinned to `tag` per the dependency index.
    pub fn tag_rule_count(&self, tag: u64) -> usize {
        self.tag_rules.get(&tag).copied().unwrap_or(0)
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
        if self.judge_naive && !ev.naive.is_empty() {
            return true;
        }
        let barrier = ev.schedule.barrier.min(ev.schedule.order.len());
        self.phase_has_dirty(&ev.schedule.order[..barrier], ev, Phase::Update)
            || self.phase_has_dirty(&ev.schedule.order[barrier..], ev, Phase::NewExact)
    }

    /// Does `key` emit anything in `phase`, under the event's re-homing?
    fn emits_in_phase(&self, key: &EmissionKey, ev: &DeltaEvent, phase: Phase) -> bool {
        match phase {
            Phase::Update => self.emissions.get(key).is_some_and(|s| !s.is_empty()),
            Phase::NewExact => {
                let in_adds = ev.adds.binary_search(key).is_ok();
                match self.emissions.get(key) {
                    Some(s) => in_adds || s.len() > usize::from(s.contains(&ev.prefix)),
                    None => in_adds,
                }
            }
        }
    }

    /// The structural dirty-region gate for one phase: is there any
    /// emission key whose region intersects a step applied in this phase
    /// *and* whose phase-generation emissions are nonempty?
    fn phase_has_dirty(&self, steps: &[PlanStep], ev: &DeltaEvent, phase: Phase) -> bool {
        // Steps in a phase overwhelmingly share one tag (a re-homing retires
        // one old tag and installs one new one), so the emitting-key scan —
        // the expensive half, one `emissions` probe per key — is memoized
        // per tag. The per-step work is then just region intersections
        // against the (almost always empty) emitting set.
        let emitting = |tag: u64| -> Vec<Region> {
            let mut v = Vec::new();
            if let Some(keys) = self.keys_by_tag.get(&tag) {
                v.extend(
                    keys.iter()
                        .filter(|k| self.emits_in_phase(k, ev, phase))
                        .map(key_region),
                );
            }
            v.extend(
                ev.adds
                    .iter()
                    .filter(|k| k.2 == tag && self.emits_in_phase(k, ev, phase))
                    .map(key_region),
            );
            v
        };
        let mut memo: BTreeMap<u64, Vec<Region>> = BTreeMap::new();
        let mut unpinned: Option<Vec<Region>> = None;
        for step in steps {
            let sregion = step_region(step);
            let regions = match Checker::affected_tag(step) {
                Some(tag) => memo.entry(tag).or_insert_with(|| emitting(tag)),
                None => unpinned.get_or_insert_with(|| {
                    self.emissions
                        .keys()
                        .chain(ev.adds.iter())
                        .filter(|k| self.emits_in_phase(k, ev, phase))
                        .map(key_region)
                        .collect()
                }),
            };
            if regions.iter().any(|r| r.intersect(&sregion).is_some()) {
                return true;
            }
        }
        false
    }

    /// The symbolic universe for this event: every emission key whose tag
    /// appears in the schedule (every key, if any step is unpinned). The
    /// universe is deliberately a tag-closed superset of the region-dirty
    /// set so tag-global judgements (retired-tag detection in the ordering
    /// search) match the full-universe ones.
    fn universe(&self, ev: &DeltaEvent) -> BTreeSet<EmissionKey> {
        let mut tags = BTreeSet::new();
        let mut unpinned = false;
        for step in &ev.schedule.order {
            match Checker::affected_tag(step) {
                Some(t) => {
                    tags.insert(t);
                }
                None => unpinned = true,
            }
        }
        let mut keys: BTreeSet<EmissionKey> = if unpinned {
            self.emissions.keys().copied().collect()
        } else {
            tags.iter()
                .filter_map(|t| self.keys_by_tag.get(t))
                .flatten()
                .copied()
                .collect()
        };
        keys.extend(
            ev.adds
                .iter()
                .filter(|k| unpinned || tags.contains(&k.2))
                .copied(),
        );
        keys
    }

    /// Every emission key the event involves (the from-scratch universe).
    fn full_universe(&self, ev: &DeltaEvent) -> BTreeSet<EmissionKey> {
        let mut keys: BTreeSet<EmissionKey> = self.emissions.keys().copied().collect();
        keys.extend(ev.adds.iter().copied());
        keys
    }

    /// Materialize [`Injection`]s for `keys` under the event's re-homing.
    /// Keys emitting nothing in either generation are skipped.
    fn build_injections(&self, ev: &DeltaEvent, keys: &BTreeSet<EmissionKey>) -> Vec<Injection> {
        keys.iter()
            .filter_map(|key| {
                let old: Vec<Prefix> = self
                    .emissions
                    .get(key)
                    .map(|s| s.iter().copied().collect())
                    .unwrap_or_default();
                let mut new: BTreeSet<Prefix> =
                    self.emissions.get(key).cloned().unwrap_or_default();
                new.remove(&ev.prefix);
                if ev.adds.binary_search(key).is_ok() {
                    new.insert(ev.prefix);
                }
                if old.is_empty() && new.is_empty() {
                    return None;
                }
                Some(Injection {
                    sender: key.0,
                    port: key.1,
                    tag: key.2,
                    old_prefixes: old,
                    new_prefixes: new.into_iter().collect(),
                })
            })
            .collect()
    }

    /// Build the transient [`Checker`] for one event over `keys`, plus the
    /// post-schedule table state. `seed` pulls old-side partitions from the
    /// persistent cache; returns how many it pulled.
    fn transient_checker(
        &self,
        ev: &DeltaEvent,
        keys: &BTreeSet<EmissionKey>,
        initial: &[TableState],
        seed: bool,
    ) -> (Checker, u64) {
        let injections = self.build_injections(ev, keys);
        let old_tables: Vec<Classifier> = initial.iter().map(classifier_of).collect();
        let mut new_state = initial.to_vec();
        for step in &ev.schedule.order {
            apply(&mut new_state, step);
        }
        let new_tables: Vec<Classifier> = new_state.iter().map(classifier_of).collect();
        let mut advertised = self.advertised.clone();
        for (a, v) in &ev.advert_now {
            advertised.entry((*a, *v)).or_default().insert(ev.prefix);
        }
        let n = injections.len();
        let checker = Checker::from_parts(
            old_tables,
            new_tables,
            injections,
            advertised,
            self.port_owner.clone(),
            self.vport_base,
        );
        let mut seeded = 0;
        if seed {
            for idx in 0..n {
                if let Some(parts) = self.partitions.get(&checker.injection_key(idx)) {
                    checker.seed_old_partition(idx, parts.clone());
                    seeded += 1;
                }
            }
        }
        (checker, seeded)
    }

    /// Check a streamed delta. `tables` (the installed state) is required
    /// exactly when [`needs_tables`](Self::needs_tables) says so; the
    /// structural fast path never touches it. The verdict must be followed
    /// by [`commit`](Self::commit) (delta installed — as proposed or
    /// reordered) or [`abort`](Self::abort) (install skipped).
    pub fn check_delta(&mut self, ev: &DeltaEvent, tables: Option<&[TableState]>) -> DeltaReport {
        sat(&mut self.stats.events, 1);
        self.pending = None;

        let barrier = ev.schedule.barrier.min(ev.schedule.order.len());
        // `tables == None` is the caller asserting `needs_tables` said no —
        // don't re-run the structural gate it just ran (it is the hot path
        // at churn rate); re-check only under debug assertions.
        let symbolic = if tables.is_none() && !self.judge_naive {
            debug_assert!(
                !(self.phase_has_dirty(&ev.schedule.order[..barrier], ev, Phase::Update)
                    || self.phase_has_dirty(&ev.schedule.order[barrier..], ev, Phase::NewExact)),
                "symbolic delta checked without table state"
            );
            false
        } else {
            self.phase_has_dirty(&ev.schedule.order[..barrier], ev, Phase::Update)
                || self.phase_has_dirty(&ev.schedule.order[barrier..], ev, Phase::NewExact)
        };

        let mut report = if !symbolic {
            sat(&mut self.stats.certified_structural, 1);
            DeltaReport::certified(true)
        } else {
            let Some(initial) = tables else {
                // Caller violated the needs_tables protocol; refuse rather
                // than guess.
                debug_assert!(false, "symbolic check requested without table state");
                sat(&mut self.stats.rejected, 1);
                let mut r = DeltaReport::certified(false);
                r.verdict = DeltaVerdict::Rejected;
                return r;
            };
            let keys = self.universe(ev);
            let (r, checker, seeded) = self.check_symbolic(ev, &keys, initial, true);
            sat(&mut self.stats.partition_seeded, seeded);
            if r.verdict != DeltaVerdict::Rejected {
                // Harvest the new-side partitions for the persistent cache;
                // they describe the post-delta tables, valid once the delta
                // commits (any safe schedule ends in the same final state).
                let mut harvest = BTreeMap::new();
                for (idx, parts) in checker.take_new_partitions() {
                    harvest.insert(checker.injection_key(idx), parts);
                }
                sat(&mut self.stats.partition_harvested, harvest.len() as u64);
                self.pending = Some(harvest);
            }
            match r.verdict {
                DeltaVerdict::Certified => sat(&mut self.stats.certified_symbolic, 1),
                DeltaVerdict::Reordered => sat(&mut self.stats.reordered, 1),
                DeltaVerdict::Rejected => sat(&mut self.stats.rejected, 1),
            }
            sat(&mut self.stats.states_checked, r.states_checked as u64);
            sat(&mut self.stats.injections_dirty, r.dirty_injections as u64);
            r
        };

        if self.judge_naive && !ev.naive.is_empty() {
            if let Some(initial) = tables {
                let keys = self.full_universe(ev);
                let (checker, _) = self.transient_checker(ev, &keys, initial, false);
                let (naive, _us) = judge_order(&checker, initial, &ev.naive);
                report.naive_violations = naive;
            }
        }
        report
    }

    /// The symbolic pipeline over one universe: judge the proposed
    /// schedule, search for a reorder on violations. Shared verbatim by the
    /// incremental path (restricted universe, seeded cache) and the
    /// from-scratch oracle (full universe, cold cache) — the equivalence
    /// proptest compares exactly these two instantiations. Returns the
    /// report, the transient checker (holding the new-side partitions) and
    /// how many cached partitions seeded it.
    fn check_symbolic(
        &self,
        ev: &DeltaEvent,
        keys: &BTreeSet<EmissionKey>,
        initial: &[TableState],
        seed: bool,
    ) -> (DeltaReport, Checker, u64) {
        let (checker, seeded) = self.transient_checker(ev, keys, initial, seed);
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

        let report = DeltaReport {
            verdict,
            structural: false,
            schedule,
            violations,
            naive_violations: Vec::new(),
            dirty_injections,
            states_checked,
            check_us: 0,
        };
        (report, checker, seeded)
    }

    /// The from-scratch oracle: the identical verdict pipeline with no
    /// structural gate, no seeded partitions, and the full injection
    /// universe — what a batch `sdx-plan` check of every intermediate state
    /// decides. Used by the soundness proptest and the bench's speedup
    /// measurement; never touches the persistent caches or counters.
    pub fn check_from_scratch(&self, ev: &DeltaEvent, tables: &[TableState]) -> DeltaReport {
        let keys = self.full_universe(ev);
        self.check_symbolic(ev, &keys, tables, false).0
    }

    /// Commit a checked delta: the steps of `installed` went into the live
    /// tables and the prefix re-homed onto `ev.adds`. Updates the emission
    /// maps, the advertisement truth, the tag index, and the partition
    /// cache (invalidate touched tags, then land the pending harvest).
    pub fn commit(&mut self, ev: &DeltaEvent, installed: &[PlanStep]) {
        // Partition invalidation by touched tag.
        let mut tags = BTreeSet::new();
        let mut unpinned = false;
        for step in installed {
            match Checker::affected_tag(step) {
                Some(t) => {
                    tags.insert(t);
                }
                None => unpinned = true,
            }
        }
        if unpinned {
            self.partitions.clear();
        } else if !tags.is_empty() {
            self.partitions.retain(|key, _| !tags.contains(&key.2));
        }
        if let Some(harvest) = self.pending.take() {
            self.partitions.extend(harvest);
        }

        // Tag → rule dependency index.
        for step in installed {
            let install = matches!(step.op, crate::delta::DeltaOp::Install);
            match Checker::affected_tag(step) {
                Some(t) if install => {
                    let slot = self.tag_rules.entry(t).or_insert(0);
                    *slot = slot.saturating_add(1);
                }
                // Drop zeroed entries in place rather than sweeping the
                // whole index per event — it holds one entry per live tag.
                Some(t) => {
                    if let Some(slot) = self.tag_rules.get_mut(&t) {
                        *slot = slot.saturating_sub(1);
                        if *slot == 0 {
                            self.tag_rules.remove(&t);
                        }
                    }
                }
                None if install => {
                    self.unpinned_rules = self.unpinned_rules.saturating_add(1);
                }
                None => {
                    self.unpinned_rules = self.unpinned_rules.saturating_sub(1);
                }
            }
        }

        // Re-home the prefix in the emission maps.
        let old_keys = self.by_prefix.remove(&ev.prefix).unwrap_or_default();
        for key in &old_keys {
            if let Some(set) = self.emissions.get_mut(key) {
                set.remove(&ev.prefix);
                if set.is_empty() {
                    self.emissions.remove(key);
                    if let Some(keys) = self.keys_by_tag.get_mut(&key.2) {
                        keys.remove(key);
                        if keys.is_empty() {
                            self.keys_by_tag.remove(&key.2);
                        }
                    }
                }
            }
        }
        if !ev.adds.is_empty() {
            let mut now = ev.adds.clone();
            now.sort_unstable();
            now.dedup();
            for key in &now {
                self.emissions.entry(*key).or_default().insert(ev.prefix);
                self.keys_by_tag.entry(key.2).or_default().insert(*key);
            }
            self.by_prefix.insert(ev.prefix, now);
        }

        // Advertisement ground truth: merge-walk the sorted before/now pair
        // lists so only the (typically tiny) symmetric difference touches
        // the `advertised` map.
        let mut now = ev.advert_now.clone();
        now.sort_unstable();
        now.dedup();
        let before = self.advert_by_prefix.remove(&ev.prefix).unwrap_or_default();
        let (mut i, mut j) = (0, 0);
        while i < before.len() || j < now.len() {
            match (before.get(i), now.get(j)) {
                (Some(b), Some(n)) if b == n => {
                    i += 1;
                    j += 1;
                }
                (Some(b), Some(n)) if b < n => {
                    if let Some(set) = self.advertised.get_mut(b) {
                        set.remove(&ev.prefix);
                    }
                    i += 1;
                }
                (Some(b), None) => {
                    if let Some(set) = self.advertised.get_mut(b) {
                        set.remove(&ev.prefix);
                    }
                    i += 1;
                }
                (_, Some(n)) => {
                    self.advertised.entry(*n).or_default().insert(ev.prefix);
                    j += 1;
                }
                (None, None) => unreachable!("loop condition"),
            }
        }
        if !now.is_empty() {
            self.advert_by_prefix.insert(ev.prefix, now);
        }
    }

    /// Drop the pending state of a checked delta whose install was skipped
    /// (Deny). The tables, emissions, and caches all still describe the
    /// live state — the stale overlay keeps forwarding until the full
    /// reoptimize reseeds everything.
    pub fn abort(&mut self) {
        self.pending = None;
    }
}

/// Judge an explicit schedule: apply the steps in order, checking each
/// intermediate state — pre-barrier states in [`Phase::Update`] against the
/// step's tag-dirty injections, the barrier state and every post-barrier
/// state in [`Phase::NewExact`]. Mirrors the two-phase judging of
/// [`crate::search::synthesize`]'s fallback, generalized to any given
/// order. Returns the stamped violations and the states checked.
fn judge_schedule(
    checker: &Checker,
    initial: &[TableState],
    schedule: &Schedule,
) -> (Vec<Violation>, usize) {
    let mut state = initial.to_vec();
    let mut violations = Vec::new();
    let mut states = 0usize;
    let barrier = schedule.barrier.min(schedule.order.len());
    if barrier == 0 && !schedule.order.is_empty() {
        // The barrier precedes every step: the *initial* state must already
        // show exactly the new behavior to the new generation.
        states += 1;
        for mut v in checker.check_state(&state, &checker.all_injections(), Phase::NewExact) {
            v.step = 0;
            v.step_desc = "barrier".to_string();
            violations.push(v);
        }
    }
    for (i, step) in schedule.order.iter().enumerate() {
        apply(&mut state, step);
        states += 1;
        let phase = if i < barrier {
            Phase::Update
        } else {
            Phase::NewExact
        };
        let dirty = checker.dirty_injections(Checker::affected_tag(step));
        for mut v in checker.check_state(&state, &dirty, phase) {
            v.step = i;
            v.step_desc = step.to_string();
            violations.push(v);
        }
        if i + 1 == barrier {
            // The barrier lands here: once the routers flip, this state
            // must already show exactly the new behavior.
            states += 1;
            for mut v in checker.check_state(&state, &checker.all_injections(), Phase::NewExact) {
                v.step = i;
                v.step_desc = "barrier".to_string();
                violations.push(v);
            }
        }
    }
    (violations, states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::{DeltaOp, PlanRule};
    use crate::make_before_break;
    use sdx_policy::Action;

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

    /// A checker whose world has one sender emitting `prefix` under
    /// `OLD_TAG`, forwarded by one pinned rule, with the receiver entitled.
    fn seeded() -> (IncrementalChecker, Vec<TableState>) {
        let mut c = IncrementalChecker::new();
        c.emissions
            .insert((SENDER, PORT, OLD_TAG), [pfx("10.0.0.0/8")].into());
        c.by_prefix
            .insert(pfx("10.0.0.0/8"), [(SENDER, PORT, OLD_TAG)].into());
        c.keys_by_tag
            .insert(OLD_TAG, [(SENDER, PORT, OLD_TAG)].into());
        let mut set = PrefixSet::new();
        set.insert(pfx("10.0.0.0/8"));
        c.advertised.insert((2, SENDER), set);
        c.advert_by_prefix
            .insert(pfx("10.0.0.0/8"), [(2, SENDER)].into());
        c.port_owner = [(PORT, SENDER), (EGRESS, 2u32)].into();
        c.vport_base = 1000;
        c.tag_rules.insert(OLD_TAG, 1);
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
            naive: steps,
        }
    }

    #[test]
    fn empty_schedule_structurally_certified() {
        let (mut c, _state) = seeded();
        let ev = DeltaEvent {
            prefix: pfx("10.0.0.0/8"),
            adds: vec![],
            advert_now: vec![],
            schedule: Schedule {
                order: vec![],
                barrier: 0,
                two_phase: true,
            },
            naive: vec![],
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
        c.commit(&ev, &ev.schedule.order);
        assert_eq!(
            c.emissions.get(&(SENDER, PORT, NEW_TAG)),
            Some(&[pfx("10.0.0.0/8")].into())
        );
        assert!(!c.emissions.contains_key(&(SENDER, PORT, OLD_TAG)));
        assert_eq!(c.tag_rule_count(NEW_TAG), 1);
        assert_eq!(c.tag_rule_count(OLD_TAG), 0);
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
        let (mut c, state) = seeded();
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
            naive: vec![],
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
        c.emissions
            .insert((SENDER, PORT, OLD_TAG), [p_n, p_r].into());
        c.by_prefix.insert(p_n, [(SENDER, PORT, OLD_TAG)].into());
        c.by_prefix.insert(p_r, [(SENDER, PORT, OLD_TAG)].into());
        c.keys_by_tag
            .insert(OLD_TAG, [(SENDER, PORT, OLD_TAG)].into());
        let mut set = PrefixSet::new();
        set.insert(p_n);
        set.insert(p_r);
        c.advertised.insert((2, SENDER), set);
        c.advert_by_prefix.insert(p_n, [(2, SENDER)].into());
        c.advert_by_prefix.insert(p_r, [(2, SENDER)].into());
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
            naive: steps,
        };
        assert!(c.needs_tables(&ev));
        let r = c.check_delta(&ev, Some(&state));
        assert_eq!(r.verdict, DeltaVerdict::Rejected);
        assert!(r.violations.iter().any(|v| v.witness.is_some()));
        let fs = c.check_from_scratch(&ev, &state);
        assert!(r.agrees_with(&fs));
        c.abort();
        assert!(c.pending.is_none());
    }

    #[test]
    fn partition_cache_invalidates_touched_tags() {
        let (mut c, _) = seeded();
        c.partitions.insert((SENDER, PORT, OLD_TAG), Some(vec![]));
        c.partitions.insert((SENDER, PORT, 0xCC), Some(vec![]));
        let ev = rehoming_event();
        c.commit(&ev, &ev.schedule.order);
        assert!(!c.partitions.contains_key(&(SENDER, PORT, OLD_TAG)));
        assert!(c.partitions.contains_key(&(SENDER, PORT, 0xCC)));
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
                order: steps.clone(),
                barrier: 0,
                two_phase: true,
            },
            naive: steps,
        };
        // Post-barrier removal of a tag with no new-generation emissions:
        // structurally certified.
        assert!(!c.needs_tables(&ev));
        let r = c.check_delta(&ev, None);
        assert_eq!(r.verdict, DeltaVerdict::Certified);
        c.commit(&ev, &ev.schedule.order);
        assert!(c.emissions.is_empty());
        assert!(c.by_prefix.is_empty());
        assert!(c.advertised.get(&(2, SENDER)).unwrap().is_empty());
    }
}
