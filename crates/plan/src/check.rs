//! Intermediate-state safety checking for update plans.
//!
//! The correctness notion is **per-packet consistency** (the consistent-
//! updates criterion from the SDN literature, adapted to the SDX's VNH-tag
//! pipeline): while a plan is being applied, every producible packet must
//! see either the *old* fabric behavior or the *new* fabric behavior —
//! never a transient hybrid that drops it (blackhole), delivers it to a
//! participant that never advertised its destination (isolation leak), or
//! delivers it somewhere neither state would.
//!
//! Injections follow `sdx-verify`'s model: per sender-port-and-VMAC-tag
//! header spaces, derived from the border-router FIB models of **both** the
//! old and the new state. What a router actually emits is phase-dependent:
//!
//! * **pre-barrier** ([`Phase::Update`]): routers still hold the *old*
//!   FIBs, so a tag is producible exactly for its old-FIB prefixes. A
//!   witness packet may see the old behavior always, and the new behavior
//!   only if the *new* FIBs also emit it identically (same tag, same
//!   destination) — otherwise the new state was never promised to that
//!   packet and showing it early is an inconsistency.
//! * **post-barrier** ([`Phase::NewExact`]): the SDX has re-advertised, the
//!   routers flipped to the new tag generation, in-flight old-tag packets
//!   have drained. Emissions follow the *new* FIBs and must see exactly the
//!   new behavior; old-generation tags are no longer produced, so steps
//!   touching only those (drain steps) are unconstrained.
//!
//! A tag with old-FIB emissions but none in the new FIBs is **retired**;
//! removals pinned to retired tags are the drain steps [`crate::search`]
//! sequences after the barrier.
//!
//! The checker runs the header-space engine ([`sdx_analyze::hs`]) over the
//! intermediate tables once per (dirty) injection, harvests candidate
//! witness packets from every terminal region, and adjudicates each witness
//! by *concrete* evaluation against the old and new pipelines — symbolic
//! coverage, concrete precision. Incrementality comes from tag pinning:
//! a step whose rule is pinned to one VMAC tag can only change the behavior
//! of that tag's injections, so everything else stays verified for free.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

use sdx_analyze::hs::{self, Flow, TRANSIT_REGION_LIMIT};
use sdx_analyze::VerifyInput;
use sdx_ip::{Prefix, PrefixSet};
use sdx_policy::{Classifier, Field, Match, Packet, Pattern, Region};

use crate::delta::{classifier_of, PlanStep, TableState};

/// Which behaviors an intermediate state is allowed to show.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Pre-barrier: routers emit the *old* FIBs' (tag, prefix) pairs. Each
    /// witness may see the old behavior, or the new behavior if the new
    /// FIBs emit the identical packet.
    Update,
    /// Post-barrier: routers emit the *new* FIBs' pairs and must see
    /// exactly the new behavior; retired tags are no longer emitted.
    NewExact,
}

/// What went wrong in an intermediate state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A producible packet is dropped although its allowed behavior
    /// delivers it.
    Blackhole,
    /// A producible packet is delivered to a participant that never
    /// advertised its destination prefix (old or new ground truth).
    IsolationLeak,
    /// The outcome matches no allowed behavior but is not a drop or a
    /// leak (e.g. delivered out the wrong — but entitled — port).
    Inconsistent,
    /// Symbolic transit saturated; safety could not be decided.
    Undecided,
}

impl ViolationKind {
    /// Stable diagnostic-code suffix.
    pub fn code_suffix(self) -> &'static str {
        match self {
            ViolationKind::Blackhole => "blackhole",
            ViolationKind::IsolationLeak => "leak",
            ViolationKind::Inconsistent => "inconsistent",
            ViolationKind::Undecided => "undecided",
        }
    }
}

/// One intermediate-state safety violation: the step after which the state
/// is unsafe, and a concrete witness packet demonstrating it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Index into the judged step sequence: the state *after* applying the
    /// step at this index (in the ordering under analysis) is unsafe.
    pub step: usize,
    /// Rendered form of that step.
    pub step_desc: String,
    /// What kind of unsafety.
    pub kind: ViolationKind,
    /// The sending participant whose traffic is harmed.
    pub sender: u32,
    /// The injected witness packet (absent for [`ViolationKind::Undecided`]).
    pub witness: Option<Packet>,
    /// Human-readable description.
    pub message: String,
}

/// One sender-side injection: everything one sender's router emits from one
/// port under one destination-MAC tag, split by FIB generation.
#[derive(Debug, Clone)]
pub(crate) struct Injection {
    pub(crate) sender: u32,
    pub(crate) port: u32,
    pub(crate) tag: u64,
    /// Destinations the *old* FIBs resolve to this tag (pre-barrier
    /// emissions).
    pub(crate) old_prefixes: Vec<Prefix>,
    /// Destinations the *new* FIBs resolve to this tag (post-barrier
    /// emissions).
    pub(crate) new_prefixes: Vec<Prefix>,
}

/// One injection's cached terminal-region partition of one pipeline;
/// `None` records saturation.
pub(crate) type SidePartition = Option<Vec<Region>>;

/// The immutable context a plan is checked against.
pub struct Checker {
    old_tables: Vec<Classifier>,
    new_tables: Vec<Classifier>,
    injections: Vec<Injection>,
    /// Union ground truth: `(advertiser, viewer) → prefixes` under old OR
    /// new route-server state (used to classify leaks).
    advertised: BTreeMap<(u32, u32), PrefixSet>,
    /// Physical port → owner, union of old and new registrations.
    port_owner: BTreeMap<u32, u32>,
    vport_base: u32,
    /// Per-injection terminal-region partitions of the *old* and *new*
    /// pipelines, computed lazily (state-independent, so cacheable across
    /// every intermediate state). Split by side so an incremental caller
    /// can seed the old side from a persistent cache and harvest the new
    /// side after the event commits.
    old_partitions: RefCell<BTreeMap<usize, SidePartition>>,
    new_partitions: RefCell<BTreeMap<usize, SidePartition>>,
}

/// The concrete pipeline outcome of one packet: evaluate each table in
/// traversal order, feeding every output of table *i* into table *i+1*
/// (the same semantics [`hs::transit_pipeline`] uses symbolically). The
/// empty set means the packet is dropped.
pub fn outcome(tables: &[Classifier], pkt: &Packet) -> BTreeSet<Packet> {
    let mut cur: BTreeSet<Packet> = BTreeSet::new();
    cur.insert(pkt.clone());
    for table in tables {
        cur = cur.iter().flat_map(|p| table.evaluate(p)).collect();
        if cur.is_empty() {
            break;
        }
    }
    cur
}

/// Every terminal region of `tables` on `region` — output *and* drop
/// regions — or `None` if the symbolic transit saturates.
fn terminal_regions(tables: &[Classifier], region: Region) -> Option<Vec<Region>> {
    let result = hs::transit_pipeline(
        tables,
        vec![Flow::new(region)],
        Field::DstMac,
        TRANSIT_REGION_LIMIT,
    );
    if result.saturated {
        return None;
    }
    let mut out: Vec<Region> = result
        .outputs
        .into_iter()
        .map(|(o, _)| o.flow.region)
        .collect();
    out.extend(result.drops.into_iter().map(|(_, d)| d.region));
    Some(out)
}

impl Checker {
    /// Build the checking context from the old and new verifier inputs.
    /// Their [`VerifyInput::emissions`] decide the injections; `advertised`
    /// ground truths are unioned for leak classification.
    pub fn new(old: &VerifyInput, new: &VerifyInput) -> Checker {
        let old_em = old.emissions();
        let new_em = new.emissions();
        let keys: BTreeSet<(u32, u32, u64)> = old_em.keys().chain(new_em.keys()).copied().collect();
        let injections = keys
            .into_iter()
            .map(|key| Injection {
                sender: key.0,
                port: key.1,
                tag: key.2,
                old_prefixes: old_em
                    .get(&key)
                    .map(|s| s.iter().copied().collect())
                    .unwrap_or_default(),
                new_prefixes: new_em
                    .get(&key)
                    .map(|s| s.iter().copied().collect())
                    .unwrap_or_default(),
            })
            .collect();

        let mut advertised = old.advertised.clone();
        for (key, set) in &new.advertised {
            let slot = advertised.entry(*key).or_default();
            for p in set.iter() {
                slot.insert(*p);
            }
        }
        let mut port_owner = BTreeMap::new();
        for vi in [old, new] {
            for (id, ports) in &vi.participants {
                for p in ports {
                    port_owner.insert(*p, *id);
                }
            }
        }

        Checker::from_parts(
            old.tables.clone(),
            new.tables.clone(),
            injections,
            advertised,
            port_owner,
            new.vport_base.max(old.vport_base),
        )
    }

    /// Build the checking context from already-resolved parts. This is the
    /// entry the incremental verifier uses: it maintains emissions and
    /// ground truth across events itself and materializes classifiers only
    /// when a delta actually needs symbolic work.
    pub(crate) fn from_parts(
        old_tables: Vec<Classifier>,
        new_tables: Vec<Classifier>,
        injections: Vec<Injection>,
        advertised: BTreeMap<(u32, u32), PrefixSet>,
        port_owner: BTreeMap<u32, u32>,
        vport_base: u32,
    ) -> Checker {
        Checker {
            old_tables,
            new_tables,
            injections,
            advertised,
            port_owner,
            vport_base,
            old_partitions: RefCell::new(BTreeMap::new()),
            new_partitions: RefCell::new(BTreeMap::new()),
        }
    }

    /// The (sender, port, tag) key of `injections[idx]`.
    pub(crate) fn injection_key(&self, idx: usize) -> (u32, u32, u64) {
        let inj = &self.injections[idx];
        (inj.sender, inj.port, inj.tag)
    }

    /// Seed the cached *old*-pipeline partition for one injection (from a
    /// persistent cache computed against the identical tables earlier).
    pub(crate) fn seed_old_partition(&self, idx: usize, parts: SidePartition) {
        self.old_partitions.borrow_mut().insert(idx, parts);
    }

    /// Export every *new*-pipeline partition computed during checking, so
    /// the caller can persist them once the delta commits (the new tables
    /// become the current ones).
    pub(crate) fn take_new_partitions(&self) -> BTreeMap<usize, SidePartition> {
        std::mem::take(&mut *self.new_partitions.borrow_mut())
    }

    /// The injection region of `injections[idx]`: one sender port, one tag.
    fn injection_region(&self, idx: usize) -> Region {
        let inj = &self.injections[idx];
        Region::from_match(
            Match::on(Field::Port, Pattern::Exact(inj.port as u64))
                .and(Field::DstMac, Pattern::Exact(inj.tag))
                .expect("distinct fields"),
        )
    }

    /// One side's terminal-region partition for one injection, cached.
    fn side_partition(
        &self,
        cache: &RefCell<BTreeMap<usize, SidePartition>>,
        tables: &[Classifier],
        idx: usize,
    ) -> SidePartition {
        if let Some(cached) = cache.borrow().get(&idx) {
            return cached.clone();
        }
        let computed = terminal_regions(tables, self.injection_region(idx));
        cache.borrow_mut().insert(idx, computed.clone());
        computed
    }

    /// Old/new terminal-region partitions for one injection, cached.
    /// `None` when either pipeline saturates on it.
    fn reference_partitions(&self, idx: usize) -> Option<(Vec<Region>, Vec<Region>)> {
        let old = self.side_partition(&self.old_partitions, &self.old_tables, idx);
        let new = self.side_partition(&self.new_partitions, &self.new_tables, idx);
        old.zip(new)
    }

    /// Is `tag` retired — emitted by the old FIBs but by no new FIB? Steps
    /// that only remove retired-tag rules are drain steps, sequenced after
    /// the barrier (they cannot affect any post-barrier emission: those pin
    /// a different DstMac).
    pub fn is_retired_tag(&self, tag: u64) -> bool {
        let mut saw_old = false;
        for i in self.injections.iter().filter(|i| i.tag == tag) {
            if !i.new_prefixes.is_empty() {
                return false;
            }
            saw_old |= !i.old_prefixes.is_empty();
        }
        saw_old
    }

    /// The VMAC tag whose injections a step can affect: `Some(tag)` when
    /// the rule is pinned to one exact destination MAC, `None` when it can
    /// touch any tag (no or non-exact DstMac constraint).
    pub fn affected_tag(step: &PlanStep) -> Option<u64> {
        match step.rule.match_.get(Field::DstMac) {
            Some(Pattern::Exact(v)) => Some(*v),
            _ => None,
        }
    }

    /// Indices of the injections a step with `affected_tag` result `tag`
    /// dirties.
    pub fn dirty_injections(&self, tag: Option<u64>) -> Vec<usize> {
        self.injections
            .iter()
            .enumerate()
            .filter(|(_, i)| tag.map(|t| i.tag == t).unwrap_or(true))
            .map(|(idx, _)| idx)
            .collect()
    }

    /// Every injection index.
    pub fn all_injections(&self) -> Vec<usize> {
        (0..self.injections.len()).collect()
    }

    /// Check one injection against an intermediate state. Returns the
    /// violations found (without step provenance — the caller stamps those).
    pub fn check_injection(
        &self,
        tables: &[Classifier],
        idx: usize,
        phase: Phase,
    ) -> Vec<Violation> {
        let inj = &self.injections[idx];
        let produced: &[Prefix] = match phase {
            Phase::Update => &inj.old_prefixes,
            Phase::NewExact => &inj.new_prefixes,
        };
        if produced.is_empty() {
            return Vec::new(); // tag not emitted in this phase
        }

        let undecided = |what: &str| {
            vec![Violation {
                step: 0,
                step_desc: String::new(),
                kind: ViolationKind::Undecided,
                sender: inj.sender,
                witness: None,
                message: format!(
                    "P{} port {} tag {:#x}: symbolic transit of the {what} exceeded \
                     {} regions; intermediate state left unverified",
                    inj.sender, inj.port, inj.tag, TRANSIT_REGION_LIMIT
                ),
            }]
        };
        let Some(mid_regions) = terminal_regions(tables, self.injection_region(idx)) else {
            return undecided("intermediate state");
        };
        let Some((old_regions, new_regions)) = self.reference_partitions(idx) else {
            return undecided("old/new reference");
        };

        // Candidate witnesses, per cell of the mid ∩ old ∩ new
        // terminal-region product. The refinement matters: inside one cell
        // all three pipelines act uniformly, so a witness's verdict covers
        // its whole slice — a mid-region alone could mix packets whose
        // *old* or *new* behaviors differ, and a passing witness would mask
        // a failing neighbor. Uniformity also bounds the work: within a
        // cell a packet's verdict depends only on whether the *new* FIBs
        // produce it too (`new_produces`), so one producible representative
        // per truth value decides the entire cell — the concrete replays
        // below stay O(cells), not O(cells × prefixes).
        let new_produces_of = |w: &Packet| {
            w.dst_ip()
                .map(|ip| inj.new_prefixes.iter().any(|p| p.contains_addr(ip)))
                .unwrap_or(false)
        };
        let mut witnesses: BTreeSet<Packet> = BTreeSet::new();
        let mut harvest = |cell: &Region| {
            let mut covered = [false, false];
            for p in produced {
                if covered[0] && covered[1] {
                    break;
                }
                let Some(r) = cell.intersect_match(&Match::on(Field::DstIp, Pattern::Prefix(*p)))
                else {
                    continue;
                };
                if let Some(w) = r.witness() {
                    let np = new_produces_of(&w);
                    if !covered[np as usize] {
                        covered[np as usize] = true;
                        witnesses.insert(w);
                    }
                }
                if !covered[1] {
                    // The allowed set widens where a new-generation prefix
                    // overlaps; hunt for one such representative.
                    for q in &inj.new_prefixes {
                        let narrowed =
                            r.intersect_match(&Match::on(Field::DstIp, Pattern::Prefix(*q)));
                        if let Some(w) = narrowed.and_then(|n| n.witness()) {
                            covered[1] = true;
                            witnesses.insert(w);
                            break;
                        }
                    }
                }
            }
        };
        for mid_r in &mid_regions {
            for old_r in &old_regions {
                let Some(mo) = mid_r.intersect(old_r) else {
                    continue;
                };
                for new_r in &new_regions {
                    if let Some(cell) = mo.intersect(new_r) {
                        harvest(&cell);
                    }
                }
            }
        }

        let mut out = Vec::new();
        for w in witnesses {
            let mid = outcome(tables, &w);
            let old = outcome(&self.old_tables, &w);
            let new = outcome(&self.new_tables, &w);
            // Pre-barrier: old always allowed; new only if the new FIBs
            // emit the identical packet (same tag, same destination) — a
            // packet the new world never produces has no claim to the new
            // behavior. Post-barrier: new only.
            let new_produces = new_produces_of(&w);
            let allowed = match phase {
                Phase::Update => (true, new_produces),
                Phase::NewExact => (false, true),
            };
            let ok = (allowed.0 && mid == old) || (allowed.1 && mid == new);
            if ok {
                continue;
            }
            out.push(self.classify(inj, &w, mid, old, new, allowed));
        }
        out
    }

    /// Build the violation record for a witness whose intermediate outcome
    /// matches no allowed behavior.
    fn classify(
        &self,
        inj: &Injection,
        witness: &Packet,
        mid: BTreeSet<Packet>,
        old: BTreeSet<Packet>,
        new: BTreeSet<Packet>,
        allowed: (bool, bool),
    ) -> Violation {
        let describe = |set: &BTreeSet<Packet>| -> String {
            if set.is_empty() {
                "drop".to_string()
            } else {
                set.iter()
                    .map(|p| match p.get(Field::Port) {
                        Some(e) => format!("port {e}"),
                        None => "no egress".to_string(),
                    })
                    .collect::<Vec<_>>()
                    .join("+")
            }
        };
        let expectation = match allowed {
            (true, true) => format!("old={} or new={}", describe(&old), describe(&new)),
            (true, false) => format!("old={}", describe(&old)),
            _ => format!("new={}", describe(&new)),
        };

        // A transient drop of traffic the allowed behavior delivers:
        // blackhole.
        if mid.is_empty() {
            return Violation {
                step: 0,
                step_desc: String::new(),
                kind: ViolationKind::Blackhole,
                sender: inj.sender,
                witness: Some(witness.clone()),
                message: format!(
                    "traffic from P{} tagged {:#x} is transiently blackholed \
                     (expected {expectation})",
                    inj.sender, inj.tag
                ),
            };
        }

        // Delivered somewhere: a leak if any delivery reaches a participant
        // that never advertised the witness's destination to the sender.
        let dst_prefix = inj
            .old_prefixes
            .iter()
            .chain(inj.new_prefixes.iter())
            .find(|p| {
                witness
                    .dst_ip()
                    .map(|ip| p.contains_addr(ip))
                    .unwrap_or(false)
            });
        for p in &mid {
            let Some(egress) = p.get(Field::Port) else {
                continue;
            };
            if egress >= self.vport_base as u64 {
                continue;
            }
            let Some(receiver) = self.port_owner.get(&(egress as u32)) else {
                continue;
            };
            if *receiver == inj.sender {
                continue; // hairpin back to the sender is not a leak
            }
            let entitled = dst_prefix
                .map(|pref| {
                    self.advertised
                        .get(&(*receiver, inj.sender))
                        .map(|s| s.contains(pref))
                        .unwrap_or(false)
                })
                .unwrap_or(true);
            if !entitled {
                let pref = dst_prefix.expect("entitled is false only with a prefix");
                return Violation {
                    step: 0,
                    step_desc: String::new(),
                    kind: ViolationKind::IsolationLeak,
                    sender: inj.sender,
                    witness: Some(witness.clone()),
                    message: format!(
                        "traffic from P{} for {} is transiently delivered to \
                         P{} (port {}), which never advertised {} to P{} \
                         (expected {expectation})",
                        inj.sender, pref, receiver, egress, pref, inj.sender
                    ),
                };
            }
        }

        Violation {
            step: 0,
            step_desc: String::new(),
            kind: ViolationKind::Inconsistent,
            sender: inj.sender,
            witness: Some(witness.clone()),
            message: format!(
                "traffic from P{} tagged {:#x} transiently sees {}, matching \
                 no allowed behavior (expected {expectation})",
                inj.sender,
                inj.tag,
                describe(&mid)
            ),
        }
    }

    /// Check a whole intermediate state for the given injection indices.
    pub fn check_state(
        &self,
        state: &[TableState],
        indices: &[usize],
        phase: Phase,
    ) -> Vec<Violation> {
        let tables: Vec<Classifier> = state.iter().map(classifier_of).collect();
        let mut out = Vec::new();
        for &idx in indices {
            out.extend(self.check_injection(&tables, idx, phase));
        }
        out
    }
}
