//! Tuple-space lookup index for [`FlowTable`](crate::FlowTable).
//!
//! A linear flow-table scan pays O(total rules) per packet; at fig8 scale
//! (300 participants, tens of thousands of rules) that dominates the
//! simulated data plane. This module buckets rules by their *match
//! signature* — the set of fields a rule constrains and whether each
//! constraint is exact or a prefix (see [`sdx_policy::MatchSignature`]) —
//! the tuple-space search that Open vSwitch's megaflow classifier uses,
//! with one tuple per signature instead of one per mask.
//!
//! Inside a bucket every rule constrains the same fields the same way, so:
//!
//! * the **exact** fields form a hash key (the packet's values on those
//!   fields select a group in O(1));
//! * at most one **prefix** field (`DstIp` preferred — SDX rules
//!   overwhelmingly constrain destination prefixes) keys a per-group
//!   [`PrefixTrie`], walked along the packet's containing-prefix chain;
//! * the rare remaining prefix constraints (e.g. a rule matching both
//!   `SrcIp` and `DstIp` ranges) ride on each entry as *residual* patterns
//!   checked directly.
//!
//! Buckets are probed in descending order of their highest priority, and
//! probing stops as soon as the current best candidate outranks every
//! remaining bucket's ceiling. In SDX tables that exit rarely fires: every
//! bucket's priorities span most of the table. What names the few buckets
//! a packet can hit is the **partition field** — the exact field most
//! rules pin, which in every SDX table is `DstMac`, the §4.2 VMAC tag. The
//! index keeps, per value of that field, a mask of the buckets holding a
//! group under the value, plus one mask of the buckets that leave the
//! field wild, and probes only those buckets (in the same order, with the
//! same early exit) — Open vSwitch's classifier partitioning on top of
//! tuple-space search. The masks are inline `u64`s with one bit per
//! bucket, by creation index, so re-sorting the probe order leaves them
//! valid; the 65th bucket on is probed for every packet.
//!
//! [`build`](TableIndex::build) indexes a whole rule list in one pass:
//! bucket every rule, choose the partition field, fill the masks and sort
//! the probe order once. [`insert`](TableIndex::insert) sets the rule's
//! bit for the §4.3.2 fast path's fragment rules and re-sorts the probe
//! order only when the rule's bucket now outranks its predecessor there (a
//! new bucket starts last); removals rebuild.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use sdx_ip::PrefixTrie;
use sdx_policy::{Field, Match, MatchSignature, Packet, Pattern};

/// Size counters for a table's index (reported by the dataplane bench).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Distinct match signatures (tuple-space buckets).
    pub buckets: usize,
    /// Hash groups across all buckets (distinct exact-field value tuples).
    pub groups: usize,
    /// Rules indexed.
    pub rules: usize,
}

impl IndexStats {
    /// Component-wise sum (aggregating a pipeline of tables).
    pub fn merge(self, other: IndexStats) -> IndexStats {
        IndexStats {
            buckets: self.buckets + other.buckets,
            groups: self.groups + other.groups,
            rules: self.rules + other.rules,
        }
    }
}

/// A candidate rule inside a bucket: the arbitration key plus any prefix
/// constraints not covered by the bucket's trie field.
#[derive(Debug, Clone)]
struct Entry {
    priority: u32,
    /// Install sequence — the first-installed-wins tiebreak within a
    /// priority band, unique per rule within a table.
    seq: u64,
    /// Prefix constraints on fields other than the bucket's primary prefix
    /// field; empty for almost every SDX-compiled rule.
    residual: Box<[(Field, Pattern)]>,
}

impl Entry {
    fn key(&self) -> (u32, u64) {
        (self.priority, self.seq)
    }

    fn satisfied(&self, pkt: &Packet) -> bool {
        self.residual
            .iter()
            .all(|(f, pat)| pkt.get(*f).map(|v| pat.matches(v)).unwrap_or(false))
    }
}

/// Does candidate `a` beat candidate `b`? Higher priority wins; within a
/// priority, the earlier install (smaller sequence number) wins.
fn better(a: (u32, u64), b: (u32, u64)) -> bool {
    a.0 > b.0 || (a.0 == b.0 && a.1 < b.1)
}

/// Entries kept best-first: descending priority, ascending sequence.
fn push_sorted(entries: &mut Vec<Entry>, e: Entry) {
    let pos = entries.partition_point(|x| better(x.key(), e.key()));
    entries.insert(pos, e);
}

/// The per-group store: a plain candidate list when the signature has no
/// prefix field, a prefix trie keyed by the primary prefix field otherwise.
#[derive(Debug, Clone)]
enum Group {
    Flat(Vec<Entry>),
    Trie(PrefixTrie<Vec<Entry>>),
}

/// Buckets the per-value masks cover (one bit each, by creation index).
const MASK_BITS: usize = u64::BITS as usize;

/// One tuple-space bucket: all rules sharing a match signature.
#[derive(Debug, Clone)]
struct Bucket {
    /// Fields hashed into the group key, in field order.
    exact_fields: Box<[Field]>,
    /// The trie-keyed prefix field, if the signature has prefix constraints.
    primary: Option<Field>,
    /// The highest priority of any rule in the bucket — the probe-order /
    /// early-exit bound. Monotonically non-decreasing under insertion (the
    /// whole index is rebuilt on removal).
    max_priority: u32,
    rules: usize,
    groups: HashMap<Box<[u64]>, Group>,
}

impl Bucket {
    /// The bucket's best candidate matching `pkt`, if any.
    fn lookup(&self, pkt: &Packet) -> Option<(u32, u64)> {
        // The exact-field values form the group key; a packet missing any
        // constrained header cannot match (matching absent headers is
        // false), so the bucket is skipped outright.
        let mut key = [0u64; Field::ALL.len()];
        for (i, f) in self.exact_fields.iter().enumerate() {
            key[i] = pkt.get(*f)?;
        }
        let group = self.groups.get(&key[..self.exact_fields.len()])?;
        match group {
            Group::Flat(entries) => {
                // Best-first order: the first satisfied entry wins.
                entries.iter().find(|e| e.satisfied(pkt)).map(Entry::key)
            }
            Group::Trie(trie) => {
                let field = self.primary.expect("trie group implies primary field");
                let addr = Ipv4Addr::from(pkt.get(field)? as u32);
                let mut best: Option<(u32, u64)> = None;
                // Every stored prefix containing the address can hold the
                // winner (a shorter prefix may carry a higher priority), so
                // walk the whole containing chain — at most 32 nodes.
                trie.walk(addr, |_prefix, entries| {
                    if let Some(e) = entries.iter().find(|e| e.satisfied(pkt)) {
                        if best.map(|b| better(e.key(), b)).unwrap_or(true) {
                            best = Some(e.key());
                        }
                    }
                });
                best
            }
        }
    }
}

/// The tuple-space index over one flow table's rules. Owned and kept in
/// sync by [`FlowTable`](crate::FlowTable); identifies rules by
/// `(priority, seq)`, which the table maps back to rule storage.
#[derive(Debug, Clone, Default)]
pub(crate) struct TableIndex {
    buckets: Vec<Bucket>,
    by_sig: HashMap<MatchSignature, usize>,
    /// Bucket indices sorted by descending `max_priority` — the probe order.
    order: Vec<usize>,
    /// The exact field most rules pinned at the last build; `None` when no
    /// rule pinned any field.
    partition: Option<Field>,
    /// Partition value → the buckets (bit `i` = `buckets[i]`, for the
    /// first [`MASK_BITS`]) holding a group under it.
    pinned: HashMap<u64, u64>,
    /// The buckets that leave the partition field wild.
    wild: u64,
}

impl TableIndex {
    /// Index a whole rule list in one pass. Each item is a rule's match,
    /// priority and install sequence; sequences must be unique and reflect
    /// install order.
    pub(crate) fn build<'a>(rules: impl IntoIterator<Item = (&'a Match, u32, u64)>) -> Self {
        let mut index = TableIndex::default();
        for (m, priority, seq) in rules {
            index.add(m, priority, seq);
        }
        let mut pins = [0usize; Field::ALL.len()];
        for bucket in &index.buckets {
            for f in bucket.exact_fields.iter() {
                pins[*f as usize] += bucket.rules;
            }
        }
        let mut most = 0;
        for f in Field::ALL {
            if pins[f as usize] > most {
                most = pins[f as usize];
                index.partition = Some(f);
            }
        }
        for (bi, bucket) in index.buckets.iter().enumerate().take(MASK_BITS) {
            match slot_of(&bucket.exact_fields, index.partition) {
                Some(slot) => {
                    for key in bucket.groups.keys() {
                        *index.pinned.entry(key[slot]).or_default() |= 1 << bi;
                    }
                }
                None => index.wild |= 1 << bi,
            }
        }
        index.sort_order();
        index
    }

    /// Index one rule. `seq` must be unique within the table and reflect
    /// install order (later installs get larger sequence numbers).
    pub(crate) fn insert(&mut self, m: &Match, priority: u32, seq: u64) {
        let (bi, value) = self.add(m, priority, seq);
        if bi < MASK_BITS {
            match value {
                Some(value) => *self.pinned.entry(value).or_default() |= 1 << bi,
                None => self.wild |= 1 << bi,
            }
        }
        let pos = self
            .order
            .iter()
            .position(|&b| b == bi)
            .expect("every bucket is in the probe order");
        let ceiling = |p: usize| self.buckets[self.order[p]].max_priority;
        if pos > 0 && ceiling(pos - 1) < ceiling(pos) {
            self.sort_order();
        }
    }

    /// Put one rule in its bucket, creating the bucket (last in the probe
    /// order) if the signature is new; returns the bucket's index and the
    /// rule's partition value, if the bucket pins the partition field.
    /// Leaves sorting the probe order and the masks to the caller.
    fn add(&mut self, m: &Match, priority: u32, seq: u64) -> (usize, Option<u64>) {
        let sig = m.signature();
        let bi = match self.by_sig.get(&sig) {
            Some(&i) => i,
            None => {
                let prefix_fields: Vec<Field> = sig.prefix_fields().collect();
                let primary = prefix_fields
                    .iter()
                    .copied()
                    .find(|f| *f == Field::DstIp)
                    .or_else(|| prefix_fields.first().copied());
                let i = self.buckets.len();
                self.buckets.push(Bucket {
                    exact_fields: sig.exact_fields().collect(),
                    primary,
                    max_priority: priority,
                    rules: 0,
                    groups: HashMap::new(),
                });
                self.by_sig.insert(sig, i);
                self.order.push(i);
                i
            }
        };
        let bucket = &mut self.buckets[bi];
        let key: Box<[u64]> = bucket
            .exact_fields
            .iter()
            .map(|f| match m.get(*f) {
                Some(Pattern::Exact(v)) => *v,
                other => unreachable!("signature promised exact pattern, got {other:?}"),
            })
            .collect();
        let value = slot_of(&bucket.exact_fields, self.partition).map(|slot| key[slot]);
        let residual: Box<[(Field, Pattern)]> = m
            .iter()
            .filter(|(f, p)| matches!(p, Pattern::Prefix(_)) && Some(**f) != bucket.primary)
            .map(|(f, p)| (*f, *p))
            .collect();
        let entry = Entry {
            priority,
            seq,
            residual,
        };
        match bucket.primary {
            None => {
                let group = bucket
                    .groups
                    .entry(key)
                    .or_insert_with(|| Group::Flat(Vec::new()));
                let Group::Flat(entries) = group else {
                    unreachable!("flat bucket holds flat groups");
                };
                push_sorted(entries, entry);
            }
            Some(field) => {
                let Some(Pattern::Prefix(prefix)) = m.get(field) else {
                    unreachable!("signature promised prefix pattern on {field}");
                };
                let group = bucket
                    .groups
                    .entry(key)
                    .or_insert_with(|| Group::Trie(PrefixTrie::new()));
                let Group::Trie(trie) = group else {
                    unreachable!("prefix bucket holds trie groups");
                };
                match trie.get_mut(prefix) {
                    Some(entries) => push_sorted(entries, entry),
                    None => {
                        trie.insert(*prefix, vec![entry]);
                    }
                }
            }
        }
        bucket.max_priority = bucket.max_priority.max(priority);
        bucket.rules += 1;
        (bi, value)
    }

    /// Sort the probe order by descending ceiling (stably: equal ceilings
    /// keep their order).
    fn sort_order(&mut self) {
        let buckets = &self.buckets;
        self.order
            .sort_by(|&a, &b| buckets[b].max_priority.cmp(&buckets[a].max_priority));
    }

    /// The best `(priority, seq)` candidate matching `pkt`, if any rule
    /// does.
    pub(crate) fn lookup(&self, pkt: &Packet) -> Option<(u32, u64)> {
        self.search(pkt, || {})
    }

    /// How many buckets [`lookup`](Self::lookup) probes for `pkt`.
    pub(crate) fn probes(&self, pkt: &Packet) -> usize {
        let mut probes = 0;
        self.search(pkt, || probes += 1);
        probes
    }

    /// Probe the buckets `pkt` can hit — those pinning its partition value,
    /// those leaving the partition field wild, and every bucket past the
    /// masks — highest ceiling first, calling `probed` before each probe.
    /// Stops as soon as the running best outranks every remaining ceiling;
    /// a bucket whose ceiling *equals* the running best must still be
    /// probed — it may hold an equal-priority rule installed earlier.
    fn search(&self, pkt: &Packet, mut probed: impl FnMut()) -> Option<(u32, u64)> {
        let mut mask = self.wild;
        if let Some(value) = self.partition.and_then(|f| pkt.get(f)) {
            mask |= self.pinned.get(&value).copied().unwrap_or(0);
        }
        let mut best: Option<(u32, u64)> = None;
        for &bi in &self.order {
            if bi < MASK_BITS && mask & (1 << bi) == 0 {
                continue;
            }
            let bucket = &self.buckets[bi];
            if let Some((p, _)) = best {
                if bucket.max_priority < p {
                    break;
                }
            }
            probed();
            if let Some(candidate) = bucket.lookup(pkt) {
                if best.map(|b| better(candidate, b)).unwrap_or(true) {
                    best = Some(candidate);
                }
            }
        }
        best
    }

    /// The partition field chosen at the last build.
    #[cfg(test)]
    pub(crate) fn partition(&self) -> Option<Field> {
        self.partition
    }

    /// Size counters.
    pub(crate) fn stats(&self) -> IndexStats {
        IndexStats {
            buckets: self.buckets.len(),
            groups: self.buckets.iter().map(|b| b.groups.len()).sum(),
            rules: self.buckets.iter().map(|b| b.rules).sum(),
        }
    }
}

/// Where `partition` sits among a bucket's exact fields, if it is one.
fn slot_of(exact_fields: &[Field], partition: Option<Field>) -> Option<usize> {
    exact_fields.iter().position(|f| Some(*f) == partition)
}
