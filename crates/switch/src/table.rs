use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use sdx_policy::{Action, Classifier, Match, Packet};
use serde::{Deserialize, Serialize};

use crate::index::{IndexStats, TableIndex};

/// A single flow-table entry: an OpenFlow-style (priority, match, actions)
/// triple.
///
/// The match/action model is shared with the policy compiler ([`Match`] /
/// [`Action`]), reflecting the paper's observation that compiled SDX policies
/// "have a straightforward mapping to low-level rules on OpenFlow switches".
/// Packet counters live on the owning [`FlowTable`] (see
/// [`FlowTable::packet_count`]), keyed by rule position, so the read-only
/// match path can bump them without exclusive access.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowRule {
    /// Higher wins.
    pub priority: u32,
    /// Cookie for bulk identification/removal (e.g. fast-path rules carry a
    /// generation cookie so the background optimizer can garbage-collect).
    pub cookie: u64,
    /// The match.
    pub match_: Match,
    /// The action list (empty = drop).
    pub actions: Vec<Action>,
    /// Continue matching in this pipeline table after applying the actions
    /// (OpenFlow `goto_table`). `None` = emit.
    pub goto_table: Option<usize>,
}

impl FlowRule {
    /// A rule with a zeroed cookie.
    pub fn new(priority: u32, match_: Match, actions: Vec<Action>) -> Self {
        FlowRule {
            priority,
            cookie: 0,
            match_,
            actions,
            goto_table: None,
        }
    }

    /// Builder: tag with a cookie.
    pub fn with_cookie(mut self, cookie: u64) -> Self {
        self.cookie = cookie;
        self
    }

    /// Builder: continue in a later pipeline table (OpenFlow `goto_table`).
    pub fn with_goto(mut self, table: usize) -> Self {
        self.goto_table = Some(table);
        self
    }
}

impl fmt::Display for FlowRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "prio={} {} -> ", self.priority, self.match_)?;
        if self.actions.is_empty() {
            write!(f, "drop")?;
        } else {
            for (i, a) in self.actions.iter().enumerate() {
                if i > 0 {
                    write!(f, " | ")?;
                }
                write!(f, "{a}")?;
            }
        }
        if let Some(t) = self.goto_table {
            write!(f, " goto({t})")?;
        }
        Ok(())
    }
}

/// A priority-ordered flow table with an indexed fast path.
///
/// Rules are kept sorted by descending priority; among equal priorities,
/// insertion order decides (first installed wins), matching common switch
/// behavior closely enough for the SDX's generated rules, which never rely
/// on equal-priority overlap.
///
/// Lookups go through a tuple-space index (see [`crate::index`]): rules are
/// bucketed by match signature, exact fields are hash keys, prefix fields
/// walk a binary trie, and only the buckets that can hold the packet's
/// value of the partition field (the exact field most rules pin) are
/// probed, highest-priority-first with an early exit.
/// [`peek_pos_linear`](Self::peek_pos_linear) keeps the O(n) scan as the
/// oracle the property tests and the dataplane bench baseline measure
/// against. Both lookups are read-only and return a position; the switch
/// counts hits there with [`add_hits`](Self::add_hits), whose per-rule
/// counters are atomic so no lookup needs `&mut self`.
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct FlowTable {
    /// Sorted by (priority descending, install sequence ascending) — a total
    /// order, since sequence numbers are unique.
    rules: Vec<FlowRule>,
    /// `(priority, install sequence)` of each rule, aligned with `rules`:
    /// the dense key the index names rules by. Sequences ascend within
    /// every priority band (the first-installed-wins tiebreak).
    keys: Vec<(u32, u64)>,
    /// Packets that hit each rule, aligned with `rules`.
    counters: Vec<AtomicU64>,
    next_seq: u64,
    index: TableIndex,
}

impl Clone for FlowTable {
    fn clone(&self) -> Self {
        FlowTable {
            rules: self.rules.clone(),
            keys: self.keys.clone(),
            counters: self
                .counters
                .iter()
                .map(|c| AtomicU64::new(c.load(Ordering::Relaxed)))
                .collect(),
            next_seq: self.next_seq,
            index: self.index.clone(),
        }
    }
}

impl FlowTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of installed rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The rules, highest priority first.
    pub fn rules(&self) -> &[FlowRule] {
        &self.rules
    }

    /// Packets that hit `rules()[i]`. Panics if `i` is out of range.
    pub fn packet_count(&self, i: usize) -> u64 {
        self.counters[i].load(Ordering::Relaxed)
    }

    /// The highest installed priority, if any rule is installed.
    pub fn max_priority(&self) -> Option<u32> {
        self.keys.first().map(|k| k.0)
    }

    /// Size counters of the lookup index.
    pub fn index_stats(&self) -> IndexStats {
        self.index.stats()
    }

    /// How many index buckets a lookup of `pkt` probes (the dataplane
    /// bench's probes-per-packet count; the lookup itself counts nothing).
    pub fn buckets_probed(&self, pkt: &Packet) -> usize {
        self.index.probes(pkt)
    }

    /// Install a rule (stable within its priority band).
    pub fn install(&mut self, rule: FlowRule) {
        let pos = self.keys.partition_point(|&(p, _)| p >= rule.priority);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.index.insert(&rule.match_, rule.priority, seq);
        self.keys.insert(pos, (rule.priority, seq));
        self.rules.insert(pos, rule);
        self.counters.insert(pos, AtomicU64::new(0));
    }

    /// Remove every rule carrying `cookie`; returns how many were removed.
    pub fn remove_by_cookie(&mut self, cookie: u64) -> usize {
        let before = self.rules.len();
        if !self.rules.iter().any(|r| r.cookie == cookie) {
            return 0;
        }
        let mut rules = Vec::with_capacity(before);
        let mut keys = Vec::with_capacity(before);
        let mut counters = Vec::with_capacity(before);
        for ((rule, key), counter) in self
            .rules
            .drain(..)
            .zip(self.keys.drain(..))
            .zip(self.counters.drain(..))
        {
            if rule.cookie != cookie {
                rules.push(rule);
                keys.push(key);
                counters.push(counter);
            }
        }
        self.rules = rules;
        self.keys = keys;
        self.counters = counters;
        self.rebuild_index();
        before - self.rules.len()
    }

    /// Remove all rules.
    pub fn clear(&mut self) {
        self.rules.clear();
        self.keys.clear();
        self.counters.clear();
        self.index = TableIndex::default();
    }

    /// Rebuild the lookup index from the rule list in one pass, choosing
    /// its partition field afresh. Insertions maintain the index
    /// incrementally; this is the bulk path used by classifier installs
    /// and after removals (and by the dataplane bench to time index
    /// construction).
    pub fn rebuild_index(&mut self) {
        self.index = TableIndex::build(
            self.rules
                .iter()
                .zip(&self.keys)
                .map(|(rule, &(priority, seq))| (&rule.match_, priority, seq)),
        );
    }

    /// Replace the whole table with a compiled classifier. Rule `i` of the
    /// classifier gets priority `len - i`, preserving first-match-wins.
    pub fn install_classifier(&mut self, classifier: &Classifier, cookie: u64) {
        self.install_classifier_goto(classifier, cookie, None);
    }

    /// Like [`install_classifier`](Self::install_classifier), additionally
    /// setting `goto_table` on every non-drop rule — how a policy stage is
    /// installed into a multi-table pipeline.
    pub fn install_classifier_goto(
        &mut self,
        classifier: &Classifier,
        cookie: u64,
        goto: Option<usize>,
    ) {
        self.clear();
        let n = u32::try_from(classifier.len()).expect("flow-table priority space exhausted");
        // Priorities strictly descend, so classifier order is table order.
        for (i, rule) in classifier.rules().iter().enumerate() {
            let priority = n - i as u32;
            let mut fr = FlowRule::new(priority, rule.match_.clone(), rule.actions.clone())
                .with_cookie(cookie);
            if let (Some(t), false) = (goto, rule.is_drop()) {
                fr = fr.with_goto(t);
            }
            self.keys.push((priority, self.next_seq));
            self.next_seq += 1;
            self.rules.push(fr);
            self.counters.push(AtomicU64::new(0));
        }
        self.rebuild_index();
    }

    /// Remove the first installed rule whose behavior-relevant fields equal
    /// `rule`'s — priority, match, actions, and `goto_table`, but *not* the
    /// cookie (an update plan retires rules by content, not by which
    /// generation installed them). Returns whether a rule was removed.
    pub fn remove_matching(&mut self, rule: &FlowRule) -> bool {
        let Some(pos) = self.rules.iter().position(|r| {
            r.priority == rule.priority
                && r.match_ == rule.match_
                && r.actions == rule.actions
                && r.goto_table == rule.goto_table
        }) else {
            return false;
        };
        self.rules.remove(pos);
        self.keys.remove(pos);
        self.counters.remove(pos);
        self.rebuild_index();
        true
    }

    /// FNV-1a fingerprint of the table's behavior-relevant contents: every
    /// rule's priority, match, actions, and `goto_table`, in table order.
    /// Cookies, counters, and install sequence numbers are excluded, so two
    /// tables holding the same rules at the same priorities fingerprint
    /// equal no matter how they got there — the equality the update-plan
    /// round-trip property checks.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for b in bytes {
                hash ^= u64::from(*b);
                hash = hash.wrapping_mul(PRIME);
            }
        };
        for rule in &self.rules {
            let mut line = format!("prio={} {} ->", rule.priority, rule.match_);
            for a in &rule.actions {
                line.push_str(&format!(" {a}"));
            }
            if let Some(t) = rule.goto_table {
                line.push_str(&format!(" goto({t})"));
            }
            eat(line.as_bytes());
            eat(b"\n");
        }
        hash
    }

    /// Position of the rule identified by `(priority, seq)` — one binary
    /// search over the dense keys, which are totally ordered by (priority
    /// desc, seq asc).
    fn position_of(&self, priority: u32, seq: u64) -> Option<usize> {
        self.keys
            .binary_search_by(|&(p, s)| priority.cmp(&p).then(s.cmp(&seq)))
            .ok()
    }

    /// Indexed position of the best (highest-priority, first-installed)
    /// rule matching `pkt`, without touching counters — the data plane's
    /// one lookup: the switch counts the hit at this position with
    /// [`add_hits`](Self::add_hits), and each shard counts in its *own*
    /// array instead of contending on the table's shared counters.
    pub fn peek_pos(&self, pkt: &Packet) -> Option<usize> {
        let (priority, seq) = self.index.lookup(pkt)?;
        let pos = self
            .position_of(priority, seq)
            .expect("index candidates name installed rules");
        debug_assert!(self.rules[pos].match_.matches(pkt));
        Some(pos)
    }

    /// The linear-scan oracle for [`peek_pos`](Self::peek_pos): same
    /// semantics, O(rules) per packet. Kept public so the property tests
    /// and the dataplane bench baseline can measure and diff against it.
    pub fn peek_pos_linear(&self, pkt: &Packet) -> Option<usize> {
        self.rules.iter().position(|r| r.match_.matches(pkt))
    }

    /// The rule [`peek_pos`](Self::peek_pos) finds.
    pub fn peek(&self, pkt: &Packet) -> Option<&FlowRule> {
        self.peek_pos(pkt).map(|pos| &self.rules[pos])
    }

    /// The rule [`peek_pos_linear`](Self::peek_pos_linear) finds.
    pub fn peek_linear(&self, pkt: &Packet) -> Option<&FlowRule> {
        self.peek_pos_linear(pkt).map(|pos| &self.rules[pos])
    }

    /// The rule at position `pos` (as returned by
    /// [`peek_pos`](Self::peek_pos)). Panics if out of range.
    pub fn rule_at(&self, pos: usize) -> &FlowRule {
        &self.rules[pos]
    }

    /// Add `n` packet hits to the rule at `pos` — the aggregation half of
    /// the per-shard counting protocol. Atomic, so read-only lookups and
    /// counter folds need no exclusive access. Panics if out of range.
    pub fn add_hits(&self, pos: usize, n: u64) {
        self.counters[pos].fetch_add(n, Ordering::Relaxed);
    }

    /// Total packets matched across all rules.
    pub fn total_hits(&self) -> u64 {
        self.counters
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }
}

impl fmt::Display for FlowTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, r) in self.rules.iter().enumerate() {
            writeln!(f, "{r} (n={})", self.packet_count(i))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdx_policy::{Field, Pattern};

    fn m(port: u32) -> Match {
        Match::on(Field::Port, Pattern::Exact(port as u64))
    }

    #[test]
    fn priority_ordering() {
        let mut t = FlowTable::new();
        t.install(FlowRule::new(1, Match::any(), vec![]));
        t.install(FlowRule::new(
            10,
            m(1),
            vec![Action::set(Field::Port, 9u32)],
        ));
        t.install(FlowRule::new(5, m(1), vec![]));
        assert_eq!(t.rules()[0].priority, 10);
        assert_eq!(t.rules()[2].priority, 1);

        let pkt = Packet::new().with(Field::Port, 1u32);
        let hit = t.peek(&pkt).unwrap();
        assert_eq!(hit.priority, 10);
    }

    #[test]
    fn equal_priority_first_installed_wins() {
        let mut t = FlowTable::new();
        t.install(FlowRule::new(5, m(1), vec![Action::set(Field::Port, 7u32)]));
        t.install(FlowRule::new(5, m(1), vec![Action::set(Field::Port, 8u32)]));
        let pkt = Packet::new().with(Field::Port, 1u32);
        assert_eq!(t.peek(&pkt).unwrap().actions[0].get(Field::Port), Some(7));
        assert_eq!(
            t.peek_linear(&pkt).unwrap().actions[0].get(Field::Port),
            Some(7)
        );
    }

    #[test]
    fn counters_track_hits() {
        // The switch counts each hit at the position either lookup returns.
        let mut sw = crate::SoftSwitch::new([1]);
        sw.install_rule(FlowRule::new(1, Match::any(), vec![]));
        let pkt = Packet::new().with(Field::Port, 1u32);
        sw.process(&pkt);
        sw.process(&pkt);
        assert_eq!(sw.table().packet_count(0), 2);
        sw.set_linear_scan(true);
        sw.process(&pkt);
        assert_eq!(sw.table().packet_count(0), 3);
        assert_eq!(sw.table().total_hits(), 3);
    }

    #[test]
    fn cookie_removal() {
        let mut t = FlowTable::new();
        t.install(FlowRule::new(1, m(1), vec![]).with_cookie(7));
        t.install(FlowRule::new(2, m(2), vec![]).with_cookie(7));
        t.install(FlowRule::new(3, m(3), vec![]).with_cookie(9));
        assert_eq!(t.remove_by_cookie(7), 2);
        assert_eq!(t.len(), 1);
        assert_eq!(t.rules()[0].cookie, 9);
        // The index survives removal: the remaining rule is still found.
        let pkt = Packet::new().with(Field::Port, 3u32);
        assert_eq!(t.peek(&pkt).unwrap().cookie, 9);
        assert!(t.peek(&Packet::new().with(Field::Port, 1u32)).is_none());
    }

    #[test]
    fn classifier_install_preserves_order() {
        use sdx_policy::{fwd, match_};
        let policy =
            (match_(Field::DstPort, 80u16) >> fwd(1)) + (match_(Field::DstPort, 443u16) >> fwd(2));
        let classifier = policy.compile();
        let mut t = FlowTable::new();
        t.install_classifier(&classifier, 1);
        assert_eq!(t.len(), classifier.len());
        // Behavior matches the classifier on a sample.
        let pkt = Packet::new().with(Field::DstPort, 443u16);
        let rule = t.peek(&pkt).unwrap();
        assert_eq!(rule.actions[0].get(Field::Port), Some(2));
    }

    #[test]
    fn band_above_ceiling_overrides_until_removed() {
        use sdx_policy::{fwd, match_};
        let mut t = FlowTable::new();
        t.install_classifier(&(match_(Field::DstPort, 80u16) >> fwd(1)).compile(), 1);
        // A fast-path fragment: installed directly above the live ceiling,
        // it sends port-80 to 2 instead.
        let ceiling = t.max_priority().unwrap();
        let fragment = (match_(Field::DstPort, 80u16) >> fwd(2)).compile();
        let n = fragment.len() as u32;
        for (i, r) in fragment.rules().iter().enumerate() {
            t.install(
                FlowRule::new(ceiling + n - i as u32, r.match_.clone(), r.actions.clone())
                    .with_cookie(2),
            );
        }
        assert!(t.max_priority().unwrap() > ceiling);
        let pkt = Packet::new().with(Field::DstPort, 80u16);
        assert_eq!(t.peek(&pkt).unwrap().actions[0].get(Field::Port), Some(2));
        // Retiring the fragment restores the original behavior and ceiling.
        t.remove_by_cookie(2);
        assert_eq!(t.peek(&pkt).unwrap().actions[0].get(Field::Port), Some(1));
        assert_eq!(t.max_priority(), Some(ceiling));
    }

    #[test]
    fn remove_matching_ignores_cookie() {
        let mut t = FlowTable::new();
        t.install(FlowRule::new(5, m(1), vec![]).with_cookie(7));
        t.install(FlowRule::new(3, m(2), vec![]).with_cookie(7));
        // Same content, different cookie: must still remove (once).
        let probe = FlowRule::new(5, m(1), vec![]).with_cookie(99);
        assert!(t.remove_matching(&probe));
        assert!(!t.remove_matching(&probe));
        assert_eq!(t.len(), 1);
        // The index survives: the remaining rule is still found.
        assert_eq!(
            t.peek(&Packet::new().with(Field::Port, 2u32))
                .unwrap()
                .priority,
            3
        );
        assert!(t.peek(&Packet::new().with(Field::Port, 1u32)).is_none());
    }

    #[test]
    fn fingerprint_tracks_content_not_provenance() {
        let mut a = FlowTable::new();
        a.install(FlowRule::new(5, m(1), vec![Action::set(Field::Port, 9u32)]).with_cookie(1));
        a.install(FlowRule::new(3, m(2), vec![]).with_cookie(1));
        // Same rules, different install order and cookies.
        let mut b = FlowTable::new();
        b.install(FlowRule::new(3, m(2), vec![]).with_cookie(42));
        b.install(FlowRule::new(5, m(1), vec![Action::set(Field::Port, 9u32)]).with_cookie(7));
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Content changes move the fingerprint.
        b.install(FlowRule::new(1, Match::any(), vec![]));
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn indexed_lookup_handles_prefixes_and_wildcards() {
        let mut t = FlowTable::new();
        t.install(FlowRule::new(
            5,
            Match::on(Field::DstIp, Pattern::Prefix("10.0.0.0/8".parse().unwrap())),
            vec![Action::set(Field::Port, 1u32)],
        ));
        t.install(FlowRule::new(
            7,
            Match::on(
                Field::DstIp,
                Pattern::Prefix("10.1.0.0/16".parse().unwrap()),
            ),
            vec![Action::set(Field::Port, 2u32)],
        ));
        t.install(FlowRule::new(1, Match::any(), vec![]));

        let inner = Packet::new().with(Field::DstIp, std::net::Ipv4Addr::new(10, 1, 2, 3));
        let outer = Packet::new().with(Field::DstIp, std::net::Ipv4Addr::new(10, 9, 9, 9));
        let miss = Packet::new().with(Field::DstIp, std::net::Ipv4Addr::new(99, 0, 0, 1));
        assert_eq!(t.peek(&inner).unwrap().priority, 7);
        assert_eq!(t.peek(&outer).unwrap().priority, 5);
        assert_eq!(t.peek(&miss).unwrap().priority, 1);
        for pkt in [&inner, &outer, &miss] {
            assert_eq!(t.peek(pkt), t.peek_linear(pkt));
        }
        let stats = t.index_stats();
        assert_eq!(stats.rules, 3);
        assert_eq!(stats.buckets, 2); // {dstip-prefix}, {wildcard}
    }

    /// A match pinning `field` to `value` and each of `also` to 1.
    fn pin(field: Field, value: u64, also: &[Field]) -> Match {
        also.iter()
            .fold(Match::on(field, Pattern::Exact(value)), |m, f| {
                m.and(*f, Pattern::Exact(1)).unwrap()
            })
    }

    /// Every indexed lookup of `pkts` picks the linear scan's rule.
    fn assert_agrees(t: &FlowTable, pkts: &[Packet]) {
        for pkt in pkts {
            assert_eq!(t.peek(pkt), t.peek_linear(pkt), "{pkt:?}");
        }
    }

    #[test]
    fn port_heavy_table_partitions_on_port() {
        let mut t = FlowTable::new();
        for port in 1..=4u64 {
            t.install(FlowRule::new(
                10 + port as u32,
                pin(Field::Port, port, &[]),
                vec![],
            ));
        }
        t.install(FlowRule::new(
            9,
            pin(Field::Port, 5, &[Field::DstPort]),
            vec![],
        ));
        t.install(FlowRule::new(8, pin(Field::DstMac, 7, &[]), vec![]));
        t.install(FlowRule::new(1, Match::any(), vec![]));
        t.rebuild_index();
        assert_eq!(t.index.partition(), Some(Field::Port));
        // Port 5 is held by {port,dstport} only: that bucket and the two
        // wild ones ({dstmac}, the wildcard) are probed, not {port}.
        let pkt = Packet::new()
            .with(Field::Port, 5u32)
            .with(Field::DstMac, sdx_ip::MacAddr::from_u64(2));
        assert_eq!(t.buckets_probed(&pkt), 3);
        assert_eq!(t.peek(&pkt).unwrap().priority, 1);
        assert_agrees(&t, &[pkt, Packet::new().with(Field::Port, 3u32)]);
    }

    #[test]
    fn rule_installed_after_the_build_under_an_unseen_value_is_found() {
        let mut t = FlowTable::new();
        for mac in 1..=3u64 {
            t.install(FlowRule::new(
                10 + mac as u32,
                pin(Field::DstMac, mac, &[]),
                vec![Action::set(Field::Port, 1u32)],
            ));
        }
        t.install(FlowRule::new(1, m(1), vec![]));
        t.rebuild_index();
        assert_eq!(t.index.partition(), Some(Field::DstMac));
        let ceiling = t.max_priority().unwrap();
        // A new bucket above the ceiling (the probe order changes) and one
        // below everything (it joins the end of the order), each under a
        // DstMac value the build never saw.
        t.install(FlowRule::new(
            ceiling + 1,
            pin(Field::DstMac, 99, &[Field::DstPort]),
            vec![Action::set(Field::Port, 2u32)],
        ));
        t.install(FlowRule::new(
            0,
            pin(Field::DstMac, 98, &[Field::SrcPort]),
            vec![Action::set(Field::Port, 3u32)],
        ));
        let probe = |mac: u64, field: Field| {
            Packet::new()
                .with(Field::DstMac, sdx_ip::MacAddr::from_u64(mac))
                .with(field, 1u16)
        };
        let high = probe(99, Field::DstPort);
        let low = probe(98, Field::SrcPort);
        assert_eq!(t.peek(&high).unwrap().priority, ceiling + 1);
        assert_eq!(t.peek(&low).unwrap().priority, 0);
        assert_agrees(&t, &[high, low, probe(2, Field::DstPort)]);
    }

    #[test]
    fn buckets_past_the_mask_width_agree_with_linear() {
        // Every subset of six fields, each pinned with DstMac: 64 buckets,
        // plus a wild one — more buckets than the per-value masks cover.
        let others = [
            Field::Port,
            Field::SrcMac,
            Field::EthType,
            Field::IpProto,
            Field::SrcPort,
            Field::DstPort,
        ];
        let mut t = FlowTable::new();
        for subset in 0..64u32 {
            let also: Vec<Field> = (0..others.len())
                .filter(|i| subset & (1 << i) != 0)
                .map(|i| others[i])
                .collect();
            for mac in 1..=2u64 {
                t.install(FlowRule::new(
                    1 + subset * 2 + mac as u32,
                    pin(Field::DstMac, mac, &also),
                    vec![Action::set(Field::Port, subset)],
                ));
            }
        }
        t.install(FlowRule::new(
            0,
            Match::on(Field::SrcIp, Pattern::Prefix("10.0.0.0/8".parse().unwrap())),
            vec![],
        ));
        t.rebuild_index();
        assert_eq!(t.index_stats().buckets, 65);
        // Fragments after the build: {dstmac} moves to the front of the
        // probe order, and a new bucket past the masks lands above it,
        // under a DstMac value the build never saw.
        let ceiling = t.max_priority().unwrap();
        t.install(FlowRule::new(
            ceiling + 1,
            pin(Field::DstMac, 1, &[]),
            vec![],
        ));
        t.install(FlowRule::new(
            ceiling + 2,
            pin(Field::DstMac, 3, &[])
                .and(Field::DstIp, Pattern::Prefix("10.0.0.0/8".parse().unwrap()))
                .unwrap(),
            vec![],
        ));
        let past = Packet::new()
            .with(Field::DstMac, sdx_ip::MacAddr::from_u64(3))
            .with(Field::DstIp, std::net::Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(t.peek(&past).unwrap().priority, ceiling + 2);
        let mut pkts = Vec::new();
        for subset in 0..64u32 {
            for mac in 1..=4u64 {
                let mut pkt = Packet::new()
                    .with(Field::DstMac, sdx_ip::MacAddr::from_u64(mac))
                    .with(Field::SrcIp, std::net::Ipv4Addr::new(10, 0, 0, 1));
                for (i, f) in others.iter().enumerate() {
                    if subset & (1 << i) != 0 {
                        pkt.set(*f, 1u64);
                    }
                }
                pkts.push(pkt);
            }
        }
        assert!(pkts.iter().any(|p| t.peek(p).unwrap().priority == 0));
        pkts.push(past);
        assert_agrees(&t, &pkts);
    }

    #[test]
    fn packet_without_the_partition_field_probes_only_wild_buckets() {
        let mut t = FlowTable::new();
        for mac in 1..=5u64 {
            t.install(FlowRule::new(10, pin(Field::DstMac, mac, &[]), vec![]));
            t.install(FlowRule::new(
                9,
                pin(Field::DstMac, mac, &[Field::Port]),
                vec![],
            ));
        }
        t.install(FlowRule::new(2, m(7), vec![]));
        t.install(FlowRule::new(1, pin(Field::DstPort, 7, &[]), vec![]));
        t.rebuild_index();
        assert_eq!(t.index_stats().buckets, 4);
        let pkt = Packet::new()
            .with(Field::Port, 1u32)
            .with(Field::DstPort, 1u16);
        assert_eq!(t.buckets_probed(&pkt), 2);
        assert!(t.peek(&pkt).is_none());
        assert_agrees(&t, &[pkt]);
    }
}
