use std::collections::BTreeSet;

use sdx_policy::{Classifier, Field, Packet};

use crate::index::IndexStats;
use crate::{FlowRule, FlowTable};

/// A software SDN switch: a set of ports and one flow table.
///
/// The semantics follow the located-packet model: a packet arrives carrying
/// its ingress port in `Field::Port`; the matching rule's actions rewrite
/// headers (including `Port`, which selects the egress). The switch emits
/// one packet per action whose final `Port` is a real port of the switch —
/// actions leaving the packet on a virtual (non-existent) port indicate a
/// compilation bug and are dropped with a counter.
///
/// Lookups use the tables' tuple-space index (see [`crate::index`]); set
/// [`set_linear_scan`](Self::set_linear_scan) to force the O(rules) linear
/// scan instead — the baseline the dataplane bench measures against and the
/// oracle the ci smoke diffs the index against.
///
/// The hot path is allocation-free in steady state: the pipeline walk uses a
/// reusable work buffer owned by the switch, and
/// [`process_batch_into`](Self::process_batch_into) writes emissions into a
/// caller-provided flat [`BatchOutput`] arena instead of one `Vec` per
/// packet. A `generation` counter is bumped by every potentially mutating
/// accessor so the sharded wrapper ([`crate::ShardedSwitch`]) knows when to
/// republish its read-only snapshot.
#[derive(Debug, Clone, Default)]
pub struct SoftSwitch {
    ports: BTreeSet<u32>,
    tables: Vec<FlowTable>,
    stats: SwitchStats,
    linear_scan: bool,
    /// Bumped on every (potentially) mutating access — the epoch source for
    /// snapshot publication.
    generation: u64,
    /// Reusable pipeline-walk scratch; always left empty between packets.
    work: Vec<(usize, Packet)>,
}

/// Counters the simulations and tests assert on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwitchStats {
    /// Packets that arrived on a known port.
    pub received: u64,
    /// Packets emitted on an egress port.
    pub forwarded: u64,
    /// Packets dropped because no rule matched or the rule had no actions.
    pub dropped: u64,
    /// Packets whose action left them on an unknown port (should be zero for
    /// a correct SDX compilation).
    pub misdirected: u64,
    /// Packets that arrived on an unknown port.
    pub bad_ingress: u64,
}

impl SwitchStats {
    /// Component-wise sum — how per-shard stats aggregate.
    pub fn merge(self, other: SwitchStats) -> SwitchStats {
        SwitchStats {
            received: self.received + other.received,
            forwarded: self.forwarded + other.forwarded,
            dropped: self.dropped + other.dropped,
            misdirected: self.misdirected + other.misdirected,
            bad_ingress: self.bad_ingress + other.bad_ingress,
        }
    }
}

/// Flat per-batch emission arena: every emitted `(egress, packet)` pair in
/// one contiguous buffer, with a span per input packet. Reusing one
/// `BatchOutput` across batches makes the batch path allocation-free once
/// the buffers have grown to the high-water mark (the per-packet `Vec` this
/// replaces allocated on every input).
#[derive(Debug, Clone, Default)]
pub struct BatchOutput {
    items: Vec<(u32, Packet)>,
    /// `(start, end)` into `items`, one per input packet, in input order.
    spans: Vec<(u32, u32)>,
}

impl BatchOutput {
    /// An empty arena (buffers grow on first use and are then reused).
    pub fn new() -> Self {
        Self::default()
    }

    /// Forget the previous batch, keeping capacity.
    pub fn clear(&mut self) {
        self.items.clear();
        self.spans.clear();
    }

    /// Number of input packets recorded.
    pub fn packets(&self) -> usize {
        self.spans.len()
    }

    /// Total `(egress, packet)` pairs emitted across the batch.
    pub fn emitted(&self) -> usize {
        self.items.len()
    }

    /// The emissions of input packet `i`, in emission order.
    pub fn packet(&self, i: usize) -> &[(u32, Packet)] {
        let (start, end) = self.spans[i];
        &self.items[start as usize..end as usize]
    }

    /// Iterate per-input-packet emission slices, in input order.
    pub fn iter(&self) -> impl Iterator<Item = &[(u32, Packet)]> + '_ {
        self.spans
            .iter()
            .map(|&(s, e)| &self.items[s as usize..e as usize])
    }

    /// Copy out to the owned per-packet shape (the compatibility API).
    pub fn to_vecs(&self) -> Vec<Vec<(u32, Packet)>> {
        self.iter().map(|s| s.to_vec()).collect()
    }

    /// Close the span opened at `start` (the current `items` high-water
    /// mark), attributing everything pushed since to one input packet.
    pub(crate) fn commit_span(&mut self, start: usize) {
        debug_assert!(
            u32::try_from(self.items.len()).is_ok(),
            "batch arena overflow"
        );
        self.spans.push((start as u32, self.items.len() as u32));
    }

    /// Append a ready-made span (the sharded stitch path: copy one shard's
    /// per-packet slice into the caller's arena).
    pub(crate) fn push_span(&mut self, emissions: &[(u32, Packet)]) {
        let start = self.items.len();
        self.items.extend_from_slice(emissions);
        self.commit_span(start);
    }

    /// Direct access to the flat item buffer (the walk appends here).
    pub(crate) fn items_mut(&mut self) -> &mut Vec<(u32, Packet)> {
        &mut self.items
    }
}

/// The pipeline walk shared by the single-threaded switch and the per-core
/// shards: look up `pkt` through `tables` (a goto_table rule continues
/// matching, a plain rule emits on a real port of `ports`), appending
/// emissions to `out` and reporting every rule hit as `hit(table, position)`
/// — the caller decides where the packet counter lives (the table's own
/// atomics for [`SoftSwitch`], a shard-local array for
/// [`crate::ShardedSwitch`]). `work` is caller scratch, left empty on
/// return. Allocation-free once the scratch buffers have warmed up.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pipeline_walk(
    ports: &BTreeSet<u32>,
    tables: &[FlowTable],
    linear: bool,
    pkt: &Packet,
    stats: &mut SwitchStats,
    work: &mut Vec<(usize, Packet)>,
    out: &mut Vec<(u32, Packet)>,
    hit: &mut dyn FnMut(usize, usize),
) {
    let Some(ingress) = pkt.port() else {
        stats.bad_ingress += 1;
        return;
    };
    if !ports.contains(&ingress) {
        stats.bad_ingress += 1;
        return;
    }
    stats.received += 1;

    // Walk the pipeline: (table, packet) work items; a goto_table rule
    // continues matching, a plain rule emits.
    work.clear();
    work.push((0usize, pkt.clone()));
    let budget = tables.len();
    while let Some((table_idx, pkt)) = work.pop() {
        let Some(table) = tables.get(table_idx) else {
            stats.dropped += 1;
            continue;
        };
        let pos = if linear {
            table.peek_pos_linear(&pkt)
        } else {
            table.peek_pos(&pkt)
        };
        let Some(pos) = pos else {
            stats.dropped += 1;
            continue;
        };
        hit(table_idx, pos);
        let rule = table.rule_at(pos);
        if rule.actions.is_empty() {
            stats.dropped += 1;
            continue;
        }
        for action in &rule.actions {
            let emitted = action.apply(&pkt);
            match rule.goto_table {
                // Continue in a strictly later table (OpenFlow forbids
                // backwards gotos, which also bounds the walk).
                Some(next) if next > table_idx && next < budget => {
                    work.push((next, emitted));
                }
                Some(_) => {
                    stats.misdirected += 1;
                }
                None => match emitted.get(Field::Port) {
                    Some(egress) if ports.contains(&(egress as u32)) => {
                        stats.forwarded += 1;
                        out.push((egress as u32, emitted));
                    }
                    _ => {
                        stats.misdirected += 1;
                    }
                },
            }
        }
    }
}

impl SoftSwitch {
    /// A switch with the given physical ports and a single flow table.
    pub fn new(ports: impl IntoIterator<Item = u32>) -> Self {
        Self::with_tables(ports, 1)
    }

    /// A switch with an OpenFlow-style pipeline of `n_tables` flow tables.
    pub fn with_tables(ports: impl IntoIterator<Item = u32>, n_tables: usize) -> Self {
        SoftSwitch {
            ports: ports.into_iter().collect(),
            tables: (0..n_tables.max(1)).map(|_| FlowTable::new()).collect(),
            stats: SwitchStats::default(),
            linear_scan: false,
            generation: 0,
            work: Vec::new(),
        }
    }

    /// Resize the pipeline (clears all tables).
    pub fn reset_pipeline(&mut self, n_tables: usize) {
        self.generation += 1;
        self.tables = (0..n_tables.max(1)).map(|_| FlowTable::new()).collect();
    }

    /// Number of pipeline tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Total rules across the pipeline.
    pub fn total_rules(&self) -> usize {
        self.tables.iter().map(|t| t.len()).sum()
    }

    /// Read access to pipeline table `i`.
    pub fn table_at(&self, i: usize) -> Option<&FlowTable> {
        self.tables.get(i)
    }

    /// Mutable access to pipeline table `i`.
    pub fn table_at_mut(&mut self, i: usize) -> Option<&mut FlowTable> {
        self.generation += 1;
        self.tables.get_mut(i)
    }

    /// Add a port.
    pub fn add_port(&mut self, port: u32) {
        self.generation += 1;
        self.ports.insert(port);
    }

    /// The switch's ports.
    pub fn ports(&self) -> impl Iterator<Item = &u32> {
        self.ports.iter()
    }

    /// Counters.
    pub fn stats(&self) -> SwitchStats {
        self.stats
    }

    /// Force (or lift) linear-scan lookups in every pipeline table. The
    /// linear scan is the semantic oracle for the tuple-space index; the
    /// dataplane bench uses it as its speedup baseline.
    pub fn set_linear_scan(&mut self, linear: bool) {
        self.generation += 1;
        self.linear_scan = linear;
    }

    /// Whether lookups bypass the index.
    pub fn linear_scan(&self) -> bool {
        self.linear_scan
    }

    /// Monotone counter bumped by every potentially mutating accessor —
    /// lets a snapshotting reader ([`crate::ShardedSwitch`]) detect staleness
    /// without diffing table contents.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Aggregate index size across the pipeline.
    pub fn index_stats(&self) -> IndexStats {
        self.tables
            .iter()
            .map(FlowTable::index_stats)
            .fold(IndexStats::default(), IndexStats::merge)
    }

    /// Read access to the first flow table.
    pub fn table(&self) -> &FlowTable {
        &self.tables[0]
    }

    /// Mutable access to the first flow table (rule installation).
    pub fn table_mut(&mut self) -> &mut FlowTable {
        self.generation += 1;
        &mut self.tables[0]
    }

    /// The whole pipeline, in traversal order.
    pub fn tables(&self) -> &[FlowTable] {
        &self.tables
    }

    /// The port set (snapshot cloning).
    pub(crate) fn port_set(&self) -> &BTreeSet<u32> {
        &self.ports
    }

    /// Fold externally accumulated stats in (the sharded counter-
    /// aggregation path).
    pub(crate) fn merge_stats(&mut self, other: SwitchStats) {
        // Deliberately does not bump `generation`: counter aggregation is
        // not a table mutation and must not force a snapshot republish.
        self.stats = self.stats.merge(other);
    }

    /// Replace the first table with a compiled classifier.
    pub fn install_classifier(&mut self, classifier: &Classifier, cookie: u64) {
        self.generation += 1;
        self.tables[0].install_classifier(classifier, cookie);
    }

    /// Install one rule into the first table.
    pub fn install_rule(&mut self, rule: FlowRule) {
        self.generation += 1;
        self.tables[0].install(rule);
    }

    /// Process one packet: returns `(egress port, packet)` pairs.
    pub fn process(&mut self, pkt: &Packet) -> Vec<(u32, Packet)> {
        let mut out = Vec::new();
        let SoftSwitch {
            ports,
            tables,
            stats,
            linear_scan,
            work,
            ..
        } = self;
        pipeline_walk(
            ports,
            tables,
            *linear_scan,
            pkt,
            stats,
            work,
            &mut out,
            &mut |t, pos| tables[t].add_hits(pos, 1),
        );
        out
    }

    /// Process a batch of packets through the pipeline into a reusable flat
    /// arena: zero allocations per packet once `out` and the internal
    /// scratch have warmed up. Emissions are grouped per input packet, in
    /// input order. `out` is cleared first.
    pub fn process_batch_into(&mut self, pkts: &[Packet], out: &mut BatchOutput) {
        out.clear();
        let SoftSwitch {
            ports,
            tables,
            stats,
            linear_scan,
            work,
            ..
        } = self;
        for pkt in pkts {
            let start = out.items.len();
            pipeline_walk(
                ports,
                tables,
                *linear_scan,
                pkt,
                stats,
                work,
                &mut out.items,
                &mut |t, pos| tables[t].add_hits(pos, 1),
            );
            out.commit_span(start);
        }
    }

    /// Process a batch of packets, returning one owned `Vec` per input
    /// packet (the compatibility shape; hot paths should prefer
    /// [`process_batch_into`](Self::process_batch_into)).
    pub fn process_batch(&mut self, pkts: &[Packet]) -> Vec<Vec<(u32, Packet)>> {
        let mut out = BatchOutput::new();
        self.process_batch_into(pkts, &mut out);
        out.to_vecs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdx_policy::{fwd, match_, modify};
    use std::net::Ipv4Addr;

    fn web_packet(port: u32) -> Packet {
        Packet::tcp(
            port,
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(20, 0, 0, 1),
            5555,
            80,
        )
    }

    #[test]
    fn forwards_per_installed_policy() {
        let mut sw = SoftSwitch::new([1, 2, 3]);
        let policy =
            (match_(Field::DstPort, 80u16) >> fwd(2)) + (match_(Field::DstPort, 443u16) >> fwd(3));
        sw.install_classifier(&policy.compile(), 1);

        let out = sw.process(&web_packet(1));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 2);
        assert_eq!(sw.stats().forwarded, 1);

        let ssh = Packet::tcp(
            1,
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(20, 0, 0, 1),
            5555,
            22,
        );
        assert!(sw.process(&ssh).is_empty());
        assert_eq!(sw.stats().dropped, 1);
    }

    #[test]
    fn rejects_unknown_ingress() {
        let mut sw = SoftSwitch::new([1]);
        let out = sw.process(&web_packet(99));
        assert!(out.is_empty());
        assert_eq!(sw.stats().bad_ingress, 1);
        assert_eq!(sw.stats().received, 0);
    }

    #[test]
    fn counts_misdirected_virtual_ports() {
        let mut sw = SoftSwitch::new([1]);
        // Policy forwards to port 55 which does not exist on this switch.
        sw.install_classifier(&fwd(55).compile(), 1);
        let out = sw.process(&web_packet(1));
        assert!(out.is_empty());
        assert_eq!(sw.stats().misdirected, 1);
    }

    #[test]
    fn header_rewrites_apply() {
        let mut sw = SoftSwitch::new([1, 2]);
        let policy = match_(Field::DstPort, 80u16)
            >> modify(Field::DstIp, Ipv4Addr::new(99, 9, 9, 9))
            >> fwd(2);
        sw.install_classifier(&policy.compile(), 1);
        let out = sw.process(&web_packet(1));
        assert_eq!(out[0].1.dst_ip().unwrap().to_string(), "99.9.9.9");
    }

    #[test]
    fn multicast_emits_copies() {
        let mut sw = SoftSwitch::new([1, 2, 3]);
        sw.install_classifier(&(fwd(2) + fwd(3)).compile(), 1);
        let out = sw.process(&web_packet(1));
        assert_eq!(out.len(), 2);
        let egresses: BTreeSet<u32> = out.iter().map(|(p, _)| *p).collect();
        assert_eq!(egresses, BTreeSet::from([2, 3]));
    }

    #[test]
    fn packet_without_port_is_bad_ingress() {
        let mut sw = SoftSwitch::new([1]);
        assert!(sw.process(&Packet::new()).is_empty());
        assert_eq!(sw.stats().bad_ingress, 1);
    }

    #[test]
    fn batch_matches_single_packet_processing() {
        let mut indexed = SoftSwitch::new([1, 2, 3]);
        let mut linear = SoftSwitch::new([1, 2, 3]);
        let policy =
            (match_(Field::DstPort, 80u16) >> fwd(2)) + (match_(Field::DstPort, 443u16) >> fwd(3));
        for sw in [&mut indexed, &mut linear] {
            sw.install_classifier(&policy.compile(), 1);
        }
        linear.set_linear_scan(true);
        assert!(linear.linear_scan());

        let https = Packet::tcp(
            1,
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(20, 0, 0, 1),
            5555,
            443,
        );
        let pkts = vec![web_packet(1), https, web_packet(99)];
        let batched = indexed.process_batch(&pkts);
        let singles: Vec<_> = pkts.iter().map(|p| linear.process(p)).collect();
        assert_eq!(batched, singles);
        assert_eq!(indexed.stats(), linear.stats());
    }

    #[test]
    fn batch_output_arena_spans_group_per_input() {
        let mut sw = SoftSwitch::new([1, 2, 3]);
        sw.install_classifier(
            &((match_(Field::DstPort, 80u16) >> (fwd(2) + fwd(3))).compile()),
            1,
        );
        let pkts = vec![web_packet(1), web_packet(99), web_packet(1)];
        let mut out = BatchOutput::new();
        sw.process_batch_into(&pkts, &mut out);
        assert_eq!(out.packets(), 3);
        assert_eq!(out.emitted(), 4); // two multicast emissions × two hits
        assert_eq!(out.packet(0).len(), 2);
        assert!(out.packet(1).is_empty()); // bad ingress emits nothing
        assert_eq!(out.packet(2).len(), 2);
        assert_eq!(out.to_vecs(), sw.process_batch(&pkts));
        // Reuse keeps capacity and resets contents.
        out.clear();
        assert_eq!(out.packets(), 0);
        assert_eq!(out.emitted(), 0);
    }

    #[test]
    fn generation_tracks_mutating_accessors() {
        let mut sw = SoftSwitch::new([1]);
        let g0 = sw.generation();
        let _ = sw.process(&web_packet(1)); // read path: no bump
        assert_eq!(sw.generation(), g0);
        sw.add_port(2);
        assert!(sw.generation() > g0);
        let g1 = sw.generation();
        let _ = sw.table_mut();
        assert!(sw.generation() > g1);
        let g2 = sw.generation();
        sw.set_linear_scan(true);
        assert!(sw.generation() > g2);
        // Every remaining mutating accessor: a missed bump would let a
        // sharded reader keep serving a stale snapshot forever.
        let g3 = sw.generation();
        sw.install_rule(FlowRule::new(1, sdx_policy::Match::any(), vec![]).with_cookie(9));
        assert!(sw.generation() > g3);
        let g4 = sw.generation();
        let _ = sw.table_at_mut(0);
        assert!(sw.generation() > g4);
        let g5 = sw.generation();
        sw.install_classifier(&Classifier::default(), 10);
        assert!(sw.generation() > g5);
        let g6 = sw.generation();
        sw.reset_pipeline(2);
        assert!(sw.generation() > g6);
        // Pure reads never bump.
        let g7 = sw.generation();
        let _ = (sw.table(), sw.table_at(0), sw.ports(), sw.linear_scan());
        assert_eq!(sw.generation(), g7);
    }
}
