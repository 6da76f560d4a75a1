//! Streaming churn engine (§4.3.2 made continuous): a virtual-time event
//! loop that drains Table-1-shaped BGP update traces end-to-end — route
//! server decision → incremental recompile of only the touched fragment →
//! **rule-level flow-table delta** applied in make-before-break order
//! against the live tuple-space index — while interleaving a configurable
//! packet-replay load on the sharded data plane and periodically running
//! the paper's background reoptimization to coalesce accumulated deltas.
//!
//! Convergence latency is measured per route event as *route-event ingress
//! → first correctly-forwarded packet*: after the delta lands, a viewer's
//! border router is brought in sync for just the touched prefix and a
//! probe packet is pushed through the fabric; the clock stops when the
//! probe reaches the participant the route server selected. The engine
//! honors [`SdxRuntime::needs_reoptimize`]: when the fast path degrades
//! (VNH pool exhausted, install refused) a background reoptimization is
//! forced immediately instead of waiting for the periodic one.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdx_core::{IncrementalStats, Participant, ParticipantId, SdxRuntime};
use sdx_ip::Prefix;
use sdx_policy::{Field, Packet};
use sdx_switch::{BatchOutput, BorderRouter};
use sdx_workload::{stream_trace, IxpTopology, TraceConfig, TraceEvent};

mod queue;
pub use queue::{Activity, EventQueue};

/// Probe source address: outside every announced prefix and above the
/// well-known port range, so no generated policy clause can deflect it —
/// the probe exercises *default forwarding*, whose receiver the route
/// server's best route determines exactly.
const PROBE_SRC: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 9);

/// Engine knobs.
#[derive(Debug, Clone, Copy)]
pub struct ChurnConfig {
    /// Trace shape (duration, unstable fraction, withdraw probability).
    pub trace: TraceConfig,
    /// Trace seed.
    pub seed: u64,
    /// Virtual seconds between replay batches on the sharded data plane
    /// (0 disables replay).
    pub replay_interval_s: u64,
    /// Flows in the pre-built replay batch.
    pub replay_flows: usize,
    /// Virtual seconds between background reoptimizations (0 disables the
    /// periodic ones; forced ones still honor `needs_reoptimize`).
    pub reoptimize_interval_s: u64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            trace: TraceConfig::default(),
            seed: 11,
            replay_interval_s: 60,
            replay_flows: 256,
            reoptimize_interval_s: 1_800,
        }
    }
}

/// What a churn run measured.
#[derive(Debug, Clone, Default)]
pub struct ChurnReport {
    /// Route-change events processed.
    pub events: usize,
    /// Bursts the trace generated.
    pub bursts: usize,
    /// Virtual seconds covered.
    pub virtual_s: u64,
    /// Wall-clock seconds spent handling route events (excludes replay).
    pub update_busy_s: f64,
    /// Wall-clock seconds for the whole run.
    pub wall_s: f64,
    /// Sustained controller throughput: events / update-handling time.
    pub updates_per_sec: f64,
    /// Route-event-ingress → first-correctly-forwarded-packet, p50 µs.
    pub convergence_p50_us: u64,
    /// … p99 µs.
    pub convergence_p99_us: u64,
    /// … worst case µs.
    pub convergence_max_us: u64,
    /// Probes that measured convergence.
    pub convergence_samples: usize,
    /// Probes that never converged (even after a forced reoptimize).
    pub convergence_failures: u64,
    /// Largest per-event rule delta (installs + removals).
    pub delta_rules_max: usize,
    /// Mean per-event rule delta.
    pub delta_rules_mean: f64,
    /// Background reoptimizations run (periodic + forced).
    pub reoptimizes: u64,
    /// … of which were forced by `needs_reoptimize` or a failed probe.
    pub reoptimizes_forced: u64,
    /// Replay batches pushed through the sharded data plane.
    pub replay_batches: u64,
    /// Packets replayed.
    pub replayed_packets: u64,
    /// Per-event incremental check latency, p50 µs (0 when unchecked).
    pub check_p50_us: u64,
    /// … p99 µs.
    pub check_p99_us: u64,
    /// … worst case µs.
    pub check_max_us: u64,
    /// The runtime's fast-path counters when the run ended: delta rules
    /// installed and removed, VNH exhaustions, refused installs, live
    /// overlay rules, and the incremental verifier's verdict counts.
    pub runtime: IncrementalStats,
}

/// The engine: owns the runtime, the trace, the probe routers, and the
/// replay batch.
#[derive(Debug)]
pub struct ChurnEngine {
    runtime: SdxRuntime,
    topology: IxpTopology,
    config: ChurnConfig,
    probe_routers: BTreeMap<ParticipantId, BorderRouter>,
    replay_frames: Vec<Packet>,
    out: BatchOutput,
    latencies_us: Vec<u64>,
    check_us: Vec<u64>,
    report: ChurnReport,
    delta_rules_total: u64,
    update_busy: Duration,
}

impl ChurnEngine {
    /// Wrap a runtime (compiled or not; [`run`](Self::run) compiles on
    /// demand) and the topology its participants came from.
    pub fn new(runtime: SdxRuntime, topology: IxpTopology, config: ChurnConfig) -> Self {
        ChurnEngine {
            runtime,
            topology,
            config,
            probe_routers: BTreeMap::new(),
            replay_frames: Vec::new(),
            out: BatchOutput::new(),
            latencies_us: Vec::new(),
            check_us: Vec::new(),
            report: ChurnReport::default(),
            delta_rules_total: 0,
            update_busy: Duration::ZERO,
        }
    }

    /// The runtime, e.g. for fingerprinting after a run.
    pub fn runtime_mut(&mut self) -> &mut SdxRuntime {
        &mut self.runtime
    }

    /// Take the runtime back.
    pub fn into_runtime(self) -> SdxRuntime {
        self.runtime
    }

    /// Drain the configured trace through the delta-install pipeline.
    /// Deterministic in virtual time; wall-clock figures depend on the
    /// machine.
    pub fn run(&mut self) -> ChurnReport {
        if self.runtime.compilation().is_none() {
            self.runtime.compile().expect("initial compile");
        }
        self.rebuild_replay_frames();

        let mut stream = stream_trace(&self.topology, self.config.trace, self.config.seed);
        // One-slot lookahead so periodic activities can be merged by
        // deadline without materializing the trace.
        let mut pending = stream.next();
        let mut queue = EventQueue::new();
        if self.config.replay_interval_s > 0 && self.config.replay_flows > 0 {
            queue.push(self.config.replay_interval_s, Activity::Replay);
        }
        if self.config.reoptimize_interval_s > 0 {
            queue.push(self.config.reoptimize_interval_s, Activity::Reoptimize);
        }

        let wall = Instant::now();
        let mut virtual_now = 0u64;
        // Merge the lazily pulled trace with the periodic activities by
        // virtual deadline: everything scheduled at or before the next
        // update fires first, then the update itself.
        while let Some(at_s) = pending.as_ref().map(|e| e.at_s) {
            while queue.peek_at().is_some_and(|t| t <= at_s) {
                // An update at `at_s >= t` always follows, so virtual time
                // advances via the update below.
                let (t, activity) = queue.pop().expect("peeked");
                match activity {
                    Activity::Replay => {
                        self.replay();
                        queue.push(t + self.config.replay_interval_s, Activity::Replay);
                    }
                    Activity::Reoptimize => {
                        self.reoptimize(false);
                        queue.push(t + self.config.reoptimize_interval_s, Activity::Reoptimize);
                    }
                }
            }
            let event = pending.take().expect("peeked");
            virtual_now = event.at_s;
            self.handle_update(event);
            pending = stream.next();
        }

        let summary = stream.summary();
        self.latencies_us.sort_unstable();
        self.report.bursts = summary.bursts;
        self.report.virtual_s = virtual_now;
        self.report.update_busy_s = self.update_busy.as_secs_f64();
        self.report.wall_s = wall.elapsed().as_secs_f64();
        self.report.updates_per_sec =
            self.report.events as f64 / self.report.update_busy_s.max(f64::EPSILON);
        self.report.convergence_p50_us = percentile_us(&self.latencies_us, 0.50);
        self.report.convergence_p99_us = percentile_us(&self.latencies_us, 0.99);
        self.report.convergence_max_us = self.latencies_us.last().copied().unwrap_or(0);
        self.report.convergence_samples = self.latencies_us.len();
        self.report.delta_rules_mean =
            self.delta_rules_total as f64 / (self.report.events as f64).max(1.0);
        self.report.runtime = self.runtime.incremental_stats();
        self.check_us.sort_unstable();
        self.report.check_p50_us = percentile_us(&self.check_us, 0.50);
        self.report.check_p99_us = percentile_us(&self.check_us, 0.99);
        self.report.check_max_us = self.check_us.last().copied().unwrap_or(0);
        self.report.clone()
    }

    /// One route event: delta-install, honor the degradation flag, then
    /// measure route-event-ingress → first correctly-forwarded packet.
    fn handle_update(&mut self, event: TraceEvent) {
        let start = Instant::now();
        let checked_before = self.runtime.incremental_stats().delta_checked;
        let (touched, delta) = self.runtime.apply_update_delta(event.from, &event.update);
        self.report.events += 1;
        let rules = delta.installed + delta.removed;
        self.report.delta_rules_max = self.report.delta_rules_max.max(rules);
        self.delta_rules_total = self.delta_rules_total.saturating_add(rules as u64);
        // Per-event verifier latency: `last_check_us` accumulates across
        // every prefix the event touched and resets on the next event.
        let inc = self.runtime.incremental_stats();
        if inc.delta_checked > checked_before {
            self.check_us.push(inc.last_check_us);
        }

        // The fast path degraded (VNH exhaustion / refused install):
        // recover *now* — the stale state keeps forwarding meanwhile.
        if self.runtime.needs_reoptimize() {
            self.reoptimize(true);
        }

        // Convergence probe on the first touched prefix that still has a
        // best route (pure withdrawals converge by ceasing to forward; no
        // positive probe exists for them).
        let target = touched
            .iter()
            .find_map(|p| self.probe_target(*p).map(|(v, r)| (*p, v, r)));
        if let Some((prefix, viewer, receiver)) = target {
            let mut delivered = self.probe(prefix, viewer, receiver);
            if !delivered {
                // Escalate once: force the background stage, re-derive the
                // expected receiver, re-probe.
                self.reoptimize(true);
                delivered = self
                    .probe_target(prefix)
                    .map(|(v, r)| self.probe(prefix, v, r))
                    .unwrap_or(false);
            }
            if delivered {
                self.latencies_us
                    .push(u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX));
            } else {
                self.report.convergence_failures =
                    self.report.convergence_failures.saturating_add(1);
            }
        }
        self.update_busy += start.elapsed();
    }

    /// Pick a (viewer, expected receiver) pair for `prefix`: the first
    /// physical participant whose border router routes the prefix into the
    /// fabric (see [`SdxRuntime::fib_entry`]), and the participant its best
    /// route points at.
    fn probe_target(&self, prefix: Prefix) -> Option<(ParticipantId, ParticipantId)> {
        let rs = self.runtime.route_server();
        self.runtime
            .participants()
            .filter(|p| p.is_physical())
            .find_map(|p| {
                self.runtime.fib_entry(&prefix, p.id)?;
                let best = rs.best_route(&prefix, p.id.peer())?;
                Some((p.id, ParticipantId::from(best.peer)))
            })
    }

    /// Sync `viewer`'s probe router for this one prefix and push one probe
    /// through the fabric. True when any copy reaches `receiver`.
    fn probe(&mut self, prefix: Prefix, viewer: ParticipantId, receiver: ParticipantId) -> bool {
        let Some(port) = self
            .runtime
            .participants()
            .find(|p| p.id == viewer)
            .and_then(|p| p.ports.first().copied())
        else {
            return false;
        };
        let router = self
            .probe_routers
            .entry(viewer)
            .or_insert_with(|| BorderRouter::new(port.port, port.mac, port.ip));
        sync_prefix(&self.runtime, viewer, router, prefix);
        let Some(frame) =
            router.forward_resolving(probe_packet(prefix), |req| self.runtime.resolve_arp(req))
        else {
            return false;
        };
        self.runtime
            .process_packet(&frame)
            .iter()
            .any(|(port, _)| self.runtime.port_owner(*port) == Some(receiver))
    }

    /// Background reoptimization: full recompile (coalesces every delta
    /// fragment back into minimal tables, resets the VNH pool), then
    /// refresh everything derived from VMAC tags.
    fn reoptimize(&mut self, forced: bool) {
        if self.runtime.reoptimize().is_ok() {
            self.report.reoptimizes = self.report.reoptimizes.saturating_add(1);
            if forced {
                self.report.reoptimizes_forced = self.report.reoptimizes_forced.saturating_add(1);
            }
            // Every VNH/VMAC binding changed: cached probe-router state and
            // pre-tagged replay frames are stale.
            self.probe_routers.clear();
            self.rebuild_replay_frames();
        }
    }

    /// Push the replay batch through the sharded data plane (snapshot
    /// republication under sustained mutation is exactly what this
    /// exercises).
    fn replay(&mut self) {
        if self.replay_frames.is_empty() {
            return;
        }
        self.runtime
            .process_batch_into(&self.replay_frames, &mut self.out);
        self.report.replay_batches = self.report.replay_batches.saturating_add(1);
        self.report.replayed_packets = self
            .report
            .replayed_packets
            .saturating_add(self.replay_frames.len() as u64);
    }

    /// Pre-tag a batch of cross-participant flows as the senders' border
    /// routers would emit them (FIB + ARP + VMAC tag), mirroring the
    /// data-plane bench's traffic model.
    fn rebuild_replay_frames(&mut self) {
        self.replay_frames.clear();
        if self.config.replay_flows == 0 {
            return;
        }
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0x5eed_f10e);
        let senders: Vec<&Participant> = self
            .topology
            .participants
            .iter()
            .filter(|p| p.is_physical())
            .collect();
        if senders.is_empty() || self.topology.announcements.is_empty() {
            return;
        }
        let mut routers: BTreeMap<ParticipantId, BorderRouter> = BTreeMap::new();
        for _ in 0..self.config.replay_flows * 4 {
            if self.replay_frames.len() >= self.config.replay_flows {
                break;
            }
            let sender = senders[rng.gen_range(0..senders.len())];
            let ann =
                &self.topology.announcements[rng.gen_range(0..self.topology.announcements.len())];
            if ann.from == sender.id {
                continue;
            }
            let prefix = ann.prefixes[rng.gen_range(0..ann.prefixes.len())];
            let pkt = Packet::new()
                .with(Field::EthType, 0x0800u16)
                .with(Field::IpProto, 17u8)
                .with(Field::SrcIp, Ipv4Addr::from(rng.gen::<u32>()))
                .with(Field::DstIp, prefix.first_addr())
                .with(Field::SrcPort, rng.gen_range(1024..u16::MAX))
                .with(
                    Field::DstPort,
                    *[80u16, 443, 53, 22].get(rng.gen_range(0..4)).unwrap(),
                );
            let router = routers.entry(sender.id).or_insert_with(|| {
                let port = &sender.ports[0];
                let mut r = BorderRouter::new(port.port, port.mac, port.ip);
                self.runtime.sync_router(sender.id, &mut r);
                r
            });
            let frame = router.forward_resolving(pkt, |req| self.runtime.resolve_arp(req));
            self.replay_frames.extend(frame);
        }
    }
}

/// Apply `viewer`'s [`SdxRuntime::fib_entry`] for exactly `prefix` to
/// `router` — the targeted form of [`SdxRuntime::sync_router`]: one point
/// lookup and one decision process, never a walk of the viewer's RIB.
pub fn sync_prefix(
    runtime: &SdxRuntime,
    viewer: ParticipantId,
    router: &mut BorderRouter,
    prefix: Prefix,
) {
    router.set_route(prefix, runtime.fib_entry(&prefix, viewer));
}

/// The policy-neutral probe for `prefix` (see [`PROBE_SRC`]).
fn probe_packet(prefix: Prefix) -> Packet {
    Packet::new()
        .with(Field::EthType, 0x0800u16)
        .with(Field::IpProto, 1u8)
        .with(Field::SrcIp, PROBE_SRC)
        .with(Field::DstIp, prefix.first_addr())
        .with(Field::SrcPort, 40_000u16)
        .with(Field::DstPort, 33_434u16)
}

/// Deterministic digest of the fabric's end-to-end forwarding behavior:
/// for every announced prefix and each of (up to) `max_senders` physical
/// participants, freshly synced border routers emit a small probe grid
/// (policy-neutral + policy-exercising ports) and every delivery's egress
/// and full header are folded into an FNV hash. Delivered packets carry no
/// VMAC (the receiver stage rewrites tags to real router MACs), so the
/// digest is invariant to *how* the tables were reached — a streamed
/// delta-churned runtime and a one-shot batch recompile of the same RIB
/// hash identically iff they forward identically.
pub fn forwarding_fingerprint(
    runtime: &mut SdxRuntime,
    topology: &IxpTopology,
    max_senders: usize,
) -> u64 {
    let senders: Vec<Participant> = topology
        .participants
        .iter()
        .filter(|p| p.is_physical())
        .take(max_senders.max(1))
        .cloned()
        .collect();
    let mut routers: Vec<BorderRouter> = senders
        .iter()
        .map(|s| {
            let port = &s.ports[0];
            let mut r = BorderRouter::new(port.port, port.mac, port.ip);
            runtime.sync_router(s.id, &mut r);
            r
        })
        .collect();

    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mix = |h: &mut u64, v: u64| {
        *h ^= v;
        *h = h.wrapping_mul(PRIME);
    };
    for prefix in topology.all_prefixes() {
        for (sender, router) in senders.iter().zip(routers.iter_mut()) {
            mix(&mut h, sender.id.0 as u64 + 1);
            for (src, dport) in [
                (PROBE_SRC, 33_434u16),
                (sender.ports[0].ip, 80),
                (sender.ports[0].ip, 443),
            ] {
                let pkt = Packet::new()
                    .with(Field::EthType, 0x0800u16)
                    .with(Field::IpProto, 17u8)
                    .with(Field::SrcIp, src)
                    .with(Field::DstIp, prefix.first_addr())
                    .with(Field::SrcPort, 40_000u16)
                    .with(Field::DstPort, dport);
                match router.forward_resolving(pkt, |req| runtime.resolve_arp(req)) {
                    None => mix(&mut h, 0),
                    Some(frame) => {
                        let deliveries = runtime.process_packet(&frame);
                        mix(&mut h, deliveries.len() as u64 + 1);
                        for (egress, out) in &deliveries {
                            mix(&mut h, *egress as u64);
                            for (field, value) in out.iter() {
                                mix(&mut h, *field as u64 + 1);
                                mix(&mut h, *value);
                            }
                        }
                    }
                }
            }
        }
    }
    h
}

/// Nearest-rank percentile over an ascending-sorted sample.
fn percentile_us(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}
