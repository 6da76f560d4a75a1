//! What the two churn workloads share: the AMS-IX fabric, the Table-1
//! trace, the convergence probe, and the open-loop replay on the trace's
//! virtual clock.

use std::net::Ipv4Addr;
use std::time::Instant;

use sdx_core::{CompileOptions, CompileStats, ParticipantId, SdxRuntime};
use sdx_ip::Prefix;
use sdx_policy::{Field, Packet};
use sdx_switch::{BorderRouter, Forward};
use sdx_workload::{
    generate_policies, stream_trace, IxpProfile, IxpTopology, PolicyMix, TraceConfig, TraceEvent,
};

use crate::measure::{median, ms, pct, ratio, supported, us, Metrics, Tracer, VirtualClock};

const PARTICIPANTS: usize = 60;
const PREFIXES: usize = 4_000;
/// Virtual seconds between background stages.
const BACKGROUND_S: u64 = 1_800;
/// The churn inputs are the committed churn bench's, `build_sdx(60, 4000,
/// 11)` and its trace seed, on every run: the exchange, the policies and
/// the schedule (burst times and sizes, announce or withdraw). Each of the
/// three moved a run's convergence percentiles when drawn per seed; the
/// policy mix alone moved the p99 threefold (12 ms against 36 ms), far
/// past any bound a regression gate can hold.
const CHURN_SEED: u64 = 11;
/// A run replays one virtual hour of the schedule per second of
/// `--seconds`, but stops early after this much wall time, so that even a
/// traced run (two replays) ends within three minutes.
const REPLAY_CAP_S: f64 = 70.0;
const NS_PER_S: u64 = 1_000_000_000;

/// Probe source: outside every announced prefix and above the well-known
/// ports, so no policy clause deflects it and it takes the route server's
/// best route (the same probe `sdx_churn` sends).
const PROBE_SRC: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 9);

/// Everything generated before any clock starts.
pub struct Inputs {
    pub topology: IxpTopology,
    pub mix: PolicyMix,
    pub trace: Vec<TraceEvent>,
}

pub fn inputs(seconds: f64) -> Inputs {
    let profile = IxpProfile::ams_ix(PARTICIPANTS, PREFIXES);
    let topology = IxpTopology::generate(profile, CHURN_SEED);
    let mix = generate_policies(&topology, CHURN_SEED + 1);
    let config = TraceConfig {
        duration_s: (seconds * 3_600.0) as u64,
        ..Default::default()
    };
    let trace = stream_trace(&topology, config, CHURN_SEED).collect();
    Inputs {
        topology,
        mix,
        trace,
    }
}

/// Participants, routes and policies installed as `sdx_bench::build_sdx`
/// installs them, not yet compiled.
pub fn install(topology: &IxpTopology, mix: &PolicyMix, options: CompileOptions) -> SdxRuntime {
    let mut sdx = SdxRuntime::new(options);
    topology.install(&mut sdx);
    for (id, policy) in &mix.policies {
        sdx.set_policy(*id, policy.clone());
    }
    sdx
}

/// The viewer and expected receiver for `prefix`, picked as
/// `sdx_churn::ChurnEngine` picks them: the first physical participant that
/// does not announce the prefix and has a best route, and that route's
/// announcer.
pub fn probe_target(rt: &SdxRuntime, prefix: Prefix) -> Option<(ParticipantId, ParticipantId)> {
    let rs = rt.route_server();
    rt.participants()
        .filter(|p| p.is_physical())
        .filter(|p| !rs.announced_by(p.id.peer()).contains(&prefix))
        .find_map(|p| {
            rs.best_route(&prefix, p.id.peer())
                .map(|best| (p.id, ParticipantId::from(best.peer)))
        })
}

/// The prefix a trace event changes (each event carries exactly one).
pub fn prefix_of(ev: &TraceEvent) -> Prefix {
    ev.update
        .announce
        .first()
        .or(ev.update.withdraw.first())
        .copied()
        .expect("trace events change one prefix")
}

/// A viewer's border router for probing, attached at its first port.
pub fn router_of(rt: &SdxRuntime, id: ParticipantId) -> BorderRouter {
    let port = rt
        .participants()
        .find(|p| p.id == id)
        .and_then(|p| p.ports.first())
        .expect("viewers are physical participants");
    BorderRouter::new(port.port, port.mac, port.ip)
}

/// Send one probe for `prefix` from `router` into the fabric, resolving
/// the next hop through the runtime's ARP responder on a miss. Returns the
/// delivery ports and the frame, or `None` when the router emitted no
/// frame.
fn forward_probe(
    t: &mut Tracer,
    op: u64,
    rt: &mut SdxRuntime,
    router: &mut BorderRouter,
    prefix: Prefix,
) -> Option<(Vec<u32>, Packet)> {
    let pkt = Packet::new()
        .with(Field::EthType, 0x0800u16)
        .with(Field::IpProto, 1u8)
        .with(Field::SrcIp, PROBE_SRC)
        .with(Field::DstIp, prefix.first_addr())
        .with(Field::SrcPort, 40_000u16)
        .with(Field::DstPort, 33_434u16);
    let frame = match router.forward(pkt.clone()) {
        Forward::Frame(f) => Some(f),
        Forward::NeedArp(req) => rt.resolve_arp(&req).and_then(|reply| {
            router.learn_arp(&reply);
            match router.forward(pkt) {
                Forward::Frame(f) => Some(f),
                _ => None,
            }
        }),
        Forward::NoRoute => None,
    };
    let frame = frame?;
    let (out, _) = t.span("switch.process_packet", op, |_| rt.process_packet(&frame));
    Some((out.iter().map(|(port, _)| *port).collect(), frame))
}

/// Probe `prefix` from the viewer's `router` (span `switch.probe`). Returns
/// the probe, its time, and when it ended.
///
/// The frame is then forwarded once more, off the convergence path, to time
/// the fabric alone: the probe meets tables and caches just churned, and
/// its own fabric time moved by half from run to run. These one-frame
/// batches are what `fwd_mpps` and `fwd_batch_p99_us` report here.
pub fn probe(
    t: &mut Tracer,
    op: u64,
    rt: &mut SdxRuntime,
    router: &mut BorderRouter,
    prefix: Prefix,
    (viewer, receiver): (ParticipantId, ParticipantId),
) -> (Probe, u64, u64) {
    let (sent, probe_ns) = t.span("switch.probe", op, |t| {
        forward_probe(t, op, rt, router, prefix)
    });
    let end_ns = t.now();
    let (delivered, fabric_ns) = match sent {
        Some((ports, frame)) => {
            let (_, ns) = t.span("switch.forward_again", op, |_| rt.process_packet(&frame));
            (Some(ports), Some(ns))
        }
        None => (None, None),
    };
    let ok = delivered
        .iter()
        .flatten()
        .any(|port| rt.port_owner(*port) == Some(receiver));
    let probe = Probe {
        prefix,
        viewer,
        receiver,
        delivered,
        fabric_ns,
        ok,
    };
    (probe, probe_ns, end_ns)
}

/// One full recompile: its wall time and stats (`None` if it failed).
pub struct Recompile {
    pub wall_ns: u64,
    pub stats: Option<CompileStats>,
}

impl Recompile {
    pub fn timed<E>(
        t: &mut Tracer,
        name: &'static str,
        op: u64,
        f: impl FnOnce() -> Result<CompileStats, E>,
    ) -> Self {
        let (r, wall_ns) = t.span(name, op, |_| f());
        Recompile {
            wall_ns,
            stats: r.ok(),
        }
    }
}

/// One probe and where it went.
pub struct Probe {
    pub prefix: Prefix,
    pub viewer: ParticipantId,
    pub receiver: ParticipantId,
    pub delivered: Option<Vec<u32>>,
    /// The fabric's time for the frame forwarded again.
    pub fabric_ns: Option<u64>,
    pub ok: bool,
}

/// What handling one change cost and produced.
#[derive(Default)]
pub struct Change {
    /// Router-side time before the controller holds the change.
    pub lead_ns: u64,
    /// Time the change held the controller.
    pub busy_ns: u64,
    /// Wall time of the change's convergence path (lead, controller,
    /// viewer receive and probe), glue between the spans included.
    pub path_ns: u64,
    /// The part of `path_ns` inside top-level spans.
    pub span_ns: u64,
    /// Recompiles the change forced.
    pub recompiles: Vec<Recompile>,
    pub probe: Option<Probe>,
    /// The controller could not take the change (it did not decode).
    pub lost: bool,
}

/// One churn workload's controller path.
pub trait ChurnPath {
    /// Handle trace event `index`.
    fn change(&mut self, t: &mut Tracer, op: u64, index: usize) -> Change;
    /// Run the background stage.
    fn background(&mut self, t: &mut Tracer, op: u64) -> Recompile;
}

/// What a replay measured.
#[derive(Default)]
pub struct Replay {
    pub changes: usize,
    /// Controller busy time: change handling plus background stages.
    pub busy_ns: u64,
    pub convergence_ns: Vec<u64>,
    pub wait_ns: Vec<u64>,
    /// Share of each converged change's convergence that spans plus the
    /// computed wait account for.
    pub coverage: Vec<f64>,
    pub recompiles: Vec<Recompile>,
    pub probes: usize,
    /// Changes the controller could not take.
    pub lost: usize,
    pub failed: Vec<(ParticipantId, Probe)>,
    pub fabric_ns: Vec<u64>,
    /// Σ convergence-path wall time, for the tracing overhead.
    pub path_ns: u64,
    pub virtual_s: u64,
    pub wall_s: f64,
}

/// Replay the trace open-loop on its virtual clock.
pub fn replay(path: &mut impl ChurnPath, inputs: &Inputs, t: &mut Tracer) -> Replay {
    let trace = &inputs.trace;
    let mut clock = VirtualClock::default();
    let mut next_background = BACKGROUND_S;
    let mut r = Replay::default();
    let mut op = 0u64;
    let wall = Instant::now();
    for (i, ev) in trace.iter().enumerate() {
        let boundary = i > 0 && ev.at_s != trace[i - 1].at_s;
        if boundary && wall.elapsed().as_secs_f64() >= REPLAY_CAP_S {
            break;
        }
        while next_background <= ev.at_s {
            let start = clock.start(next_background * NS_PER_S);
            let rc = path.background(t, op);
            op += 1;
            clock.hold(start, rc.wall_ns);
            r.busy_ns += rc.wall_ns;
            r.recompiles.push(rc);
            next_background += BACKGROUND_S;
        }
        let c = path.change(t, op, i);
        op += 1;
        let arrive = ev.at_s * NS_PER_S + c.lead_ns;
        let start = clock.start(arrive);
        clock.hold(start, c.busy_ns);
        let wait = start - arrive;
        r.changes += 1;
        r.busy_ns += c.busy_ns;
        r.path_ns += c.path_ns;
        r.virtual_s = ev.at_s;
        r.recompiles.extend(c.recompiles);
        r.lost += usize::from(c.lost);
        r.wait_ns.push(wait);
        let Some(probe) = c.probe else { continue };
        r.probes += 1;
        r.fabric_ns.extend(probe.fabric_ns);
        if probe.ok {
            r.convergence_ns.push(wait + c.path_ns);
            r.coverage
                .push(ratio((wait + c.span_ns) as f64, (wait + c.path_ns) as f64));
        } else {
            r.failed.push((ev.from, probe));
        }
    }
    r.wall_s = wall.elapsed().as_secs_f64();
    r
}

impl Replay {
    pub fn failed_recompiles(&self) -> usize {
        self.recompiles.iter().filter(|r| r.stats.is_none()).count()
    }

    pub fn compile_stats(&self) -> Vec<CompileStats> {
        self.recompiles.iter().filter_map(|r| r.stats).collect()
    }

    /// The end-to-end metrics every churn workload reports (set-up and
    /// memory are added by the caller).
    pub fn end_to_end(&self, m: &mut Metrics) {
        let mut conv = self.convergence_ns.clone();
        m.put("convergence_p50_us", "us", us(pct(&mut conv, 0.50)));
        m.put("convergence_p99_us", "us", us(pct(&mut conv, 0.99)));
        m.put(
            "updates_per_s",
            "1/s",
            ratio(self.changes as f64, self.busy_ns as f64 / 1e9),
        );
        let mut recompile: Vec<u64> = self
            .recompiles
            .iter()
            .filter(|r| r.stats.is_some())
            .map(|r| r.wall_ns)
            .collect();
        m.put("recompile_p50_ms", "ms", ms(median(&mut recompile)));
        // One-frame batches (see `probe`); the rate comes from the median
        // so that a stray interrupt in a microsecond sample does not set it.
        let mut fabric = self.fabric_ns.clone();
        m.put("fwd_mpps", "Mpps", ratio(1e3, median(&mut fabric) as f64));
        m.put("fwd_batch_p99_us", "us", us(pct(&mut fabric, 0.99)));
    }

    /// The per-layer metrics both churn workloads share.
    pub fn layers(&self, m: &mut Metrics) {
        let mut wait = self.wait_ns.clone();
        m.put("queue.wait_p50_us", "us", us(pct(&mut wait, 0.50)));
        m.put("queue.wait_p99_us", "us", us(pct(&mut wait, 0.99)));
        m.put(
            "churn.converged_probes",
            "count",
            self.convergence_ns.len() as f64,
        );
        m.put(
            "churn.failed_probe_share",
            "ratio",
            ratio(self.failed.len() as f64, self.probes as f64),
        );
        let mut cov = self.coverage.clone();
        cov.sort_unstable_by(f64::total_cmp);
        let at = |i: usize| cov.get(i).copied().unwrap_or(0.0);
        m.put("trace.coverage_min", "ratio", at(0));
        m.put(
            "trace.coverage_p50",
            "ratio",
            at(cov.len().saturating_sub(1) / 2),
        );
    }

    /// Human-readable summary, including the first failed probes.
    pub fn describe(&self, rt: &SdxRuntime) -> String {
        let mut s = format!(
            "# replayed {} changes over {} virtual s in {:.1} s: {} probes, {} converged{}, \
             {} failed ({:.2}%), {} recompiles ({} failed)\n",
            self.changes,
            self.virtual_s,
            self.wall_s,
            self.probes,
            self.convergence_ns.len(),
            if supported(self.convergence_ns.len(), 0.99) {
                ""
            } else {
                " (too few for a p99 with ten beyond it)"
            },
            self.failed.len(),
            100.0 * ratio(self.failed.len() as f64, self.probes as f64),
            self.recompiles.len(),
            self.failed_recompiles(),
        );
        for (sender, p) in self.failed.iter().take(5) {
            let delivered = match &p.delivered {
                None => "no frame".to_string(),
                Some(ports) => format!(
                    "ports {:?} (owners {:?})",
                    ports,
                    ports
                        .iter()
                        .map(|port| rt.port_owner(*port))
                        .collect::<Vec<_>>()
                ),
            };
            s.push_str(&format!(
                "# failed probe: prefix {} sender {:?} viewer {:?} expected {:?} delivered {}\n",
                p.prefix, sender, p.viewer, p.receiver, delivered
            ));
        }
        s
    }
}
