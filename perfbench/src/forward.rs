//! `policy-forward`: the Fig. 8 top point (300 participants, 25,000
//! single-homed prefixes, ~1,000 target groups). Pre-tagged 1,024-frame
//! batches are forwarded closed-loop through the indexed flow table, with
//! a policy change and full recompile between forwarding phases.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sdx_churn::sync_prefix;
use sdx_core::{CompileOptions, CompileStats, ParticipantId, ParticipantPolicy, SdxRuntime};
use sdx_ip::Prefix;
use sdx_policy::{Field, Packet};
use sdx_switch::{BatchOutput, BorderRouter, Forward};
use sdx_workload::{generate_policies_with_groups, IxpProfile, IxpTopology, PolicyMix};

use crate::measure::{median, ms, pct, ratio, supported, us, Affinity, Tracer};
use crate::Outcome;

const PARTICIPANTS: usize = 300;
const PREFIXES: usize = 25_000;
const TARGET_GROUPS: usize = 1_000;
const BATCH: usize = 1_024;
/// Distinct batches the forwarding phases rotate through.
const BATCHES: usize = 2;
/// Wall seconds of forwarding between two policy changes.
const FORWARD_PHASE_S: f64 = 1.0;
/// Wall seconds of two-shard forwarding in the traced run.
const SHARD_PHASE_S: f64 = 0.5;
/// The exchange is the Fig. 8 top point exactly as `fig8` draws it (566
/// groups, ~10.1k rules); `--seed` draws the traffic, the policies that
/// changes bring in, and the order of the changes.
const FIG8_SEED: u64 = 8;
/// Seed offset of the mix that changed policies come from.
const ALT_MIX: u64 = 0x5eed_a17e;

/// One flow of the dataplane bench's traffic model: a sender and a UDP
/// packet to another participant's prefix, before the router tags it.
struct Flow {
    sender: ParticipantId,
    prefix: Prefix,
    pkt: Packet,
}

struct Inputs {
    topology: IxpTopology,
    mix: PolicyMix,
    alt: PolicyMix,
    flows: Vec<Flow>,
    /// The participants whose policy changes, in change order.
    changers: Vec<ParticipantId>,
}

fn inputs(seed: u64) -> Inputs {
    // Fig. 8 controls the group count directly, so the table is generated
    // without multi-homing.
    let profile = IxpProfile {
        multi_home_fraction: 0.0,
        ..IxpProfile::ams_ix(PARTICIPANTS, PREFIXES)
    };
    let topology = IxpTopology::generate(profile, FIG8_SEED);
    let mix = generate_policies_with_groups(&topology, TARGET_GROUPS, FIG8_SEED);
    let alt = generate_policies_with_groups(&topology, TARGET_GROUPS, seed ^ ALT_MIX);
    let mut rng = StdRng::seed_from_u64(seed);
    let senders: Vec<ParticipantId> = topology
        .participants
        .iter()
        .filter(|p| p.is_physical())
        .map(|p| p.id)
        .collect();
    let mut flows = Vec::with_capacity(BATCH * BATCHES);
    while flows.len() < BATCH * BATCHES {
        let sender = senders[rng.gen_range(0..senders.len())];
        let ann = &topology.announcements[rng.gen_range(0..topology.announcements.len())];
        if ann.from == sender {
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
                *[80u16, 443, 53, 22].choose(&mut rng).expect("ports"),
            );
        flows.push(Flow {
            sender,
            prefix,
            pkt,
        });
    }
    let mut changers: Vec<ParticipantId> = alt.policies.keys().copied().collect();
    changers.shuffle(&mut rng);
    Inputs {
        topology,
        mix,
        alt,
        flows,
        changers,
    }
}

/// Set-up: install the fabric and run the cold compile.
fn setup(inputs: &Inputs) -> SdxRuntime {
    let mut rt = SdxRuntime::new(CompileOptions::default());
    inputs.topology.install(&mut rt);
    for (id, policy) in &inputs.mix.policies {
        rt.set_policy(*id, policy.clone());
    }
    rt.compile().expect("cold compile");
    rt
}

/// Tag every flow as its sender's border router would (FIB next hop, ARP,
/// VMAC) and cut the frames into batches. A flow the router cannot send
/// is left out and reported as a failed frame.
fn tag(rt: &SdxRuntime, flows: &[Flow]) -> (Vec<Vec<Packet>>, usize) {
    let mut routers: BTreeMap<ParticipantId, BorderRouter> = BTreeMap::new();
    let mut frames = Vec::with_capacity(flows.len());
    for flow in flows {
        let router = routers
            .entry(flow.sender)
            .or_insert_with(|| crate::churn::router_of(rt, flow.sender));
        sync_prefix(rt, flow.sender, router, flow.prefix);
        match router.forward(flow.pkt.clone()) {
            Forward::Frame(f) => frames.push(f),
            Forward::NeedArp(_) | Forward::NoRoute => {}
        }
    }
    let untagged = flows.len() - frames.len();
    (
        frames.chunks(BATCH).map(<[Packet]>::to_vec).collect(),
        untagged,
    )
}

/// The linear-scan oracle's deliveries for each batch.
fn reference(rt: &mut SdxRuntime, batches: &[Vec<Packet>]) -> Vec<Vec<Vec<(u32, Packet)>>> {
    rt.set_linear_scan(true);
    let out = batches.iter().map(|b| rt.process_batch(b)).collect();
    rt.set_linear_scan(false);
    out
}

/// Frames of `out` whose delivery differs from the oracle's.
fn mismatches(out: &BatchOutput, want: &[Vec<(u32, Packet)>]) -> usize {
    out.iter()
        .zip(want)
        .filter(|(got, want)| *got != want.as_slice())
        .count()
        + want.len().abs_diff(out.packets())
}

#[derive(Default)]
struct Forwarding {
    batch_ns: Vec<u64>,
    /// Each forwarding phase's p99 batch time.
    phase_p99_ns: Vec<u64>,
    frames: u64,
    bad_frames: u64,
}

impl Forwarding {
    /// Forward one batch, checking it against the oracle off the clock.
    fn batch(
        &mut self,
        t: &mut Tracer,
        rt: &mut SdxRuntime,
        batch: &[Packet],
        want: &[Vec<(u32, Packet)>],
        out: &mut BatchOutput,
    ) -> u64 {
        let (_, ns) = t.span("switch.batch", self.batch_ns.len() as u64, |_| {
            rt.process_batch_into(batch, out)
        });
        self.batch_ns.push(ns);
        self.frames += batch.len() as u64;
        self.bad_frames += mismatches(out, want) as u64;
        ns
    }

    /// Forward the batches in turn, closed-loop, for `seconds`.
    fn phase(
        &mut self,
        t: &mut Tracer,
        rt: &mut SdxRuntime,
        batches: &[Vec<Packet>],
        want: &[Vec<Vec<(u32, Packet)>>],
        out: &mut BatchOutput,
        seconds: f64,
    ) {
        let start = Instant::now();
        let first = self.batch_ns.len();
        for b in (0..batches.len()).cycle() {
            if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
            self.batch(t, rt, &batches[b], &want[b], out);
        }
        let mut phase = self.batch_ns[first..].to_vec();
        self.phase_p99_ns.push(pct(&mut phase, 0.99));
    }
}

pub fn run(seed: u64, seconds: f64, setups: usize, t: &mut Tracer, affinity: &Affinity) -> Outcome {
    let inputs = inputs(seed);
    let (mut rt, setup_ns) = crate::set_up(t, setups, || setup(&inputs));
    let mut oracle_ns = 0;
    let mut out = BatchOutput::new();
    let (mut batches, mut untagged) = tag(&rt, &inputs.flows);
    let o = t.now();
    let mut want = reference(&mut rt, &batches);
    oracle_ns += t.now() - o;

    let mut fwd = Forwarding::default();
    let mut compiles: Vec<CompileStats> = Vec::new();
    let mut recompile_ns = Vec::new();
    let mut install_ns = Vec::new();
    let mut convergence_ns = Vec::new();
    let mut failed_compiles = 0;
    let mut changed: BTreeMap<ParticipantId, bool> = BTreeMap::new();
    let start = Instant::now();
    let mut change = 0usize;
    loop {
        fwd.phase(t, &mut rt, &batches, &want, &mut out, FORWARD_PHASE_S);
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        // One participant swaps between its policy in the two mixes.
        let id = inputs.changers[change % inputs.changers.len()];
        change += 1;
        let to_alt = !changed.get(&id).copied().unwrap_or(false);
        changed.insert(id, to_alt);
        let from = if to_alt { &inputs.alt } else { &inputs.mix };
        let policy = from
            .policies
            .get(&id)
            .cloned()
            .unwrap_or_else(ParticipantPolicy::new);
        let (stats, ns) = t.span("core.runtime.compile", change as u64, |_| {
            rt.set_policy(id, policy);
            rt.compile()
        });
        let Ok(stats) = stats else {
            failed_compiles += 1;
            continue;
        };
        recompile_ns.push(ns);
        install_ns.push(ns.saturating_sub(stats.duration_us * 1_000));
        compiles.push(stats);
        // Routers pick up the new tags off the clock; the oracle re-derives
        // the expected deliveries.
        let retag = tag(&rt, &inputs.flows);
        batches = retag.0;
        untagged += retag.1;
        let o = t.now();
        want = reference(&mut rt, &batches);
        oracle_ns += t.now() - o;
        // The change has converged once the first batch forwards on the
        // new tables.
        let first = fwd.batch(t, &mut rt, &batches[0], &want[0], &mut out);
        convergence_ns.push(ns + first);
    }
    let wall_s = start.elapsed().as_secs_f64();

    // Two shards on two threads, traced runs only.
    let mut shard = Forwarding::default();
    if t.on() {
        rt.set_dataplane_threads(2);
        affinity.widened(|| shard.phase(t, &mut rt, &batches, &want, &mut out, SHARD_PHASE_S));
        rt.set_dataplane_threads(1);
    }

    let mut o = Outcome::new(setup_ns);
    o.summary = format!(
        "# forwarded {} frames in {} batches over {:.1} s \
         with {} policy changes ({} failed{}); \
         {} frames differ from the linear-scan oracle, {} flows untagged; \
         oracle linear_scan {:.1} ms\n",
        fwd.frames,
        fwd.batch_ns.len(),
        wall_s,
        change,
        failed_compiles,
        if supported(convergence_ns.len(), 0.99) {
            ""
        } else {
            "; too few for a convergence p99 with ten beyond it"
        },
        fwd.bad_frames + shard.bad_frames,
        untagged,
        ms(oracle_ns),
    );
    o.attempted = fwd.frames + shard.frames + untagged as u64 + change as u64;
    o.failed = fwd.bad_frames + shard.bad_frames + untagged as u64 + failed_compiles;
    o.work_ns = fwd.batch_ns.iter().sum();
    o.ops = fwd.frames;

    let busy: u64 = recompile_ns.iter().sum();
    let e = &mut o.e2e;
    e.put(
        "convergence_p50_us",
        "us",
        us(pct(&mut convergence_ns, 0.5)),
    );
    e.put(
        "convergence_p99_us",
        "us",
        us(pct(&mut convergence_ns, 0.99)),
    );
    e.put(
        "updates_per_s",
        "1/s",
        ratio(recompile_ns.len() as f64, busy as f64 / 1e9),
    );
    e.put("recompile_p50_ms", "ms", ms(median(&mut recompile_ns)));
    e.put(
        "fwd_mpps",
        "Mpps",
        ratio(fwd.frames as f64 * 1e3, o.work_ns as f64),
    );
    // The median phase's p99: the first batches after each recompile meet
    // cold tables, and a phase the host stalls would otherwise set it.
    e.put("fwd_batch_p99_us", "us", us(median(&mut fwd.phase_p99_ns)));

    let m = &mut o.layers;
    crate::compile_layers(m, &compiles);
    crate::switch_layers(m, &rt);
    m.put(
        "core.runtime.install_p50_ms",
        "ms",
        ms(median(&mut install_ns)),
    );
    m.put("switch.batch_p50_us", "us", us(median(&mut fwd.batch_ns)));
    m.put(
        "switch.ns_per_packet",
        "ns",
        ratio(o.work_ns as f64, fwd.frames as f64),
    );
    let shard_ns: u64 = shard.batch_ns.iter().sum();
    m.put(
        "switch.shard_x2_mpps",
        "Mpps",
        ratio(shard.frames as f64 * 1e3, shard_ns as f64),
    );
    m.put(
        "switch.shard_x2_batch_p99_us",
        "us",
        us(pct(&mut shard.batch_ns, 0.99)),
    );
    m.put("oracle.check_ms", "ms", ms(oracle_ns));
    o
}
