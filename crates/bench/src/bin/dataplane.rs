//! Data-plane throughput benchmark: replay generated traffic through the
//! compiled fabric across a shards × participants sweep (1/2/4/8 shards ×
//! 100/200/300 participants), comparing the RSS-sharded tuple-space data
//! plane against the single-threaded linear-scan baseline, and emit
//! `BENCH_dataplane.json` (aggregate + wall packets/sec, scaling
//! efficiency, packets-per-sample, rule/bucket counts, index build time).
//!
//! **Aggregate throughput model.** Shards are executed *serially* with
//! per-shard busy-time instrumentation (`process_batch_serial_into`);
//! aggregate pps is `total packets / max(per-shard busy time)` — the
//! throughput N dedicated cores would sustain, since each shard is an
//! independent run-to-completion loop over a lock-free snapshot with its
//! own counters (the property tests prove output is shard-count-invariant).
//! This keeps the measurement honest on machines with fewer physical cores
//! than shards; `wall_pps` (packets / wall clock on *this* machine) is
//! reported alongside.
//!
//! Knobs: `SDX_BENCH_QUICK=1` shrinks the sweep for CI; `SDX_BENCH_JSON`
//! overrides the artifact path; `SDX_DP_THREADS=N` pins the shard sweep to
//! a single shard count (the ci.sh shard smoke diffs the forwarding
//! fingerprints of `SDX_DP_THREADS=1` vs `4`).
//!
//! `--diff-fig1` switches to the correctness smoke: rebuild the paper's
//! Figure 1 exchange, push a probe grid through an indexed and a
//! linear-scan fabric (before and after fast-path churn), and exit non-zero
//! on any forwarding difference.

use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sdx_bench::{bench_json_path, build_sdx, quick_mode, write_bench_json, Record};
use sdx_bgp::{AsPath, Asn, ExportPolicy, PathAttributes};
use sdx_core::{
    Clause, CompileOptions, FabricSim, Participant, ParticipantId, ParticipantPolicy, PortConfig,
    SdxRuntime,
};
use sdx_ip::Prefix;
use sdx_policy::{match_, Field, Packet};
use sdx_switch::{BatchOutput, BorderRouter};

fn main() {
    if std::env::args().any(|a| a == "--diff-fig1") {
        diff_fig1();
        return;
    }

    let quick = quick_mode();
    let (sizes, prefixes, target, linear_floor, linear_box): (&[usize], usize, u64, u64, Duration) =
        if quick {
            (&[20], 400, 20_000, 2_000, Duration::from_millis(50))
        } else {
            (
                &[100, 200, 300],
                10_000,
                200_000,
                20_000,
                Duration::from_millis(500),
            )
        };
    let default_shards: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4, 8] };
    let pinned = std::env::var("SDX_DP_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map(|n| n.max(1));
    let shard_counts: Vec<usize> = match pinned {
        Some(n) => vec![n],
        None => default_shards.to_vec(),
    };

    println!("# Data plane — RSS-sharded tuple-space lookup vs linear baseline");
    println!("# aggregate_pps = packets / max per-shard busy time (dedicated-core model)");
    println!(
        "participants\tshards\trules\tbuckets\tindex_build_us\taggregate_pps\twall_pps\t\
         efficiency\tlinear_pps\tspeedup"
    );
    let mut records = Vec::new();
    for &n in sizes {
        let (mut sdx, topology, _mix) = build_sdx(n, prefixes, 11, CompileOptions::default());
        sdx.compile().expect("compiles");
        let frames = build_frames(&sdx, &topology, if quick { 256 } else { 1024 });
        assert!(!frames.is_empty(), "no routable traffic generated");

        // Index construction cost, measured on a copy of the installed table.
        let mut table = sdx.switch().table().clone();
        let start = Instant::now();
        table.rebuild_index();
        let index_build_us = start.elapsed().as_micros() as u64;

        let rules = sdx.switch().total_rules();
        let stats = sdx.switch().index_stats();

        // Linear-scan baseline, time-boxed for stability: at least
        // `linear_floor` packets AND at least `linear_box` of wall clock
        // (the old fixed 4,000-packet sample was ±10% run to run).
        sdx.set_linear_scan(true);
        sdx.set_dataplane_threads(1);
        let (linear_pps, linear_packets) =
            replay_linear(&mut sdx, &frames, linear_floor, linear_box);
        sdx.set_linear_scan(false);

        // One-shard aggregate pps anchors the efficiency column.
        let mut base_pps = None;
        for &shards in &shard_counts {
            sdx.set_dataplane_threads(shards);
            let run = replay_sharded(&mut sdx, &frames, target);
            let base = *base_pps.get_or_insert(if shards == 1 {
                run.aggregate_pps
            } else {
                // Pinned sweep without a 1-shard row: measure it once.
                sdx.set_dataplane_threads(1);
                let b = replay_sharded(&mut sdx, &frames, target).aggregate_pps;
                sdx.set_dataplane_threads(shards);
                b
            });
            let efficiency = run.aggregate_pps / (shards as f64 * base);
            let speedup = run.aggregate_pps / linear_pps;
            let fp = fingerprint(&mut sdx, &frames);

            println!(
                "{n}\t{shards}\t{rules}\t{}\t{index_build_us}\t{:.0}\t{:.0}\t{efficiency:.2}\t\
                 {linear_pps:.0}\t{speedup:.1}x",
                stats.buckets, run.aggregate_pps, run.wall_pps
            );
            println!("# fingerprint participants={n} shards={shards} {fp:016x}");
            records.push(
                Record::new()
                    .str("bench", "dataplane")
                    .uint("participants", n)
                    .uint("shards", shards)
                    .uint("rules", rules)
                    .uint("buckets", stats.buckets)
                    .uint("groups", stats.groups)
                    .uint("index_build_us", index_build_us)
                    .uint("packets", run.packets)
                    .float("aggregate_pps", run.aggregate_pps, 0)
                    .float("wall_pps", run.wall_pps, 0)
                    .float("scaling_efficiency", efficiency, 3)
                    .uint("linear_packets", linear_packets)
                    .float("linear_pps", linear_pps, 0)
                    .float("speedup_vs_linear", speedup, 2),
            );
        }
    }
    let path = bench_json_path("BENCH_dataplane.json");
    write_bench_json(&path, &records).expect("write bench json");
    eprintln!("wrote {}", path.display());
}

/// One sharded measurement: packets replayed, aggregate (dedicated-core)
/// pps, and wall pps on this machine.
struct ShardRun {
    packets: u64,
    aggregate_pps: f64,
    wall_pps: f64,
}

/// Replay `frames` through the sharded fabric in serial measurement mode
/// until at least `target` packets have been processed; aggregate pps uses
/// the busiest shard's cumulative busy time.
fn replay_sharded(sdx: &mut SdxRuntime, frames: &[Packet], target: u64) -> ShardRun {
    let mut out = BatchOutput::new();
    // Warm up scratch (arena growth, snapshot publication) off the clock.
    sdx.process_batch_serial_into(frames, &mut out);
    sdx.reset_shard_busy();
    let mut sent = 0u64;
    let wall = Instant::now();
    while sent < target {
        sdx.process_batch_serial_into(frames, &mut out);
        debug_assert_eq!(out.packets(), frames.len());
        sent += frames.len() as u64;
    }
    let wall = wall.elapsed().as_secs_f64();
    let max_busy = sdx
        .shard_busy()
        .into_iter()
        .max()
        .unwrap_or_default()
        .as_secs_f64();
    ShardRun {
        packets: sent,
        aggregate_pps: sent as f64 / max_busy.max(f64::EPSILON),
        wall_pps: sent as f64 / wall.max(f64::EPSILON),
    }
}

/// Replay through the single-threaded linear-scan path until both the
/// packet floor and the time box are met; returns (pps, packets sampled).
fn replay_linear(
    sdx: &mut SdxRuntime,
    frames: &[Packet],
    floor: u64,
    time_box: Duration,
) -> (f64, u64) {
    let mut out = BatchOutput::new();
    sdx.process_batch_into(frames, &mut out); // warm-up, off the clock
    let mut sent = 0u64;
    let start = Instant::now();
    while sent < floor || start.elapsed() < time_box {
        sdx.process_batch_into(frames, &mut out);
        sent += frames.len() as u64;
    }
    (sent as f64 / start.elapsed().as_secs_f64(), sent)
}

/// Deterministic digest of one batch's forwarding behavior (egress ports
/// and full emitted headers, grouped per input packet in input order) —
/// must be identical for every shard count; ci.sh diffs it at 1 vs 4.
fn fingerprint(sdx: &mut SdxRuntime, frames: &[Packet]) -> u64 {
    let mut out = BatchOutput::new();
    sdx.process_batch_into(frames, &mut out);
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(PRIME);
    };
    for emissions in out.iter() {
        mix(emissions.len() as u64 + 1);
        for (egress, pkt) in emissions {
            mix(*egress as u64);
            for (field, value) in pkt.iter() {
                mix(*field as u64 + 1);
                mix(*value);
            }
        }
    }
    h
}

/// Tagged fabric frames for a sample of cross-participant flows, as the
/// senders' border routers would emit them (FIB + ARP + VMAC tag). Built
/// once; the replay loop reuses them.
fn build_frames(
    sdx: &SdxRuntime,
    topology: &sdx_workload::IxpTopology,
    flows: usize,
) -> Vec<Packet> {
    let mut rng = StdRng::seed_from_u64(11);
    let senders: Vec<&Participant> = topology
        .participants
        .iter()
        .filter(|p| p.is_physical())
        .collect();
    let mut routers: std::collections::BTreeMap<ParticipantId, BorderRouter> =
        std::collections::BTreeMap::new();
    let mut frames = Vec::new();
    for _ in 0..flows * 4 {
        if frames.len() >= flows {
            break;
        }
        let sender = senders[rng.gen_range(0..senders.len())];
        let ann = &topology.announcements[rng.gen_range(0..topology.announcements.len())];
        if ann.from == sender.id {
            continue;
        }
        let prefix = ann.prefixes[rng.gen_range(0..ann.prefixes.len())];
        let dst = prefix.first_addr();
        let dport = *[80u16, 443, 53, 22].choose(&mut rng).unwrap();
        let pkt = Packet::new()
            .with(Field::EthType, 0x0800u16)
            .with(Field::IpProto, 17u8)
            .with(Field::SrcIp, Ipv4Addr::from(rng.gen::<u32>()))
            .with(Field::DstIp, dst)
            .with(Field::SrcPort, rng.gen_range(1024..u16::MAX))
            .with(Field::DstPort, dport);
        let router = routers.entry(sender.id).or_insert_with(|| {
            let port = &sender.ports[0];
            let mut r = BorderRouter::new(port.port, port.mac, port.ip);
            sdx.sync_router(sender.id, &mut r);
            r
        });
        frames.extend(router.forward_resolving(pkt, |req| sdx.resolve_arp(req)));
    }
    frames
}

// ---------------------------------------------------------------------------
// --diff-fig1: indexed vs linear forwarding equivalence on Figure 1.
// ---------------------------------------------------------------------------

const A: ParticipantId = ParticipantId(1);
const B: ParticipantId = ParticipantId(2);
const C: ParticipantId = ParticipantId(3);

fn p(s: &str) -> Prefix {
    s.parse().unwrap()
}

fn port(n: u32, last: u8) -> PortConfig {
    PortConfig {
        port: n,
        mac: sdx_ip::MacAddr::from_u64(0x0a00_0000_0000 + n as u64),
        ip: Ipv4Addr::new(172, 0, 0, last),
    }
}

fn attrs(path: &[u32], nh: Ipv4Addr) -> PathAttributes {
    PathAttributes::new(AsPath::sequence(path.iter().copied()), nh)
}

/// The Figure 1 exchange (same construction as the `figure1` end-to-end
/// tests): A's application-specific peering, B's inbound engineering, B's
/// selective export of 14.0.0.0/8.
fn fig1_runtime() -> SdxRuntime {
    let mut sdx = SdxRuntime::new(CompileOptions::default());
    sdx.add_participant(Participant::new(A, Asn(100), vec![port(1, 11)]));
    sdx.add_participant(Participant::new(
        B,
        Asn(200),
        vec![port(2, 21), port(3, 22)],
    ));
    sdx.add_participant(Participant::new(C, Asn(300), vec![port(4, 31)]));

    let b_nh = Ipv4Addr::new(172, 0, 0, 21);
    let c_nh = Ipv4Addr::new(172, 0, 0, 31);
    sdx.announce(
        B,
        [p("11.0.0.0/8"), p("12.0.0.0/8"), p("14.0.0.0/8")],
        attrs(&[200, 65001], b_nh),
    );
    sdx.announce(B, [p("13.0.0.0/8")], attrs(&[200], b_nh));
    sdx.set_export_policy(
        B,
        ExportPolicy::export_all().deny_prefix_to(p("14.0.0.0/8"), A.peer()),
    );
    sdx.announce(
        C,
        [p("11.0.0.0/8"), p("12.0.0.0/8"), p("14.0.0.0/8")],
        attrs(&[300], c_nh),
    );
    sdx.announce(C, [p("13.0.0.0/8")], attrs(&[300, 500, 65001], c_nh));

    sdx.set_policy(
        A,
        ParticipantPolicy::new()
            .outbound(Clause::fwd(match_(Field::DstPort, 80u16), B))
            .outbound(Clause::fwd(match_(Field::DstPort, 443u16), C)),
    );
    sdx.set_policy(
        B,
        ParticipantPolicy::new()
            .inbound(Clause::to_port(
                sdx_policy::match_prefix(Field::SrcIp, p("0.0.0.0/1")),
                2,
            ))
            .inbound(Clause::to_port(
                sdx_policy::match_prefix(Field::SrcIp, p("128.0.0.0/1")),
                3,
            )),
    );
    sdx
}

fn fig1_sim(linear: bool) -> FabricSim {
    let mut sdx = fig1_runtime();
    sdx.compile().expect("figure 1 compiles");
    sdx.set_linear_scan(linear);
    let mut sim = FabricSim::new(sdx);
    sim.sync();
    sim
}

fn probe(src: &str, dst: &str, dport: u16) -> Packet {
    Packet::new()
        .with(Field::EthType, 0x0800u16)
        .with(Field::IpProto, 6u8)
        .with(Field::SrcIp, src.parse::<Ipv4Addr>().unwrap())
        .with(Field::DstIp, dst.parse::<Ipv4Addr>().unwrap())
        .with(Field::SrcPort, 50_000u16)
        .with(Field::DstPort, dport)
}

fn diff_fig1() {
    let mut indexed = fig1_sim(false);
    let mut linear = fig1_sim(true);

    let srcs = ["55.0.0.1", "200.0.0.1"];
    let dsts = ["11.0.0.1", "12.0.0.1", "13.0.0.1", "14.0.0.1", "99.0.0.1"];
    let dports = [80u16, 443, 53, 22];
    let mut checked = 0usize;
    let mut mismatches = 0usize;
    let mut run_grid = |indexed: &mut FabricSim, linear: &mut FabricSim, tag: &str| {
        for from in [A, C] {
            for src in srcs {
                for dst in dsts {
                    for dport in dports {
                        let pkt = probe(src, dst, dport);
                        let a = indexed.send_from(from, pkt.clone());
                        let b = linear.send_from(from, pkt);
                        checked += 1;
                        if a != b {
                            mismatches += 1;
                            eprintln!(
                                "MISMATCH [{tag}] from={from:?} {src}->{dst}:{dport}: \
                                 indexed={a:?} linear={b:?}"
                            );
                        }
                    }
                }
            }
        }
    };
    run_grid(&mut indexed, &mut linear, "base");

    // Fast-path churn: B withdraws 13.0.0.0/8, a fresh fragment lands above
    // the base table on both sides; forwarding must stay identical.
    for sim in [&mut indexed, &mut linear] {
        sim.runtime_mut().withdraw(B, [p("13.0.0.0/8")]);
        sim.sync();
    }
    run_grid(&mut indexed, &mut linear, "post-withdraw");

    // And back, so fragment retirement + re-install is covered too.
    for sim in [&mut indexed, &mut linear] {
        sim.runtime_mut().announce(
            B,
            [p("13.0.0.0/8")],
            attrs(&[200], Ipv4Addr::new(172, 0, 0, 21)),
        );
        sim.sync();
    }
    run_grid(&mut indexed, &mut linear, "post-reannounce");

    if mismatches == 0 {
        println!("fig1-diff: OK ({checked} probes, indexed == linear)");
    } else {
        println!("fig1-diff: FAILED ({mismatches}/{checked} probes differ)");
        std::process::exit(1);
    }
}
