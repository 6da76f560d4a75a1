//! Property test for the RSS-sharded data plane: for every shard count
//! N ∈ {1, 2, 4, 8}, the sharded switch's batch output (in input order —
//! strictly stronger than multiset equality), stats, and per-rule packet
//! counters must be bit-identical to the single-shard oracle under a
//! randomized churn of installs, fast-path bands above the live ceiling,
//! cookie removals, delta-plan mutations (single installs above the current
//! ceiling and content-based `remove_matching` retirements, the update
//! planner's rule vocabulary), clears and index rebuilds applied through
//! the single-writer path between batches. Most rules pin one of a few
//! DstMac values (the VMAC tag), so the index runs partitioned. The serial
//! (dedicated-core measurement) mode must agree with the parallel
//! fork-join mode as well.

use proptest::prelude::*;
use sdx_policy::{Action, Field, Match, Packet, Pattern};
use sdx_switch::{FlowRule, ShardedSwitch, SoftSwitch};

/// Overlapping prefixes so shadowing and containment chains occur.
const PREFIXES: &[&str] = &[
    "0.0.0.0/1",
    "10.0.0.0/8",
    "10.1.0.0/16",
    "10.1.2.0/24",
    "10.128.0.0/9",
    "11.0.0.0/8",
    "128.0.0.0/1",
    "10.1.2.3/32",
];

/// Probe addresses hitting various depths of the prefix chains.
const ADDRS: &[[u8; 4]] = &[
    [10, 1, 2, 3],
    [10, 1, 9, 9],
    [10, 200, 0, 1],
    [11, 5, 5, 5],
    [200, 1, 1, 1],
];

/// The DstMac values rules pin (VMAC tags: few, shared across buckets).
const MACS: [u64; 3] = [0x0a00_0000_0001, 0x0a00_0000_0002, 0x0a00_0000_0003];
/// A DstMac value no rule pins.
const UNPINNED_MAC: u64 = 0x0a00_0000_00ff;

/// Optional DstIp prefix, SrcIp prefix, exact DstPort, exact ingress Port,
/// exact DstMac (an index into `MACS`).
type MatchSpec = (Option<u8>, Option<u8>, Option<u8>, Option<u8>, Option<u8>);

fn build_match(spec: &MatchSpec) -> Match {
    let mut m = Match::any();
    if let Some(i) = spec.0 {
        let p = PREFIXES[i as usize % PREFIXES.len()].parse().unwrap();
        m = m.and(Field::DstIp, Pattern::Prefix(p)).unwrap();
    }
    if let Some(i) = spec.1 {
        let p = PREFIXES[i as usize % PREFIXES.len()].parse().unwrap();
        m = m.and(Field::SrcIp, Pattern::Prefix(p)).unwrap();
    }
    if let Some(v) = spec.2 {
        m = m
            .and(Field::DstPort, Pattern::Exact((v % 4) as u64))
            .unwrap();
    }
    if let Some(v) = spec.3 {
        m = m.and(Field::Port, Pattern::Exact((v % 3) as u64)).unwrap();
    }
    if let Some(i) = spec.4 {
        m = m
            .and(Field::DstMac, Pattern::Exact(MACS[i as usize % MACS.len()]))
            .unwrap();
    }
    m
}

#[derive(Debug, Clone)]
enum Op {
    /// Install one rule at an arbitrary priority.
    Install(u32, MatchSpec),
    /// Install a batch as a band directly above the live ceiling, earlier
    /// rules higher (the runtime's fast-path fragment placement).
    Append(Vec<MatchSpec>),
    /// Remove by cookie.
    RemoveCookie(u64),
    /// A delta-plan install: one rule a small offset above the current
    /// ceiling.
    DeltaInstall(u8, MatchSpec),
    /// A delta-plan removal: retire the k-th live rule by *content* (the
    /// update plan's `remove_matching`), not by cookie.
    RemoveMatching(u8),
    /// Drop everything.
    Clear,
    /// Rebuild the index in one pass (choosing its partition field).
    Rebuild,
}

fn arb_spec() -> impl Strategy<Value = MatchSpec> {
    (
        prop::option::of(any::<u8>()),
        prop::option::of(any::<u8>()),
        prop::option::of(any::<u8>()),
        prop::option::of(any::<u8>()),
        // Three in four rules pin a DstMac; the rest leave it wild.
        prop::option::of(0..MACS.len() as u8),
    )
}

/// The probes' DstMac: each pinned value, a value no rule pins, and none.
fn probe_macs() -> impl Iterator<Item = Option<u64>> {
    MACS.into_iter()
        .chain([UNPINNED_MAC])
        .map(Some)
        .chain([None])
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..6, arb_spec()).prop_map(|(p, s)| Op::Install(p, s)),
        (0u32..6, arb_spec()).prop_map(|(p, s)| Op::Install(p, s)),
        (0u32..6, arb_spec()).prop_map(|(p, s)| Op::Install(p, s)),
        prop::collection::vec(arb_spec(), 1..4).prop_map(Op::Append),
        (0u64..30).prop_map(Op::RemoveCookie),
        (any::<u8>(), arb_spec()).prop_map(|(o, s)| Op::DeltaInstall(o, s)),
        (any::<u8>(), arb_spec()).prop_map(|(o, s)| Op::DeltaInstall(o, s)),
        any::<u8>().prop_map(Op::RemoveMatching),
        any::<u8>().prop_map(Op::RemoveMatching),
        Just(Op::Clear),
        Just(Op::Rebuild),
        Just(Op::Rebuild),
    ]
}

/// Apply one churn op to a table-owning switch.
fn apply_op(sw: &mut SoftSwitch, op: &Op, next_cookie: &mut u64) {
    match op {
        Op::Install(prio, spec) => {
            let cookie = *next_cookie;
            *next_cookie += 1;
            sw.install_rule(
                FlowRule::new(
                    *prio,
                    build_match(spec),
                    vec![Action::set(Field::Port, cookie as u32 % 3)],
                )
                .with_cookie(cookie),
            );
        }
        Op::Append(specs) => {
            let cookie = *next_cookie;
            *next_cookie += 1;
            let n = specs.len() as u32;
            let ceiling = sw.table().max_priority().unwrap_or(0);
            for (i, s) in specs.iter().enumerate() {
                let actions = if i % 2 == 0 {
                    vec![Action::set(Field::Port, 1u32)]
                } else {
                    vec![]
                };
                sw.install_rule(
                    FlowRule::new(ceiling + n - i as u32, build_match(s), actions)
                        .with_cookie(cookie),
                );
            }
        }
        Op::RemoveCookie(c) => {
            sw.table_mut().remove_by_cookie(*c);
        }
        Op::DeltaInstall(off, spec) => {
            let cookie = *next_cookie;
            *next_cookie += 1;
            let prio = sw
                .table()
                .max_priority()
                .unwrap_or(0)
                .saturating_add(1 + (*off % 3) as u32);
            sw.install_rule(
                FlowRule::new(
                    prio,
                    build_match(spec),
                    vec![Action::set(Field::Port, cookie as u32 % 3)],
                )
                .with_cookie(cookie),
            );
        }
        Op::RemoveMatching(k) => {
            // Deterministic across switches: the tables are identical, so
            // the k-th rule is the same everywhere.
            let len = sw.table().len();
            if len > 0 {
                let victim = sw.table().rules()[*k as usize % len].clone();
                sw.table_mut().remove_matching(&victim);
            }
        }
        Op::Clear => {
            sw.table_mut().clear();
        }
        Op::Rebuild => {
            sw.table_mut().rebuild_index();
        }
    }
}

/// The probe batch: a spread of flows across the prefix chains, DstPorts,
/// ingress ports (including a bad-ingress one) and DstMacs (pinned,
/// unpinned, absent).
fn probe_batch(src_pick: u8) -> Vec<Packet> {
    let src = ADDRS[src_pick as usize % ADDRS.len()];
    let mut pkts = Vec::new();
    for dst in ADDRS {
        for dport in 0u16..4 {
            for port in [0u32, 2, 7] {
                for mac in probe_macs() {
                    let mut pkt = Packet::new()
                        .with(Field::Port, port)
                        .with(Field::SrcIp, std::net::Ipv4Addr::from(src))
                        .with(Field::DstIp, std::net::Ipv4Addr::from(*dst))
                        .with(Field::DstPort, dport);
                    if let Some(mac) = mac {
                        pkt.set(Field::DstMac, mac);
                    }
                    pkts.push(pkt);
                }
            }
        }
    }
    pkts
}

fn counters_of(sw: &SoftSwitch) -> Vec<u64> {
    (0..sw.table().len())
        .map(|i| sw.table().packet_count(i))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn sharded_equals_single_shard_oracle(
        ops in prop::collection::vec(arb_op(), 1..12),
        src_pick in any::<u8>(),
    ) {
        const PORTS: [u32; 3] = [0, 1, 2];
        const SHARDS: [usize; 4] = [1, 2, 4, 8];

        let mut oracle = SoftSwitch::new(PORTS);
        let mut sharded: Vec<ShardedSwitch> = SHARDS
            .iter()
            .map(|&n| ShardedSwitch::new(SoftSwitch::new(PORTS), n))
            .collect();
        // The serial measurement mode must match the parallel path too.
        let mut serial = ShardedSwitch::new(SoftSwitch::new(PORTS), 4);
        let mut serial_out = sdx_switch::BatchOutput::new();

        let pkts = probe_batch(src_pick);
        let mut oracle_cookie = 0u64;

        for op in &ops {
            // Mutate every switch identically through the single writer,
            // replaying each with the same cookie counter so cookies match.
            let cookie_before = oracle_cookie;
            apply_op(&mut oracle, op, &mut oracle_cookie);
            for sw in &mut sharded {
                let mut c = cookie_before;
                apply_op(sw.master_mut(), op, &mut c);
            }
            {
                let mut c = cookie_before;
                apply_op(serial.master_mut(), op, &mut c);
            }

            // Probe after every mutation: snapshots must republish.
            let want = oracle.process_batch(&pkts);
            let want_counters = counters_of(&oracle);
            for (sw, &n) in sharded.iter_mut().zip(SHARDS.iter()) {
                prop_assert_eq!(&sw.process_batch(&pkts), &want, "shards={}", n);
                prop_assert_eq!(sw.stats(), oracle.stats(), "stats shards={}", n);
                prop_assert_eq!(
                    counters_of(sw.master()), want_counters.clone(),
                    "counters shards={}", n
                );
            }
            serial.process_batch_serial_into(&pkts, &mut serial_out);
            prop_assert_eq!(&serial_out.to_vecs(), &want, "serial mode");
            prop_assert_eq!(serial.stats(), oracle.stats(), "serial stats");
            prop_assert_eq!(counters_of(serial.master()), want_counters, "serial counters");
        }
    }
}
