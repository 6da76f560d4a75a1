//! Property test for the tuple-space lookup index: on the same rule set,
//! the indexed lookup must be bit-identical to the linear-scan oracle —
//! same chosen rule and same packet counters — across randomized rule sets
//! with overlapping prefixes, shadowed rules, and mid-stream installs
//! (including fast-path bands above the live ceiling), removals, and
//! clears.

use proptest::prelude::*;
use sdx_policy::{Action, Field, Match, Packet, Pattern};
use sdx_switch::{FlowRule, FlowTable};

/// Deliberately overlapping prefixes, so containment chains and shadowing
/// occur constantly.
const PREFIXES: &[&str] = &[
    "0.0.0.0/1",
    "10.0.0.0/8",
    "10.1.0.0/16",
    "10.1.2.0/24",
    "10.128.0.0/9",
    "11.0.0.0/8",
    "128.0.0.0/1",
    "10.1.2.3/32", // canonicalizes to Exact: shares a bucket with exacts
];

/// Probe addresses hitting various depths of the prefix chains (and one
/// outside them all... almost: 0.0.0.0/1 covers 11.x and 10.x).
const ADDRS: &[[u8; 4]] = &[
    [10, 1, 2, 3],
    [10, 1, 9, 9],
    [10, 200, 0, 1],
    [11, 5, 5, 5],
    [200, 1, 1, 1],
];

/// A compact rule-match spec: optional DstIp prefix, optional SrcIp prefix,
/// optional exact DstPort, optional exact ingress Port.
type MatchSpec = (Option<u8>, Option<u8>, Option<u8>, Option<u8>);

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
    m
}

#[derive(Debug, Clone)]
enum Op {
    /// Install one rule at an arbitrary priority (interleaves bands).
    Install(u32, MatchSpec),
    /// Install a batch as a band directly above the live ceiling, earlier
    /// rules higher (the runtime's fast-path fragment placement).
    Append(Vec<MatchSpec>),
    /// Remove by cookie (cookies are assigned sequentially, so small values
    /// often hit).
    RemoveCookie(u64),
    /// Drop everything.
    Clear,
}

fn arb_spec() -> impl Strategy<Value = MatchSpec> {
    (
        prop::option::of(any::<u8>()),
        prop::option::of(any::<u8>()),
        prop::option::of(any::<u8>()),
        prop::option::of(any::<u8>()),
    )
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Installs dominate (several arms), with occasional bands above the
    // ceiling, cookie removals, and clears mixed in.
    prop_oneof![
        (0u32..6, arb_spec()).prop_map(|(p, s)| Op::Install(p, s)),
        (0u32..6, arb_spec()).prop_map(|(p, s)| Op::Install(p, s)),
        (0u32..6, arb_spec()).prop_map(|(p, s)| Op::Install(p, s)),
        (0u32..6, arb_spec()).prop_map(|(p, s)| Op::Install(p, s)),
        prop::collection::vec(arb_spec(), 1..4).prop_map(Op::Append),
        prop::collection::vec(arb_spec(), 1..4).prop_map(Op::Append),
        (0u64..40).prop_map(Op::RemoveCookie),
        Just(Op::Clear),
    ]
}

proptest! {
    #[test]
    fn indexed_lookup_equals_linear_oracle(
        ops in prop::collection::vec(arb_op(), 1..20),
        src_pick in any::<u8>(),
    ) {
        // Two identical tables: `indexed` probed through the tuple-space
        // index, `oracle` through the linear scan. Every mutation is applied
        // to both; every probe must agree, including the counters.
        let mut indexed = FlowTable::new();
        let mut oracle = FlowTable::new();
        let mut next_cookie = 0u64;

        for op in &ops {
            match op {
                Op::Install(prio, spec) => {
                    let cookie = next_cookie;
                    next_cookie += 1;
                    for t in [&mut indexed, &mut oracle] {
                        t.install(
                            FlowRule::new(
                                *prio,
                                build_match(spec),
                                vec![Action::set(Field::Port, cookie as u32 % 3)],
                            )
                            .with_cookie(cookie),
                        );
                    }
                }
                Op::Append(specs) => {
                    let cookie = next_cookie;
                    next_cookie += 1;
                    let n = specs.len() as u32;
                    for t in [&mut indexed, &mut oracle] {
                        let ceiling = t.max_priority().unwrap_or(0);
                        for (i, s) in specs.iter().enumerate() {
                            // Every other rule is a drop, so shadowing by
                            // empty-action rules is exercised.
                            let actions = if i % 2 == 0 {
                                vec![Action::set(Field::Port, 1u32)]
                            } else {
                                vec![]
                            };
                            t.install(
                                FlowRule::new(ceiling + n - i as u32, build_match(s), actions)
                                    .with_cookie(cookie),
                            );
                        }
                    }
                }
                Op::RemoveCookie(c) => {
                    prop_assert_eq!(indexed.remove_by_cookie(*c), oracle.remove_by_cookie(*c));
                }
                Op::Clear => {
                    indexed.clear();
                    oracle.clear();
                }
            }

            // Probe after every mutation: the index must track the table
            // incrementally, not just at the end.
            let src = ADDRS[src_pick as usize % ADDRS.len()];
            for dst in ADDRS {
                for dport in 0u64..4 {
                    for port in [0u64, 2] {
                        let pkt = Packet::new()
                            .with(Field::Port, port as u32)
                            .with(Field::SrcIp, std::net::Ipv4Addr::from(src))
                            .with(Field::DstIp, std::net::Ipv4Addr::from(*dst))
                            .with(Field::DstPort, dport as u16);
                        let a = indexed.lookup(&pkt);
                        let b = oracle.lookup_linear(&pkt);
                        prop_assert_eq!(a, b, "probe {:?}", pkt);
                    }
                }
            }
        }

        // Same rules in the same order, and bit-identical counters.
        prop_assert_eq!(indexed.rules(), oracle.rules());
        for i in 0..indexed.len() {
            prop_assert_eq!(indexed.packet_count(i), oracle.packet_count(i), "counter {}", i);
        }
        prop_assert_eq!(indexed.total_hits(), oracle.total_hits());
    }
}
