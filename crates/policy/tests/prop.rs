//! The compiler's soundness property: for every policy `p` and packet `k`,
//! `p.compile().evaluate(k) == p.eval(k)`.
//!
//! Policies and packets are drawn from a small shared domain so random
//! packets actually exercise the compiled rules.

use proptest::prelude::*;
use sdx_policy::{Field, Packet, Policy, Predicate};
use std::net::Ipv4Addr;

const PORTS: [u32; 4] = [1, 2, 101, 102];
const DST_PORTS: [u16; 3] = [80, 443, 22];
const IPS: [[u8; 4]; 4] = [
    [10, 0, 0, 1],
    [10, 200, 0, 1],
    [128, 0, 0, 1],
    [200, 1, 2, 3],
];
const PREFIXES: [&str; 5] = [
    "0.0.0.0/0",
    "0.0.0.0/1",
    "128.0.0.0/1",
    "10.0.0.0/8",
    "10.0.0.0/16",
];

fn arb_field_test() -> impl Strategy<Value = Predicate> {
    prop_oneof![
        prop::sample::select(&PORTS[..]).prop_map(|p| Predicate::test(Field::Port, p)),
        prop::sample::select(&DST_PORTS[..]).prop_map(|p| Predicate::test(Field::DstPort, p)),
        prop::sample::select(&IPS[..])
            .prop_map(|ip| Predicate::test(Field::SrcIp, Ipv4Addr::from(ip))),
        prop::sample::select(&PREFIXES[..])
            .prop_map(|s| Predicate::test_prefix(Field::SrcIp, s.parse().unwrap())),
        prop::sample::select(&PREFIXES[..])
            .prop_map(|s| Predicate::test_prefix(Field::DstIp, s.parse().unwrap())),
        prop::collection::btree_set(prop::sample::select(&DST_PORTS[..]), 1..3)
            .prop_map(|s| Predicate::in_set(Field::DstPort, s.into_iter().map(u64::from))),
    ]
}

fn arb_predicate() -> impl Strategy<Value = Predicate> {
    let leaf = prop_oneof![
        Just(Predicate::True),
        Just(Predicate::False),
        arb_field_test(),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Predicate::And(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Predicate::Or(a.into(), b.into())),
            inner.prop_map(|p| Predicate::Not(p.into())),
        ]
    })
}

fn arb_mod() -> impl Strategy<Value = Policy> {
    prop_oneof![
        prop::sample::select(&PORTS[..]).prop_map(Policy::fwd),
        prop::sample::select(&DST_PORTS[..]).prop_map(|p| Policy::modify(Field::DstPort, p)),
        prop::sample::select(&IPS[..])
            .prop_map(|ip| Policy::modify(Field::DstIp, Ipv4Addr::from(ip))),
    ]
}

fn arb_policy() -> impl Strategy<Value = Policy> {
    let leaf = prop_oneof![arb_predicate().prop_map(Policy::Filter), arb_mod(),];
    leaf.prop_recursive(3, 20, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..3).prop_map(Policy::parallel),
            prop::collection::vec(inner.clone(), 1..3).prop_map(Policy::sequential),
            (arb_predicate(), inner.clone(), inner)
                .prop_map(|(p, a, b)| Policy::if_then_else(p, a, b)),
        ]
    })
}

fn arb_packet() -> impl Strategy<Value = Packet> {
    (
        prop::sample::select(&PORTS[..]),
        prop::sample::select(&IPS[..]),
        prop::sample::select(&IPS[..]),
        prop::sample::select(&DST_PORTS[..]),
        any::<bool>(),
    )
        .prop_map(|(port, src, dst, dport, full)| {
            if full {
                Packet::udp(port, Ipv4Addr::from(src), Ipv4Addr::from(dst), 5000, dport)
            } else {
                // A partial packet (e.g. non-IP frame) exercises missing-field
                // match semantics.
                Packet::new().with(Field::Port, port)
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn compiled_classifier_agrees_with_interpreter(
        policy in arb_policy(),
        packets in prop::collection::vec(arb_packet(), 1..8),
    ) {
        let classifier = policy.compile();
        for pkt in &packets {
            prop_assert_eq!(
                classifier.evaluate(pkt),
                policy.eval(pkt),
                "policy: {}\nclassifier:\n{}\npacket: {}", &policy, &classifier, pkt
            );
        }
    }

    #[test]
    fn predicate_classifier_agrees_with_eval(
        pred in arb_predicate(),
        packets in prop::collection::vec(arb_packet(), 1..8),
    ) {
        let c = sdx_policy::compile_predicate(&pred);
        for pkt in &packets {
            let want = pred.eval(pkt);
            let got = !c.evaluate(pkt).is_empty();
            prop_assert_eq!(got, want, "pred: {}\nclassifier:\n{}\npacket: {}", &pred, &c, pkt);
        }
    }

    #[test]
    fn optimize_preserves_semantics(
        policy in arb_policy(),
        packets in prop::collection::vec(arb_packet(), 1..8),
    ) {
        let c = policy.compile();
        let optimized = c.clone().optimize();
        let o = optimized.classifier;
        prop_assert!(o.len() <= c.len());
        // The audit trail accounts exactly for the removed rules.
        prop_assert_eq!(o.len() + optimized.eliminated.len(), c.len());
        for e in &optimized.eliminated {
            prop_assert!(e.index < c.len());
        }
        for pkt in &packets {
            prop_assert_eq!(c.evaluate(pkt), o.evaluate(pkt));
        }
    }

    #[test]
    fn parallel_compose_is_union(
        a in arb_policy(),
        b in arb_policy(),
        pkt in arb_packet(),
    ) {
        let c = sdx_policy::parallel_compose(&a.compile(), &b.compile());
        let mut want = a.eval(&pkt);
        want.extend(b.eval(&pkt));
        prop_assert_eq!(c.evaluate(&pkt), want);
    }

    #[test]
    fn sequential_compose_threads_packets(
        a in arb_policy(),
        b in arb_policy(),
        pkt in arb_packet(),
    ) {
        let (ca, cb) = (a.compile(), b.compile());
        let c = sdx_policy::sequential_compose(&ca, &cb);
        let want: std::collections::BTreeSet<_> =
            a.eval(&pkt).iter().flat_map(|k| b.eval(k)).collect();
        prop_assert_eq!(c.evaluate(&pkt), want);
        // Pruning by the port index drops only compositions that cannot
        // match: the all-pairs product is the same classifier, rule for rule.
        prop_assert_eq!(c, sdx_policy::sequential_compose_naive(&ca, &cb));
    }
}

proptest! {
    /// The cover analysis agrees with the interpreter: a rule reported
    /// shadowed is never the first match of any sampled packet, and for a
    /// live rule the produced witness really does reach it.
    #[test]
    fn cover_analysis_agrees_with_interpreter(
        policy in arb_policy(),
        packets in prop::collection::vec(arb_packet(), 1..8),
    ) {
        let c = policy.compile();
        let rules = c.rules();
        let first_match = |pkt: &Packet| rules.iter().position(|r| r.match_.matches(pkt));
        let dead: std::collections::BTreeSet<usize> =
            sdx_policy::shadowed_rules(&c).into_iter().map(|s| s.index).collect();
        for i in 0..rules.len() {
            let earlier: Vec<_> = rules[..i].iter().map(|r| r.match_.clone()).collect();
            match sdx_policy::witness_outside(&rules[i].match_, &earlier) {
                // The witness is a counterexample to "rule i is dead": the
                // interpreter must route it to rule i, and the analysis must
                // not have reported i shadowed.
                Some(w) => {
                    prop_assert_eq!(first_match(&w), Some(i));
                    prop_assert!(!dead.contains(&i));
                }
                // Covered (or the search gave up): no sampled packet may
                // reach a rule the analysis reported dead.
                None => {
                    for pkt in &packets {
                        prop_assert!(!(dead.contains(&i) && first_match(pkt) == Some(i)));
                    }
                }
            }
        }
        // Every reported shadowing set only references earlier rules.
        for s in sdx_policy::shadowed_rules(&c) {
            prop_assert!(s.shadowed_by.iter().all(|&j| j < s.index));
        }
    }
}

proptest! {
    /// Rendering a (negation-free, small-set) policy and parsing it back
    /// gives a semantically identical policy.
    #[test]
    fn display_parse_round_trip(policy in arb_policy(), packets in prop::collection::vec(arb_packet(), 1..6)) {
        let text = policy.to_string();
        let reparsed: Policy = text.parse().unwrap_or_else(|e| panic!("reparse {text:?}: {e}"));
        for pkt in &packets {
            prop_assert_eq!(
                reparsed.eval(pkt),
                policy.eval(pkt),
                "text: {}", &text
            );
        }
    }
}
