//! Differential recompile equivalence: after BGP churn through the §4.3.2
//! fast path (overlay rules, fresh VNHs), the running fabric must stay
//! packet-equivalent — modulo tag values — to a from-scratch compile. And
//! when the pipelines genuinely differ, the check must say so with a
//! confirmed witness.

use std::net::Ipv4Addr;

use sdx::core::{
    diff, Clause, CompileOptions, DiffSide, Participant, ParticipantId, ParticipantPolicy,
    PortConfig, SdxRuntime,
};
use sdx_bgp::{AsPath, Asn, PathAttributes};
use sdx_ip::Prefix;
use sdx_policy::{match_, Classifier, Field, Pattern};

const A: ParticipantId = ParticipantId(1);
const B: ParticipantId = ParticipantId(2);
const C: ParticipantId = ParticipantId(3);

fn port(n: u32) -> PortConfig {
    PortConfig {
        port: n,
        mac: format!("02:00:00:00:00:{n:02x}").parse().unwrap(),
        ip: Ipv4Addr::new(172, 0, 0, n as u8),
    }
}

fn p(s: &str) -> Prefix {
    s.parse().unwrap()
}

fn attrs(asn: u32, n: u8) -> PathAttributes {
    PathAttributes::new(AsPath::sequence([asn]), Ipv4Addr::new(172, 0, 0, n))
}

fn fabric(threads: usize, multi_table: bool) -> SdxRuntime {
    let mut sdx = SdxRuntime::new(CompileOptions {
        threads,
        multi_table,
        ..Default::default()
    });
    sdx.add_participant(Participant::new(A, Asn(65001), vec![port(1)]));
    sdx.add_participant(Participant::new(B, Asn(65002), vec![port(2)]));
    sdx.add_participant(Participant::new(C, Asn(65003), vec![port(3)]));
    sdx.announce(B, [p("20.0.0.0/8")], attrs(65002, 2));
    sdx.announce(C, [p("20.0.0.0/8"), p("30.0.0.0/8")], attrs(65003, 3));
    sdx.set_policy(
        A,
        ParticipantPolicy::new()
            .outbound(Clause::fwd(match_(Field::DstPort, 80u16), B))
            .outbound(Clause::fwd(match_(Field::DstPort, 22u16), C)),
    );
    sdx.compile().unwrap();
    sdx
}

#[test]
fn incremental_recompile_is_equivalent_to_fresh() {
    for threads in [1usize, 4] {
        for multi_table in [false, true] {
            let mut sdx = fabric(threads, multi_table);
            // BGP churn through the fast path: a brand-new prefix, a
            // withdrawal that re-homes a shared prefix, and a replacement
            // announcement — all handled by overlays, no full recompile.
            sdx.announce(C, [p("40.0.0.0/8")], attrs(65003, 3));
            sdx.withdraw(B, [p("20.0.0.0/8")]);
            sdx.announce(B, [p("20.0.0.0/8")], attrs(65002, 2));
            assert!(
                sdx.incremental_stats().overlay_rules > 0,
                "threads={threads} multi_table={multi_table}: updates must go through the fast path"
            );

            let report = sdx
                .verify_differential()
                .expect("differential check runs after compile");
            assert!(
                report.diagnostics.is_empty(),
                "threads={threads} multi_table={multi_table}: incremental must equal fresh: {:?}",
                report.diagnostics
            );
            assert_eq!(report.undecided, 0, "small fabric must not saturate");
            // The pass's wall clock lands in the compilation's stage times.
            assert_eq!(
                sdx.compilation().unwrap().stats.stages.verify_diff_us,
                report.duration_us
            );
        }
    }
}

#[test]
fn rehomed_ungrouped_prefix_is_equivalent_to_fresh() {
    // No clause references D's 40.0.0.0/8, so a fresh compile leaves it
    // ungrouped and D's router MAC is its tag. One update re-homes it onto
    // a VNH in the running fabric. Both sides deliver the same frame, with
    // D's router MAC as its destination, and that is no difference.
    let d = ParticipantId(4);
    for multi_table in [false, true] {
        let mut sdx = fabric(1, multi_table);
        sdx.add_participant(Participant::new(d, Asn(65004), vec![port(4)]));
        sdx.announce(d, [p("40.0.0.0/8")], attrs(65004, 4));
        sdx.compile().unwrap();
        assert!(sdx
            .compilation()
            .unwrap()
            .vmac_of(&p("40.0.0.0/8"))
            .is_none());

        sdx.announce(d, [p("40.0.0.0/8")], attrs(65004, 4));
        assert_eq!(sdx.overlays().len(), 1);
        let report = sdx.verify_differential().unwrap();
        assert!(
            report.diagnostics.is_empty(),
            "multi_table={multi_table}: {:?}",
            report.diagnostics
        );
    }
}

#[test]
fn tampered_pipeline_is_caught_with_a_confirmed_witness() {
    let sdx = fabric(1, false);
    let vi = sdx.verify_input().unwrap();
    let old = DiffSide {
        tables: vi.tables.clone(),
        fibs: vi.fibs.clone(),
    };

    // Tamper the comparison side: the first forwarding rule that matches a
    // VNH tag silently becomes a drop — the kind of divergence a buggy
    // incremental path could install.
    let vmacs: Vec<u64> = vi.groups.iter().map(|g| g.vmac).collect();
    let mut rules = vi.tables[0].rules().to_vec();
    let idx = rules
        .iter()
        .position(|r| {
            !r.actions.is_empty()
                && vmacs
                    .iter()
                    .any(|v| r.match_.get(Field::DstMac) == Some(&Pattern::Exact(*v)))
        })
        .expect("a tag-directed forwarding rule exists");
    rules[idx].actions.clear();
    let mut tampered = vec![Classifier::new(rules)];
    tampered.extend(vi.tables.iter().skip(1).cloned());
    let new = DiffSide {
        tables: tampered,
        fibs: vi.fibs.clone(),
    };

    let report = diff::run(&old, &new, &vi.participants, 1);
    let diag = report
        .diagnostics
        .iter()
        .find(|d| d.code == "verify-diff")
        .unwrap_or_else(|| panic!("expected verify-diff: {:?}", report.diagnostics));
    assert!(
        diag.witness.is_some(),
        "confirmed differences carry a witness"
    );
    assert!(
        diag.message.contains("disagree"),
        "message renders both outcomes: {}",
        diag.message
    );
}
