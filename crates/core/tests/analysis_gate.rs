//! End-to-end tests for the static-verification gate: scenarios seeded with
//! each defect class must be detected in `Warn` mode and refused in `Deny`
//! mode, while a clean paper-style scenario sails through.

use std::net::Ipv4Addr;

use sdx_bgp::{AsPath, Asn, PathAttributes};
use sdx_core::{
    AnalysisMode, Clause, CompileError, CompileOptions, Participant, ParticipantId,
    ParticipantPolicy, PortConfig, SdxRuntime, Severity,
};
use sdx_ip::MacAddr;
use sdx_policy::{match_, Field};

const A: ParticipantId = ParticipantId(1);
const B: ParticipantId = ParticipantId(2);
const C: ParticipantId = ParticipantId(3);

fn port(n: u32) -> PortConfig {
    PortConfig {
        port: n,
        mac: MacAddr::from_u64(0x02_00_00_00_00_00 + n as u64),
        ip: Ipv4Addr::new(172, 0, 0, n as u8),
    }
}

/// Three physical participants; B and C announce a prefix each.
fn runtime(mode: AnalysisMode) -> SdxRuntime {
    let mut sdx = SdxRuntime::new(CompileOptions {
        analysis: mode,
        ..Default::default()
    });
    sdx.add_participant(Participant::new(A, Asn(65001), vec![port(1)]));
    sdx.add_participant(Participant::new(B, Asn(65002), vec![port(2)]));
    sdx.add_participant(Participant::new(C, Asn(65003), vec![port(3)]));
    sdx.announce(
        B,
        ["20.0.0.0/8".parse().unwrap()],
        PathAttributes::new(AsPath::sequence([65002]), Ipv4Addr::new(172, 0, 0, 2)),
    );
    sdx.announce(
        C,
        ["30.0.0.0/8".parse().unwrap()],
        PathAttributes::new(AsPath::sequence([65003]), Ipv4Addr::new(172, 0, 0, 3)),
    );
    sdx
}

fn assert_denied_with(mut sdx: SdxRuntime, code: &str) {
    match sdx.compile() {
        Err(CompileError::AnalysisRejected(errors)) => {
            assert!(
                errors.iter().any(|e| e.contains(code)),
                "expected a {code:?} finding, got: {errors:?}"
            );
        }
        other => panic!("expected AnalysisRejected, got {other:?}"),
    }
    // Denial means nothing was installed.
    assert!(sdx.compilation().is_none());
    assert!(sdx.switch().table().rules().is_empty());
}

#[test]
fn clean_scenario_passes_both_modes() {
    let mut warn = runtime(AnalysisMode::Warn);
    warn.set_policy(
        A,
        ParticipantPolicy::new()
            .outbound(Clause::fwd(match_(Field::DstPort, 80u16), B))
            .outbound(Clause::fwd(match_(Field::DstPort, 443u16), C)),
    );
    let stats = warn.compile().expect("clean policy compiles");
    assert_eq!(stats.analysis_errors, 0);
    let analysis = warn.compilation().unwrap().analysis.as_ref().unwrap();
    assert!(!analysis.has_errors(), "{:?}", analysis.diagnostics);

    let mut deny = runtime(AnalysisMode::Deny);
    deny.set_policy(
        A,
        ParticipantPolicy::new()
            .outbound(Clause::fwd(match_(Field::DstPort, 80u16), B))
            .outbound(Clause::fwd(match_(Field::DstPort, 443u16), C)),
    );
    deny.compile().expect("clean policy must not be denied");
    assert!(!deny.switch().table().rules().is_empty());
}

#[test]
fn analysis_off_records_nothing() {
    let mut sdx = runtime(AnalysisMode::Off);
    sdx.set_policy(
        A,
        ParticipantPolicy::new().outbound(Clause::fwd(match_(Field::DstPort, 80u16), B)),
    );
    sdx.compile().unwrap();
    assert!(sdx.compilation().unwrap().analysis.is_none());
}

// -------- defect class 1: shadowed clause --------------------------------

#[test]
fn shadowed_clause_detected_and_denied() {
    let seed = |mode| {
        let mut sdx = runtime(mode);
        // Clause 1 repeats clause 0's match and target: first-match-wins
        // makes it dead.
        sdx.set_policy(
            A,
            ParticipantPolicy::new()
                .outbound(Clause::fwd(match_(Field::DstPort, 80u16), B))
                .outbound(Clause::fwd(match_(Field::DstPort, 80u16), B)),
        );
        sdx
    };

    let mut warn = seed(AnalysisMode::Warn);
    warn.compile().unwrap();
    let analysis = warn.compilation().unwrap().analysis.clone().unwrap();
    let hit = analysis
        .with_code("shadowed-clause")
        .next()
        .expect("finding");
    assert_eq!(hit.severity, Severity::Error);
    assert_eq!(hit.participant, Some(1));

    assert_denied_with(seed(AnalysisMode::Deny), "shadowed-clause");
}

#[test]
fn multi_clause_union_shadow_detected() {
    // Neither half alone covers clause 2 — only their union does; this is
    // the case pairwise subsumption cannot see. All three forward to B,
    // whose 20.0.0.0/8 they all catch.
    let mut sdx = runtime(AnalysisMode::Warn);
    let towards = |cidr: &str| sdx_policy::match_prefix(Field::DstIp, cidr.parse().unwrap());
    sdx.set_policy(
        A,
        ParticipantPolicy::new()
            .outbound(Clause::fwd(towards("20.0.0.0/9"), B))
            .outbound(Clause::fwd(towards("20.128.0.0/9"), B))
            .outbound(Clause::fwd(towards("20.0.0.0/8"), B)),
    );
    sdx.compile().unwrap();
    let analysis = sdx.compilation().unwrap().analysis.clone().unwrap();
    let hit = analysis
        .with_code("shadowed-clause")
        .next()
        .expect("finding");
    assert_eq!(hit.clause.map(|(_, i)| i), Some(2));
}

// -------- defect class 2: cross-participant conflict / blackhole ---------

#[test]
fn conflicting_drop_detected_and_denied() {
    let seed = |mode| {
        let mut sdx = runtime(mode);
        sdx.set_policy(
            A,
            ParticipantPolicy::new().outbound(Clause::fwd(match_(Field::DstPort, 80u16), B)),
        );
        sdx.set_policy(
            B,
            ParticipantPolicy::new().inbound(Clause::drop(match_(Field::DstPort, 80u16))),
        );
        sdx
    };

    let mut warn = seed(AnalysisMode::Warn);
    warn.compile().unwrap();
    let analysis = warn.compilation().unwrap().analysis.clone().unwrap();
    let hit = analysis
        .with_code("conflicting-drop")
        .next()
        .expect("finding");
    // The witness is a concrete packet on the doomed path.
    let witness = hit.witness.as_ref().expect("witness packet");
    assert_eq!(witness.get(Field::DstPort), Some(80));

    assert_denied_with(seed(AnalysisMode::Deny), "conflicting-drop");
}

#[test]
fn forward_to_non_announcing_peer_denied() {
    // C announced 30.0.0.0/8 but B's clause targets a peer that exports
    // nothing to it: A only wants traffic towards C via B — but B never
    // advertised anything A's clause could use... Simplest seeding: a
    // fourth participant that announces nothing.
    let seed = |mode| {
        let mut sdx = runtime(mode);
        let d = ParticipantId(4);
        sdx.add_participant(Participant::new(d, Asn(65004), vec![port(4)]));
        sdx.set_policy(
            A,
            ParticipantPolicy::new().outbound(Clause::fwd(match_(Field::DstPort, 80u16), d)),
        );
        sdx
    };

    let mut warn = seed(AnalysisMode::Warn);
    warn.compile().unwrap();
    let analysis = warn.compilation().unwrap().analysis.clone().unwrap();
    assert!(analysis.with_code("peer-no-route").next().is_some());

    assert_denied_with(seed(AnalysisMode::Deny), "peer-no-route");
}

// -------- defect class 3: forwarding loop --------------------------------

#[test]
fn forwarding_loop_detected_and_denied() {
    let seed = |mode| {
        let mut sdx = runtime(mode);
        sdx.set_policy(
            A,
            ParticipantPolicy::new().inbound(Clause::fwd(match_(Field::DstPort, 80u16), B)),
        );
        sdx.set_policy(
            B,
            ParticipantPolicy::new().inbound(Clause::fwd(match_(Field::DstPort, 80u16), A)),
        );
        sdx
    };

    let mut warn = seed(AnalysisMode::Warn);
    warn.compile().unwrap();
    let analysis = warn.compilation().unwrap().analysis.clone().unwrap();
    let hit = analysis
        .with_code("forwarding-loop")
        .next()
        .expect("finding");
    assert!(hit.message.contains("P1") && hit.message.contains("P2"));

    assert_denied_with(seed(AnalysisMode::Deny), "forwarding-loop");
}

// -------- defect class 4: VNH/ARP inconsistency --------------------------

#[test]
fn vnh_inconsistency_detected_and_gated() {
    // The healthy pipeline keeps allocation and flow table consistent by
    // construction, so this class is seeded by corrupting the compilation
    // artifact — exactly what the analyzer exists to catch if the invariant
    // ever breaks.
    use sdx_core::compile::{compile, CompileInput, MemoCache};
    use sdx_core::VnhAllocator;

    let mut sdx = runtime(AnalysisMode::Off);
    sdx.set_policy(
        A,
        ParticipantPolicy::new().outbound(Clause::fwd(match_(Field::DstPort, 80u16), B)),
    );
    sdx.compile().unwrap();

    let policies: std::collections::BTreeMap<_, _> = [(
        A,
        ParticipantPolicy::new().outbound(Clause::fwd(match_(Field::DstPort, 80u16), B)),
    )]
    .into_iter()
    .collect();
    let participants: std::collections::BTreeMap<_, _> =
        sdx.participants().map(|p| (p.id, p.clone())).collect();
    let versions = std::collections::BTreeMap::new();
    let input = CompileInput {
        participants: &participants,
        policies: &policies,
        policy_versions: &versions,
        route_server: sdx.route_server(),
        options: CompileOptions::default(),
    };
    let mut alloc = VnhAllocator::default_pool();
    let memo = MemoCache::new();
    let mut compilation = compile(&input, &mut alloc, &memo).unwrap();
    assert!(!compilation.vnh.is_empty(), "scenario allocates VNHs");

    // Corrupt: drop one allocated VNH while its VMAC rules stay installed.
    compilation.vnh.pop();
    let analysis_input = sdx_core::analysis::build_input(&input, &compilation);
    let analysis = sdx_analyze::analyze(&analysis_input);
    assert!(
        analysis.with_code("unknown-vmac").next().is_some(),
        "{:?}",
        analysis.diagnostics
    );
    assert!(analysis.has_errors());
    // The deny gate refuses exactly this.
    assert!(sdx_analyze::gate(AnalysisMode::Deny, &analysis).is_err());
    assert!(sdx_analyze::gate(AnalysisMode::Warn, &analysis).is_ok());
}

#[test]
fn installed_state_audit_checks_arp() {
    let mut sdx = runtime(AnalysisMode::Warn);
    sdx.set_policy(
        A,
        ParticipantPolicy::new().outbound(Clause::fwd(match_(Field::DstPort, 80u16), B)),
    );
    sdx.compile().unwrap();
    // After install, every allocated VNH is ARP-bound: the audit is clean.
    let audit = sdx.audit_installed().expect("compiled");
    assert!(
        audit.with_code("missing-arp").next().is_none(),
        "{:?}",
        audit.diagnostics
    );
}
