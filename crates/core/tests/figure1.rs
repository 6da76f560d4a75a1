//! End-to-end tests of the SDX controller against the paper's running
//! example (Figures 1a/1b): application-specific peering at AS A, inbound
//! traffic engineering at AS B, selective export of p4, default forwarding
//! via VMAC tags, and the incremental fast path.

use std::net::Ipv4Addr;

use sdx_bgp::{AsPath, Asn, ExportPolicy, PathAttributes};
use sdx_core::{
    Clause, CompileOptions, FabricSim, Participant, ParticipantId, ParticipantPolicy, PortConfig,
    SdxRuntime,
};
use sdx_ip::Prefix;
use sdx_policy::{match_, Field, Packet};

const A: ParticipantId = ParticipantId(1);
const B: ParticipantId = ParticipantId(2);
const C: ParticipantId = ParticipantId(3);

const A1: u32 = 1;
const B1: u32 = 2;
const B2: u32 = 3;
const C1: u32 = 4;

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

/// Build the Figure 1 exchange: A (one port), B (two ports), C (one port).
/// B announces p1..p4 but does not export p4 to A; C announces everything,
/// with shorter paths for p1/p2/p4 (so C is their default next hop) and a
/// longer path for p3 (so B is p3's default).
fn figure1(options: CompileOptions) -> SdxRuntime {
    let mut sdx = SdxRuntime::new(options);
    sdx.add_participant(Participant::new(A, Asn(100), vec![port(A1, 11)]));
    sdx.add_participant(Participant::new(
        B,
        Asn(200),
        vec![port(B1, 21), port(B2, 22)],
    ));
    sdx.add_participant(Participant::new(C, Asn(300), vec![port(C1, 31)]));

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

    // A's outbound policy (Figure 1a): web via B, HTTPS via C.
    sdx.set_policy(
        A,
        ParticipantPolicy::new()
            .outbound(Clause::fwd(match_(Field::DstPort, 80u16), B))
            .outbound(Clause::fwd(match_(Field::DstPort, 443u16), C)),
    );
    // B's inbound traffic engineering: low source halves to B1, high to B2.
    sdx.set_policy(
        B,
        ParticipantPolicy::new()
            .inbound(Clause::to_port(
                sdx_policy::match_prefix(Field::SrcIp, p("0.0.0.0/1")),
                B1,
            ))
            .inbound(Clause::to_port(
                sdx_policy::match_prefix(Field::SrcIp, p("128.0.0.0/1")),
                B2,
            )),
    );
    sdx
}

fn sim(options: CompileOptions) -> FabricSim {
    let mut sdx = figure1(options);
    sdx.compile().unwrap();
    let mut sim = FabricSim::new(sdx);
    sim.sync();
    sim
}

fn pkt(src: &str, dst: &str, dport: u16) -> Packet {
    Packet::new()
        .with(Field::EthType, 0x0800u16)
        .with(Field::IpProto, 6u8)
        .with(Field::SrcIp, src.parse::<Ipv4Addr>().unwrap())
        .with(Field::DstIp, dst.parse::<Ipv4Addr>().unwrap())
        .with(Field::SrcPort, 50_000u16)
        .with(Field::DstPort, dport)
}

#[test]
fn fec_groups_match_paper_section_4_2() {
    let mut sdx = figure1(CompileOptions::default());
    sdx.compile().unwrap();
    let c = sdx.compilation().unwrap();
    // C' = {{p1, p2}, {p3}, {p4}}
    assert_eq!(c.groups.len(), 3, "groups: {:?}", c.groups);
    let of = |s: &str| c.group_of(&p(s)).unwrap();
    assert_eq!(of("11.0.0.0/8"), of("12.0.0.0/8"));
    assert_ne!(of("11.0.0.0/8"), of("13.0.0.0/8"));
    assert_ne!(of("13.0.0.0/8"), of("14.0.0.0/8"));
}

#[test]
fn vnh_advertisements_are_pool_addresses() {
    let mut sdx = figure1(CompileOptions::default());
    sdx.compile().unwrap();
    for s in ["11.0.0.0/8", "13.0.0.0/8", "14.0.0.0/8"] {
        let nh = sdx.advertised_next_hop(&p(s), A).unwrap();
        assert!(
            p("172.16.0.0/12").contains_addr(nh),
            "{s} advertised with non-VNH next hop {nh}"
        );
        // The ARP responder resolves the VNH to the group's VMAC.
        let mac = sdx.resolve_ip(nh).unwrap();
        assert_eq!(Some(mac), sdx.compilation().unwrap().vmac_of(&p(s)));
    }
}

#[test]
fn web_traffic_diverts_via_b_with_inbound_te() {
    let mut sim = sim(CompileOptions::default());
    // Low source address → B's top port (B1).
    let out = sim.send_from(A, pkt("55.0.0.1", "11.0.0.1", 80));
    assert_eq!(out.len(), 1, "{out:?}");
    assert_eq!(out[0].to, B);
    assert_eq!(out[0].port, B1);
    // High source address → B2.
    let out = sim.send_from(A, pkt("200.0.0.1", "11.0.0.1", 80));
    assert_eq!(out[0].port, B2);
    // The frame is re-addressed to the receiving router's MAC.
    let mac = out[0].packet.dst_mac().unwrap();
    assert_eq!(mac, sdx_ip::MacAddr::from_u64(0x0a00_0000_0000 + B2 as u64));
}

#[test]
fn https_traffic_diverts_via_c() {
    let mut sim = sim(CompileOptions::default());
    let out = sim.send_from(A, pkt("55.0.0.1", "11.0.0.1", 443));
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].to, C);
    assert_eq!(out[0].port, C1);
}

#[test]
fn default_traffic_follows_bgp_best_route() {
    let mut sim = sim(CompileOptions::default());
    // Non-web traffic to p1 follows the default (C).
    let out = sim.send_from(A, pkt("55.0.0.1", "11.0.0.1", 22));
    assert_eq!(out[0].to, C);
    // Non-web traffic to p3 defaults to B (shorter path), where B's inbound
    // engineering still applies.
    let out = sim.send_from(A, pkt("55.0.0.1", "13.0.0.1", 22));
    assert_eq!(out[0].to, B);
    assert_eq!(out[0].port, B1);
    let out = sim.send_from(A, pkt("222.0.0.1", "13.0.0.1", 22));
    assert_eq!(out[0].port, B2);
}

#[test]
fn web_traffic_for_unexported_prefix_never_crosses_b() {
    // B does not export p4 to A, so even A's web traffic for p4 must follow
    // the default route via C ("forwarding only along BGP-advertised paths").
    let mut sim = sim(CompileOptions::default());
    let out = sim.send_from(A, pkt("55.0.0.1", "14.0.0.1", 80));
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].to, C);
}

#[test]
fn feasible_but_non_best_routes_are_usable() {
    // C is the best route for p1, yet A's policy forwards its web traffic
    // through B because B exports p1 to A.
    let mut sim = sim(CompileOptions::default());
    let out = sim.send_from(A, pkt("1.2.3.4", "12.0.0.1", 80));
    assert_eq!(out[0].to, B);
}

#[test]
fn other_participants_traffic_is_isolated_from_a_policy() {
    // Another participant's web traffic to p3 must NOT be captured by A's
    // outbound policy: it follows that participant's own default (B).
    let d = ParticipantId(6);
    let mut sdx = figure1(CompileOptions::default());
    sdx.add_participant(Participant::new(d, Asn(600), vec![port(7, 61)]));
    sdx.compile().unwrap();
    let mut sim = FabricSim::new(sdx);
    sim.sync();

    let out = sim.send_from(d, pkt("55.0.0.1", "13.0.0.1", 80));
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].to, B);

    // C announces p3 itself, so its border router keeps p3 traffic off the
    // fabric entirely (the paper's second loop-prevention invariant).
    let out = sim.send_from(C, pkt("55.0.0.1", "13.0.0.1", 80));
    assert!(out.is_empty());
}

#[test]
fn naive_mode_forwards_identically_but_with_more_rules() {
    let vnh = sim(CompileOptions::default());
    let mut naive = sim(CompileOptions {
        use_vnh: false,
        ..Default::default()
    });
    let vnh_rules = vnh.runtime().compilation().unwrap().stats.rules;
    let naive_rules = naive.runtime().compilation().unwrap().stats.rules;
    assert!(
        naive_rules >= vnh_rules,
        "naive {naive_rules} < vnh {vnh_rules}"
    );

    let cases = [
        ("55.0.0.1", "11.0.0.1", 80, B),
        ("200.0.0.1", "11.0.0.1", 80, B),
        ("55.0.0.1", "11.0.0.1", 443, C),
        ("55.0.0.1", "14.0.0.1", 80, C),
        ("55.0.0.1", "13.0.0.1", 22, B),
    ];
    for (src, dst, dport, want) in cases {
        let out = naive.send_from(A, pkt(src, dst, dport));
        assert_eq!(out.len(), 1, "{src}->{dst}:{dport}");
        assert_eq!(out[0].to, want, "{src}->{dst}:{dport}");
    }
}

#[test]
fn withdrawal_shifts_traffic_through_fast_path() {
    let mut sim = sim(CompileOptions::default());
    // Sanity: p3 default goes via B.
    assert_eq!(sim.send_from(A, pkt("55.0.0.1", "13.0.0.1", 22))[0].to, B);

    // B withdraws p3 (the Figure 5a event). The fast path installs overlay
    // rules and re-advertises a fresh VNH.
    sim.runtime_mut().withdraw(B, [p("13.0.0.0/8")]);
    assert!(!sim.runtime().overlays().is_empty());
    assert!(sim.runtime().incremental_stats().overlay_rules > 0);
    sim.sync();

    // All p3 traffic (web included — B no longer exports it) shifts to C.
    assert_eq!(sim.send_from(A, pkt("55.0.0.1", "13.0.0.1", 22))[0].to, C);
    assert_eq!(sim.send_from(A, pkt("55.0.0.1", "13.0.0.1", 80))[0].to, C);

    // Background reoptimization coalesces the overlay; behavior unchanged.
    sim.runtime_mut().reoptimize().unwrap();
    sim.sync();
    assert!(sim.runtime().overlays().is_empty());
    assert_eq!(sim.send_from(A, pkt("55.0.0.1", "13.0.0.1", 80))[0].to, C);
}

#[test]
fn announcement_shifts_traffic_back() {
    let mut sim = sim(CompileOptions::default());
    sim.runtime_mut().withdraw(B, [p("13.0.0.0/8")]);
    sim.sync();
    assert_eq!(sim.send_from(A, pkt("55.0.0.1", "13.0.0.1", 22))[0].to, C);

    // B re-announces; fast path again; default shifts back to B.
    sim.runtime_mut().announce(
        B,
        [p("13.0.0.0/8")],
        attrs(&[200], Ipv4Addr::new(172, 0, 0, 21)),
    );
    sim.sync();
    let out = sim.send_from(A, pkt("55.0.0.1", "13.0.0.1", 22));
    assert_eq!(out[0].to, B);
    // Inbound engineering applies to overlay-forwarded traffic as well.
    assert_eq!(out[0].port, B1);
}

#[test]
fn remote_participant_wide_area_load_balancer() {
    // The Figure 4b/5b scenario: a remote participant D announces an anycast
    // prefix via the SDX and rewrites request destinations by client source.
    let mut sdx = figure1(CompileOptions::default());
    let d = ParticipantId(4);
    sdx.add_participant(Participant::remote(d, Asn(400)));
    sdx.announce(
        d,
        [p("74.125.1.0/24")],
        attrs(&[400], Ipv4Addr::new(172, 0, 0, 99)),
    );
    // Instance 1 lives in p1 (via C by default), instance 2 in p3 (via B).
    sdx.set_policy(
        d,
        ParticipantPolicy::new()
            .inbound(Clause {
                match_: sdx_policy::match_prefix(Field::SrcIp, p("0.0.0.0/1")),
                dst_prefixes: Some([p("74.125.1.0/24")].into_iter().collect()),
                rewrites: vec![(
                    Field::DstIp,
                    u32::from("11.0.0.77".parse::<Ipv4Addr>().unwrap()) as u64,
                )],
                dest: sdx_core::Dest::BgpDefault,
                unfiltered: false,
            })
            .inbound(Clause {
                match_: sdx_policy::match_prefix(Field::SrcIp, p("128.0.0.0/1")),
                dst_prefixes: Some([p("74.125.1.0/24")].into_iter().collect()),
                rewrites: vec![(
                    Field::DstIp,
                    u32::from("13.0.0.88".parse::<Ipv4Addr>().unwrap()) as u64,
                )],
                dest: sdx_core::Dest::BgpDefault,
                unfiltered: false,
            }),
    );
    sdx.compile().unwrap();
    let mut sim = FabricSim::new(sdx);
    sim.sync();

    // Low-source client request → rewritten to instance 1, delivered via C.
    let out = sim.send_from(A, pkt("55.0.0.1", "74.125.1.1", 80));
    assert_eq!(out.len(), 1, "{out:?}");
    assert_eq!(out[0].to, C);
    assert_eq!(out[0].packet.dst_ip().unwrap().to_string(), "11.0.0.77");

    // High-source client request → instance 2 via B.
    let out = sim.send_from(A, pkt("222.0.0.1", "74.125.1.1", 80));
    assert_eq!(out[0].to, B);
    assert_eq!(out[0].packet.dst_ip().unwrap().to_string(), "13.0.0.88");
}

#[test]
fn middlebox_steering_with_unfiltered_clause() {
    // §3.2's "grouping traffic based on BGP attributes": steer traffic from
    // YouTube-originated prefixes through a middlebox port.
    let mut sdx = figure1(CompileOptions::default());
    let mb = ParticipantId(5);
    let mb_port = 9;
    sdx.add_participant(Participant::new(mb, Asn(64512), vec![port(mb_port, 90)]));

    // Find the YouTube prefixes by AS-path pattern (C's p3 route ends in
    // 65001 here; pretend 65001 is the video AS).
    let pattern: sdx_bgp::AsPathPattern = ".*65001$".parse().unwrap();
    let video_prefixes = sdx.route_server().filter_as_path(&pattern);
    assert!(!video_prefixes.is_empty());

    let mut policy = ParticipantPolicy::new();
    policy = policy.outbound(
        Clause::fwd(
            sdx_policy::Predicate::in_prefixes(Field::DstIp, video_prefixes),
            mb,
        )
        .unfiltered(),
    );
    sdx.set_policy(A, policy);
    sdx.compile().unwrap();
    let mut sim = FabricSim::new(sdx);
    sim.sync();

    // p1 was announced with a path ending in 65001 → steered to the box.
    let out = sim.send_from(A, pkt("55.0.0.1", "11.0.0.1", 80));
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].to, mb);
    assert_eq!(out[0].port, mb_port);
    // p3's best path ends in 200/… wait — 13/8 from B has path [200]; from C
    // path ends 65001, so it is video too. Use a non-video destination:
    // traffic to the middlebox participant's own announcements doesn't
    // exist, so check an address outside every announced prefix is dropped.
    let out = sim.send_from(A, pkt("55.0.0.1", "99.0.0.1", 80));
    assert!(out.is_empty());
}

#[test]
fn fabric_never_misdirects() {
    let mut sim = sim(CompileOptions::default());
    for (src, dst, dport) in [
        ("55.0.0.1", "11.0.0.1", 80),
        ("200.0.0.1", "12.0.0.1", 443),
        ("55.0.0.1", "13.0.0.1", 22),
        ("1.1.1.1", "14.0.0.1", 80),
    ] {
        sim.send_from(A, pkt(src, dst, dport));
        sim.send_from(C, pkt(src, dst, dport));
    }
    assert_eq!(sim.runtime().switch().stats().misdirected, 0);
    assert_eq!(sim.runtime().switch().stats().bad_ingress, 0);
}

#[test]
fn policy_updates_recompile_cleanly() {
    let mut sdx = figure1(CompileOptions::default());
    sdx.compile().unwrap();
    let before = sdx.compilation().unwrap().stats.rules;
    // A drops its outbound policy entirely.
    sdx.set_policy(A, ParticipantPolicy::new());
    sdx.compile().unwrap();
    let after = sdx.compilation().unwrap().stats.rules;
    assert!(after < before, "dropping policies should shrink the table");

    let mut sim = FabricSim::new(sdx);
    sim.sync();
    // Web traffic now follows the default like everything else.
    let out = sim.send_from(A, pkt("55.0.0.1", "11.0.0.1", 80));
    assert_eq!(out[0].to, C);
}

#[test]
fn memoization_hits_on_recompilation() {
    let mut sdx = figure1(CompileOptions::default());
    let first = sdx.compile().unwrap();
    assert_eq!(first.memo_hits, 0);
    let second = sdx.reoptimize().unwrap();
    // Nothing changed: every receiver block should come from the cache.
    assert_eq!(second.memo_misses, 0, "{second:?}");
    assert!(second.memo_hits > 0);
}

#[test]
fn compile_errors_are_reported() {
    let mut sdx = figure1(CompileOptions::default());
    // Negated predicate.
    sdx.set_policy(
        C,
        ParticipantPolicy::new().outbound(Clause::fwd(!match_(Field::DstPort, 80u16), B)),
    );
    assert!(matches!(
        sdx.compile(),
        Err(sdx_core::CompileError::NegatedPredicate(_))
    ));

    // Outbound from a remote participant.
    let mut sdx = figure1(CompileOptions::default());
    let d = ParticipantId(4);
    sdx.add_participant(Participant::remote(d, Asn(400)));
    sdx.set_policy(
        d,
        ParticipantPolicy::new().outbound(Clause::fwd(match_(Field::DstPort, 80u16), B)),
    );
    assert!(matches!(
        sdx.compile(),
        Err(sdx_core::CompileError::OutboundFromRemote(_))
    ));

    // Unknown own port.
    let mut sdx = figure1(CompileOptions::default());
    sdx.set_policy(
        B,
        ParticipantPolicy::new().inbound(Clause::to_port(match_(Field::DstPort, 80u16), 77)),
    );
    assert!(matches!(
        sdx.compile(),
        Err(sdx_core::CompileError::UnknownOwnPort(_, 77))
    ));
}

/// B re-announces p1 unchanged: one fast-path fragment for 11.0.0.0/8,
/// nothing else moves.
fn reannounce_p1(sim: &mut FabricSim) {
    let b_nh = Ipv4Addr::new(172, 0, 0, 21);
    sim.runtime_mut()
        .announce(B, [p("11.0.0.0/8")], attrs(&[200, 65001], b_nh));
    assert!(!sim.runtime().overlays().is_empty());
    sim.sync();
}

#[test]
fn drop_clause_survives_an_update() {
    // The fragment is the full compile's sender stage for its prefix, so
    // A's drop clause is in it too, pinned to the fresh tag.
    let mut sdx = figure1(CompileOptions::default());
    sdx.set_policy(
        A,
        ParticipantPolicy::new()
            .outbound(Clause::drop(match_(Field::DstPort, 22u16)))
            .outbound(Clause::fwd(match_(Field::DstPort, 80u16), B)),
    );
    sdx.compile().unwrap();
    let mut sim = FabricSim::new(sdx);
    sim.sync();
    assert!(sim.send_from(A, pkt("55.0.0.1", "11.0.0.1", 22)).is_empty());

    reannounce_p1(&mut sim);
    let out = sim.send_from(A, pkt("55.0.0.1", "11.0.0.1", 22));
    assert!(out.is_empty(), "the drop clause was bypassed: {out:?}");
    assert_eq!(sim.send_from(A, pkt("55.0.0.1", "11.0.0.1", 80))[0].to, B);
    assert_eq!(sim.send_from(A, pkt("55.0.0.1", "11.0.0.1", 443))[0].to, C);
}

#[test]
fn middlebox_steering_survives_an_update() {
    let mut sdx = figure1(CompileOptions::default());
    let mb = ParticipantId(5);
    let mb_port = 9;
    sdx.add_participant(Participant::new(mb, Asn(64512), vec![port(mb_port, 90)]));
    sdx.set_policy(
        A,
        ParticipantPolicy::new()
            .outbound(Clause::fwd(match_(Field::DstPort, 80u16), mb).unfiltered())
            .outbound(Clause::fwd(match_(Field::DstPort, 443u16), B)),
    );
    sdx.compile().unwrap();
    let mut sim = FabricSim::new(sdx);
    sim.sync();
    assert_eq!(sim.send_from(A, pkt("55.0.0.1", "11.0.0.1", 80))[0].to, mb);

    reannounce_p1(&mut sim);
    for dst in ["11.0.0.1", "12.0.0.1"] {
        let out = sim.send_from(A, pkt("55.0.0.1", dst, 80));
        assert_eq!(out.len(), 1, "{dst}: {out:?}");
        assert_eq!(out[0].to, mb, "{dst}: steering was bypassed");
        assert_eq!(out[0].port, mb_port);
        assert_eq!(sim.send_from(A, pkt("55.0.0.1", dst, 443))[0].to, B);
    }
}

#[test]
fn set_policy_takes_effect_at_the_next_compile() {
    let mut sim = sim(CompileOptions::default());
    let web_via_c =
        || ParticipantPolicy::new().outbound(Clause::fwd(match_(Field::DstPort, 80u16), C));
    // Staged, not compiled: an update must not enforce it for p1 alone.
    sim.runtime_mut().set_policy(A, web_via_c());
    reannounce_p1(&mut sim);
    for dst in ["11.0.0.1", "12.0.0.1"] {
        let out = sim.send_from(A, pkt("55.0.0.1", dst, 80));
        assert_eq!(out[0].to, B, "{dst}: the staged policy leaked");
    }

    // A compile that fails keeps the policies in force: the staged one
    // still does not reach the fragments.
    sim.runtime_mut().set_policy(
        A,
        web_via_c().outbound(Clause::fwd(!match_(Field::DstPort, 25u16), C)),
    );
    assert!(sim.runtime_mut().compile().is_err());
    reannounce_p1(&mut sim);
    for dst in ["11.0.0.1", "12.0.0.1"] {
        let out = sim.send_from(A, pkt("55.0.0.1", dst, 80));
        assert_eq!(out[0].to, B, "{dst}: the rejected policy leaked");
    }

    // The next successful compile applies what is staged.
    sim.runtime_mut().set_policy(A, web_via_c());
    sim.runtime_mut().compile().unwrap();
    sim.sync();
    for dst in ["11.0.0.1", "12.0.0.1"] {
        assert_eq!(sim.send_from(A, pkt("55.0.0.1", dst, 80))[0].to, C);
    }
}

#[test]
fn failed_compile_keeps_the_installed_tags() {
    // A compile the analysis gate rejects must not rewind the VNH pool:
    // the installed groups and fragments keep their tags, and the next
    // fragment takes a fresh one.
    let mut sdx = figure1(CompileOptions {
        analysis: sdx_core::AnalysisMode::Deny,
        ..Default::default()
    });
    sdx.compile().unwrap();
    let mut sim = FabricSim::new(sdx);
    sim.sync();
    // A shadowed clause, and fewer groups than the installed compile has.
    let web = match_(Field::DstPort, 80u16);
    sim.runtime_mut().set_policy(
        A,
        ParticipantPolicy::new()
            .outbound(Clause::fwd(web.clone(), B))
            .outbound(Clause::fwd(
                web.and(sdx_policy::match_prefix(Field::DstIp, p("11.0.0.0/8"))),
                B,
            )),
    );
    assert!(matches!(
        sim.runtime_mut().compile(),
        Err(sdx_core::CompileError::AnalysisRejected(_))
    ));
    reannounce_p1(&mut sim);
    let runtime = sim.runtime();
    let fresh = runtime.overlays()[0].vmac;
    let installed = &runtime.compilation().unwrap().vnh;
    assert!(
        installed.iter().all(|(_, vmac)| *vmac != fresh),
        "the fragment reused an installed tag {fresh}"
    );
    for (dst, dport, to) in [
        ("11.0.0.1", 80, B),
        ("11.0.0.1", 443, C),
        ("12.0.0.1", 22, C),
        ("13.0.0.1", 22, B),
        ("14.0.0.1", 443, C),
    ] {
        let out = sim.send_from(A, pkt("55.0.0.1", dst, dport));
        assert_eq!(out.len(), 1, "{dst}:{dport}: {out:?}");
        assert_eq!(out[0].to, to, "{dst}:{dport}");
    }
}

#[test]
fn reregistration_invalidates_the_memo() {
    // Registering C again with another port must rebuild its receiver
    // block: a memo version that went back to 0 served the old one.
    let mut sdx = figure1(CompileOptions::default());
    sdx.compile().unwrap();
    sdx.add_participant(Participant::new(C, Asn(300), vec![port(7, 31)]));
    let stats = sdx.compile().unwrap();
    assert!(stats.memo_misses >= 1, "{stats:?}");
    let mut sim = FabricSim::new(sdx);
    sim.sync();
    let out = sim.send_from(A, pkt("55.0.0.1", "11.0.0.1", 443));
    assert_eq!(out.len(), 1, "{out:?}");
    assert_eq!(out[0].to, C);
    assert_eq!(out[0].port, 7);
}

#[test]
fn memoized_bgp_default_block_follows_the_route_server() {
    // D's receiver block resolves its BgpDefault clause (rewrite to
    // 11.0.0.77) against the route server. After C withdraws 11.0.0.0/8
    // the block must be rebuilt even though D's policy did not change,
    // while the blocks that read no route still come from the memo.
    let mut sdx = figure1(CompileOptions::default());
    let d = ParticipantId(4);
    sdx.add_participant(Participant::remote(d, Asn(400)));
    sdx.announce(
        d,
        [p("74.125.1.0/24")],
        attrs(&[400], Ipv4Addr::new(172, 0, 0, 99)),
    );
    sdx.set_policy(
        d,
        ParticipantPolicy::new().inbound(Clause {
            match_: sdx_policy::Predicate::True,
            dst_prefixes: Some([p("74.125.1.0/24")].into_iter().collect()),
            rewrites: vec![(
                Field::DstIp,
                u32::from("11.0.0.77".parse::<Ipv4Addr>().unwrap()) as u64,
            )],
            dest: sdx_core::Dest::BgpDefault,
            unfiltered: false,
        }),
    );
    sdx.compile().unwrap();
    sdx.withdraw(C, [p("11.0.0.0/8")]);
    let stats = sdx.reoptimize().unwrap();
    assert_eq!((stats.memo_hits, stats.memo_misses), (3, 1), "{stats:?}");
    let report = sdx.verify_differential().unwrap();
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    let mut sim = FabricSim::new(sdx);
    sim.sync();
    let out = sim.send_from(A, pkt("55.0.0.1", "74.125.1.1", 80));
    assert_eq!(out.len(), 1, "{out:?}");
    assert_eq!(out[0].to, B);
    assert_eq!(out[0].packet.dst_ip().unwrap().to_string(), "11.0.0.77");
}

#[test]
fn memoized_block_follows_a_reregistered_participant() {
    // B hands inbound ssh to C. When C re-registers on port 7, B's block
    // must deliver there although B's own policy and ports are unchanged.
    let mut sdx = figure1(CompileOptions::default());
    sdx.set_policy(
        B,
        ParticipantPolicy::new().inbound(Clause {
            match_: match_(Field::DstPort, 22u16),
            dst_prefixes: None,
            rewrites: Vec::new(),
            dest: sdx_core::Dest::Participant(C),
            unfiltered: false,
        }),
    );
    sdx.compile().unwrap();
    sdx.add_participant(Participant::new(C, Asn(300), vec![port(7, 31)]));
    sdx.compile().unwrap();
    let mut sim = FabricSim::new(sdx);
    sim.sync();
    // 13.0.0.0/8's best route is B's, so ssh to it enters B's block.
    let out = sim.send_from(A, pkt("55.0.0.1", "13.0.0.1", 22));
    assert_eq!(out.len(), 1, "{out:?}");
    assert_eq!(out[0].to, C);
    assert_eq!(out[0].port, 7);
}

#[test]
fn rpki_invalid_announcements_are_rejected() {
    use sdx_bgp::{Roa, RpkiValidator};

    let mut sdx = figure1(CompileOptions::default());
    // The anycast block belongs to AS 15169; a remote participant with a
    // different ASN tries to originate it through the SDX.
    let mut rpki = RpkiValidator::new();
    rpki.add_roa(Roa {
        prefix: p("74.125.0.0/16"),
        max_length: 24,
        asn: Asn(15169),
    });
    sdx.set_rpki(rpki);

    let d = ParticipantId(4);
    sdx.add_participant(Participant::remote(d, Asn(666)));
    sdx.announce(
        d,
        [p("74.125.1.0/24")],
        attrs(&[666], Ipv4Addr::new(172, 0, 0, 99)),
    );
    assert_eq!(sdx.rpki_rejected(), 1);
    assert!(sdx
        .route_server()
        .best_route(&p("74.125.1.0/24"), A.peer())
        .is_none());

    // The rightful origin's announcement is accepted.
    let g = ParticipantId(5);
    sdx.add_participant(Participant::remote(g, Asn(15169)));
    sdx.announce(
        g,
        [p("74.125.1.0/24")],
        attrs(&[15169], Ipv4Addr::new(172, 0, 0, 98)),
    );
    assert_eq!(sdx.rpki_rejected(), 1);
    assert!(sdx
        .route_server()
        .best_route(&p("74.125.1.0/24"), A.peer())
        .is_some());

    // NotFound prefixes (no covering ROA) pass, per route-server practice.
    sdx.announce(
        d,
        [p("198.51.100.0/24")],
        attrs(&[666], Ipv4Addr::new(172, 0, 0, 99)),
    );
    assert_eq!(sdx.rpki_rejected(), 1);
}

#[test]
fn service_chaining_through_two_middleboxes() {
    // §8's envisioned "service chaining": A's video traffic traverses a
    // scrubber and then a transcoder before exiting via BGP defaults.
    let mb1 = ParticipantId(7);
    let mb2 = ParticipantId(8);
    let mut sdx = figure1(CompileOptions::default());
    sdx.add_participant(Participant::new(mb1, Asn(64513), vec![port(8, 71)]));
    sdx.add_participant(Participant::new(mb2, Asn(64514), vec![port(9, 72)]));

    // A steers marked traffic (srcport 7777) into the first box.
    sdx.set_policy(
        A,
        ParticipantPolicy::new()
            .outbound(Clause::fwd(match_(Field::SrcPort, 7777u16), mb1).unfiltered()),
    );
    // Box 1 hands it to box 2; box 2 has no policy, so the traffic then
    // follows BGP to its real destination.
    sdx.set_policy(
        mb1,
        ParticipantPolicy::new()
            .outbound(Clause::fwd(match_(Field::SrcPort, 7777u16), mb2).unfiltered()),
    );
    sdx.compile().unwrap();
    let mut sim = FabricSim::new(sdx);
    sim.enable_reinjection(mb1);
    sim.enable_reinjection(mb2);
    sim.sync();

    let marked = pkt("55.0.0.1", "11.0.0.1", 80).with(Field::SrcPort, 7777u16);
    let (out, trace) = sim.send_from_traced(A, marked);
    assert_eq!(out.len(), 1, "{out:?}");
    assert_eq!(out[0].to, C, "exits via the BGP default for p1");
    assert_eq!(trace, vec![A, mb1, mb2]);

    // Unmarked traffic skips the chain entirely.
    let plain = pkt("55.0.0.1", "11.0.0.1", 80).with(Field::SrcPort, 5u16);
    let (out, trace) = sim.send_from_traced(A, plain);
    assert_eq!(out[0].to, C);
    assert_eq!(trace, vec![A]);
}

#[test]
fn pcap_capture_and_traffic_matrix() {
    let mut sim = sim(CompileOptions::default());
    sim.enable_capture();
    sim.set_time_us(42_000_000);
    sim.send_from(A, pkt("55.0.0.1", "11.0.0.1", 80));
    sim.send_from(A, pkt("55.0.0.1", "11.0.0.1", 443));
    sim.send_from(A, pkt("55.0.0.1", "12.0.0.1", 80));

    // Traffic matrix reflects the three deliveries.
    let m = sim.traffic_matrix();
    assert_eq!(m.get(&(A, B)), Some(&2));
    assert_eq!(m.get(&(A, C)), Some(&1));

    // The capture holds three Ethernet frames, wire-decodable, stamped with
    // the virtual clock.
    let capture = sim.take_capture().unwrap();
    let frames = sdx_switch::read_pcap(&capture).unwrap();
    assert_eq!(frames.len(), 3);
    assert_eq!(frames[0].ts_sec, 42);
    let (decoded, _) = sdx_switch::decode_frame(&frames[0].data).unwrap();
    assert_eq!(decoded.get(Field::DstPort), Some(80));
    // The frame carries the VMAC tag A's router applied.
    assert!(decoded.dst_mac().unwrap().is_vmac());
}

#[test]
fn multi_table_pipeline_forwards_identically() {
    // Two-table pipeline mode (sender stage → goto → receiver stage) must
    // forward exactly like the composed single table, with fewer rules.
    let composed = sim(CompileOptions::default());
    let mut pipeline = sim(CompileOptions {
        multi_table: true,
        ..Default::default()
    });
    assert_eq!(pipeline.runtime().switch().table_count(), 2);

    let composed_rules = composed.runtime().compilation().unwrap().stats.rules;
    let pipeline_rules = pipeline.runtime().compilation().unwrap().stats.rules;
    assert!(pipeline_rules > 0);

    let cases = [
        ("55.0.0.1", "11.0.0.1", 80, B, B1),
        ("200.0.0.1", "11.0.0.1", 80, B, B2),
        ("55.0.0.1", "11.0.0.1", 443, C, C1),
        ("55.0.0.1", "14.0.0.1", 80, C, C1),
        ("55.0.0.1", "13.0.0.1", 22, B, B1),
        ("222.0.0.1", "13.0.0.1", 22, B, B2),
    ];
    for (src, dst, dport, want_to, want_port) in cases {
        let out = pipeline.send_from(A, pkt(src, dst, dport));
        assert_eq!(out.len(), 1, "{src}->{dst}:{dport}");
        assert_eq!(out[0].to, want_to, "{src}->{dst}:{dport}");
        assert_eq!(out[0].port, want_port, "{src}->{dst}:{dport}");
    }
    assert_eq!(pipeline.runtime().switch().stats().misdirected, 0);

    // At Figure 1 scale the two modes are comparable; the pipeline's
    // advantage appears at workload scale (see the ablation bench) — here we
    // only require both to be reasonable.
    assert!(
        pipeline_rules <= composed_rules * 2,
        "{pipeline_rules} vs {composed_rules}"
    );
}

#[test]
fn multi_table_fast_path_overlays_work() {
    let mut sim = sim(CompileOptions {
        multi_table: true,
        ..Default::default()
    });
    assert_eq!(sim.send_from(A, pkt("55.0.0.1", "13.0.0.1", 22))[0].to, B);
    sim.runtime_mut().withdraw(B, [p("13.0.0.0/8")]);
    assert!(sim.runtime().incremental_stats().overlay_rules > 0);
    sim.sync();
    assert_eq!(sim.send_from(A, pkt("55.0.0.1", "13.0.0.1", 22))[0].to, C);
    sim.runtime_mut().reoptimize().unwrap();
    sim.sync();
    assert_eq!(sim.send_from(A, pkt("55.0.0.1", "13.0.0.1", 80))[0].to, C);
}

#[test]
fn vnh_pool_exhaustion_is_reported() {
    use sdx_core::compile::{compile, CompileInput, MemoCache};
    use sdx_core::VnhAllocator;
    use std::collections::BTreeMap;

    let mut sdx = figure1(CompileOptions::default());
    sdx.compile().unwrap(); // populate state
    let participants: BTreeMap<_, _> = sdx.participants().map(|p| (p.id, p.clone())).collect();
    let policies: BTreeMap<_, _> = BTreeMap::from([(
        A,
        ParticipantPolicy::new().outbound(Clause::fwd(match_(Field::DstPort, 80u16), B)),
    )]);
    let versions = BTreeMap::new();
    let input = CompileInput {
        participants: &participants,
        policies: &policies,
        policy_versions: &versions,
        route_server: sdx.route_server(),
        options: CompileOptions::default(),
    };
    // A /31 pool holds one VNH; Figure 1 needs several groups.
    let mut tiny = VnhAllocator::new("10.0.0.0/31".parse().unwrap());
    let memo = MemoCache::new();
    assert!(matches!(
        compile(&input, &mut tiny, &memo),
        Err(sdx_core::CompileError::VnhExhausted)
    ));
}

/// Workload-scale soak: a 300-participant exchange compiles, replays a
/// trace through the fast path, and reoptimizes — run with
/// `cargo test -- --ignored` for the deep check.
#[test]
#[ignore = "multi-second stress test"]
fn stress_full_scale_exchange() {
    // Workload generators live in sdx-workload, which depends on this
    // crate, so the stress test builds its exchange by hand.
    let mut sdx = SdxRuntime::default();
    let mut announced = Vec::new();
    for i in 1..=300u32 {
        let id = ParticipantId(i);
        sdx.add_participant(Participant::new(
            id,
            Asn(65_000 + i),
            vec![port(i * 10, (i % 200) as u8)],
        ));
        let prefix = Prefix::from_bits(0x0a00_0000 + (i << 12), 20);
        sdx.announce(
            id,
            [prefix],
            attrs(&[65_000 + i], Ipv4Addr::from(0x0afe_0000 + i)),
        );
        announced.push((id, prefix));
    }
    for i in 1..=30u32 {
        let author = ParticipantId(i);
        let target = ParticipantId(((i + 7) % 300) + 1);
        sdx.set_policy(
            author,
            ParticipantPolicy::new().outbound(Clause::fwd(
                match_(Field::DstPort, (i % 1024) as u16),
                target,
            )),
        );
    }
    let stats = sdx.compile().unwrap();
    assert!(stats.rules > 300);
    for (id, prefix) in announced.iter().take(200) {
        let mut a = attrs(&[65_000 + id.0, 7], Ipv4Addr::from(0x0afe_0000 + id.0));
        a.local_pref = Some(50);
        sdx.announce(*id, [*prefix], a);
    }
    assert!(sdx.incremental_stats().updates >= 200);
    sdx.reoptimize().unwrap();
    assert!(sdx.overlays().is_empty());
}

#[test]
fn compiled_table_exports_as_openflow() {
    let mut sdx = figure1(CompileOptions::default());
    sdx.compile().unwrap();
    let mods = sdx
        .export_flow_mods()
        .expect("composed table is OpenFlow 1.0 expressible");
    assert_eq!(mods.len(), 1, "single-table pipeline");
    assert_eq!(mods[0].len(), sdx.switch().table().len());
    // Every message round-trips to a rule semantically matching the
    // installed one.
    for (wire, installed) in mods[0].iter().zip(sdx.switch().table().rules()) {
        let decoded = sdx_switch::openflow::decode_flow_mod(wire).unwrap();
        assert_eq!(decoded.match_, installed.match_);
        assert_eq!(decoded.actions, installed.actions);
        assert_eq!(decoded.priority, installed.priority);
    }
}
