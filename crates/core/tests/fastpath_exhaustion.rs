//! Fast-path regressions: VNH-pool exhaustion must *degrade* (keep the
//! stale overlay forwarding, raise `needs_reoptimize`) instead of silently
//! dropping the update, overlay-rule accounting must survive churn →
//! recompile → churn interleavings without underflow, and each fragment
//! must land above the live priority ceiling until a recompile resets it.

use std::net::Ipv4Addr;

use sdx_bgp::{AsPath, Asn, PathAttributes, Update};
use sdx_core::{
    Clause, CompileOptions, FabricSim, Participant, ParticipantId, ParticipantPolicy, PortConfig,
    SdxRuntime,
};
use sdx_ip::Prefix;
use sdx_policy::{match_, Field, Packet};

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

const B_NH: Ipv4Addr = Ipv4Addr::new(172, 0, 0, 21);
const C_NH: Ipv4Addr = Ipv4Addr::new(172, 0, 0, 31);

/// Figure-1-shaped exchange: B and C both announce 11/8 and 12/8, C with
/// the shorter path; A carries an outbound policy so churn touches both
/// policy fragments and default forwarding.
fn exchange() -> SdxRuntime {
    let mut sdx = SdxRuntime::new(CompileOptions::default());
    sdx.add_participant(Participant::new(A, Asn(100), vec![port(1, 11)]));
    sdx.add_participant(Participant::new(B, Asn(200), vec![port(2, 21)]));
    sdx.add_participant(Participant::new(C, Asn(300), vec![port(3, 31)]));
    sdx.announce(
        B,
        [p("11.0.0.0/8"), p("12.0.0.0/8")],
        attrs(&[200, 65001], B_NH),
    );
    sdx.announce(C, [p("11.0.0.0/8"), p("12.0.0.0/8")], attrs(&[300], C_NH));
    sdx.set_policy(
        A,
        ParticipantPolicy::new()
            .outbound(Clause::fwd(match_(Field::DstPort, 80u16), B))
            .outbound(Clause::fwd(match_(Field::DstPort, 443u16), C)),
    );
    sdx
}

/// A policy-neutral probe (no clause matches dport 9999): lands on default
/// forwarding, so the receiver is exactly the best route's announcer.
fn probe(dst: &str) -> Packet {
    Packet::new()
        .with(Field::EthType, 0x0800u16)
        .with(Field::IpProto, 6u8)
        .with(Field::SrcIp, Ipv4Addr::new(99, 0, 0, 1))
        .with(Field::DstIp, dst.parse::<Ipv4Addr>().unwrap())
        .with(Field::SrcPort, 50_000u16)
        .with(Field::DstPort, 9_999u16)
}

/// Flip 11/8's best route between C (short path) and B (C prepends) — each
/// call is one best-path-change event through the incremental fast path.
fn flip(sdx: &mut SdxRuntime, i: u32) -> ParticipantId {
    if i.is_multiple_of(2) {
        sdx.announce(C, [p("11.0.0.0/8")], attrs(&[300, 300, 300 + i], C_NH));
        B // C's path is now longest; B takes over
    } else {
        sdx.announce(C, [p("11.0.0.0/8")], attrs(&[300], C_NH));
        C
    }
}

#[test]
fn exhaustion_degrades_to_stale_overlay_and_recovers() {
    let mut sdx = exchange();
    // Tight pool: enough for the full compile's groups, little slack for
    // fast-path overlays.
    sdx.set_vnh_pool(p("10.0.0.0/28"));
    sdx.compile().unwrap();
    let mut sim = FabricSim::new(sdx);
    sim.sync();

    // Churn until the pool runs dry. Track the receiver of the last update
    // that *did* land: when an allocation fails the stale overlay must keep
    // forwarding to that receiver, not drop traffic.
    let mut stale_receiver = C;
    let mut i = 0u32;
    while sim.runtime().incremental_stats().overlay_exhausted == 0 {
        assert!(i < 32, "pool never exhausted — widen the loop or shrink it");
        let expected = flip(sim.runtime_mut(), i);
        if sim.runtime().incremental_stats().overlay_exhausted == 0 {
            stale_receiver = expected;
        }
        i += 1;
    }
    assert!(
        sim.runtime().needs_reoptimize(),
        "exhaustion must raise the reoptimize flag"
    );

    // The update that exhausted the pool was NOT silently dropped into a
    // black hole: the previous overlay still forwards.
    sim.sync();
    let out = sim.send_from(A, probe("11.0.0.1"));
    assert_eq!(out.len(), 1, "stale overlay must keep forwarding");
    assert_eq!(out[0].to, stale_receiver);

    // Background reoptimization recovers: pool reset, flag cleared, and
    // forwarding now reflects the route server's actual best route.
    let exhausted_before = sim.runtime().incremental_stats().overlay_exhausted;
    sim.runtime_mut().reoptimize().unwrap();
    assert!(!sim.runtime().needs_reoptimize());
    assert_eq!(
        sim.runtime().incremental_stats().overlay_exhausted,
        exhausted_before,
        "cumulative counter must survive reoptimize"
    );
    sim.sync();
    let best = ParticipantId::from(
        sim.runtime()
            .route_server()
            .best_route(&p("11.0.0.0/8"), A.peer())
            .expect("still announced")
            .peer,
    );
    let out = sim.send_from(A, probe("11.0.0.1"));
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].to, best);

    // And the fast path works again on the refilled pool.
    let expected = flip(sim.runtime_mut(), i);
    assert_eq!(
        sim.runtime().incremental_stats().overlay_exhausted,
        exhausted_before,
        "refilled pool must not exhaust on the next update"
    );
    sim.sync();
    let out = sim.send_from(A, probe("11.0.0.1"));
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].to, expected);
}

/// Overlay-rule accounting stays an exact invariant across churn →
/// recompile → churn, including withdrawals of prefixes whose overlays a
/// recompile already coalesced (the historical underflow: `overlay_rules -=
/// removed` on a counter the recompile had reset). In debug builds an
/// underflow would panic; the invariant checks catch it in release too.
#[test]
fn overlay_accounting_survives_recompile_interleaving() {
    let mut sdx = exchange();
    sdx.compile().unwrap();

    let live = |sdx: &SdxRuntime| -> usize { sdx.overlays().iter().map(|o| o.rules).sum() };

    // Churn both prefixes, through `announce` and `apply_update_delta`.
    for i in 0..4u32 {
        flip(&mut sdx, i);
        let (_, delta) = sdx.apply_update_delta(
            B,
            &Update::announce([p("12.0.0.0/8")], attrs(&[200, 900 + i], B_NH)),
        );
        assert!(delta.installed > 0 || delta.removed > 0);
        assert_eq!(sdx.incremental_stats().overlay_rules, live(&sdx));
    }
    assert!(sdx.incremental_stats().overlay_rules > 0);

    // Recompile coalesces every overlay; the counter must reconcile to zero
    // rather than keep a stale value the next retire would underflow.
    sdx.compile().unwrap();
    assert_eq!(sdx.overlays().len(), 0);
    assert_eq!(sdx.incremental_stats().overlay_rules, 0);

    // Withdrawing a prefix whose overlay the recompile absorbed retires
    // nothing — and must not wrap the counter.
    sdx.apply_update(C, &Update::withdraw([p("11.0.0.0/8")]));
    assert_eq!(sdx.incremental_stats().overlay_rules, live(&sdx));

    // Fresh churn after the recompile accounts from zero again, and
    // withdrawing everything returns the counter to zero.
    for i in 0..3u32 {
        sdx.apply_update_delta(
            B,
            &Update::announce([p("12.0.0.0/8")], attrs(&[200, 500 + i], B_NH)),
        );
        assert_eq!(sdx.incremental_stats().overlay_rules, live(&sdx));
    }
    sdx.apply_update_delta(B, &Update::withdraw([p("12.0.0.0/8")]));
    sdx.apply_update(C, &Update::withdraw([p("12.0.0.0/8")]));
    // 11/8 lost C above, which re-overlaid it onto B's route; drop it too.
    sdx.apply_update(B, &Update::withdraw([p("11.0.0.0/8")]));
    assert_eq!(sdx.incremental_stats().overlay_rules, live(&sdx));
    assert_eq!(sdx.overlays().len(), 0);
    assert_eq!(sdx.incremental_stats().overlay_rules, 0);
}

/// Each fast-path fragment lands strictly above the live priority ceiling —
/// above the base table and above every earlier fragment — and the
/// background recompile brings the ceiling back to the base table's.
#[test]
fn fragments_land_above_the_live_ceiling_until_reoptimize() {
    let mut sdx = exchange();
    sdx.compile().unwrap();
    let ceiling = |sdx: &SdxRuntime| sdx.switch().table().max_priority().unwrap_or(0);
    let base = ceiling(&sdx);

    // Re-announcing unchanged routes still re-homes each prefix onto a
    // fresh VNH, while the RIB — and so the next full compile — stays put.
    let mut previous = base;
    for (from, prefix, route) in [
        (C, p("11.0.0.0/8"), attrs(&[300], C_NH)),
        (B, p("12.0.0.0/8"), attrs(&[200, 65001], B_NH)),
    ] {
        sdx.announce(from, [prefix], route);
        let overlay = sdx
            .overlays()
            .iter()
            .find(|o| o.prefix == prefix)
            .expect("fragment installed");
        let priorities: Vec<u32> = sdx
            .switch()
            .table()
            .rules()
            .iter()
            .filter(|r| r.cookie == overlay.cookie)
            .map(|r| r.priority)
            .collect();
        assert_eq!(priorities.len(), overlay.rules);
        assert!(!priorities.is_empty(), "{prefix}: empty fragment");
        assert!(
            priorities.iter().all(|&pr| pr > previous),
            "{prefix}: fragment {priorities:?} not above ceiling {previous}"
        );
        previous = ceiling(&sdx);
    }

    sdx.reoptimize().unwrap();
    assert!(sdx.overlays().is_empty());
    assert_eq!(ceiling(&sdx), base);
}
