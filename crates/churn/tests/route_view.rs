//! One route view behind every border-router sync: taken mid-churn — live
//! fast-path overlays, withdrawals, and an export denial — a router synced
//! prefix by prefix with `sync_prefix` must hold exactly the routes and ARP
//! answers of a full `sync_router`, and the verifier's live FIB models must
//! be exactly that router's state.

use std::collections::BTreeSet;

use sdx_bgp::ExportPolicy;
use sdx_churn::sync_prefix;
use sdx_core::verify::fib_from_router;
use sdx_core::{CompileOptions, Participant, ParticipantId, SdxRuntime};
use sdx_ip::Prefix;
use sdx_switch::BorderRouter;
use sdx_workload::{generate_policies, generate_trace, IxpProfile, IxpTopology, TraceConfig};

/// An export denial: `(announcer, prefix, viewer)`.
type Denial = (ParticipantId, Prefix, ParticipantId);

/// A compiled, policy-bearing fabric with one prefix denied to one viewer,
/// fed the first `events` trace updates through the fast path (no
/// reoptimize, so their overlays stay live). Also returns the denial and
/// the prefixes the churn withdrew.
fn mid_churn(seed: u64, events: usize) -> (SdxRuntime, IxpTopology, Denial, BTreeSet<Prefix>) {
    let topology = IxpTopology::generate(IxpProfile::ams_ix(10, 80), seed);
    let mix = generate_policies(&topology, seed.wrapping_add(1));
    let mut sdx = SdxRuntime::new(CompileOptions::default());
    topology.install(&mut sdx);
    for (id, policy) in &mix.policies {
        sdx.set_policy(*id, policy.clone());
    }
    let ann = &topology.announcements[0];
    let viewer = topology
        .participants
        .iter()
        .find(|p| p.is_physical() && p.id != ann.from)
        .expect("a second physical participant")
        .id;
    let denied = (ann.from, ann.prefixes[0], viewer);
    sdx.set_export_policy(
        ann.from,
        ExportPolicy::export_all().deny_prefix_to(denied.1, viewer.peer()),
    );
    sdx.compile().expect("compile");

    let config = TraceConfig {
        duration_s: 8_000,
        ..Default::default()
    };
    let mut withdrawn = BTreeSet::new();
    for e in generate_trace(&topology, config, seed)
        .events
        .iter()
        .take(events)
    {
        withdrawn.extend(e.update.withdraw.iter().copied());
        sdx.apply_update(e.from, &e.update);
    }
    (sdx, topology, denied, withdrawn)
}

fn router_of(p: &Participant) -> BorderRouter {
    let port = &p.ports[0];
    BorderRouter::new(port.port, port.mac, port.ip)
}

#[test]
fn sync_prefix_sync_router_and_live_fibs_agree_mid_churn() {
    for seed in [1u64, 7, 23] {
        let (sdx, topology, (announcer, denied, viewer), withdrawn) = mid_churn(seed, 60);
        assert!(!sdx.overlays().is_empty(), "seed {seed}: no live overlays");
        assert!(!withdrawn.is_empty(), "seed {seed}: churn withdrew nothing");
        assert!(
            !sdx.route_server()
                .reachable_via(&denied, viewer.peer())
                .contains(&announcer.peer()),
            "seed {seed}: export denial not in force"
        );

        let vi = sdx.verify_input().expect("compiled");
        let physical: Vec<&Participant> = topology
            .participants
            .iter()
            .filter(|p| p.is_physical())
            .collect();
        assert_eq!(vi.fibs.len(), physical.len());
        let mut routed = 0;
        for (p, fib) in physical.iter().zip(&vi.fibs) {
            let mut full = router_of(p);
            sdx.sync_router(p.id, &mut full);
            let mut targeted = router_of(p);
            for prefix in topology.all_prefixes() {
                sync_prefix(&sdx, p.id, &mut targeted, prefix);
            }

            let routes: Vec<_> = full.routes().collect();
            assert_eq!(
                routes,
                targeted.routes().collect::<Vec<_>>(),
                "seed {seed}: {:?} routes differ",
                p.id
            );
            for (prefix, nh) in &routes {
                assert_eq!(
                    full.arp_lookup(*nh),
                    targeted.arp_lookup(*nh),
                    "seed {seed}: {:?} ARP answer for {prefix} via {nh} differs",
                    p.id
                );
            }
            assert_eq!(
                *fib,
                fib_from_router(p.id, &full),
                "seed {seed}: live FIB model of {:?} differs from its router",
                p.id
            );
            routed += routes.len();
        }
        assert!(routed > 0, "seed {seed}: no router holds a route");
    }
}
