//! Bridge between the controller and the whole-fabric symbolic verifier
//! (`sdx-analyze`'s `reach`/`diff` passes).
//!
//! The verifier consumes a [`VerifyInput`]: compiled stage tables, the
//! border-router FIB/ARP tagging model, the VNH allocation, and the route
//! server's advertisement ground truth. This module lowers controller state
//! into that form. The synthesized FIB model follows the same decision as
//! [`SdxRuntime::fib_entry`], which every live router sync and the
//! runtime's own live FIB models use: a router never keeps fabric routes
//! for prefixes it announces itself, takes the SDX-advertised (virtual)
//! next hop for everything else, and resolves the next hop's MAC — the VMAC
//! tag — through ARP.
//!
//! [`SdxRuntime::fib_entry`]: crate::SdxRuntime::fib_entry

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use sdx_analyze::{FibEntry, FibModel, GroupBinding, VerifyInput};
use sdx_ip::{MacAddr, PrefixSet};
use sdx_switch::BorderRouter;

use crate::compile::{Compilation, CompileInput};
use crate::participant::VPORT_BASE;
use crate::ParticipantId;

/// Lower a compile input and its result into the verifier's input form,
/// with FIB models synthesized from the compilation (what every router's
/// state *will* be once it converges on the new advertisements).
pub fn build_verify_input(input: &CompileInput<'_>, compilation: &Compilation) -> VerifyInput {
    let mut vi = VerifyInput {
        tables: vec![compilation.stage1.clone(), compilation.stage2.clone()],
        participants: physical_participants(input),
        groups: group_bindings(compilation),
        fibs: Vec::new(),
        advertised: advertised_ground_truth(input),
        vport_base: VPORT_BASE,
    };
    let macs = interface_macs(input);
    vi.fibs = vi
        .participants
        .iter()
        .map(|(id, _)| model_fib(input, compilation, ParticipantId(*id), &macs))
        .collect();
    vi
}

/// `(participant, physical ports)` for every physical participant.
pub fn physical_participants(input: &CompileInput<'_>) -> Vec<(u32, Vec<u32>)> {
    input
        .participants
        .iter()
        .filter(|(_, p)| p.is_physical())
        .map(|(id, p)| (id.0, p.port_numbers().collect()))
        .collect()
}

/// The compilation's FEC → (VNH, VMAC) allocation as verifier bindings.
pub fn group_bindings(compilation: &Compilation) -> Vec<GroupBinding> {
    compilation
        .groups
        .iter()
        .zip(&compilation.vnh)
        .map(|(g, (vnh, vmac))| GroupBinding {
            prefixes: g.prefixes.clone(),
            vnh: *vnh,
            vmac: vmac.to_u64(),
        })
        .collect()
}

/// Ground truth for the isolation invariant: `(advertiser, viewer)` → the
/// prefixes the advertiser exports to the viewer via the route server. All
/// feasible advertisers count, not just best routes — inbound redirection
/// to any consenting advertiser is legitimate.
pub fn advertised_ground_truth(input: &CompileInput<'_>) -> BTreeMap<(u32, u32), PrefixSet> {
    let mut out: BTreeMap<(u32, u32), PrefixSet> = BTreeMap::new();
    let viewers: Vec<u32> = input
        .participants
        .iter()
        .filter(|(_, p)| p.is_physical())
        .map(|(id, _)| id.0)
        .collect();
    for prefix in input.route_server.all_prefixes() {
        for viewer in &viewers {
            for advertiser in input
                .route_server
                .reachable_via(&prefix, ParticipantId(*viewer).peer())
            {
                out.entry((advertiser.0, *viewer))
                    .or_default()
                    .insert(prefix);
            }
        }
    }
    out
}

/// Router-interface IP → MAC, from every participant's port configuration
/// (what the ARP responder answers for besides the VNHs).
fn interface_macs(input: &CompileInput<'_>) -> BTreeMap<Ipv4Addr, MacAddr> {
    input
        .participants
        .values()
        .flat_map(|p| p.ports.iter().map(|c| (c.ip, c.mac)))
        .collect()
}

/// Synthesize the converged FIB of one participant's border router from a
/// compilation: own-announced prefixes absent, grouped prefixes on their
/// VNH/VMAC, ungrouped prefixes on the original next hop with the MAC
/// resolved against the router interface table.
fn model_fib(
    input: &CompileInput<'_>,
    compilation: &Compilation,
    viewer: ParticipantId,
    interface_macs: &BTreeMap<Ipv4Addr, MacAddr>,
) -> FibModel {
    let rs = input.route_server;
    let own = rs.announced_by(viewer.peer());
    let mut entries = Vec::new();
    for prefix in rs.all_prefixes() {
        if own.contains(&prefix) {
            continue;
        }
        let Some(best) = rs.best_route(&prefix, viewer.peer()) else {
            continue;
        };
        let (next_hop, mac) = match compilation.group_of(&prefix) {
            Some(g) => (compilation.vnh[g].0, Some(compilation.vnh[g].1.to_u64())),
            None => {
                let nh = best.route.attrs.next_hop;
                (nh, interface_macs.get(&nh).map(|m| m.to_u64()))
            }
        };
        entries.push(FibEntry {
            prefix,
            next_hop,
            mac,
        });
    }
    FibModel {
        participant: viewer.0,
        entries,
    }
}

/// The FIB model of an *actual* border router — its trie and ARP cache as
/// they stand, rather than the converged synthesis. Lets audits verify the
/// state a real (possibly stale or corrupted) router would tag with.
pub fn fib_from_router(id: ParticipantId, router: &BorderRouter) -> FibModel {
    FibModel {
        participant: id.0,
        entries: router
            .routes()
            .map(|(prefix, next_hop)| FibEntry {
                prefix,
                next_hop,
                mac: router.arp_lookup(next_hop).map(|m| m.to_u64()),
            })
            .collect(),
    }
}
