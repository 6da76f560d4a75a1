//! Bridge between the controller and the whole-fabric symbolic verifier
//! (`sdx-analyze`'s `reach`/`diff` passes): the one route view every gate
//! reads, lowered into a [`VerifyInput`].
//!
//! One FIB decision (§4.2) serves the live runtime
//! ([`SdxRuntime::fib_entry`], every router sync) and every gate's model: a
//! router keeps no fabric route for a prefix it announces itself, takes the
//! SDX-advertised next hop for everything else, and tags with the MAC ARP
//! resolves it to. A `RouteView` supplies the VNH and the MAC: the live
//! runtime from its overlays, installed compilation and ARP responder; a
//! compilation that is not installed yet (the verify gate, the plan gate's
//! new side, the differential check's reference) from its own VNH table
//! over the participants' router interfaces — what ARP answers once it is
//! installed. The ground truth is one [`RouteServer::advert_map`] per
//! prefix, read through the helper the streamed delta gate uses.
//!
//! [`SdxRuntime::fib_entry`]: crate::SdxRuntime::fib_entry

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::net::Ipv4Addr;

use sdx_analyze::{FibEntry, FibModel, GroupBinding, VerifyInput};
use sdx_bgp::{Candidate, PeerId, RouteServer};
use sdx_ip::{MacAddr, Prefix, PrefixSet};
use sdx_policy::Classifier;
use sdx_switch::BorderRouter;

use crate::compile::{Compilation, CompileInput};
use crate::participant::VPORT_BASE;
use crate::{Participant, ParticipantId};

/// One [`RouteServer::advert_map`] snapshot: viewer → feasible advertisers.
pub(crate) type AdvertMap = BTreeMap<PeerId, BTreeSet<PeerId>>;

/// Where a FIB decision takes the SDX's virtual next hops and their MACs
/// from.
pub(crate) trait RouteView {
    /// The VNH the SDX substitutes for `prefix`'s next hop; `None` leaves
    /// the best route's own next hop.
    fn vnh_of(&self, prefix: &Prefix) -> Option<Ipv4Addr>;
    /// The MAC ARP answers for `ip`.
    fn resolve(&self, ip: &Ipv4Addr) -> Option<MacAddr>;
}

/// A compilation that is not installed yet, as the routers will see it
/// once it is: its group VNHs, resolved by ARP to their VMACs over the
/// participants' router interfaces.
pub(crate) struct CompiledView<'a> {
    compilation: &'a Compilation,
    arp: HashMap<Ipv4Addr, MacAddr>,
}

impl<'a> CompiledView<'a> {
    /// The view of `compilation` over `input`'s participants. VNH bindings
    /// shadow interface bindings, as the runtime binds them after the
    /// interfaces.
    pub(crate) fn new(input: &CompileInput<'_>, compilation: &'a Compilation) -> Self {
        let interfaces = input.participants.values().flat_map(|p| &p.ports);
        let arp = interfaces
            .map(|c| (c.ip, c.mac))
            .chain(compilation.vnh.iter().copied())
            .collect();
        CompiledView { compilation, arp }
    }
}

impl RouteView for CompiledView<'_> {
    fn vnh_of(&self, prefix: &Prefix) -> Option<Ipv4Addr> {
        self.compilation.vnh_of(prefix)
    }

    fn resolve(&self, ip: &Ipv4Addr) -> Option<MacAddr> {
        self.arp.get(ip).copied()
    }
}

/// The best route `viewer` receives for `prefix`, and the next hop the SDX
/// advertises with it: the view's VNH, else the route's own.
pub(crate) fn advertised(
    rs: &RouteServer,
    view: &impl RouteView,
    prefix: &Prefix,
    viewer: ParticipantId,
) -> Option<(Candidate, Ipv4Addr)> {
    let best = rs.best_route(prefix, viewer.peer())?;
    let next_hop = view.vnh_of(prefix).unwrap_or(best.route.attrs.next_hop);
    Some((best, next_hop))
}

/// `viewer`'s border-router FIB decision for `prefix`: the advertised next
/// hop and the MAC it resolves to. `None` when the viewer has no best
/// route, or announces the prefix itself — a router has its own internal
/// route to such a prefix and never forwards that traffic back to the
/// fabric (the paper's second loop-prevention invariant).
pub(crate) fn fib_decision(
    rs: &RouteServer,
    view: &impl RouteView,
    prefix: &Prefix,
    viewer: ParticipantId,
) -> Option<(Ipv4Addr, Option<MacAddr>)> {
    if rs.route_from(viewer.peer(), prefix).is_some() {
        return None;
    }
    let (_, next_hop) = advertised(rs, view, prefix, viewer)?;
    Some((next_hop, view.resolve(&next_hop)))
}

/// The border-router FIB model of every physical participant, in
/// participant order: its `fib_decision` for every known prefix.
pub(crate) fn fib_models(input: &CompileInput<'_>, view: &impl RouteView) -> Vec<FibModel> {
    let rs = input.route_server;
    let prefixes = rs.all_prefixes();
    let physical = input.participants.values().filter(|p| p.is_physical());
    physical
        .map(|p| FibModel {
            participant: p.id.0,
            entries: prefixes
                .iter()
                .filter_map(|prefix| {
                    let (next_hop, mac) = fib_decision(rs, view, prefix, p.id)?;
                    Some(FibEntry {
                        prefix: *prefix,
                        next_hop,
                        mac: mac.map(|m| m.to_u64()),
                    })
                })
                .collect(),
        })
        .collect()
}

/// Lower controller state into the verifier's input: the pipeline `tables`
/// and FEC `groups` the caller hands in, FIB models decided against `view`,
/// and the ground truth.
pub(crate) fn verify_input(
    input: &CompileInput<'_>,
    tables: Vec<Classifier>,
    groups: Vec<GroupBinding>,
    view: &impl RouteView,
) -> VerifyInput {
    VerifyInput {
        tables,
        participants: physical_participants(input),
        groups,
        fibs: fib_models(input, view),
        advertised: advertised_ground_truth(input),
        vport_base: VPORT_BASE,
    }
}

/// The verifier's input for a compilation that is not installed yet: its
/// compiled two-stage semantics fronted by the routers it will converge.
pub(crate) fn compiled_verify_input(
    input: &CompileInput<'_>,
    compilation: &Compilation,
) -> VerifyInput {
    verify_input(
        input,
        vec![compilation.stage1.clone(), compilation.stage2.clone()],
        group_bindings(compilation),
        &CompiledView::new(input, compilation),
    )
}

/// `(participant, physical ports)` for every physical participant.
pub(crate) fn physical_participants(input: &CompileInput<'_>) -> Vec<(u32, Vec<u32>)> {
    input
        .participants
        .iter()
        .filter(|(_, p)| p.is_physical())
        .map(|(id, p)| (id.0, p.port_numbers().collect()))
        .collect()
}

/// The compilation's FEC → (VNH, VMAC) allocation as verifier bindings.
pub(crate) fn group_bindings(compilation: &Compilation) -> Vec<GroupBinding> {
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

/// One prefix's `(advertiser, viewer)` pairs from its advert map, physical
/// viewers only.
pub(crate) fn advert_pairs(
    participants: &BTreeMap<ParticipantId, Participant>,
    adverts: &AdvertMap,
) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for p in participants.values().filter(|p| p.is_physical()) {
        for advertiser in adverts.get(&p.id.peer()).into_iter().flatten() {
            out.push((advertiser.0, p.id.0));
        }
    }
    out
}

/// Ground truth for the isolation invariant: `(advertiser, viewer)` → the
/// prefixes the advertiser exports to the viewer via the route server. All
/// feasible advertisers count, not just best routes — inbound redirection
/// to any consenting advertiser is legitimate.
pub(crate) fn advertised_ground_truth(input: &CompileInput<'_>) -> BTreeMap<(u32, u32), PrefixSet> {
    let rs = input.route_server;
    let mut out: BTreeMap<(u32, u32), PrefixSet> = BTreeMap::new();
    for prefix in rs.all_prefixes() {
        for pair in advert_pairs(input.participants, &rs.advert_map(&prefix)) {
            out.entry(pair).or_default().insert(prefix);
        }
    }
    out
}

/// The FIB model of an *actual* border router — its trie and ARP cache as
/// they stand, rather than the converged decision. Lets audits verify the
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
