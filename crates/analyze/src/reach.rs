//! Whole-fabric symbolic reachability: the `sdx-verify` invariant passes.
//!
//! The verifier consumes a [`VerifyInput`] — the compiled stage tables, the
//! border-router FIB/ARP model that tags traffic before it enters the
//! fabric, the VNH allocation, and the route server's advertisement ground
//! truth — and pushes per-sender header spaces through the pipeline with the
//! engine in [`crate::hs`]. Three invariants are checked here (the fourth,
//! differential equivalence, lives in [`crate::diff`]):
//!
//! 1. **BGP consistency / isolation** (`verify-isolation`): no header space
//!    is delivered to a participant's physical port for a prefix that
//!    participant did not advertise to the sender via the route server.
//! 2. **No cross-stage blackholes** (`verify-blackhole`): every header space
//!    a sender's router can emit is either dropped by an *explicit* policy
//!    rule or reaches a physical port — never swallowed by a completeness
//!    catch-all or delivered to an unresolved virtual port.
//! 3. **VNH integrity** (`verify-vnh`): every FIB entry for a grouped prefix
//!    carries the group's VNH and resolves to its VMAC tag, and every
//!    allocated tag has at least one fabric rule matching it — so no
//!    untagged traffic reaches the FIB-tagged stage and no tag dangles.
//!
//! Violations carry a concrete witness packet (the injected frame as the
//! sender's border router would emit it). Per-sender injections are
//! independent, so the fan-out runs on the crossbeam worker pool.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;
use std::time::Instant;

use sdx_ip::{Prefix, PrefixSet};
use sdx_policy::{Classifier, Field, Match, Packet, Pattern, Region};

use crate::hs::{self, Flow, TRANSIT_REGION_LIMIT};
use crate::{Diagnostic, PassKind, Severity};

/// One modelled FIB entry of a participant's border router: the tagging
/// stage the fabric tables rely on (§4.2's multi-stage FIB).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FibEntry {
    /// Destination prefix.
    pub prefix: Prefix,
    /// BGP next hop the router selected (a VNH at an SDX).
    pub next_hop: Ipv4Addr,
    /// The MAC the router's ARP cache resolves the next hop to (the VMAC
    /// tag), when resolved. `None` = the router would have to ARP first;
    /// grouped prefixes with no binding are a tagging hole.
    pub mac: Option<u64>,
}

/// A participant border router's modelled forwarding state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FibModel {
    /// The participant the router belongs to.
    pub participant: u32,
    /// Its FIB, prefix order.
    pub entries: Vec<FibEntry>,
}

/// One allocated forwarding-equivalence-class binding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupBinding {
    /// The prefixes of the FEC.
    pub prefixes: PrefixSet,
    /// The advertised virtual next hop.
    pub vnh: Ipv4Addr,
    /// The VMAC tag, as a raw 48-bit value.
    pub vmac: u64,
}

/// One emission key: a sender, one of its fabric ports, and a VMAC tag.
pub type EmissionKey = (u32, u32, u64);

/// Everything the reachability verifier reads.
#[derive(Debug, Clone, Default)]
pub struct VerifyInput {
    /// The fabric pipeline, in traversal order: `[stage1, stage2]` for the
    /// compiled two-stage semantics, or the installed tables.
    pub tables: Vec<Classifier>,
    /// `(participant id, physical ports)` for every physical participant.
    pub participants: Vec<(u32, Vec<u32>)>,
    /// The VNH/VMAC allocation, parallel to the compiler's groups.
    pub groups: Vec<GroupBinding>,
    /// Modelled border-router state, one per physical participant.
    pub fibs: Vec<FibModel>,
    /// Ground truth: `(advertiser, viewer) → prefixes` the advertiser
    /// exports to the viewer via the route server (feasible paths, not just
    /// best routes — an inbound redirect to any advertiser is legitimate).
    pub advertised: BTreeMap<(u32, u32), PrefixSet>,
    /// First port number of the virtual-port namespace.
    pub vport_base: u32,
}

impl VerifyInput {
    /// The physical ports of `participant` (empty when it has none).
    fn ports_of(&self, participant: u32) -> &[u32] {
        self.participants
            .iter()
            .find(|(id, _)| *id == participant)
            .map_or(&[], |(_, ports)| ports)
    }

    /// The emission map every gate injects from: each (sender, port, tag)
    /// its border router emits, with the destinations its FIB tags with
    /// that tag. A sender emits every tag from each of its ports; an entry
    /// with no resolved MAC emits nothing.
    pub fn emissions(&self) -> BTreeMap<EmissionKey, BTreeSet<Prefix>> {
        let mut out: BTreeMap<EmissionKey, BTreeSet<Prefix>> = BTreeMap::new();
        for fib in &self.fibs {
            let mut by_tag: BTreeMap<u64, Vec<Prefix>> = BTreeMap::new();
            for e in &fib.entries {
                if let Some(mac) = e.mac {
                    by_tag.entry(mac).or_default().push(e.prefix);
                }
            }
            for port in self.ports_of(fib.participant) {
                for (tag, prefixes) in &by_tag {
                    out.entry((fib.participant, *port, *tag))
                        .or_default()
                        .extend(prefixes);
                }
            }
        }
        out
    }

    /// The owner of a physical port.
    pub fn port_owner(&self, port: u64) -> Option<u32> {
        self.participants
            .iter()
            .find(|(_, ports)| ports.iter().any(|p| *p as u64 == port))
            .map(|(id, _)| *id)
    }

    /// Replace (or add) the FIB model of one participant — lets callers
    /// verify against *actual* router state instead of the synthesized
    /// model (e.g. the post-corruption audit tests).
    pub fn set_fib(&mut self, fib: FibModel) {
        match self
            .fibs
            .iter_mut()
            .find(|f| f.participant == fib.participant)
        {
            Some(slot) => *slot = fib,
            None => self.fibs.push(fib),
        }
    }
}

/// Wall-clock of the reachability passes, microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReachTimes {
    /// Symbolic traversal (shared by isolation and blackhole checking).
    pub transit_us: u64,
    /// Isolation / BGP-consistency checking over the traversal results.
    pub isolation_us: u64,
    /// Blackhole checking over the traversal results.
    pub blackhole_us: u64,
    /// VNH / FIB integrity checking.
    pub vnh_us: u64,
}

/// The reachability verifier's findings plus per-pass timings.
#[derive(Debug, Clone, Default)]
pub struct ReachReport {
    /// Diagnostics, deterministic order (sender, then injection).
    pub diagnostics: Vec<Diagnostic>,
    /// Pass timings.
    pub times: ReachTimes,
}

fn duration_us(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// The sub-region of `region` whose destinations fall in `prefix`, if any.
fn restrict_to_prefix(region: &Region, prefix: &Prefix) -> Option<Region> {
    region.intersect_match(&Match::on(Field::DstIp, Pattern::Prefix(*prefix)))
}

/// First producible witness: `region` restricted to any of the injection's
/// taggable prefixes. `None` means the region holds no packet the sender's
/// router would actually emit (vacuous — not reported).
fn producible_witness(region: &Region, prefixes: &BTreeSet<Prefix>) -> Option<Packet> {
    prefixes
        .iter()
        .find_map(|p| restrict_to_prefix(region, p).and_then(|r| r.witness()))
}

/// Findings of one injection's traversal: everything `sender`'s router
/// emits from `port` under the tag `mac`, towards `prefixes` (the
/// producible DstIp space).
fn check_injection(
    input: &VerifyInput,
    (sender, port, mac): EmissionKey,
    prefixes: &BTreeSet<Prefix>,
    times: &mut ReachTimes,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let t = Instant::now();
    let result = hs::transit_pipeline(
        &input.tables,
        vec![Flow::new(hs::injection_region(port, mac))],
        Field::DstMac,
        TRANSIT_REGION_LIMIT,
    );
    times.transit_us += duration_us(t.elapsed());

    if result.saturated {
        out.push(Diagnostic {
            severity: Severity::Warning,
            pass: PassKind::Blackhole,
            code: "verify-undecided",
            message: format!(
                "P{} port {} tag {:#x}: symbolic transit exceeded {} regions; \
                 reachability left unverified for this injection",
                sender, port, mac, TRANSIT_REGION_LIMIT
            ),
            participant: Some(sender),
            clause: None,
            witness: None,
        });
        return out;
    }

    // ---- Invariant 1: BGP consistency / isolation -----------------------
    let t = Instant::now();
    for (o, rule) in &result.outputs {
        let Some(egress) = o.flow.acc.get(Field::Port) else {
            continue; // no port assignment: handled as a blackhole below.
        };
        if egress >= input.vport_base as u64 {
            continue; // unresolved vport: blackhole invariant's business.
        }
        let Some(receiver) = input.port_owner(egress) else {
            continue;
        };
        let entitled = input
            .advertised
            .get(&(receiver, sender))
            .cloned()
            .unwrap_or_default();
        for prefix in prefixes {
            if entitled.contains(prefix) {
                continue;
            }
            if let Some(r) = restrict_to_prefix(&o.flow.region, prefix) {
                if let Some(witness) = r.witness() {
                    out.push(Diagnostic {
                        severity: Severity::Error,
                        pass: PassKind::Isolation,
                        code: "verify-isolation",
                        message: format!(
                            "traffic from P{} for {} is delivered to P{} (port {}, rule {}), \
                             but P{} never advertised {} to P{} via the route server",
                            sender, prefix, receiver, egress, rule, receiver, prefix, sender
                        ),
                        participant: Some(sender),
                        clause: None,
                        witness: Some(witness),
                    });
                    break; // one witness per (injection, output) is enough.
                }
            }
        }
    }
    times.isolation_us += duration_us(t.elapsed());

    // ---- Invariant 2: no cross-stage blackholes --------------------------
    let t = Instant::now();
    for (table, drop) in &result.drops {
        if !drop.catch_all {
            continue; // explicit policy drop: the policy said so.
        }
        if let Some(witness) = producible_witness(&drop.region, prefixes) {
            out.push(Diagnostic {
                severity: Severity::Error,
                pass: PassKind::Blackhole,
                code: "verify-blackhole",
                message: format!(
                    "traffic from P{} tagged {:#x} falls through to table {}'s \
                     catch-all: admitted by the fabric but neither policy-dropped \
                     nor delivered to a physical port",
                    sender, mac, table
                ),
                participant: Some(sender),
                clause: None,
                witness: Some(witness),
            });
        }
    }
    for (o, rule) in &result.outputs {
        let vport_exit = match o.flow.acc.get(Field::Port) {
            Some(egress) => egress >= input.vport_base as u64,
            None => true, // never assigned a port at all.
        };
        if !vport_exit {
            continue;
        }
        if let Some(witness) = producible_witness(&o.flow.region, prefixes) {
            out.push(Diagnostic {
                severity: Severity::Error,
                pass: PassKind::Blackhole,
                code: "verify-vport-exit",
                message: format!(
                    "traffic from P{} tagged {:#x} leaves the pipeline at rule {} \
                     without reaching a physical port (egress {:?})",
                    sender,
                    mac,
                    rule,
                    o.flow.acc.get(Field::Port)
                ),
                participant: Some(sender),
                clause: None,
                witness: Some(witness),
            });
        }
    }
    times.blackhole_us += duration_us(t.elapsed());

    out
}

/// Invariant 3: VNH / FIB integrity. Pure table- and FIB-level checking, no
/// symbolic traversal needed.
fn check_vnh(input: &VerifyInput) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // Every allocated tag must have at least one rule matching it in the
    // first table — an unmatchable tag means tagged traffic would fall
    // straight into a catch-all.
    if let Some(first) = input.tables.first() {
        for (gid, group) in input.groups.iter().enumerate() {
            let used = first.rules().iter().any(|r| {
                r.match_
                    .get(Field::DstMac)
                    .map(|p| p.matches(group.vmac))
                    .unwrap_or(false)
            });
            if !used && !group.prefixes.is_empty() {
                out.push(Diagnostic {
                    severity: Severity::Error,
                    pass: PassKind::VnhIntegrity,
                    code: "verify-unmatched-tag",
                    message: format!(
                        "group {gid}: allocated VMAC {:#x} (VNH {}) is matched by no \
                         rule of the first fabric table",
                        group.vmac, group.vnh
                    ),
                    participant: None,
                    clause: None,
                    witness: None,
                });
            }
        }
    }

    // Every FIB entry for a grouped prefix must carry the group's VNH and
    // resolve to its VMAC.
    for fib in &input.fibs {
        let port = input
            .ports_of(fib.participant)
            .first()
            .copied()
            .unwrap_or(0);
        for e in &fib.entries {
            let Some((gid, group)) = input
                .groups
                .iter()
                .enumerate()
                .find(|(_, g)| g.prefixes.contains(&e.prefix))
            else {
                if e.mac.is_none() {
                    out.push(Diagnostic {
                        severity: Severity::Warning,
                        pass: PassKind::VnhIntegrity,
                        code: "verify-fib-unresolved",
                        message: format!(
                            "P{}: FIB entry {} → {} has no resolved MAC \
                             (ungrouped prefix; router would ARP first)",
                            fib.participant, e.prefix, e.next_hop
                        ),
                        participant: Some(fib.participant),
                        clause: None,
                        witness: None,
                    });
                }
                continue;
            };
            let witness = || {
                Packet::new()
                    .with(Field::Port, port)
                    .with(Field::DstIp, u32::from(e.prefix.addr()))
            };
            if e.next_hop != group.vnh {
                out.push(Diagnostic {
                    severity: Severity::Error,
                    pass: PassKind::VnhIntegrity,
                    code: "verify-fib-wrong-vnh",
                    message: format!(
                        "P{}: FIB routes {} via {} but group {gid} advertises VNH {}",
                        fib.participant, e.prefix, e.next_hop, group.vnh
                    ),
                    participant: Some(fib.participant),
                    clause: None,
                    witness: Some(witness()),
                });
                continue;
            }
            match e.mac {
                None => out.push(Diagnostic {
                    severity: Severity::Error,
                    pass: PassKind::VnhIntegrity,
                    code: "verify-fib-missing-tag",
                    message: format!(
                        "P{}: FIB entry {} → VNH {} resolves to no MAC; traffic \
                         would enter the fabric without the VMAC tag {:#x} \
                         (group {gid})",
                        fib.participant, e.prefix, e.next_hop, group.vmac
                    ),
                    participant: Some(fib.participant),
                    clause: None,
                    witness: Some(witness()),
                }),
                Some(mac) if mac != group.vmac => out.push(Diagnostic {
                    severity: Severity::Error,
                    pass: PassKind::VnhIntegrity,
                    code: "verify-fib-tag-mismatch",
                    message: format!(
                        "P{}: FIB entry {} tags {:#x} but group {gid} allocated \
                         VMAC {:#x}",
                        fib.participant, e.prefix, mac, group.vmac
                    ),
                    participant: Some(fib.participant),
                    clause: None,
                    witness: Some(witness().with(Field::DstMac, mac)),
                }),
                Some(_) => {}
            }
        }
    }
    out
}

/// Run the three reachability invariants over `input`, one injection per
/// [`VerifyInput::emissions`] key, fanned out over `threads` workers.
/// Deterministic: diagnostics come back in (sender, port, tag) order
/// regardless of the worker count, and the timings are the only
/// thread-count-dependent output.
pub fn run(input: &VerifyInput, threads: usize) -> ReachReport {
    let mut report = ReachReport::default();

    let injections: Vec<_> = input.emissions().into_iter().collect();
    let worker = |(key, prefixes)| {
        let mut times = ReachTimes::default();
        let diags = check_injection(input, key, &prefixes, &mut times);
        (diags, times)
    };
    let results: Vec<(Vec<Diagnostic>, ReachTimes)> = if threads <= 1 || injections.len() < 2 {
        injections.into_iter().map(worker).collect()
    } else {
        crossbeam::pool::parallel_map(threads, injections, worker)
    };
    for (diags, times) in results {
        report.diagnostics.extend(diags);
        report.times.transit_us += times.transit_us;
        report.times.isolation_us += times.isolation_us;
        report.times.blackhole_us += times.blackhole_us;
    }

    let t = Instant::now();
    report.diagnostics.extend(check_vnh(input));
    report.times.vnh_us = duration_us(t.elapsed());
    report
}
