//! Differential equivalence: after an incremental recompile (fast-path
//! overlays from a BGP update, or a policy change), the running fabric must
//! be *packet-equivalent* to a from-scratch compile of the same inputs.
//!
//! Rule-for-rule comparison is hopeless — the fast path deliberately
//! installs different rules (fresh VNHs, overlay priorities) that are
//! supposed to behave identically. Instead the check is symbolic and
//! end-to-end, *modulo the VNH tag*: for every sender and destination
//! prefix, the frame the sender's router emits (tagged with that side's
//! MAC) must produce the same delivered frames through both fabrics, where
//! an un-rewritten echo of the injected tag itself is not a difference (tag
//! values are an allocation artifact, not semantics).
//!
//! Symbolic cross-comparison finds *candidate* mismatches — terminal-region
//! pairs with different outcomes — and every candidate is then confirmed by
//! replaying its witness packet through both pipelines with the concrete
//! interpreter, which kills false positives from overlapping multicast
//! terminals. Only concretely-confirmed differences are reported.

use std::collections::BTreeMap;

use sdx_ip::Prefix;
use sdx_policy::{Classifier, Field, Match, Packet, Pattern, Region};

use crate::hs::{self, Flow, TRANSIT_REGION_LIMIT};
use crate::reach::FibModel;
use crate::{Diagnostic, PassKind, Severity};

/// One side of the comparison: a fabric pipeline plus the FIB/ARP tagging
/// model that fronts it.
#[derive(Debug, Clone, Default)]
pub struct DiffSide {
    /// The fabric tables, traversal order.
    pub tables: Vec<Classifier>,
    /// Border-router models, one per physical participant.
    pub fibs: Vec<FibModel>,
}

impl DiffSide {
    fn fib(&self, participant: u32) -> Option<&FibModel> {
        self.fibs.iter().find(|f| f.participant == participant)
    }
}

/// A confirmed difference plus timing; [`run`] returns the diagnostics.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Confirmed differences (empty = the fabrics are packet-equivalent).
    pub diagnostics: Vec<Diagnostic>,
    /// Wall-clock of the whole differential pass, microseconds.
    pub duration_us: u64,
    /// Symbolic candidates that concrete replay refuted (observability:
    /// high numbers mean the symbolic pairing is too coarse).
    pub refuted_candidates: usize,
    /// Injections skipped because the symbolic transit saturated.
    pub undecided: usize,
}

/// The outcome label of one terminal: `None` = dropped, `Some(acc)` = the
/// accumulated rewrite of a forwarding exit. Equal labels cannot produce
/// different frames for the same packet (modulo the injected tag).
type Label = Option<sdx_policy::Action>;

/// A terminal of one side's transit, tag constraint projected away.
struct Terminal {
    region: Region,
    label: Label,
}

fn terminals(side: &DiffSide, port: u32, tag: u64) -> Option<Vec<Terminal>> {
    let result = hs::transit_pipeline(
        &side.tables,
        vec![Flow::new(hs::injection_region(port, tag))],
        Field::DstMac,
        TRANSIT_REGION_LIMIT,
    );
    if result.saturated {
        return None;
    }
    let mut out = Vec::new();
    for (o, _) in result.outputs {
        out.push(Terminal {
            region: o.flow.region.without_field(Field::DstMac),
            label: Some(o.flow.acc),
        });
    }
    for (_, d) in result.drops {
        out.push(Terminal {
            region: d.region.without_field(Field::DstMac),
            label: None,
        });
    }
    Some(out)
}

/// Normalize a concrete output frame for modulo-tag comparison: an output
/// whose destination MAC is still the injected tag (never rewritten) drops
/// the field, so the two sides' distinct tag allocations compare equal.
fn normalize(mut pkt: Packet, injected_tag: u64) -> Packet {
    if pkt.get(Field::DstMac) == Some(injected_tag) {
        pkt.unset(Field::DstMac);
    }
    pkt
}

fn confirm(
    old: &DiffSide,
    new: &DiffSide,
    witness: &Packet,
    old_tag: u64,
    new_tag: u64,
) -> Option<(String, String)> {
    let out_old = hs::outcome(&old.tables, &witness.clone().with(Field::DstMac, old_tag));
    let out_new = hs::outcome(&new.tables, &witness.clone().with(Field::DstMac, new_tag));
    // Identical frames are equal whatever the tags: a real router MAC used
    // as one side's tag comes out rewritten to itself, not as an echo.
    if out_old == out_new {
        return None;
    }
    let out_old: std::collections::BTreeSet<Packet> =
        out_old.into_iter().map(|p| normalize(p, old_tag)).collect();
    let out_new: std::collections::BTreeSet<Packet> =
        out_new.into_iter().map(|p| normalize(p, new_tag)).collect();
    if out_old == out_new {
        return None;
    }
    let render = |s: &std::collections::BTreeSet<Packet>| {
        if s.is_empty() {
            "dropped".to_string()
        } else {
            s.iter()
                .map(|p| p.to_string())
                .collect::<Vec<_>>()
                .join(" | ")
        }
    };
    Some((render(&out_old), render(&out_new)))
}

/// Per-sender differential check.
fn check_sender(
    old: &DiffSide,
    new: &DiffSide,
    sender: u32,
    ports: &[u32],
) -> (Vec<Diagnostic>, usize, usize) {
    let mut diags = Vec::new();
    let mut refuted = 0usize;
    let mut undecided = 0usize;

    let empty = FibModel::default();
    let fib_old = old.fib(sender).unwrap_or(&empty);
    let fib_new = new.fib(sender).unwrap_or(&empty);
    let tags = |fib: &FibModel| -> BTreeMap<Prefix, Option<u64>> {
        fib.entries.iter().map(|e| (e.prefix, e.mac)).collect()
    };
    let old_tags = tags(fib_old);
    let new_tags = tags(fib_new);

    // Batch prefixes by their (old tag, new tag) pair: every prefix in a
    // batch is tagged identically on each side, so one symbolic injection
    // per batch covers them all.
    let mut batches: BTreeMap<(u64, u64), Vec<Prefix>> = BTreeMap::new();
    let all_prefixes: std::collections::BTreeSet<&Prefix> =
        old_tags.keys().chain(new_tags.keys()).collect();
    for prefix in all_prefixes {
        let o = old_tags.get(prefix).copied().flatten();
        let n = new_tags.get(prefix).copied().flatten();
        match (o, n) {
            (Some(a), Some(b)) => batches.entry((a, b)).or_default().push(*prefix),
            (None, None) => {} // unroutable on both sides: no traffic.
            (one, other) => diags.push(Diagnostic {
                severity: Severity::Error,
                pass: PassKind::Differential,
                code: "verify-diff-route",
                message: format!(
                    "P{sender}: {prefix} is tagged {} in the running fabric but {} \
                     in the fresh compile — the router would emit traffic under \
                     one compilation only",
                    one.map(|t| format!("{t:#x}"))
                        .unwrap_or_else(|| "nothing".into()),
                    other
                        .map(|t| format!("{t:#x}"))
                        .unwrap_or_else(|| "nothing".into()),
                ),
                participant: Some(sender),
                clause: None,
                witness: Some(
                    Packet::new()
                        .with(Field::Port, ports.first().copied().unwrap_or(0))
                        .with(Field::DstIp, u32::from(prefix.addr())),
                ),
            }),
        }
    }

    for port in ports {
        for ((old_tag, new_tag), prefixes) in &batches {
            let (Some(t_old), Some(t_new)) = (
                terminals(old, *port, *old_tag),
                terminals(new, *port, *new_tag),
            ) else {
                undecided += 1;
                continue;
            };
            let mut confirmed = false;
            'pairs: for a in &t_old {
                for b in &t_new {
                    if a.label == b.label {
                        continue; // identical rewrite: equal modulo tag.
                    }
                    let Some(overlap) = a.region.intersect(&b.region) else {
                        continue;
                    };
                    // Restrict to destinations the batch actually tags.
                    for prefix in prefixes {
                        let m = Match::on(Field::DstIp, Pattern::Prefix(*prefix));
                        let Some(w) = overlap.intersect_match(&m).and_then(|r| r.witness()) else {
                            continue;
                        };
                        match confirm(old, new, &w, *old_tag, *new_tag) {
                            Some((was, now)) => {
                                diags.push(Diagnostic {
                                    severity: Severity::Error,
                                    pass: PassKind::Differential,
                                    code: "verify-diff",
                                    message: format!(
                                        "P{sender} port {port}, {prefix}: the running \
                                         fabric (tag {old_tag:#x}) and a fresh compile \
                                         (tag {new_tag:#x}) disagree — running: {was}; \
                                         fresh: {now}",
                                    ),
                                    participant: Some(sender),
                                    clause: None,
                                    witness: Some(w.with(Field::DstMac, *old_tag)),
                                });
                                confirmed = true;
                                break 'pairs; // one witness per batch.
                            }
                            None => refuted += 1,
                        }
                    }
                }
            }
            let _ = confirmed;
        }
    }
    (diags, refuted, undecided)
}

/// Check that `old` (the running fabric) and `new` (a fresh compile of the
/// same inputs) are packet-equivalent for every sender, fanning senders out
/// over `threads` workers. Deterministic diagnostics order.
pub fn run(
    old: &DiffSide,
    new: &DiffSide,
    participants: &[(u32, Vec<u32>)],
    threads: usize,
) -> DiffReport {
    let start = std::time::Instant::now();
    let mut report = DiffReport::default();
    let senders: Vec<(u32, Vec<u32>)> = participants
        .iter()
        .filter(|(_, ports)| !ports.is_empty())
        .cloned()
        .collect();
    let worker = |(sender, ports): (u32, Vec<u32>)| check_sender(old, new, sender, &ports);
    let results: Vec<(Vec<Diagnostic>, usize, usize)> = if threads <= 1 || senders.len() < 2 {
        senders.into_iter().map(worker).collect()
    } else {
        crossbeam::pool::parallel_map(threads, senders, worker)
    };
    for (diags, refuted, undecided) in results {
        report.diagnostics.extend(diags);
        report.refuted_candidates += refuted;
        report.undecided += undecided;
    }
    report.duration_us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
    report
}
