//! Properties of the update planner on randomized churn:
//!
//! 1. **Delta round-trip** — applying the rule-level delta step-by-step to
//!    a live [`FlowTable`] holding the old state yields a table whose
//!    content fingerprint equals a fresh wholesale install of the new
//!    state, for any step order consistent with the delta (the naive order
//!    and the synthesized schedule both).
//! 2. **Per-packet consistency of synthesized schedules** — replaying a
//!    synthesized schedule on live tables, no producible probe packet ever
//!    observes an outcome outside the union of the old and new behaviors
//!    at any intermediate state (pre-barrier), and sees exactly the new
//!    behavior once the routers have flipped (post-barrier).

use std::net::Ipv4Addr;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdx::core::hs::outcome;
use sdx::core::{
    AnalysisMode, Clause, CompileOptions, Participant, ParticipantId, ParticipantPolicy,
    PortConfig, SdxRuntime,
};
use sdx::switch::FlowTable;
use sdx_bgp::{AsPath, Asn, PathAttributes};
use sdx_ip::Prefix;
use sdx_plan::{diff, state_of_classifier, DeltaOp, PlanStep, TableState};
use sdx_policy::{match_, Classifier, Field, Packet, Rule};

const PREFIXES: [&str; 5] = [
    "10.0.0.0/8",
    "20.0.0.0/8",
    "30.0.0.0/8",
    "40.1.0.0/16",
    "50.2.0.0/16",
];
const PORTS: [u16; 3] = [80, 22, 443];
const COOKIE: u64 = 7;

fn port(n: u32) -> PortConfig {
    PortConfig {
        port: n,
        mac: format!("02:00:00:00:00:{n:02x}").parse().unwrap(),
        ip: Ipv4Addr::new(172, 0, 0, n as u8),
    }
}

fn attrs(id: ParticipantId) -> PathAttributes {
    PathAttributes::new(
        AsPath::sequence([65000 + id.0]),
        Ipv4Addr::new(172, 0, 0, id.0 as u8),
    )
}

/// A compiled random fabric: 2–4 participants, random announcements and
/// outbound clauses (filtered, unfiltered, and drop).
fn random_fabric(rng: &mut StdRng, options: CompileOptions) -> Option<SdxRuntime> {
    let n = rng.gen_range(2..=4u32);
    let mut sdx = SdxRuntime::new(options);
    let ids: Vec<ParticipantId> = (1..=n).map(ParticipantId).collect();
    for &id in &ids {
        sdx.add_participant(Participant::new(id, Asn(65000 + id.0), vec![port(id.0)]));
    }
    for &id in &ids {
        for p in PREFIXES {
            if rng.gen_bool(0.4) {
                sdx.announce(id, [p.parse::<Prefix>().unwrap()], attrs(id));
            }
        }
    }
    for &id in &ids {
        let mut policy = ParticipantPolicy::new();
        for _ in 0..rng.gen_range(0..=2) {
            let dp = PORTS[rng.gen_range(0..PORTS.len())];
            let to = ids[rng.gen_range(0..ids.len())];
            let clause = if rng.gen_bool(0.2) {
                Clause::drop(match_(Field::DstPort, dp))
            } else if rng.gen_bool(0.15) {
                Clause::fwd(match_(Field::DstPort, dp), to).unfiltered()
            } else {
                Clause::fwd(match_(Field::DstPort, dp), to)
            };
            policy = policy.outbound(clause);
        }
        sdx.set_policy(id, policy);
    }
    sdx.compile().ok()?;
    Some(sdx)
}

/// Random BGP churn: 1–3 announce/withdraw events.
fn churn(rng: &mut StdRng, sdx: &mut SdxRuntime, n_participants: u32) {
    for _ in 0..rng.gen_range(1..=3) {
        let id = ParticipantId(rng.gen_range(1..=n_participants));
        let p: Prefix = PREFIXES[rng.gen_range(0..PREFIXES.len())].parse().unwrap();
        if rng.gen_bool(0.5) {
            sdx.withdraw(id, [p]);
        } else {
            sdx.announce(id, [p], attrs(id));
        }
    }
}

/// Install the classifier wholesale into a fresh table (the reference).
fn fresh_table(c: &Classifier) -> FlowTable {
    let mut t = FlowTable::new();
    t.install_classifier(c, COOKIE);
    t
}

/// Apply one plan step to live tables.
fn apply_step(tables: &mut [FlowTable], step: &PlanStep) {
    let table = &mut tables[step.table];
    match step.op {
        DeltaOp::Install => table.install(step.rule.to_flow_rule(COOKIE)),
        DeltaOp::Remove => {
            table.remove_matching(&step.rule.to_flow_rule(COOKIE));
        }
    }
}

/// The live tables as classifiers, for outcome evaluation.
fn classifiers_of(tables: &[FlowTable]) -> Vec<Classifier> {
    tables
        .iter()
        .map(|t| {
            Classifier::new(
                t.rules()
                    .iter()
                    .map(|r| Rule {
                        match_: r.match_.clone(),
                        actions: r.actions.clone(),
                    })
                    .collect(),
            )
        })
        .collect()
}

/// Applying the delta to a live table reproduces the fresh install
/// fingerprint — in naive differ order and in synthesized-schedule order.
#[test]
fn delta_roundtrip_matches_fresh_install() {
    let mut rng = StdRng::seed_from_u64(0x9_1a2b);
    let mut fabrics = 0usize;
    let mut nonempty = 0usize;
    while fabrics < 48 {
        let Some(mut sdx) = random_fabric(
            &mut rng,
            CompileOptions {
                plan: AnalysisMode::Warn,
                ..Default::default()
            },
        ) else {
            continue;
        };
        fabrics += 1;
        let n = sdx.verify_input().expect("compiled").participants.len() as u32;
        let vi1 = sdx.verify_input().expect("compiled fabric");
        let old_states: Vec<TableState> = vi1
            .tables
            .iter()
            .map(|c| state_of_classifier(c, None))
            .collect();

        churn(&mut rng, &mut sdx, n);
        if sdx.compile().is_err() {
            continue;
        }
        let vi2 = sdx.verify_input().expect("recompiled fabric");
        if vi1.tables.len() != vi2.tables.len() {
            continue;
        }
        let new_states: Vec<TableState> = vi2
            .tables
            .iter()
            .map(|c| state_of_classifier(c, None))
            .collect();

        let steps = diff(&old_states, &new_states);
        if !steps.is_empty() {
            nonempty += 1;
        }

        let reference: Vec<FlowTable> = vi2.tables.iter().map(fresh_table).collect();
        // Naive differ order.
        let mut live: Vec<FlowTable> = vi1.tables.iter().map(fresh_table).collect();
        for step in &steps {
            apply_step(&mut live, step);
        }
        for (i, (l, r)) in live.iter().zip(&reference).enumerate() {
            assert_eq!(
                l.fingerprint(),
                r.fingerprint(),
                "fabric {fabrics} table {i}: naive-order delta diverged"
            );
        }
        // Synthesized-schedule order, when the runtime produced one.
        if let Some(schedule) = sdx.last_plan().and_then(|r| r.schedule.as_ref()) {
            let mut live: Vec<FlowTable> = vi1.tables.iter().map(fresh_table).collect();
            for step in &schedule.order {
                apply_step(&mut live, step);
            }
            // The runtime's own delta ran against its *installed* state
            // (overlays included), so only compare when the step sets agree.
            let mut a: Vec<String> = steps.iter().map(|s| s.to_string()).collect();
            let mut b: Vec<String> = schedule.order.iter().map(|s| s.to_string()).collect();
            a.sort();
            b.sort();
            if a == b {
                for (i, (l, r)) in live.iter().zip(&reference).enumerate() {
                    assert_eq!(
                        l.fingerprint(),
                        r.fingerprint(),
                        "fabric {fabrics} table {i}: scheduled delta diverged"
                    );
                }
            }
        }
    }
    assert!(nonempty >= 12, "only {nonempty} non-empty deltas sampled");
}

/// Probe packets for one FIB generation: every (sender port, tag, prefix)
/// with a spread of destination ports.
fn probes(vi: &sdx::core::VerifyInput, rng: &mut StdRng) -> Vec<(u32, Packet)> {
    let mut out = Vec::new();
    for fib in &vi.fibs {
        let ports: Vec<u32> = vi
            .participants
            .iter()
            .find(|(id, _)| *id == fib.participant)
            .map(|(_, p)| p.clone())
            .unwrap_or_default();
        for e in &fib.entries {
            let Some(mac) = e.mac else { continue };
            for &p in &ports {
                for &dp in &PORTS {
                    let off = rng.gen::<u32>() & (u32::MAX >> e.prefix.len());
                    let dst = Ipv4Addr::from(u32::from(e.prefix.addr()) | off);
                    out.push((
                        fib.participant,
                        Packet::new()
                            .with(Field::Port, p)
                            .with(Field::DstMac, mac)
                            .with(Field::DstIp, dst)
                            .with(Field::DstPort, dp),
                    ));
                }
            }
        }
    }
    out
}

/// Replaying the synthesized schedule, every intermediate lookup outcome of
/// a producible probe stays within the union of old and new behaviors.
#[test]
fn synthesized_plan_probes_stay_within_old_and_new() {
    let mut rng = StdRng::seed_from_u64(0x1a2_b01d);
    let mut checked_probes = 0usize;
    let mut fabrics = 0usize;
    while checked_probes < 1000 && fabrics < 64 {
        let Some(mut sdx) = random_fabric(
            &mut rng,
            CompileOptions {
                plan: AnalysisMode::Warn,
                ..Default::default()
            },
        ) else {
            continue;
        };
        let n = sdx.verify_input().expect("compiled").participants.len() as u32;

        // Mirror the runtime's capture points: old = the live pre-recompile
        // view (post-churn overlays included), new = the recompiled state.
        churn(&mut rng, &mut sdx, n);
        let vi_old = sdx.verify_input().expect("live view");
        if sdx.compile().is_err() {
            continue;
        }
        let Some(report) = sdx.last_plan() else {
            continue;
        };
        let Some(schedule) = report.schedule.clone() else {
            continue;
        };
        let vi_new = sdx.verify_input().expect("recompiled view");
        if vi_old.tables.len() != vi_new.tables.len() {
            continue;
        }
        fabrics += 1;

        let old_probes = probes(&vi_old, &mut rng);
        let new_probes = probes(&vi_new, &mut rng);
        // Keep the replay honest: start from the runtime's own delta base.
        let mut live: Vec<FlowTable> = vi_old.tables.iter().map(fresh_table).collect();
        // The runtime's schedule was computed against its installed tables;
        // replay only when the schedule's removals all resolve here.
        let ok = schedule
            .order
            .iter()
            .filter(|s| s.op == DeltaOp::Remove)
            .all(|s| {
                live.get(s.table)
                    .map(|t| {
                        let flow = s.rule.to_flow_rule(COOKIE);
                        t.rules().iter().any(|r| {
                            r.priority == flow.priority
                                && r.match_ == flow.match_
                                && r.actions == flow.actions
                        })
                    })
                    .unwrap_or(false)
            });
        if !ok {
            continue;
        }

        for (i, step) in schedule.order.iter().enumerate() {
            apply_step(&mut live, step);
            let mid_tables = classifiers_of(&live);
            if i < schedule.barrier {
                // Pre-barrier: routers still emit the old generation.
                for (sender, pkt) in &old_probes {
                    let mid = outcome(&mid_tables, pkt);
                    let old = outcome(&vi_old.tables, pkt);
                    let new = outcome(&vi_new.tables, pkt);
                    let new_produces = vi_new.fibs.iter().any(|f| {
                        f.participant == *sender
                            && f.entries.iter().any(|e| {
                                e.mac == pkt.get(Field::DstMac)
                                    && pkt
                                        .dst_ip()
                                        .map(|ip| e.prefix.contains_addr(ip))
                                        .unwrap_or(false)
                            })
                    });
                    assert!(
                        mid == old || (new_produces && mid == new),
                        "fabric {fabrics} step {i} ({step}): probe {pkt} from P{sender} \
                         saw {mid:?}, outside old {old:?} / new {new:?}"
                    );
                    checked_probes += 1;
                }
            } else {
                // Post-barrier: the new generation must see exactly the new
                // behavior.
                for (_, pkt) in &new_probes {
                    let mid = outcome(&mid_tables, pkt);
                    let new = outcome(&vi_new.tables, pkt);
                    assert_eq!(
                        mid, new,
                        "fabric {fabrics} step {i} ({step}): post-barrier probe {pkt} \
                         diverged from the new behavior"
                    );
                    checked_probes += 1;
                }
            }
        }
    }
    assert!(
        checked_probes >= 1000,
        "checked only {checked_probes} probes across {fabrics} fabrics"
    );
}
