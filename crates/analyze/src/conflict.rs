//! Pass 2: cross-participant conflict and blackhole detection.
//!
//! Each participant's policy is internally consistent at best — the defects
//! this pass hunts live *between* policies:
//!
//! * **`peer-no-route`** — an outbound clause forwards to a participant
//!   that exports no matching prefix to the author. The BGP-consistency
//!   filter (§4.3) compiles the clause away entirely, so the author's
//!   intent is silently unrealizable — the paper's BGP-safety invariant
//!   turned into a diagnostic.
//! * **`unknown-peer`** — an outbound clause forwards to a participant id
//!   nobody registered; the compiled rules tag traffic for a virtual port
//!   with no receiver block behind it.
//! * **`conflicting-drop`** — A forwards a traffic class to B, and B's
//!   inbound policy drops (part of) that class. The witness packet matches
//!   A's clause, survives B's earlier inbound clauses, and dies in the
//!   drop.
//! * **`remote-blackhole`** — A forwards to a *remote* participant (no
//!   physical ports) whose inbound clauses don't cover the traffic; the
//!   receiver stage's fallback for remote virtual ports is drop.
//!
//! A's rewrites are applied to its traffic region before matching it
//! against B's inbound clauses, so `mod(dstip=...) >> fwd(B)` pipelines are
//! analyzed in B's view of the packets.

use sdx_policy::{witness_outside, Field, Match, Pattern};

use crate::{
    AnalysisInput, ClauseDest, ClauseInfo, Diagnostic, Direction, ParticipantInfo, PassKind,
    Severity,
};

/// Run the pass.
pub fn run(input: &AnalysisInput, out: &mut Vec<Diagnostic>) {
    for p in &input.participants {
        for (ci, clause) in p.outbound.iter().enumerate() {
            let ClauseDest::Participant(to) = clause.dest else {
                continue;
            };
            check_outbound(input, p, ci, clause, to, out);
        }
    }
}

fn check_outbound(
    input: &AnalysisInput,
    author: &ParticipantInfo,
    ci: usize,
    clause: &ClauseInfo,
    to: u32,
    out: &mut Vec<Diagnostic>,
) {
    let here = Some((Direction::Outbound, ci));
    let witness0 = clause.matches.first().and_then(|m| m.witness());

    let Some(target) = input.participant(to) else {
        out.push(Diagnostic {
            severity: Severity::Error,
            pass: PassKind::Conflict,
            code: "unknown-peer",
            message: format!("clause forwards to unregistered participant P{to}"),
            participant: Some(author.id),
            clause: here,
            witness: witness0,
        });
        return;
    };

    if clause.effective.as_ref().is_some_and(|set| set.is_empty()) {
        out.push(Diagnostic {
            severity: Severity::Error,
            pass: PassKind::Conflict,
            code: "peer-no-route",
            message: format!(
                "clause forwards to P{to}, but P{to} exports no matching prefix to P{}; \
                 the BGP-consistency filter compiles the clause away",
                author.id
            ),
            participant: Some(author.id),
            clause: here,
            witness: witness0,
        });
        // Without routes no traffic reaches the target; the receiver-side
        // checks below would only repeat the same root cause.
        return;
    }

    // B sees A's packets after A's rewrites.
    let sent: Vec<Match> = clause
        .matches
        .iter()
        .map(|m| apply_rewrites(m, &clause.rewrites))
        .collect();

    // Walk B's inbound chain in first-match order: traffic from A that
    // reaches a drop clause (surviving everything earlier) is a conflict.
    let mut earlier: Vec<Match> = Vec::new();
    for (k, inbound) in target.inbound.iter().enumerate() {
        if inbound.dest == ClauseDest::Drop {
            if let Some(w) = reaching_witness(&sent, &inbound.matches, &earlier) {
                out.push(Diagnostic {
                    severity: Severity::Error,
                    pass: PassKind::Conflict,
                    code: "conflicting-drop",
                    message: format!(
                        "traffic forwarded to P{to} is dropped by P{to}'s inbound clause {k}"
                    ),
                    participant: Some(author.id),
                    clause: here,
                    witness: Some(w),
                });
            }
        }
        earlier.extend(inbound.matches.iter().cloned());
    }

    // A remote participant has no default delivery: traffic its inbound
    // clauses miss hits the receiver stage's drop fallback.
    if !target.is_physical() {
        let caught: Vec<Match> = target
            .inbound
            .iter()
            .flat_map(|c| c.matches.iter().cloned())
            .collect();
        if let Some(w) = sent.iter().find_map(|m| witness_outside(m, &caught)) {
            out.push(Diagnostic {
                severity: Severity::Error,
                pass: PassKind::Conflict,
                code: "remote-blackhole",
                message: format!(
                    "remote participant P{to} has no inbound clause for (all of) this traffic; \
                     the receiver stage drops it"
                ),
                participant: Some(author.id),
                clause: here,
                witness: Some(w),
            });
        }
    }
}

/// A packet in some `sent` region that reaches one of `drop_matches` while
/// escaping every match in `earlier`.
fn reaching_witness(sent: &[Match], drop_matches: &[Match], earlier: &[Match]) -> Option<Packet> {
    for m in sent {
        for d in drop_matches {
            let Some(both) = m.intersect(d) else {
                continue;
            };
            if let Some(w) = witness_outside(&both, earlier) {
                return Some(w);
            }
        }
    }
    None
}

use sdx_policy::Packet;

/// The image of a match region under a clause's field rewrites: rewritten
/// fields are pinned to their written value, other constraints are kept.
fn apply_rewrites(m: &Match, rewrites: &[(Field, u64)]) -> Match {
    if rewrites.is_empty() {
        return m.clone();
    }
    // Later rewrites of the same field overwrite earlier ones.
    let last: std::collections::BTreeMap<Field, u64> = rewrites.iter().copied().collect();
    let mut result = Match::any();
    for (f, p) in m.iter() {
        if last.contains_key(f) {
            continue;
        }
        result = result.and(*f, *p).expect("fields are distinct");
    }
    for (f, v) in &last {
        result = result
            .and(*f, Pattern::Exact(*v))
            .expect("rewritten fields removed above");
    }
    result
}

trait MatchWitness {
    fn witness(&self) -> Option<Packet>;
}

impl MatchWitness for Match {
    fn witness(&self) -> Option<Packet> {
        witness_outside(self, &[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClauseInfo;

    fn m_port(port: u64) -> Match {
        Match::on(Field::DstPort, Pattern::Exact(port))
    }

    fn fwd(matches: Vec<Match>, to: u32) -> ClauseInfo {
        ClauseInfo {
            matches,
            dest: ClauseDest::Participant(to),
            rewrites: Vec::new(),
            unfiltered: false,
            effective: Some(std::iter::once("0.0.0.0/0".parse().unwrap()).collect()),
        }
    }

    fn drop_clause(matches: Vec<Match>) -> ClauseInfo {
        ClauseInfo {
            matches,
            dest: ClauseDest::Drop,
            rewrites: Vec::new(),
            unfiltered: false,
            effective: None,
        }
    }

    fn participant(id: u32, ports: Vec<u32>) -> ParticipantInfo {
        ParticipantInfo {
            id,
            vport: 1_000_000 + id,
            router_macs: ports.iter().map(|p| *p as u64).collect(),
            ports,
            outbound: Vec::new(),
            inbound: Vec::new(),
        }
    }

    fn analyze_two(a: ParticipantInfo, b: ParticipantInfo) -> Vec<Diagnostic> {
        let input = AnalysisInput {
            participants: vec![a, b],
            vport_base: 1_000_000,
            ..Default::default()
        };
        let mut out = Vec::new();
        run(&input, &mut out);
        out
    }

    #[test]
    fn forward_into_inbound_drop_is_flagged() {
        let mut a = participant(1, vec![1]);
        a.outbound.push(fwd(vec![m_port(80)], 2));
        let mut b = participant(2, vec![2]);
        b.inbound.push(drop_clause(vec![m_port(80)]));
        let out = analyze_two(a, b);
        let hits: Vec<_> = out
            .iter()
            .filter(|d| d.code == "conflicting-drop")
            .collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].severity, Severity::Error);
        // The witness is replayable: it matches both sides of the conflict.
        let w = hits[0].witness.as_ref().unwrap();
        assert!(m_port(80).matches(w));
    }

    #[test]
    fn earlier_inbound_clause_rescues_the_traffic() {
        // B accepts port-80 traffic at clause 0; the later catch-all drop
        // never sees it, so there is no conflict.
        let mut a = participant(1, vec![1]);
        a.outbound.push(fwd(vec![m_port(80)], 2));
        let mut b = participant(2, vec![2]);
        b.inbound.push(ClauseInfo {
            matches: vec![m_port(80)],
            dest: ClauseDest::OwnPort(2),
            rewrites: Vec::new(),
            unfiltered: false,
            effective: None,
        });
        b.inbound.push(drop_clause(vec![Match::any()]));
        let out = analyze_two(a, b);
        assert!(out.iter().all(|d| d.code != "conflicting-drop"), "{out:?}");
    }

    #[test]
    fn rewrites_are_applied_before_matching() {
        // A rewrites dstport 80→8080 before forwarding; B only drops 80,
        // which the rewritten traffic no longer matches.
        let mut a = participant(1, vec![1]);
        let mut c = fwd(vec![m_port(80)], 2);
        c.rewrites.push((Field::DstPort, 8080));
        a.outbound.push(c);
        let mut b = participant(2, vec![2]);
        b.inbound.push(drop_clause(vec![m_port(80)]));
        let out = analyze_two(a, b);
        assert!(out.iter().all(|d| d.code != "conflicting-drop"), "{out:?}");

        // ...and the other way around: rewriting *into* the dropped class.
        let mut a2 = participant(1, vec![1]);
        let mut c2 = fwd(vec![m_port(8080)], 2);
        c2.rewrites.push((Field::DstPort, 80));
        a2.outbound.push(c2);
        let mut b2 = participant(2, vec![2]);
        b2.inbound.push(drop_clause(vec![m_port(80)]));
        let out2 = analyze_two(a2, b2);
        assert_eq!(
            out2.iter().filter(|d| d.code == "conflicting-drop").count(),
            1
        );
    }

    #[test]
    fn peer_without_matching_route_is_flagged() {
        let mut a = participant(1, vec![1]);
        let mut c = fwd(vec![m_port(80)], 2);
        c.effective = Some(Default::default());
        a.outbound.push(c);
        let b = participant(2, vec![2]);
        let out = analyze_two(a, b);
        let hits: Vec<_> = out.iter().filter(|d| d.code == "peer-no-route").collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].severity, Severity::Error);
    }

    #[test]
    fn remote_target_without_covering_inbound_is_a_blackhole() {
        let mut a = participant(1, vec![1]);
        let mut c = fwd(vec![m_port(80)], 2);
        c.unfiltered = true;
        c.effective = None;
        a.outbound.push(c);
        // Remote participant: no ports; inbound only catches port 443.
        let mut b = participant(2, Vec::new());
        b.inbound.push(ClauseInfo {
            matches: vec![m_port(443)],
            dest: ClauseDest::BgpDefault,
            rewrites: Vec::new(),
            unfiltered: false,
            effective: None,
        });
        let out = analyze_two(a, b);
        assert_eq!(
            out.iter().filter(|d| d.code == "remote-blackhole").count(),
            1
        );
    }

    #[test]
    fn unknown_peer_is_flagged() {
        let mut a = participant(1, vec![1]);
        a.outbound.push(fwd(vec![m_port(80)], 99));
        let input = AnalysisInput {
            participants: vec![a],
            vport_base: 1_000_000,
            ..Default::default()
        };
        let mut out = Vec::new();
        run(&input, &mut out);
        assert_eq!(out.iter().filter(|d| d.code == "unknown-peer").count(), 1);
    }
}
