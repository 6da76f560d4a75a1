//! Pass 1: reachability / shadow analysis.
//!
//! A clause (or compiled rule) is *shadowed* when the union of earlier
//! entries covers its entire traffic region — first-match-wins semantics
//! then make it unreachable. Pairwise subsumption misses the multi-rule
//! case (`0.0.0.0/1` plus `128.0.0.0/1` together shadow everything below
//! them); [`sdx_policy::witness_outside`] decides the union case exactly.
//!
//! A BGP-filtered clause catches only its match restricted to its
//! effective set's destinations; the rest falls through to later clauses.
//! So that restriction is both what the clause covers and what must be
//! covered for it to be dead.
//!
//! Clause-level shadows are **errors**: a participant wrote policy that can
//! never take effect, which almost always means the clause order or the
//! matches are wrong. Rule-level shadows in the compiled stages are
//! **warnings**: the compiler's own output is allowed to carry redundancy
//! (the optimizer already removes the single-rule cases), but the finding
//! is still worth surfacing.

use sdx_policy::{shadowed_rules, witness_outside, Classifier, Field, Match, Pattern};

use crate::{AnalysisInput, ClauseInfo, Diagnostic, Direction, PassKind, Severity};

/// Run the pass.
pub fn run(input: &AnalysisInput, out: &mut Vec<Diagnostic>) {
    for p in &input.participants {
        check_clauses(p.id, Direction::Outbound, &p.outbound, out);
        check_clauses(p.id, Direction::Inbound, &p.inbound, out);
    }
    check_table("sender stage", &input.stage1, out);
    check_table("receiver stage", &input.stage2, out);
}

fn check_clauses(
    participant: u32,
    dir: Direction,
    clauses: &[ClauseInfo],
    out: &mut Vec<Diagnostic>,
) {
    let mut earlier: Vec<Match> = Vec::new();
    for (i, clause) in clauses.iter().enumerate() {
        // A clause that catches nothing (a False predicate, or an empty
        // effective set, which the conflict pass reports) is vacuous, not
        // shadowed.
        let caught = caught(clause);
        let covered = !caught.is_empty()
            && caught
                .iter()
                .all(|m| witness_outside(m, &earlier).is_none());
        if covered && !earlier.is_empty() {
            out.push(Diagnostic {
                severity: Severity::Error,
                pass: PassKind::Shadow,
                code: "shadowed-clause",
                message: format!(
                    "clause is unreachable: earlier {dir} clauses cover every packet it matches"
                ),
                participant: Some(participant),
                clause: Some((dir, i)),
                witness: None,
            });
        }
        earlier.extend(caught);
    }
}

/// The traffic a clause catches: its matches, restricted to its effective
/// set's destinations when it is BGP-filtered.
fn caught(clause: &ClauseInfo) -> Vec<Match> {
    let Some(effective) = &clause.effective else {
        return clause.matches.clone();
    };
    let to = |p: &sdx_ip::Prefix| Match::on(Field::DstIp, Pattern::Prefix(*p));
    clause
        .matches
        .iter()
        .flat_map(|m| effective.iter().filter_map(|p| m.intersect(&to(p))))
        .collect()
}

fn check_table(name: &str, table: &Classifier, out: &mut Vec<Diagnostic>) {
    for dead in shadowed_rules(table) {
        out.push(Diagnostic {
            severity: Severity::Warning,
            pass: PassKind::Shadow,
            code: "shadowed-rule",
            message: format!(
                "{name} rule {} is unreachable (covered by rules {:?})",
                dead.index, dead.shadowed_by
            ),
            participant: None,
            clause: None,
            witness: None,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClauseDest, ParticipantInfo};
    use sdx_ip::PrefixSet;

    fn clause(matches: Vec<Match>, dest: ClauseDest) -> ClauseInfo {
        ClauseInfo {
            matches,
            dest,
            rewrites: Vec::new(),
            unfiltered: false,
            effective: None,
        }
    }

    fn participant(id: u32, outbound: Vec<ClauseInfo>) -> ParticipantInfo {
        ParticipantInfo {
            id,
            vport: 1_000_000 + id,
            ports: vec![id],
            router_macs: vec![id as u64],
            outbound,
            inbound: Vec::new(),
        }
    }

    #[test]
    fn multi_clause_cover_is_an_error() {
        // Clause 2's dstport=80 region is covered by the union of the two
        // srcip halves — neither alone subsumes it.
        let half = |s: &str| {
            Match::on(Field::SrcIp, Pattern::Prefix(s.parse().unwrap()))
                .and(Field::DstPort, Pattern::Exact(80))
                .unwrap()
        };
        let input = AnalysisInput {
            participants: vec![participant(
                1,
                vec![
                    clause(vec![half("0.0.0.0/1")], ClauseDest::Participant(2)),
                    clause(vec![half("128.0.0.0/1")], ClauseDest::Participant(3)),
                    clause(
                        vec![Match::on(
                            Field::SrcIp,
                            Pattern::Prefix("0.0.0.0/0".parse().unwrap()),
                        )
                        .and(Field::DstPort, Pattern::Exact(80))
                        .unwrap()],
                        ClauseDest::Drop,
                    ),
                ],
            )],
            vport_base: 1_000_000,
            ..Default::default()
        };
        let mut out = Vec::new();
        run(&input, &mut out);
        let shadows: Vec<_> = out.iter().filter(|d| d.code == "shadowed-clause").collect();
        assert_eq!(shadows.len(), 1);
        assert_eq!(shadows[0].severity, Severity::Error);
        assert_eq!(shadows[0].participant, Some(1));
        assert_eq!(shadows[0].clause, Some((Direction::Outbound, 2)));
    }

    #[test]
    fn ordered_disjoint_clauses_are_clean() {
        let m = |port: u64| Match::on(Field::DstPort, Pattern::Exact(port));
        let input = AnalysisInput {
            participants: vec![participant(
                1,
                vec![
                    clause(vec![m(80)], ClauseDest::Participant(2)),
                    clause(vec![m(443)], ClauseDest::Participant(3)),
                ],
            )],
            vport_base: 1_000_000,
            ..Default::default()
        };
        let mut out = Vec::new();
        run(&input, &mut out);
        assert!(out.iter().all(|d| d.code != "shadowed-clause"), "{out:?}");
    }

    #[test]
    fn filtered_clause_covers_only_its_effective_set() {
        // scenarios/plan-leak.sdx: web traffic goes via B, which exports
        // only 20.0.0.0/8 to the author; the rest of it falls through to the
        // unfiltered clause towards D, which is therefore live.
        let web = Match::on(Field::DstPort, Pattern::Exact(80));
        let only = |s: &str| -> PrefixSet { std::iter::once(s.parse().unwrap()).collect() };
        let mut via_b = clause(vec![web.clone()], ClauseDest::Participant(2));
        via_b.effective = Some(only("20.0.0.0/8"));
        // A filtered clause towards C, which exports the same 20.0.0.0/8,
        // catches nothing B's clause does not (scenarios/lint-shadow.sdx).
        let mut via_c = clause(vec![web.clone()], ClauseDest::Participant(3));
        via_c.effective = Some(only("20.0.0.0/8"));
        let mut to_d = clause(vec![web], ClauseDest::Participant(4));
        to_d.unfiltered = true;
        let input = AnalysisInput {
            participants: vec![participant(1, vec![via_b, via_c, to_d])],
            vport_base: 1_000_000,
            ..Default::default()
        };
        let mut out = Vec::new();
        run(&input, &mut out);
        let dead: Vec<_> = out
            .iter()
            .filter(|d| d.code == "shadowed-clause")
            .map(|d| d.clause)
            .collect();
        assert_eq!(dead, vec![Some((Direction::Outbound, 1))], "{out:?}");
    }

    #[test]
    fn compiled_rule_shadow_is_a_warning() {
        use sdx_policy::Rule;
        let r = |s: &str| Rule::pass(Match::on(Field::SrcIp, Pattern::Prefix(s.parse().unwrap())));
        let stage1 = Classifier::new(vec![r("0.0.0.0/1"), r("128.0.0.0/1"), r("10.0.0.0/8")]);
        let input = AnalysisInput {
            stage1,
            vport_base: 1_000_000,
            ..Default::default()
        };
        let mut out = Vec::new();
        run(&input, &mut out);
        let dead: Vec<_> = out.iter().filter(|d| d.code == "shadowed-rule").collect();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].severity, Severity::Warning);
        assert!(dead[0].message.contains("rule 2"));
    }
}
