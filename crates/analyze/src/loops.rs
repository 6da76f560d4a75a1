//! Pass 3: forwarding-loop detection.
//!
//! Two complementary checks:
//!
//! * **`forwarding-loop`** — cycles in the virtual-switch forwarding graph.
//!   The nodes are participants; there is an edge X → Y when one of X's
//!   inbound clauses redirects (a nonempty class of) traffic to Y's virtual
//!   switch. Under the paper's virtual-switch semantics each hop applies
//!   the receiver's inbound policy again, so a cycle means packets that
//!   ping-pong between virtual switches forever. (The compiler resolves
//!   only a single redirect hop when it collapses the pipeline, so a cycle
//!   also marks a spot where compiled behavior silently diverges from the
//!   virtual semantics — either way the policy is defective.)
//! * **`vport-egress`** — abstract interpretation of the composed fabric
//!   table: every reachable rule's egress must be a physical port. A rule
//!   that leaves a packet on a *virtual* port sends it back into the fabric
//!   with no receiver block behind it — a one-rule forwarding loop. Skipped
//!   in multi-table mode, where the sender stage legitimately forwards to
//!   virtual ports for table 1 to resolve.

use std::collections::BTreeSet;

use sdx_policy::{witness_outside, Field};

use crate::{AnalysisInput, ClauseDest, Diagnostic, Direction, PassKind, Severity};

/// Run the pass.
pub fn run(input: &AnalysisInput, out: &mut Vec<Diagnostic>) {
    find_cycles(input, out);
    if !input.multi_table {
        check_fabric_egress(input, out);
    }
}

/// DFS over the inbound redirect graph, reporting each cycle once (anchored
/// at its smallest participant id).
fn find_cycles(input: &AnalysisInput, out: &mut Vec<Diagnostic>) {
    // edges[i] = (neighbor participant id, clause index backing the edge)
    let ids: Vec<u32> = input.participants.iter().map(|p| p.id).collect();
    let edges: Vec<Vec<(u32, usize)>> = input
        .participants
        .iter()
        .map(|p| {
            p.inbound
                .iter()
                .enumerate()
                .filter_map(|(k, c)| match c.dest {
                    ClauseDest::Participant(to)
                        if to != p.id
                            && !c.matches.is_empty()
                            && input.participant(to).is_some() =>
                    {
                        Some((to, k))
                    }
                    _ => None,
                })
                .collect()
        })
        .collect();
    let index_of = |id: u32| ids.iter().position(|i| *i == id);

    let mut reported: BTreeSet<Vec<u32>> = BTreeSet::new();
    // colors: 0 = white, 1 = on stack, 2 = done
    let mut color = vec![0u8; ids.len()];
    let mut stack: Vec<(usize, usize)> = Vec::new(); // (node, clause edge used to enter)

    for start in 0..ids.len() {
        if color[start] != 0 {
            continue;
        }
        dfs(
            start,
            &edges,
            &ids,
            &index_of,
            &mut color,
            &mut stack,
            &mut reported,
            input,
            out,
        );
    }
}

#[allow(clippy::too_many_arguments)]
fn dfs(
    node: usize,
    edges: &[Vec<(u32, usize)>],
    ids: &[u32],
    index_of: &dyn Fn(u32) -> Option<usize>,
    color: &mut [u8],
    stack: &mut Vec<(usize, usize)>,
    reported: &mut BTreeSet<Vec<u32>>,
    input: &AnalysisInput,
    out: &mut Vec<Diagnostic>,
) {
    color[node] = 1;
    for &(to, clause) in &edges[node] {
        let Some(next) = index_of(to) else { continue };
        if color[next] == 1 {
            // Back edge: the cycle is the stack suffix from `next` plus this
            // edge. Canonicalize (rotate to smallest id) to dedup.
            let mut cycle: Vec<u32> = stack
                .iter()
                .map(|&(n, _)| ids[n])
                .chain([ids[node]])
                .collect();
            if let Some(pos) = cycle.iter().position(|&id| id == ids[next]) {
                cycle.drain(..pos);
            }
            let canon = canonical_rotation(&cycle);
            if reported.insert(canon.clone()) {
                let path: Vec<String> = canon.iter().map(|id| format!("P{id}")).collect();
                let witness = input
                    .participant(ids[node])
                    .and_then(|p| p.inbound.get(clause))
                    .and_then(|c| c.matches.first())
                    .and_then(|m| witness_outside(m, &[]));
                out.push(Diagnostic {
                    severity: Severity::Error,
                    pass: PassKind::Loop,
                    code: "forwarding-loop",
                    message: format!(
                        "inbound redirects form a forwarding loop: {} -> {}",
                        path.join(" -> "),
                        path[0]
                    ),
                    participant: Some(ids[node]),
                    clause: Some((Direction::Inbound, clause)),
                    witness,
                });
            }
            continue;
        }
        if color[next] == 0 {
            stack.push((node, clause));
            dfs(
                next, edges, ids, index_of, color, stack, reported, input, out,
            );
            stack.pop();
        }
    }
    color[node] = 2;
}

fn canonical_rotation(cycle: &[u32]) -> Vec<u32> {
    let min_pos = cycle
        .iter()
        .enumerate()
        .min_by_key(|(_, id)| **id)
        .map(|(i, _)| i)
        .unwrap_or(0);
    cycle
        .iter()
        .cycle()
        .skip(min_pos)
        .take(cycle.len())
        .copied()
        .collect()
}

/// Every non-drop fabric rule must egress on a physical port.
fn check_fabric_egress(input: &AnalysisInput, out: &mut Vec<Diagnostic>) {
    for (i, rule) in input.fabric.rules().iter().enumerate() {
        for action in &rule.actions {
            let Some(port) = action.get(Field::Port) else {
                continue;
            };
            if input.is_vport(port) {
                out.push(Diagnostic {
                    severity: Severity::Error,
                    pass: PassKind::Loop,
                    code: "vport-egress",
                    message: format!(
                        "fabric rule {i} egresses on virtual port {port}: the packet re-enters \
                         the fabric with no receiver block to resolve it"
                    ),
                    participant: None,
                    clause: None,
                    witness: witness_outside(&rule.match_, &[]),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClauseInfo, ParticipantInfo};
    use sdx_policy::{Action, Classifier, Match, Pattern, Rule};

    fn redirect(to: u32) -> ClauseInfo {
        ClauseInfo {
            matches: vec![Match::on(Field::DstPort, Pattern::Exact(80))],
            dest: ClauseDest::Participant(to),
            rewrites: Vec::new(),
            unfiltered: false,
            effective: None,
        }
    }

    fn participant(id: u32, inbound: Vec<ClauseInfo>) -> ParticipantInfo {
        ParticipantInfo {
            id,
            vport: 1_000_000 + id,
            ports: vec![id],
            router_macs: vec![id as u64],
            outbound: Vec::new(),
            inbound,
        }
    }

    fn run_on(participants: Vec<ParticipantInfo>) -> Vec<Diagnostic> {
        let input = AnalysisInput {
            participants,
            vport_base: 1_000_000,
            ..Default::default()
        };
        let mut out = Vec::new();
        run(&input, &mut out);
        out
    }

    #[test]
    fn two_party_loop_is_detected_once() {
        let out = run_on(vec![
            participant(1, vec![redirect(2)]),
            participant(2, vec![redirect(1)]),
        ]);
        let loops: Vec<_> = out.iter().filter(|d| d.code == "forwarding-loop").collect();
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].severity, Severity::Error);
        assert!(loops[0].message.contains("P1 -> P2 -> P1"));
        assert!(loops[0].witness.is_some());
    }

    #[test]
    fn three_party_loop_is_detected() {
        let out = run_on(vec![
            participant(1, vec![redirect(2)]),
            participant(2, vec![redirect(3)]),
            participant(3, vec![redirect(1)]),
        ]);
        assert_eq!(
            out.iter().filter(|d| d.code == "forwarding-loop").count(),
            1
        );
    }

    #[test]
    fn chain_without_cycle_is_clean() {
        let out = run_on(vec![
            participant(1, vec![redirect(2)]),
            participant(2, vec![redirect(3)]),
            participant(3, Vec::new()),
        ]);
        assert!(out.iter().all(|d| d.code != "forwarding-loop"), "{out:?}");
    }

    #[test]
    fn vport_egress_in_composed_fabric_is_flagged() {
        let fabric = Classifier::new(vec![Rule {
            match_: Match::on(Field::DstPort, Pattern::Exact(80)),
            actions: vec![Action::set(Field::Port, 1_000_042u32)],
        }]);
        let input = AnalysisInput {
            participants: vec![participant(1, Vec::new())],
            fabric,
            vport_base: 1_000_000,
            multi_table: false,
            ..Default::default()
        };
        let mut out = Vec::new();
        run(&input, &mut out);
        let hits: Vec<_> = out.iter().filter(|d| d.code == "vport-egress").collect();
        assert_eq!(hits.len(), 1);
        assert!(hits[0].witness.is_some());
    }

    #[test]
    fn vport_egress_is_expected_in_multi_table_mode() {
        let fabric = Classifier::new(vec![Rule {
            match_: Match::on(Field::DstPort, Pattern::Exact(80)),
            actions: vec![Action::set(Field::Port, 1_000_042u32)],
        }]);
        let input = AnalysisInput {
            participants: vec![participant(1, Vec::new())],
            fabric,
            vport_base: 1_000_000,
            multi_table: true,
            ..Default::default()
        };
        let mut out = Vec::new();
        run(&input, &mut out);
        assert!(out.iter().all(|d| d.code != "vport-egress"), "{out:?}");
    }
}
