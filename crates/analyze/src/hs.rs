//! Header-space transit: push symbolic packet sets through compiled
//! classifier pipelines, tracking field rewrites across stage boundaries.
//!
//! A [`Flow`] pairs a [`Region`] — constraints on the *original* injected
//! headers — with an accumulated [`Action`] of every rewrite applied so far.
//! When a rule constrains a field the accumulator has already assigned, the
//! constraint resolves statically (the current value is known exactly); only
//! constraints on untouched fields remain symbolic and intersect or split
//! the region. This is the standard header-space-analysis trick specialised
//! to the SDX pipeline, where the interesting rewrites are the VNH tag
//! (destination MAC) and the fabric port.
//!
//! Every split keeps the invariant that the live regions of one injection
//! partition it: a concrete packet inside the injected region lands in
//! exactly one terminal ([`TransitResult::outputs`] entries sharing a region
//! come from one multi-action rule and denote multicast copies).

use std::collections::BTreeSet;

use sdx_policy::{Action, Classifier, Field, Match, Packet, Pattern, Region, Rule};

/// Per-injection cap on tracked regions; past it the transit gives up and
/// marks itself [`TransitResult::saturated`] (callers must treat saturation
/// as *undecided*, never as a violation).
pub const TRANSIT_REGION_LIMIT: usize = 4_096;

/// A symbolic packet set in flight: original-header constraints plus the
/// rewrites accumulated on the way here.
#[derive(Debug, Clone)]
pub struct Flow {
    /// Constraints on the injected (pre-fabric) headers.
    pub region: Region,
    /// Field assignments applied so far; [`Action::apply`] of this to any
    /// packet in `region` yields the current in-flight headers.
    pub acc: Action,
}

impl Flow {
    /// An untouched flow covering `region`.
    pub fn new(region: Region) -> Self {
        Flow {
            region,
            acc: Action::identity(),
        }
    }

    /// The current (post-rewrite) value of a field, when it is known: an
    /// accumulator assignment wins, else an exactly-pinned original header.
    pub fn current_value(&self, field: Field) -> Option<u64> {
        if let Some(v) = self.acc.get(field) {
            return Some(v);
        }
        match self.region.pos_pattern(field) {
            Some(Pattern::Exact(v)) => Some(*v),
            _ => None,
        }
    }
}

/// A flow that matched a forwarding rule and left the table.
#[derive(Debug, Clone)]
pub struct FlowOut {
    /// The surviving flow, accumulator updated with the rule's action.
    pub flow: Flow,
    /// Index of the matched rule in the table it exited.
    pub rule: usize,
}

/// A flow that matched a drop rule.
#[derive(Debug, Clone)]
pub struct FlowDrop {
    /// The dropped packet set (original headers).
    pub region: Region,
    /// Rewrites accumulated before the drop.
    pub acc: Action,
    /// Index of the drop rule.
    pub rule: usize,
    /// Was it the table's final wildcard catch-all (completeness padding)
    /// rather than an explicit policy drop?
    pub catch_all: bool,
}

/// Everything that came out of one table (or pipeline) transit.
#[derive(Debug, Clone, Default)]
pub struct TransitResult {
    /// Flows that matched a forwarding rule, one entry per action (a
    /// multi-action rule emits one copy per action).
    pub outputs: Vec<FlowOut>,
    /// Flows that matched a drop rule.
    pub drops: Vec<FlowDrop>,
    /// The region cap was hit: results are incomplete and must not be used
    /// to report violations.
    pub saturated: bool,
}

/// The residual symbolic match of `m` for a flow with accumulator `acc`:
/// constraints on assigned fields resolve statically — `None` means one of
/// them failed (the rule can never match this flow), otherwise the returned
/// match holds only the constraints on untouched fields.
fn residual_match(m: &Match, acc: &Action) -> Option<Match> {
    let mut residual = Match::any();
    for (f, p) in m.iter() {
        match acc.get(*f) {
            Some(v) => {
                if !p.matches(v) {
                    return None;
                }
            }
            None => {
                residual = residual.and(*f, *p).expect("fresh field");
            }
        }
    }
    Some(residual)
}

/// Is rule `index` of a table with `total` rules the completeness catch-all?
fn is_catch_all(rule: &Rule, index: usize, total: usize) -> bool {
    index + 1 == total && rule.match_.is_any() && rule.is_drop()
}

/// Push `flows` through the listed `(index, rule)` candidates of a table
/// holding `total` rules. Callers may pre-filter the rule list to the
/// candidates that can possibly interact with the injection (see
/// [`pinned_candidates`]); indices are preserved so drop provenance and
/// catch-all detection stay correct.
pub fn transit_rules(
    candidates: &[(usize, &Rule)],
    total: usize,
    flows: Vec<Flow>,
    limit: usize,
) -> TransitResult {
    let mut result = TransitResult::default();
    let mut live = flows;
    for &(index, rule) in candidates {
        if live.is_empty() {
            break;
        }
        let mut next = Vec::new();
        for flow in live {
            let Some(residual) = residual_match(&rule.match_, &flow.acc) else {
                next.push(flow); // statically excluded: rule untouched.
                continue;
            };
            let hit = if residual.is_any() {
                Some(flow.region.clone())
            } else {
                flow.region.intersect_match(&residual)
            };
            let Some(hit) = hit else {
                next.push(flow); // symbolically disjoint.
                continue;
            };
            // The captured part terminates at this rule (first match wins).
            if rule.is_drop() {
                result.drops.push(FlowDrop {
                    region: hit,
                    acc: flow.acc.clone(),
                    rule: index,
                    catch_all: is_catch_all(rule, index, total),
                });
            } else {
                for action in &rule.actions {
                    result.outputs.push(FlowOut {
                        flow: Flow {
                            region: hit.clone(),
                            acc: flow.acc.then(action),
                        },
                        rule: index,
                    });
                }
            }
            // The rest continues to later rules.
            if !residual.is_any() {
                next.extend(
                    flow.region
                        .subtract(&residual)
                        .into_iter()
                        .map(|region| Flow {
                            region,
                            acc: flow.acc.clone(),
                        }),
                );
            }
            if next.len() > limit {
                result.saturated = true;
                return result;
            }
        }
        live = next;
    }
    // A complete classifier always terminates every flow; leftovers can only
    // come from a pre-filtered candidate list that was too narrow, which
    // would be a bug in the caller. Treat them as saturation to stay safe.
    if !live.is_empty() {
        result.saturated = true;
    }
    result
}

/// All `(index, rule)` pairs of `table`. Convenience for unfiltered transit.
pub fn all_candidates(table: &Classifier) -> Vec<(usize, &Rule)> {
    table.rules().iter().enumerate().collect()
}

/// The candidate rules of `table` for an injection whose `field` is pinned
/// to `value`: rules whose constraint on `field` excludes the value cannot
/// match *or* carve the injected region, so they are skipped wholesale. This
/// is what keeps whole-fabric transit tractable — VNH-tagged injections
/// interact with a handful of rules, not the whole table.
pub fn pinned_candidates(table: &Classifier, field: Field, value: u64) -> Vec<(usize, &Rule)> {
    table
        .rules()
        .iter()
        .enumerate()
        .filter(|(_, r)| {
            r.match_
                .get(field)
                .map(|p| p.matches(value))
                .unwrap_or(true)
        })
        .collect()
}

/// Push `flows` through a multi-table pipeline (tables applied in order,
/// every forwarding output of table *i* entering table *i+1*). Drops carry
/// `(table, FlowDrop)` provenance. Rule-candidate pre-filtering uses each
/// flow's *current* value of `pin` when it is known.
pub fn transit_pipeline(
    tables: &[Classifier],
    flows: Vec<Flow>,
    pin: Field,
    limit: usize,
) -> PipelineResult {
    let mut result = PipelineResult::default();
    let mut live = flows;
    for (ti, table) in tables.iter().enumerate() {
        if live.is_empty() {
            break;
        }
        let mut next = Vec::new();
        for flow in live {
            let candidates = match flow.current_value(pin) {
                Some(v) => pinned_candidates(table, pin, v),
                None => all_candidates(table),
            };
            let t = transit_rules(&candidates, table.len(), vec![flow], limit);
            result.saturated |= t.saturated;
            result.drops.extend(t.drops.into_iter().map(|d| (ti, d)));
            next.extend(t.outputs.into_iter().map(|o| (o, ti)));
        }
        if ti + 1 == tables.len() {
            result.outputs = next;
            live = Vec::new();
        } else {
            live = next.into_iter().map(|(o, _)| o.flow).collect();
        }
        if result.saturated {
            break;
        }
    }
    result
}

/// The header space a sender's border router injects from fabric `port`
/// under the VMAC `tag`: every packet entering on `port` whose destination
/// MAC is `tag`. Every gate pushes exactly this region through the
/// pipeline, once per emission key.
pub fn injection_region(port: u32, tag: u64) -> Region {
    // `Match::and` fails only when the field it adds is already constrained
    // by a disjoint pattern. `Match::on` constrains `Port` alone, so adding
    // `DstMac` cannot fail.
    let m = Match::on(Field::Port, Pattern::Exact(u64::from(port)))
        .and(Field::DstMac, Pattern::Exact(tag))
        .expect("Port and DstMac are distinct fields");
    Region::from_match(m)
}

/// The concrete outcome of `pkt` through a pipeline: each table in
/// traversal order, every output of table *i* entering table *i+1* (what
/// [`transit_pipeline`] computes symbolically). The empty set means the
/// packet is dropped.
pub fn outcome(tables: &[Classifier], pkt: &Packet) -> BTreeSet<Packet> {
    let mut cur: BTreeSet<Packet> = [pkt.clone()].into();
    for table in tables {
        cur = cur.iter().flat_map(|p| table.evaluate(p)).collect();
        if cur.is_empty() {
            break;
        }
    }
    cur
}

/// Result of [`transit_pipeline`].
#[derive(Debug, Clone, Default)]
pub struct PipelineResult {
    /// Flows that left the *last* table forwarding, with the rule index.
    pub outputs: Vec<(FlowOut, usize)>,
    /// Drops, tagged with the table index they occurred in.
    pub drops: Vec<(usize, FlowDrop)>,
    /// Any stage hit the region cap (results incomplete).
    pub saturated: bool,
}

impl PipelineResult {
    /// The symbolic outcome of a concrete packet inside the injected region:
    /// the set of final packets the pipeline emits for it. Exactness check
    /// for the property tests — must agree with concrete evaluation.
    pub fn concrete_outcome(&self, pkt: &Packet) -> BTreeSet<Packet> {
        self.outputs
            .iter()
            .filter(|(o, _)| o.flow.region.contains(pkt))
            .map(|(o, _)| o.flow.acc.apply(pkt))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdx_policy::{Action, Match, Pattern, Rule};

    fn fwd(m: Match, port: u32) -> Rule {
        Rule {
            match_: m,
            actions: vec![Action::set(Field::Port, port)],
        }
    }

    #[test]
    fn static_resolution_of_rewritten_fields() {
        // Table 0 rewrites Port to 7; table 1 matches on Port — the match
        // must resolve against the rewritten value, not the original header.
        let t0 = Classifier::new(vec![fwd(Match::any(), 7)]);
        let t1 = Classifier::new(vec![
            fwd(Match::on(Field::Port, Pattern::Exact(7)), 2),
            fwd(Match::on(Field::Port, Pattern::Exact(1)), 99),
        ]);
        let inject = Flow::new(Region::from_match(Match::on(
            Field::Port,
            Pattern::Exact(1),
        )));
        let r = transit_pipeline(&[t0, t1], vec![inject], Field::Port, TRANSIT_REGION_LIMIT);
        assert!(!r.saturated);
        assert_eq!(r.outputs.len(), 1);
        assert_eq!(r.outputs[0].0.flow.acc.get(Field::Port), Some(2));
        assert!(r.drops.is_empty());
    }

    #[test]
    fn first_match_splits_regions() {
        let t = Classifier::new(vec![
            fwd(Match::on(Field::DstPort, Pattern::Exact(80)), 2),
            Rule::drop(Match::on(Field::DstPort, Pattern::Exact(443))),
        ]);
        let inject = Flow::new(Region::from_match(Match::any()));
        let r = transit_rules(
            &all_candidates(&t),
            t.len(),
            vec![inject],
            TRANSIT_REGION_LIMIT,
        );
        assert_eq!(r.outputs.len(), 1);
        // 443-drop is explicit, the rest falls into the catch-all.
        assert_eq!(r.drops.len(), 2);
        assert!(!r.drops[0].catch_all);
        assert!(r.drops[1].catch_all);
        let w = r.drops[0].region.witness().unwrap();
        assert_eq!(w.get(Field::DstPort), Some(443));
    }

    #[test]
    fn pinned_candidates_skip_foreign_tags() {
        let t = Classifier::new(vec![
            fwd(Match::on(Field::DstMac, Pattern::Exact(0xAA)), 1),
            fwd(Match::on(Field::DstMac, Pattern::Exact(0xBB)), 2),
            fwd(Match::any(), 3),
        ]);
        let c = pinned_candidates(&t, Field::DstMac, 0xBB);
        let indices: Vec<usize> = c.iter().map(|(i, _)| *i).collect();
        assert_eq!(indices, vec![1, 2]); // rule 0 excluded, wildcard kept
    }

    #[test]
    fn multicast_rule_emits_one_output_per_action() {
        let t = Classifier::new(vec![Rule {
            match_: Match::any(),
            actions: vec![
                Action::set(Field::Port, 1u32),
                Action::set(Field::Port, 2u32),
            ],
        }]);
        let r = transit_rules(
            &all_candidates(&t),
            t.len(),
            vec![Flow::new(Region::from_match(Match::any()))],
            TRANSIT_REGION_LIMIT,
        );
        assert_eq!(r.outputs.len(), 2);
    }

    #[test]
    fn symbolic_agrees_with_concrete_on_samples() {
        let t0 = Classifier::new(vec![
            fwd(
                Match::on(Field::DstPort, Pattern::Exact(80))
                    .and(Field::Port, Pattern::Exact(1))
                    .unwrap(),
                1_000_002,
            ),
            Rule::drop(Match::on(Field::SrcPort, Pattern::Exact(7))),
            fwd(Match::on(Field::Port, Pattern::Exact(1)), 1_000_003),
        ]);
        let t1 = Classifier::new(vec![
            fwd(Match::on(Field::Port, Pattern::Exact(1_000_002)), 2),
            fwd(Match::on(Field::Port, Pattern::Exact(1_000_003)), 3),
        ]);
        let inject = Flow::new(Region::from_match(Match::on(
            Field::Port,
            Pattern::Exact(1),
        )));
        let tables = [t0, t1];
        let r = transit_pipeline(&tables, vec![inject], Field::Port, TRANSIT_REGION_LIMIT);
        assert!(!r.saturated);
        for (dp, sp) in [(80u64, 9u64), (80, 7), (22, 7), (22, 9)] {
            let pkt = Packet::new()
                .with(Field::Port, 1u32)
                .with(Field::DstPort, dp)
                .with(Field::SrcPort, sp);
            let mut concrete = std::collections::BTreeSet::new();
            for out in tables[0].evaluate(&pkt) {
                concrete.extend(tables[1].evaluate(&out));
            }
            assert_eq!(r.concrete_outcome(&pkt), concrete, "dp={dp} sp={sp}");
            assert_eq!(outcome(&tables, &pkt), concrete, "dp={dp} sp={sp}");
        }
    }

    #[test]
    fn injection_region_pins_port_and_tag() {
        for (port, tag) in [(0u32, 0u64), (7, 0x02aa), (u32::MAX, (1 << 48) - 1)] {
            let region = injection_region(port, tag);
            let pkt = Packet::new()
                .with(Field::Port, port)
                .with(Field::DstMac, tag)
                .with(Field::DstIp, 0x0a00_0001u32);
            assert!(region.contains(&pkt));
            assert!(!region.contains(&pkt.clone().with(Field::DstMac, tag ^ 1)));
            assert!(!region.contains(&pkt.with(Field::Port, port ^ 1)));
        }
    }
}
