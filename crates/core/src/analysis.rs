//! Bridge between the controller and the static analyzer (`sdx-analyze`).
//!
//! The analyzer deliberately knows nothing about the controller's types; it
//! consumes an [`AnalysisInput`]. This module lowers a [`CompileInput`] and
//! the resulting [`Compilation`] into that form: clause predicates are
//! compiled to their match regions, destinations are mirrored, and the
//! BGP-safety question ("does the target export anything in scope to the
//! author?") is answered against the route server up front so the analyzer
//! stays BGP-agnostic.

use sdx_analyze::{AnalysisInput, ClauseDest, ClauseInfo, ParticipantInfo};
use sdx_policy::{compile_predicate, Match, Predicate};

use crate::compile::{effective_set, Compilation, CompileInput};
use crate::participant::VPORT_BASE;
use crate::{Clause, Dest, ParticipantId};

/// Lower controller state into the analyzer's input form.
pub fn build_input(input: &CompileInput<'_>, compilation: &Compilation) -> AnalysisInput {
    let participants = input
        .participants
        .iter()
        .map(|(id, p)| {
            let policy = input.policies.get(id);
            ParticipantInfo {
                id: id.0,
                vport: id.vport(),
                ports: p.port_numbers().collect(),
                router_macs: p.ports.iter().map(|c| c.mac.to_u64()).collect(),
                outbound: policy
                    .map(|pol| {
                        pol.outbound
                            .iter()
                            .map(|c| clause_info(input, *id, c))
                            .collect()
                    })
                    .unwrap_or_default(),
                inbound: policy
                    .map(|pol| {
                        pol.inbound
                            .iter()
                            .map(|c| clause_info(input, *id, c))
                            .collect()
                    })
                    .unwrap_or_default(),
            }
        })
        .collect();

    AnalysisInput {
        participants,
        fabric: compilation.fabric.clone(),
        stage1: compilation.stage1.clone(),
        stage2: compilation.stage2.clone(),
        vnh: compilation
            .vnh
            .iter()
            .map(|(ip, mac)| (*ip, mac.to_u64()))
            .collect(),
        arp_bound: None,
        vport_base: VPORT_BASE,
        multi_table: input.options.multi_table,
    }
}

fn clause_info(input: &CompileInput<'_>, author: ParticipantId, clause: &Clause) -> ClauseInfo {
    let dest = match clause.dest {
        Dest::Participant(to) => ClauseDest::Participant(to.0),
        Dest::OwnPort(port) => ClauseDest::OwnPort(port),
        Dest::Drop => ClauseDest::Drop,
        Dest::BgpDefault => ClauseDest::BgpDefault,
    };
    // The BGP-safety precomputation is pass 1 of the compiler, asked of the
    // live route server: a filtered clause towards a participant is
    // effective only on its effective set. (The compile-time policy sets go
    // stale under churn, and the installed-fabric audit runs after churn.)
    let exports_match = effective_set(input, author, clause).map(|set| !set.is_empty());
    ClauseInfo {
        matches: clause_matches(&clause.match_),
        dest,
        rewrites: clause.rewrites.clone(),
        unfiltered: clause.unfiltered,
        exports_match,
    }
}

/// The traffic region of a clause predicate, as the pass-matches of its
/// compiled classifier.
fn clause_matches(pred: &Predicate) -> Vec<Match> {
    compile_predicate(pred)
        .rules()
        .iter()
        .filter(|r| !r.is_drop())
        .map(|r| r.match_.clone())
        .collect()
}
