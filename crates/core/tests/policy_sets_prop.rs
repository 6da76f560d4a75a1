//! Compile pass 1 against its reference definition. A filtered outbound
//! clause's effective prefix set is its destination scope intersected with
//! `RouteServer::prefixes_via(target, author)`, or that whole set when the
//! clause is unscoped; a remote participant with inbound clauses adds the
//! set it announces. The compiler answers scoped clauses with per-prefix
//! `exports_to` lookups instead of walking the target's Adj-RIB-In, so this
//! pins `Compilation::policy_sets` to the set-algebra form, which lives only
//! here, over random route servers: export denials, NO_EXPORT and
//! route-server action communities, AS paths through the author,
//! self-targets, unknown authors and targets, and unscoped clauses.
//!
//! On the same route servers, the route server's one export test answers
//! `reachable_via` and `advert_map` exactly as `exports_to` does, pointwise,
//! and the fast path's membership test `in_effective_set` agrees with
//! `effective_set`.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdx_bgp::{
    AsPath, Asn, Community, ExportPolicy, PathAttributes, PeerId, RouteServer, RouterId,
};
use sdx_core::compile::{compile, effective_set, in_effective_set};
use sdx_core::{
    Clause, CompileInput, CompileOptions, Dest, MemoCache, Participant, ParticipantId,
    ParticipantPolicy, PortConfig, VnhAllocator,
};
use sdx_ip::{MacAddr, Prefix, PrefixSet};
use sdx_policy::{Field, Predicate};

/// Route-server peers 1..=3 are physical participants, 4 is remote.
const PEERS: [u32; 4] = [1, 2, 3, 4];
const REMOTE: u32 = 4;
/// Writes outbound clauses without being a participant or a peer.
const UNKNOWN_AUTHOR: u32 = 9;
/// Targeted by clauses without being a participant or a peer.
const UNKNOWN_TARGET: u32 = 8;

fn asn(id: u32) -> Asn {
    Asn(65_000 + id)
}

/// Covering and nested prefixes, so scopes and RIBs overlap every way.
fn prefix_pool() -> Vec<Prefix> {
    let mut pool = vec![Prefix::from_bits(0x0a00_0000, 8)];
    for i in 0..4u32 {
        pool.push(Prefix::from_bits(0x0a00_0000 | (i << 22), 10));
        pool.push(Prefix::from_bits(0x0a00_0000 | (i << 22), 16));
    }
    for i in 0..3u32 {
        pool.push(Prefix::from_bits(0x1400_0000 | (i << 8), 24));
    }
    pool
}

fn pick<T: Copy>(rng: &mut StdRng, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())]
}

fn subset(rng: &mut StdRng, pool: &[Prefix], p: f64) -> PrefixSet {
    pool.iter().copied().filter(|_| rng.gen_bool(p)).collect()
}

struct Case {
    rs: RouteServer,
    participants: BTreeMap<ParticipantId, Participant>,
    policies: BTreeMap<ParticipantId, ParticipantPolicy>,
}

fn random_case(seed: u64) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let pool = prefix_pool();
    let mut rs = RouteServer::new();
    let mut participants = BTreeMap::new();
    for id in PEERS {
        rs.add_peer(ParticipantId(id).peer(), asn(id), RouterId(id));
        let participant = if id == REMOTE {
            Participant::remote(ParticipantId(id), asn(id))
        } else {
            Participant::new(
                ParticipantId(id),
                asn(id),
                vec![PortConfig {
                    port: id,
                    mac: MacAddr::from_u64(0x0200_0000_0000 | u64::from(id)),
                    ip: Ipv4Addr::new(172, 0, 0, id as u8),
                }],
            )
        };
        participants.insert(ParticipantId(id), participant);
    }

    // Announcements: AS paths may run through any peer (including the
    // announcer itself, or not), communities restrict export.
    let path_asns: Vec<u32> = PEERS.iter().map(|&id| asn(id).0).chain([7_018]).collect();
    for &id in &PEERS {
        for prefix in subset(&mut rng, &pool, 0.6) {
            let mut path = vec![asn(id).0];
            if rng.gen_bool(0.2) {
                path.clear(); // a transparent upstream: no own ASN
            }
            for _ in 0..rng.gen_range(0..3usize) {
                path.push(pick(&mut rng, &path_asns));
            }
            let mut attrs =
                PathAttributes::new(AsPath::sequence(path), Ipv4Addr::new(172, 0, 0, id as u8));
            let to16 = |peer: u32| asn(peer).0 as u16;
            match rng.gen_range(0..8u32) {
                0 => attrs = attrs.with_community(Community::NO_EXPORT),
                1 => attrs = attrs.with_community(Community::NO_ADVERTISE),
                2 => {
                    attrs =
                        attrs.with_community(Community::rs_deny_to(to16(pick(&mut rng, &PEERS))))
                }
                3 => {
                    attrs =
                        attrs.with_community(Community::rs_only_to(to16(pick(&mut rng, &PEERS))))
                }
                4 => attrs = attrs.with_community(Community::new(65_000, 1)),
                _ => {}
            }
            rs.announce(ParticipantId(id).peer(), [prefix], attrs);
        }
        let mut export = ExportPolicy::export_all();
        if rng.gen_bool(0.25) {
            export = export.deny_peer(ParticipantId(pick(&mut rng, &PEERS)).peer());
        }
        for _ in 0..rng.gen_range(0..3usize) {
            let viewer = pick(&mut rng, &[1, 2, 3, 4, UNKNOWN_AUTHOR]);
            export = export.deny_prefix_to(pick(&mut rng, &pool), ParticipantId(viewer).peer());
        }
        rs.set_export_policy(ParticipantId(id).peer(), export);
    }

    // Outbound clauses from the physical participants and an unknown
    // author, towards anyone: themselves, the remote participant, an
    // unknown target. Some are scoped, some unfiltered, some drop.
    let mut policies = BTreeMap::new();
    let targets = [1, 2, 3, REMOTE, UNKNOWN_TARGET];
    for author in [1, 2, 3, UNKNOWN_AUTHOR] {
        let mut policy = ParticipantPolicy::new();
        for port in 0..rng.gen_range(0..5u16) {
            let matches = Predicate::test(Field::DstPort, 80 + port);
            let mut clause = match rng.gen_range(0..8u32) {
                0 => Clause::drop(matches),
                _ => Clause::fwd(matches, ParticipantId(pick(&mut rng, &targets))),
            };
            if rng.gen_bool(0.6) {
                clause = clause.for_prefixes(subset(&mut rng, &pool, 0.4));
            }
            if rng.gen_bool(0.1) {
                clause = clause.unfiltered();
            }
            policy = policy.outbound(clause);
        }
        policies.insert(ParticipantId(author), policy);
    }
    if rng.gen_bool(0.5) {
        let remote =
            ParticipantPolicy::new().inbound(Clause::drop(Predicate::test(Field::DstPort, 22u16)));
        policies.insert(ParticipantId(REMOTE), remote);
    }
    Case {
        rs,
        participants,
        policies,
    }
}

/// Pass 1 as set algebra over whole `prefixes_via` sets.
fn reference_policy_sets(case: &Case) -> Vec<PrefixSet> {
    let mut sets = Vec::new();
    for (author, policy) in &case.policies {
        for clause in &policy.outbound {
            let Dest::Participant(to) = clause.dest else {
                continue;
            };
            if clause.unfiltered {
                continue;
            }
            let via = case.rs.prefixes_via(to.peer(), author.peer());
            sets.push(match &clause.dst_prefixes {
                Some(scope) => scope.intersection(&via),
                None => via,
            });
        }
    }
    for (id, policy) in &case.policies {
        let remote = case.participants.get(id).is_some_and(|p| !p.is_physical());
        if remote && !policy.inbound.is_empty() {
            let announced = case.rs.announced_by(id.peer());
            if !announced.is_empty() {
                sets.push(announced);
            }
        }
    }
    sets
}

proptest! {
    #[test]
    fn policy_sets_match_the_set_algebra_reference(seed in any::<u64>()) {
        let case = random_case(seed);
        let versions = BTreeMap::new();
        let input = CompileInput {
            participants: &case.participants,
            policies: &case.policies,
            policy_versions: &versions,
            route_server: &case.rs,
            options: CompileOptions::default(),
        };
        let compilation = compile(&input, &mut VnhAllocator::default_pool(), &MemoCache::new())
            .map_err(|e| TestCaseError::fail(format!("compile failed: {e}")))?;
        prop_assert_eq!(compilation.policy_sets, reference_policy_sets(&case));
    }

    #[test]
    fn export_queries_agree_with_exports_to(seed in any::<u64>()) {
        let case = random_case(seed);
        let rs = &case.rs;
        let peers: Vec<PeerId> = PEERS
            .iter()
            .chain(&[UNKNOWN_AUTHOR, UNKNOWN_TARGET])
            .map(|&id| ParticipantId(id).peer())
            .collect();
        for prefix in prefix_pool() {
            let adverts = rs.advert_map(&prefix);
            for &viewer in &peers {
                let pointwise: BTreeSet<PeerId> = peers
                    .iter()
                    .copied()
                    .filter(|&announcer| rs.exports_to(announcer, &prefix, viewer))
                    .collect();
                prop_assert_eq!(rs.reachable_via(&prefix, viewer), pointwise.clone());
                // `advert_map` lists the known peers that see any route.
                let known = rs.peer(viewer).is_some() && !pointwise.is_empty();
                let expected = known.then_some(pointwise);
                prop_assert_eq!(adverts.get(&viewer).cloned(), expected, "{} at {}", prefix, viewer);
            }
        }
    }

    #[test]
    fn fragment_membership_agrees_with_effective_set(seed in any::<u64>()) {
        let case = random_case(seed);
        let versions = BTreeMap::new();
        let input = CompileInput {
            participants: &case.participants,
            policies: &case.policies,
            policy_versions: &versions,
            route_server: &case.rs,
            options: CompileOptions::default(),
        };
        for (author, policy) in &case.policies {
            for clause in &policy.outbound {
                let set = effective_set(&input, *author, clause);
                for prefix in prefix_pool() {
                    prop_assert_eq!(
                        in_effective_set(&input, *author, clause, &prefix),
                        set.as_ref().is_some_and(|set| set.contains(&prefix)),
                        "{} {:?} {}", author, clause.dest, prefix
                    );
                }
            }
        }
    }
}

/// The generator reaches the cases the reference has to agree on: a
/// self-targeted clause whose scope meets the author's own routes, an AS
/// path through the author, an unknown author's clause with a non-empty
/// effective set, and an export that a community or a denial withholds.
#[test]
fn generator_covers_the_edge_cases() {
    let (mut self_target, mut through_author, mut unknown_author, mut withheld) =
        (false, false, false, false);
    for seed in 0..128 {
        let case = random_case(seed);
        for (author, policy) in &case.policies {
            for clause in &policy.outbound {
                let Dest::Participant(to) = clause.dest else {
                    continue;
                };
                let scope = clause
                    .dst_prefixes
                    .clone()
                    .unwrap_or_else(|| case.rs.announced_by(to.peer()));
                let announced = case.rs.announced_by(to.peer()).intersection(&scope);
                if to == *author && !announced.is_empty() {
                    self_target = true;
                }
                if author.0 == UNKNOWN_AUTHOR
                    && !case.rs.prefixes_via(to.peer(), author.peer()).is_empty()
                {
                    unknown_author = true;
                }
                for prefix in &announced {
                    let route = case.rs.route_from(to.peer(), prefix).expect("announced");
                    let via_author = route.attrs.as_path.contains(asn(author.0));
                    through_author |= to != *author && via_author;
                    withheld |= to != *author
                        && !via_author
                        && !case.rs.exports_to(to.peer(), prefix, author.peer());
                }
            }
        }
    }
    assert!(
        self_target,
        "no self-targeted clause over announced prefixes"
    );
    assert!(through_author, "no AS path through the author");
    assert!(unknown_author, "no unknown author with an effective set");
    assert!(withheld, "no export withheld by policy or community");
}
