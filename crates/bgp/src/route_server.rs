//! The SDX route server (§3.2, §5.1): collects announcements from every
//! participant, runs the decision process *per participant* (honoring export
//! policies), and exposes the reachability relation the SDX policy compiler
//! needs ("which prefixes may A forward through B?").
//!
//! In contrast to a conventional route server, the best route is queried per
//! (prefix, participant) because export filtering can give different
//! participants different candidate sets — and the SDX additionally lets a
//! participant forward to *any feasible* next hop, not just its best one.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use sdx_ip::{Prefix, PrefixSet, PrefixTrie};

use crate::decision::{self, Candidate};
use crate::{
    AdjRibIn, AsPathPattern, Asn, CandidateTable, Community, ExportPolicy, PathAttributes, PeerId,
    Route, RouterId, Update,
};

/// Static facts about one peer.
#[derive(Debug, Clone)]
pub struct PeerInfo {
    /// The peer's AS number.
    pub asn: Asn,
    /// The peer's BGP identifier (decision-process tie-breaker).
    pub router_id: RouterId,
    /// The export policy applied to routes *learned from* this peer.
    pub export: ExportPolicy,
}

/// An event the route server emits for the SDX controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsEvent {
    /// The candidate set for a prefix changed; per-participant best routes
    /// for it may have changed.
    PrefixTouched(Prefix),
    /// A peer was removed and all its routes withdrawn.
    PeerDown(PeerId),
}

/// The viewer side of the export test, resolved once per query: the peer
/// and, when it is a known peer, its ASN.
#[derive(Debug, Clone, Copy)]
struct Viewer {
    peer: PeerId,
    asn: Option<Asn>,
}

/// The route server state.
#[derive(Debug, Default)]
pub struct RouteServer {
    peers: BTreeMap<PeerId, PeerInfo>,
    adj_in: BTreeMap<PeerId, AdjRibIn>,
    candidates: CandidateTable,
    /// Longest-prefix-match index over candidate prefixes; values are
    /// announcer refcounts.
    prefix_index: PrefixTrie<u32>,
}

impl RouteServer {
    /// An empty route server.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a peer session.
    pub fn add_peer(&mut self, peer: PeerId, asn: Asn, router_id: RouterId) {
        self.peers.insert(
            peer,
            PeerInfo {
                asn,
                router_id,
                export: ExportPolicy::export_all(),
            },
        );
        self.adj_in.entry(peer).or_default();
    }

    /// Replace a peer's export policy.
    pub fn set_export_policy(&mut self, peer: PeerId, export: ExportPolicy) {
        if let Some(info) = self.peers.get_mut(&peer) {
            info.export = export;
        }
    }

    /// Tear down a peer: drop its routes from every table.
    pub fn remove_peer(&mut self, peer: PeerId) -> Vec<RsEvent> {
        self.peers.remove(&peer);
        self.adj_in.remove(&peer);
        let touched = self.candidates.remove_peer(peer);
        for prefix in &touched {
            Self::index_release(&mut self.prefix_index, prefix);
        }
        let mut events: Vec<RsEvent> = touched.into_iter().map(RsEvent::PrefixTouched).collect();
        events.push(RsEvent::PeerDown(peer));
        events
    }

    /// Registered peers.
    pub fn peers(&self) -> impl Iterator<Item = (&PeerId, &PeerInfo)> {
        self.peers.iter()
    }

    /// Peer metadata.
    pub fn peer(&self, peer: PeerId) -> Option<&PeerInfo> {
        self.peers.get(&peer)
    }

    /// Ingest a BGP update from a peer, returning one event per touched
    /// prefix.
    pub fn apply_update(&mut self, peer: PeerId, update: &Update) -> Vec<RsEvent> {
        let mut events = Vec::new();
        let Some(rib) = self.adj_in.get_mut(&peer) else {
            return events;
        };
        for prefix in &update.withdraw {
            if rib.remove(prefix).is_some() {
                self.candidates.remove(peer, prefix);
                Self::index_release(&mut self.prefix_index, prefix);
                events.push(RsEvent::PrefixTouched(*prefix));
            }
        }
        for route in update.routes() {
            let prefix = route.prefix;
            let replaced = rib.insert(route.clone()).is_some();
            self.candidates.insert(peer, route);
            if !replaced {
                Self::index_acquire(&mut self.prefix_index, prefix);
            }
            events.push(RsEvent::PrefixTouched(prefix));
        }
        events
    }

    fn index_acquire(index: &mut PrefixTrie<u32>, prefix: Prefix) {
        match index.get_mut(&prefix) {
            Some(count) => *count += 1,
            None => {
                index.insert(prefix, 1);
            }
        }
    }

    fn index_release(index: &mut PrefixTrie<u32>, prefix: &Prefix) {
        if let Some(count) = index.get_mut(prefix) {
            *count -= 1;
            if *count == 0 {
                index.remove(prefix);
            }
        }
    }

    /// Convenience: announce prefixes from a peer with the given attributes.
    pub fn announce(
        &mut self,
        peer: PeerId,
        prefixes: impl IntoIterator<Item = Prefix>,
        attrs: PathAttributes,
    ) -> Vec<RsEvent> {
        self.apply_update(peer, &Update::announce(prefixes, attrs))
    }

    /// Convenience: withdraw prefixes from a peer.
    pub fn withdraw(
        &mut self,
        peer: PeerId,
        prefixes: impl IntoIterator<Item = Prefix>,
    ) -> Vec<RsEvent> {
        self.apply_update(peer, &Update::withdraw(prefixes))
    }

    /// Does the route's community set allow export to a peer with ASN
    /// `to_asn`? Implements RFC 1997 NO_EXPORT/NO_ADVERTISE plus the
    /// conventional route-server action communities (`0:peer-as` = deny,
    /// `64512:peer-as` = allow-list).
    fn communities_allow(route: &Route, to_asn: Asn) -> bool {
        let comms = &route.attrs.communities;
        if comms.contains(&Community::NO_EXPORT) || comms.contains(&Community::NO_ADVERTISE) {
            return false;
        }
        let to16 = u16::try_from(to_asn.0).ok();
        if let Some(to16) = to16 {
            if comms.contains(&Community::rs_deny_to(to16)) {
                return false;
            }
        }
        // An allow-list (any 64512:* member) restricts export to its members.
        let has_allow_list = comms.iter().any(|c| c.asn() == 64_512);
        if has_allow_list {
            return to16
                .map(|t| comms.contains(&Community::rs_only_to(t)))
                .unwrap_or(false);
        }
        true
    }

    /// The candidates for `prefix` visible to `for_peer`: the routes of
    /// other peers that pass the [`exports`](Self::exports) test.
    fn visible_candidates(&self, prefix: &Prefix, for_peer: PeerId) -> Vec<Candidate> {
        let viewer = self.viewer(for_peer);
        self.candidates
            .candidates(prefix)
            .filter_map(|(peer, route)| {
                let info = self.exporter(*peer, viewer)?;
                Self::exports(info, route, viewer).then(|| Candidate {
                    peer: *peer,
                    router_id: info.router_id,
                    route: route.clone(),
                })
            })
            .collect()
    }

    /// The best route for `prefix` from `for_peer`'s point of view.
    pub fn best_route(&self, prefix: &Prefix, for_peer: PeerId) -> Option<Candidate> {
        let candidates = self.visible_candidates(prefix, for_peer);
        decision::select(candidates.iter()).cloned()
    }

    /// Every peer through which `for_peer` may reach `prefix` (the paper's
    /// "all feasible routes", used by the BGP-consistency transformation).
    pub fn reachable_via(&self, prefix: &Prefix, for_peer: PeerId) -> BTreeSet<PeerId> {
        self.visible_candidates(prefix, for_peer)
            .into_iter()
            .map(|c| c.peer)
            .collect()
    }

    /// The whole advertisement relation for `prefix` in one pass: each
    /// viewer mapped to [`reachable_via`](Self::reachable_via)'s answer for
    /// it (viewers with no feasible route are omitted). The candidate list
    /// is walked once per viewer with no route cloning, which is what the
    /// streamed delta checker needs at churn rate — per-viewer
    /// `reachable_via` calls rebuild a `Candidate` vector (attrs clone per
    /// entry) for every participant on every update.
    pub fn advert_map(&self, prefix: &Prefix) -> BTreeMap<PeerId, BTreeSet<PeerId>> {
        let candidates: Vec<(&PeerId, &Route)> = self.candidates.candidates(prefix).collect();
        let mut out = BTreeMap::new();
        for (&peer, info) in &self.peers {
            let viewer = Viewer {
                peer,
                asn: Some(info.asn),
            };
            let via: BTreeSet<PeerId> = candidates
                .iter()
                .filter_map(|&(announcer, route)| {
                    let info = self.exporter(*announcer, viewer)?;
                    Self::exports(info, route, viewer).then_some(*announcer)
                })
                .collect();
            if !via.is_empty() {
                out.insert(peer, via);
            }
        }
        out
    }

    /// The prefixes `for_peer` may forward through `next_hop`: every prefix
    /// of `next_hop`'s Adj-RIB-In that [`exports_to`](Self::exports_to)
    /// admits. This set becomes the BGP filter spliced into `for_peer`'s
    /// outbound policies (§4.1).
    pub fn prefixes_via(&self, next_hop: PeerId, for_peer: PeerId) -> PrefixSet {
        let (Some(exports), Some(rib)) = (
            self.export_filter(next_hop, for_peer),
            self.adj_in.get(&next_hop),
        ) else {
            return PrefixSet::new();
        };
        rib.iter()
            .filter(|(_, route)| exports(route))
            .map(|(prefix, _)| prefix)
            .collect()
    }

    /// Does `announcer` export its route for `prefix` to `viewer`? (Single
    /// point lookup; the fast path of §4.3.2 and compile pass 1 use this
    /// instead of materializing whole `prefixes_via` sets.)
    pub fn exports_to(&self, announcer: PeerId, prefix: &Prefix, viewer: PeerId) -> bool {
        self.export_filter(announcer, viewer)
            .is_some_and(|exports| self.route_from(announcer, prefix).is_some_and(exports))
    }

    /// The export predicate behind both [`prefixes_via`](Self::prefixes_via)
    /// and [`exports_to`](Self::exports_to), resolved once per (announcer,
    /// viewer) pair: [`exports`](Self::exports) over the announcer's routes.
    /// `None` when the announcer exports nothing to the viewer at all (see
    /// [`exporter`](Self::exporter)).
    fn export_filter(
        &self,
        announcer: PeerId,
        viewer: PeerId,
    ) -> Option<impl Fn(&Route) -> bool + '_> {
        let viewer = self.viewer(viewer);
        let info = self.exporter(announcer, viewer)?;
        Some(move |route: &Route| Self::exports(info, route, viewer))
    }

    /// Resolve the viewer side of the export test once per query.
    fn viewer(&self, peer: PeerId) -> Viewer {
        Viewer {
            peer,
            asn: self.peers.get(&peer).map(|info| info.asn),
        }
    }

    /// The announcer side of the export test: its peer info, or `None` when
    /// it may export nothing to `viewer` — it is the viewer itself, or
    /// unknown.
    fn exporter(&self, announcer: PeerId, viewer: Viewer) -> Option<&PeerInfo> {
        if announcer == viewer.peer {
            return None;
        }
        self.peers.get(&announcer)
    }

    /// The one export test, behind every best route, every advertisement
    /// map and every policy prefix set: the exporter's export policy must
    /// allow the route's prefix to the viewer and, when the viewer is a
    /// known peer, the AS path must avoid the viewer's ASN and the
    /// communities must allow it.
    fn exports(exporter: &PeerInfo, route: &Route, viewer: Viewer) -> bool {
        exporter.export.allows(&route.prefix, viewer.peer)
            && viewer.asn.is_none_or(|asn| {
                !route.attrs.as_path.contains(asn) && Self::communities_allow(route, asn)
            })
    }

    /// Every prefix a peer currently announces.
    pub fn announced_by(&self, peer: PeerId) -> PrefixSet {
        self.adj_in
            .get(&peer)
            .map(|rib| rib.prefixes())
            .unwrap_or_default()
    }

    /// A peer's route for a specific prefix, if it announces one.
    pub fn route_from(&self, peer: PeerId, prefix: &Prefix) -> Option<&Route> {
        self.adj_in.get(&peer)?.get(prefix)
    }

    /// All prefixes known to the route server (any announcer).
    pub fn all_prefixes(&self) -> Vec<Prefix> {
        self.candidates.prefixes().copied().collect()
    }

    /// Number of distinct prefixes known.
    pub fn prefix_count(&self) -> usize {
        self.candidates.len()
    }

    /// The best route for `prefix` over *all* candidates, with no viewer
    /// filtering — the "default next hop selected by the route server" used
    /// in pass 2 of the FEC computation (§4.2).
    pub fn best_route_global(&self, prefix: &Prefix) -> Option<Candidate> {
        let candidates: Vec<Candidate> = self
            .candidates
            .candidates(prefix)
            .filter_map(|(peer, route)| {
                let info = self.peers.get(peer)?;
                Some(Candidate {
                    peer: *peer,
                    router_id: info.router_id,
                    route: route.clone(),
                })
            })
            .collect();
        decision::select(candidates.iter()).cloned()
    }

    /// Participants to whom the globally-best route for `prefix` is *not*
    /// exported (their default next hop may diverge from the global one).
    pub fn export_exceptions(&self, prefix: &Prefix) -> Vec<PeerId> {
        let Some(best) = self.best_route_global(prefix) else {
            return Vec::new();
        };
        let Some(info) = self.peers.get(&best.peer) else {
            return Vec::new();
        };
        info.export
            .explicit_denials(prefix)
            .filter(|denied| *denied != best.peer && self.peers.contains_key(denied))
            .collect()
    }

    /// Longest-prefix match over all candidate prefixes: the most specific
    /// announced prefix covering `addr`, with `for_peer`'s best route for it.
    pub fn lpm_best(&self, addr: Ipv4Addr, for_peer: PeerId) -> Option<(Prefix, Candidate)> {
        let (prefix, _) = self.prefix_index.longest_match(addr)?;
        let best = self.best_route(&prefix, for_peer)?;
        Some((prefix, best))
    }

    /// The paper's `RIB.filter('as_path', pattern)`: every prefix with a
    /// candidate route whose AS path matches.
    pub fn filter_as_path(&self, pattern: &AsPathPattern) -> PrefixSet {
        self.candidates
            .prefixes()
            .filter(|prefix| {
                self.candidates
                    .candidates(prefix)
                    .any(|(_, route)| pattern.matches(&route.attrs.as_path))
            })
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AsPath;

    const A: PeerId = PeerId(1);
    const B: PeerId = PeerId(2);
    const C: PeerId = PeerId(3);

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn attrs(path: &[u32], nh: [u8; 4]) -> PathAttributes {
        PathAttributes::new(AsPath::sequence(path.iter().copied()), Ipv4Addr::from(nh))
    }

    /// Figure 1b of the paper: B announces p1..p4 (not exporting p4 to A),
    /// C announces p1..p3 (plus the default-retaining p5 elsewhere).
    fn figure_1b() -> RouteServer {
        let mut rs = RouteServer::new();
        rs.add_peer(A, Asn(100), RouterId(1));
        rs.add_peer(B, Asn(200), RouterId(2));
        rs.add_peer(C, Asn(300), RouterId(3));

        rs.announce(
            B,
            [
                p("11.0.0.0/8"),
                p("12.0.0.0/8"),
                p("13.0.0.0/8"),
                p("14.0.0.0/8"),
            ],
            attrs(&[200, 65001], [10, 0, 0, 2]),
        );
        rs.set_export_policy(
            B,
            ExportPolicy::export_all().deny_prefix_to(p("14.0.0.0/8"), A),
        );

        // C's shorter paths for p1, p2 make it the default next hop for them.
        rs.announce(
            C,
            [p("11.0.0.0/8"), p("12.0.0.0/8")],
            attrs(&[300], [10, 0, 0, 3]),
        );
        rs.announce(C, [p("14.0.0.0/8")], attrs(&[300, 65001], [10, 0, 0, 3]));
        rs
    }

    #[test]
    fn best_route_prefers_shorter_path() {
        let rs = figure_1b();
        assert_eq!(rs.best_route(&p("11.0.0.0/8"), A).unwrap().peer, C);
        // p3 is only announced by B.
        assert_eq!(rs.best_route(&p("13.0.0.0/8"), A).unwrap().peer, B);
    }

    #[test]
    fn export_policy_hides_prefix_from_peer() {
        let rs = figure_1b();
        // A can reach p4 via C only; B withholds it.
        assert_eq!(rs.reachable_via(&p("14.0.0.0/8"), A), BTreeSet::from([C]));
        // B itself never gets its own route back.
        assert!(!rs.reachable_via(&p("13.0.0.0/8"), B).contains(&B));
        // Another peer still sees B's p4.
        assert_eq!(rs.reachable_via(&p("14.0.0.0/8"), C), BTreeSet::from([B]));
    }

    #[test]
    fn advert_map_matches_per_peer_reachable_via() {
        let rs = figure_1b();
        for prefix in ["11.0.0.0/8", "12.0.0.0/8", "13.0.0.0/8", "14.0.0.0/8"] {
            let prefix = p(prefix);
            let map = rs.advert_map(&prefix);
            for &peer in [A, B, C].iter() {
                let via = rs.reachable_via(&prefix, peer);
                assert_eq!(
                    map.get(&peer).cloned().unwrap_or_default(),
                    via,
                    "advert_map diverged from reachable_via for {prefix} at {peer}"
                );
            }
        }
    }

    #[test]
    fn prefixes_via_reflects_export_policy() {
        let rs = figure_1b();
        let via_b = rs.prefixes_via(B, A);
        assert_eq!(via_b.len(), 3); // p1, p2, p3 — not p4
        assert!(via_b.contains(&p("11.0.0.0/8")));
        assert!(!via_b.contains(&p("14.0.0.0/8")));
        let via_c = rs.prefixes_via(C, A);
        assert_eq!(via_c.len(), 3); // p1, p2, p4
    }

    #[test]
    fn self_target_exports_nothing() {
        // A clause of B's that targets B itself. This route's AS path lacks
        // B's own ASN, so loop prevention alone would not hide it from B.
        let mut rs = figure_1b();
        rs.announce(B, [p("15.0.0.0/8")], attrs(&[65001], [10, 0, 0, 2]));
        assert!(rs.prefixes_via(B, B).is_empty());
        for prefix in rs.announced_by(B).iter() {
            assert!(!rs.exports_to(B, prefix, B));
        }
        // The same routes still reach every other peer.
        assert!(rs.prefixes_via(B, C).contains(&p("15.0.0.0/8")));
        assert!(rs.exports_to(B, &p("15.0.0.0/8"), A));
        // prefixes_via is exports_to over the announcer's RIB, for every pair.
        for announcer in [A, B, C, PeerId(9)] {
            for viewer in [A, B, C, PeerId(9)] {
                let pointwise: PrefixSet = rs
                    .announced_by(announcer)
                    .into_iter()
                    .filter(|prefix| rs.exports_to(announcer, prefix, viewer))
                    .collect();
                assert_eq!(rs.prefixes_via(announcer, viewer), pointwise);
            }
        }
    }

    #[test]
    fn feasible_routes_beyond_best() {
        // "AS A can still direct the corresponding Web traffic through AS B,
        // since AS B does export a BGP route for these prefixes to AS A."
        let rs = figure_1b();
        let feasible = rs.reachable_via(&p("11.0.0.0/8"), A);
        assert!(feasible.contains(&B));
        assert!(feasible.contains(&C));
    }

    #[test]
    fn withdrawal_updates_candidates() {
        let mut rs = figure_1b();
        let events = rs.withdraw(C, [p("11.0.0.0/8")]);
        assert_eq!(events, vec![RsEvent::PrefixTouched(p("11.0.0.0/8"))]);
        assert_eq!(rs.best_route(&p("11.0.0.0/8"), A).unwrap().peer, B);
        // Withdrawing a prefix that was never announced emits nothing.
        assert!(rs.withdraw(C, [p("99.0.0.0/8")]).is_empty());
    }

    #[test]
    fn peer_removal_withdraws_everything() {
        let mut rs = figure_1b();
        let events = rs.remove_peer(B);
        assert!(events.contains(&RsEvent::PeerDown(B)));
        assert_eq!(events.len(), 5); // 4 prefixes + PeerDown
        assert!(rs.best_route(&p("13.0.0.0/8"), A).is_none());
    }

    #[test]
    fn loop_prevention_skips_own_asn() {
        let mut rs = RouteServer::new();
        rs.add_peer(A, Asn(100), RouterId(1));
        rs.add_peer(B, Asn(200), RouterId(2));
        // B's route traverses AS 100 — A must never receive it.
        rs.announce(
            B,
            [p("10.0.0.0/8")],
            attrs(&[200, 100, 65001], [10, 0, 0, 2]),
        );
        assert!(rs.best_route(&p("10.0.0.0/8"), A).is_none());
        assert!(rs.prefixes_via(B, A).is_empty());
    }

    #[test]
    fn filter_as_path_collects_prefixes() {
        let rs = figure_1b();
        let pattern: AsPathPattern = ".*65001$".parse().unwrap();
        let got = rs.filter_as_path(&pattern);
        // p1..p4 have candidates ending in 65001 (B's routes, and C's p4).
        assert_eq!(got.len(), 4);
        let none: AsPathPattern = ".*9$".parse().unwrap();
        assert!(rs.filter_as_path(&none).is_empty());
    }

    #[test]
    fn route_replacement_keeps_latest() {
        let mut rs = figure_1b();
        rs.announce(B, [p("11.0.0.0/8")], attrs(&[200], [10, 0, 0, 2]));
        // B's path is now as short as C's; decision falls through to
        // origin/MED ties and picks the lower router id (B).
        assert_eq!(rs.best_route(&p("11.0.0.0/8"), A).unwrap().peer, B);
    }

    #[test]
    fn no_export_community_hides_route() {
        let mut rs = RouteServer::new();
        rs.add_peer(A, Asn(100), RouterId(1));
        rs.add_peer(B, Asn(200), RouterId(2));
        rs.announce(
            B,
            [p("10.0.0.0/8")],
            attrs(&[200], [10, 0, 0, 2]).with_community(Community::NO_EXPORT),
        );
        assert!(rs.best_route(&p("10.0.0.0/8"), A).is_none());
        assert!(!rs.exports_to(B, &p("10.0.0.0/8"), A));
    }

    #[test]
    fn rs_action_communities_control_export() {
        let mut rs = RouteServer::new();
        rs.add_peer(A, Asn(100), RouterId(1));
        rs.add_peer(B, Asn(200), RouterId(2));
        rs.add_peer(C, Asn(300), RouterId(3));

        // 0:100 — do not export to AS 100 (peer A).
        rs.announce(
            B,
            [p("10.0.0.0/8")],
            attrs(&[200], [10, 0, 0, 2]).with_community(Community::rs_deny_to(100)),
        );
        assert!(rs.best_route(&p("10.0.0.0/8"), A).is_none());
        assert!(rs.best_route(&p("10.0.0.0/8"), C).is_some());

        // 64512:300 — export only to AS 300 (peer C).
        rs.announce(
            B,
            [p("20.0.0.0/8")],
            attrs(&[200], [10, 0, 0, 2]).with_community(Community::rs_only_to(300)),
        );
        assert!(rs.best_route(&p("20.0.0.0/8"), A).is_none());
        assert!(rs.best_route(&p("20.0.0.0/8"), C).is_some());
        assert!(rs.prefixes_via(B, C).contains(&p("20.0.0.0/8")));
        assert!(!rs.prefixes_via(B, A).contains(&p("20.0.0.0/8")));
    }

    #[test]
    fn update_from_unknown_peer_ignored() {
        let mut rs = RouteServer::new();
        let events = rs.announce(PeerId(99), [p("10.0.0.0/8")], attrs(&[1], [10, 0, 0, 9]));
        assert!(events.is_empty());
        assert_eq!(rs.prefix_count(), 0);
    }
}
