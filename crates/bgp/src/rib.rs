//! Routing information bases: the per-peer Adj-RIB-In and the per-prefix
//! candidate table the route server selects from.

use std::collections::BTreeMap;

use sdx_ip::{Prefix, PrefixSet};

use crate::{PeerId, Route};

/// The routes learned from a single peer, indexed by prefix.
///
/// The route server only looks routes up by exact prefix and walks them in
/// order, never by longest match, so an ordered map serves: it iterates in
/// (address, length) order, a covering prefix just before its subnets.
#[derive(Debug, Clone, Default)]
pub struct AdjRibIn {
    routes: BTreeMap<Prefix, Route>,
}

impl AdjRibIn {
    /// An empty RIB.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install (or replace) the peer's route for a prefix; returns the
    /// replaced route if any.
    pub fn insert(&mut self, route: Route) -> Option<Route> {
        self.routes.insert(route.prefix, route)
    }

    /// Withdraw the peer's route for a prefix.
    pub fn remove(&mut self, prefix: &Prefix) -> Option<Route> {
        self.routes.remove(prefix)
    }

    /// The peer's route for exactly this prefix.
    pub fn get(&self, prefix: &Prefix) -> Option<&Route> {
        self.routes.get(prefix)
    }

    /// Number of prefixes learned from the peer.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// Whether the RIB is empty.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Every prefix the peer currently announces.
    pub fn prefixes(&self) -> PrefixSet {
        self.routes.keys().copied().collect()
    }

    /// Iterate over `(prefix, route)` pairs in (address, length) order.
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, &Route)> {
        self.routes.iter().map(|(prefix, route)| (*prefix, route))
    }
}

/// The global candidate table: for each prefix, who announces it and with
/// what route. The route server's per-participant best route is computed
/// from these candidates, filtered by export policy.
#[derive(Debug, Clone, Default)]
pub struct CandidateTable {
    by_prefix: BTreeMap<Prefix, BTreeMap<PeerId, Route>>,
}

impl CandidateTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install a peer's route for a prefix.
    pub fn insert(&mut self, peer: PeerId, route: Route) -> Option<Route> {
        self.by_prefix
            .entry(route.prefix)
            .or_default()
            .insert(peer, route)
    }

    /// Remove a peer's route for a prefix.
    pub fn remove(&mut self, peer: PeerId, prefix: &Prefix) -> Option<Route> {
        let entry = self.by_prefix.get_mut(prefix)?;
        let removed = entry.remove(&peer);
        if entry.is_empty() {
            self.by_prefix.remove(prefix);
        }
        removed
    }

    /// Drop every route learned from a peer (session teardown). Returns the
    /// prefixes that lost a candidate.
    pub fn remove_peer(&mut self, peer: PeerId) -> Vec<Prefix> {
        let mut touched = Vec::new();
        self.by_prefix.retain(|prefix, peers| {
            if peers.remove(&peer).is_some() {
                touched.push(*prefix);
            }
            !peers.is_empty()
        });
        touched
    }

    /// All candidates for a prefix.
    pub fn candidates(&self, prefix: &Prefix) -> impl Iterator<Item = (&PeerId, &Route)> {
        self.by_prefix
            .get(prefix)
            .into_iter()
            .flat_map(|m| m.iter())
    }

    /// Every prefix with at least one candidate.
    pub fn prefixes(&self) -> impl Iterator<Item = &Prefix> {
        self.by_prefix.keys()
    }

    /// Number of prefixes with candidates.
    pub fn len(&self) -> usize {
        self.by_prefix.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.by_prefix.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AsPath, PathAttributes};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sdx_ip::PrefixTrie;
    use std::net::Ipv4Addr;

    fn route(prefix: &str, first_as: u32) -> Route {
        Route::new(
            prefix.parse().unwrap(),
            PathAttributes::new(AsPath::sequence([first_as]), Ipv4Addr::new(10, 0, 0, 1)),
        )
    }

    #[test]
    fn adj_rib_in_replaces_per_prefix() {
        let mut rib = AdjRibIn::new();
        assert!(rib.insert(route("10.0.0.0/8", 1)).is_none());
        let old = rib.insert(route("10.0.0.0/8", 2)).unwrap();
        assert_eq!(old.attrs.as_path.origin_as().unwrap().0, 1);
        assert_eq!(rib.len(), 1);
        assert!(rib.remove(&"10.0.0.0/8".parse().unwrap()).is_some());
        assert!(rib.is_empty());
    }

    #[test]
    fn adj_rib_in_prefix_set() {
        let mut rib = AdjRibIn::new();
        rib.insert(route("10.0.0.0/8", 1));
        rib.insert(route("20.0.0.0/8", 1));
        let ps = rib.prefixes();
        assert_eq!(ps.len(), 2);
        assert!(ps.contains(&"10.0.0.0/8".parse().unwrap()));
    }

    #[test]
    fn adj_rib_in_iterates_like_a_prefix_trie() {
        // Covering and nested prefixes under one /8, so the walk order has to
        // put each covering prefix right before its subnets.
        let pool: Vec<Prefix> = (8..=24u8)
            .step_by(4)
            .flat_map(|len| {
                (0..4u32).map(move |i| Prefix::from_bits(0x0a00_0000 | (i << (32 - len)), len))
            })
            .chain([Prefix::DEFAULT, Prefix::from_bits(0x0b00_0000, 8)])
            .collect();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..32 {
            let mut rib = AdjRibIn::new();
            let mut trie = PrefixTrie::new();
            for _ in 0..rng.gen_range(1..60usize) {
                let prefix = pool[rng.gen_range(0..pool.len())];
                if rng.gen_bool(0.3) {
                    assert_eq!(
                        rib.remove(&prefix).map(|r| r.prefix),
                        trie.remove(&prefix).map(|r: Route| r.prefix)
                    );
                } else {
                    let r = Route::new(
                        prefix,
                        PathAttributes::new(
                            AsPath::sequence([rng.gen_range(1..5u32)]),
                            Ipv4Addr::new(10, 0, 0, 1),
                        ),
                    );
                    assert_eq!(rib.insert(r.clone()), trie.insert(prefix, r));
                }
            }
            let got: Vec<(Prefix, &Route)> = rib.iter().collect();
            let want: Vec<(Prefix, &Route)> = trie.iter().collect();
            assert_eq!(got, want);
            assert_eq!(rib.len(), trie.len());
            assert_eq!(
                rib.prefixes().iter().copied().collect::<Vec<_>>(),
                want.iter().map(|(p, _)| *p).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn candidate_table_tracks_multiple_peers() {
        let mut t = CandidateTable::new();
        t.insert(PeerId(1), route("10.0.0.0/8", 1));
        t.insert(PeerId(2), route("10.0.0.0/8", 2));
        assert_eq!(t.candidates(&"10.0.0.0/8".parse().unwrap()).count(), 2);
        t.remove(PeerId(1), &"10.0.0.0/8".parse().unwrap());
        assert_eq!(t.candidates(&"10.0.0.0/8".parse().unwrap()).count(), 1);
        t.remove(PeerId(2), &"10.0.0.0/8".parse().unwrap());
        assert!(t.is_empty());
    }

    #[test]
    fn remove_peer_reports_touched_prefixes() {
        let mut t = CandidateTable::new();
        t.insert(PeerId(1), route("10.0.0.0/8", 1));
        t.insert(PeerId(1), route("20.0.0.0/8", 1));
        t.insert(PeerId(2), route("10.0.0.0/8", 2));
        let touched = t.remove_peer(PeerId(1));
        assert_eq!(touched.len(), 2);
        // 10/8 still has peer 2's candidate; 20/8 is gone entirely.
        assert_eq!(t.len(), 1);
    }
}
