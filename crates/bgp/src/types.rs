use std::fmt;
use std::net::Ipv4Addr;

use serde::{Deserialize, Serialize};

/// An autonomous system number (4-octet, RFC 6793).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Asn(pub u32);

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

impl From<u32> for Asn {
    fn from(v: u32) -> Self {
        Asn(v)
    }
}

/// Identifies a BGP peer (an SDX participant's border router) on the route
/// server. The SDX maps participants to peers one-to-one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PeerId(pub u32);

impl fmt::Display for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "peer{}", self.0)
    }
}

/// A BGP identifier (router ID), compared numerically in the decision
/// process tie-break.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RouterId(pub u32);

impl RouterId {
    /// Build from the conventional dotted-quad form.
    pub fn from_addr(addr: Ipv4Addr) -> Self {
        RouterId(u32::from(addr))
    }

    /// The dotted-quad rendering.
    pub fn addr(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.0)
    }
}

impl fmt::Display for RouterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.addr())
    }
}

/// The ORIGIN path attribute (RFC 4271 §5.1.1). Lower is preferred.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Origin {
    /// Learned from an interior routing protocol.
    Igp = 0,
    /// Learned via EGP.
    Egp = 1,
    /// Origin unknown.
    Incomplete = 2,
}

impl Origin {
    /// Decode from the wire value.
    pub fn from_u8(v: u8) -> Option<Origin> {
        match v {
            0 => Some(Origin::Igp),
            1 => Some(Origin::Egp),
            2 => Some(Origin::Incomplete),
            _ => None,
        }
    }
}

impl fmt::Display for Origin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Origin::Igp => write!(f, "IGP"),
            Origin::Egp => write!(f, "EGP"),
            Origin::Incomplete => write!(f, "?"),
        }
    }
}

/// A standard community value (RFC 1997), conventionally `ASN:value`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Community(pub u32);

impl Community {
    /// RFC 1997 NO_EXPORT: do not re-advertise beyond the local domain —
    /// a route server drops such routes from every Adj-RIB-Out.
    pub const NO_EXPORT: Community = Community(0xffff_ff01);

    /// RFC 1997 NO_ADVERTISE: do not re-advertise at all.
    pub const NO_ADVERTISE: Community = Community(0xffff_ff02);

    /// The conventional route-server action community `0:peer-as`:
    /// "do not export this route to `peer-as`".
    pub fn rs_deny_to(peer_as: u16) -> Community {
        Community::new(0, peer_as)
    }

    /// The conventional route-server action community `64512:peer-as`
    /// (route servers often use their own ASN; we follow the common
    /// private-ASN convention): "export this route only to `peer-as`".
    pub fn rs_only_to(peer_as: u16) -> Community {
        Community::new(64_512, peer_as)
    }

    /// Build from the conventional `asn:value` halves.
    pub fn new(asn: u16, value: u16) -> Self {
        Community(((asn as u32) << 16) | value as u32)
    }

    /// The high (ASN) half.
    pub fn asn(&self) -> u16 {
        (self.0 >> 16) as u16
    }

    /// The low (value) half.
    pub fn value(&self) -> u16 {
        self.0 as u16
    }
}

impl fmt::Display for Community {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.asn(), self.value())
    }
}

/// An AS path: an ordered sequence of segments.
///
/// We model the two RFC 4271 segment kinds. Sequences contribute their length
/// to path-length comparison; sets contribute 1 (RFC 4271 §9.1.2.2 note a).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct AsPath {
    segments: Vec<AsPathSegment>,
}

/// One AS_PATH segment.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AsPathSegment {
    /// An ordered sequence of traversed ASes.
    Sequence(Vec<Asn>),
    /// An unordered set (the result of aggregation).
    Set(Vec<Asn>),
}

impl AsPath {
    /// The empty path (a route originated locally).
    pub fn empty() -> Self {
        AsPath::default()
    }

    /// A path that is a single sequence of ASes.
    pub fn sequence(asns: impl IntoIterator<Item = u32>) -> Self {
        AsPath {
            segments: vec![AsPathSegment::Sequence(asns.into_iter().map(Asn).collect())],
        }
    }

    /// The raw segments.
    pub fn segments(&self) -> &[AsPathSegment] {
        &self.segments
    }

    /// Append a segment.
    pub fn push_segment(&mut self, seg: AsPathSegment) {
        self.segments.push(seg);
    }

    /// Prepend an AS (what a router does when exporting a route).
    pub fn prepend(&self, asn: Asn) -> AsPath {
        let mut segments = self.segments.clone();
        match segments.first_mut() {
            Some(AsPathSegment::Sequence(seq)) => seq.insert(0, asn),
            _ => segments.insert(0, AsPathSegment::Sequence(vec![asn])),
        }
        AsPath { segments }
    }

    /// Path length for the decision process: sequence hops count 1 each,
    /// each set counts 1.
    pub fn path_len(&self) -> usize {
        self.segments
            .iter()
            .map(|s| match s {
                AsPathSegment::Sequence(seq) => seq.len(),
                AsPathSegment::Set(_) => 1,
            })
            .sum()
    }

    /// All ASes on the path, in order (sets flattened in place).
    pub fn asns(&self) -> Vec<Asn> {
        self.segments
            .iter()
            .flat_map(AsPathSegment::members)
            .copied()
            .collect()
    }

    /// The originating AS (last on the path), if any.
    pub fn origin_as(&self) -> Option<Asn> {
        self.segments
            .iter()
            .rev()
            .find_map(|s| s.members().last())
            .copied()
    }

    /// The neighbor AS (first on the path), if any.
    pub fn first_as(&self) -> Option<Asn> {
        self.segments
            .iter()
            .find_map(|s| s.members().first())
            .copied()
    }

    /// Does the path contain this AS (loop detection)? The route server asks
    /// this on every export decision, so it scans the segments in place.
    pub fn contains(&self, asn: Asn) -> bool {
        self.segments.iter().any(|s| s.members().contains(&asn))
    }
}

impl AsPathSegment {
    /// The segment's ASes, in order.
    fn members(&self) -> &[Asn] {
        match self {
            AsPathSegment::Sequence(asns) | AsPathSegment::Set(asns) => asns,
        }
    }
}

impl fmt::Display for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, seg) in self.segments.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            match seg {
                AsPathSegment::Sequence(seq) => {
                    for (j, asn) in seq.iter().enumerate() {
                        if j > 0 {
                            write!(f, " ")?;
                        }
                        write!(f, "{}", asn.0)?;
                    }
                }
                AsPathSegment::Set(set) => {
                    write!(f, "{{")?;
                    for (j, asn) in set.iter().enumerate() {
                        if j > 0 {
                            write!(f, ",")?;
                        }
                        write!(f, "{}", asn.0)?;
                    }
                    write!(f, "}}")?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn asn_and_router_id_display() {
        assert_eq!(Asn(65000).to_string(), "AS65000");
        assert_eq!(
            RouterId::from_addr(Ipv4Addr::new(10, 0, 0, 1)).to_string(),
            "10.0.0.1"
        );
    }

    #[test]
    fn community_halves() {
        let c = Community::new(65000, 42);
        assert_eq!(c.asn(), 65000);
        assert_eq!(c.value(), 42);
        assert_eq!(c.to_string(), "65000:42");
    }

    #[test]
    fn origin_wire_values() {
        assert_eq!(Origin::from_u8(0), Some(Origin::Igp));
        assert_eq!(Origin::from_u8(2), Some(Origin::Incomplete));
        assert_eq!(Origin::from_u8(3), None);
        assert!(Origin::Igp < Origin::Incomplete);
    }

    #[test]
    fn as_path_prepend_and_length() {
        let p = AsPath::sequence([3356, 43515]);
        assert_eq!(p.path_len(), 2);
        let q = p.prepend(Asn(174));
        assert_eq!(q.path_len(), 3);
        assert_eq!(q.first_as(), Some(Asn(174)));
        assert_eq!(q.origin_as(), Some(Asn(43515)));
        assert_eq!(q.to_string(), "174 3356 43515");
    }

    #[test]
    fn as_path_sets_count_once() {
        let mut p = AsPath::sequence([1, 2]);
        p.push_segment(AsPathSegment::Set(vec![Asn(3), Asn(4), Asn(5)]));
        assert_eq!(p.path_len(), 3);
        assert!(p.contains(Asn(4)));
        assert_eq!(p.to_string(), "1 2 {3,4,5}");
    }

    #[test]
    fn in_place_queries_match_the_flattened_path() {
        let mut mixed = AsPath::sequence([1, 2]);
        mixed.push_segment(AsPathSegment::Set(vec![Asn(3), Asn(4)]));
        mixed.push_segment(AsPathSegment::Sequence(Vec::new()));
        mixed.push_segment(AsPathSegment::Sequence(vec![Asn(5), Asn(2)]));
        let mut set_first = AsPath::empty();
        set_first.push_segment(AsPathSegment::Set(Vec::new()));
        set_first.push_segment(AsPathSegment::Set(vec![Asn(9), Asn(7)]));
        set_first.push_segment(AsPathSegment::Sequence(vec![Asn(8)]));
        set_first.push_segment(AsPathSegment::Set(Vec::new()));
        let mut only_empty_segments = AsPath::empty();
        only_empty_segments.push_segment(AsPathSegment::Sequence(Vec::new()));
        only_empty_segments.push_segment(AsPathSegment::Set(Vec::new()));
        for path in [
            AsPath::empty(),
            AsPath::sequence([42]),
            mixed,
            set_first,
            only_empty_segments,
        ] {
            let flat = path.asns();
            assert_eq!(path.origin_as(), flat.last().copied(), "{path}");
            assert_eq!(path.first_as(), flat.first().copied(), "{path}");
            for asn in (0..=10).map(Asn) {
                assert_eq!(path.contains(asn), flat.contains(&asn), "{path} {asn}");
            }
        }
    }

    #[test]
    fn prepend_to_empty_path() {
        let p = AsPath::empty().prepend(Asn(7));
        assert_eq!(p.path_len(), 1);
        assert_eq!(p.origin_as(), Some(Asn(7)));
    }
}
