use std::net::Ipv4Addr;

use crate::Prefix;

/// A binary (Patricia-less, one bit per level) trie mapping IPv4 prefixes to
/// values, supporting exact lookup and longest-prefix match.
///
/// Border routers in the SDX data plane use this as their FIB (stage one of
/// the multi-stage FIB of §4.2); the route server uses it for its
/// longest-match index over announced prefixes, the RPKI validator to find
/// the ROAs covering a prefix, and the switch's tuple-space index to walk a
/// packet's containing prefixes. Structures that only need exact lookup and
/// ordered iteration, such as the Adj-RIB-In, use an ordered map instead:
/// [`iter`](Self::iter) copies every entry out. One bit per level keeps the
/// implementation obviously correct; at full-table scale (~500k prefixes)
/// it is still comfortably fast for the paper's experiments.
#[derive(Debug, Clone)]
pub struct PrefixTrie<V> {
    root: Node<V>,
    len: usize,
}

#[derive(Debug, Clone)]
struct Node<V> {
    value: Option<V>,
    children: [Option<Box<Node<V>>>; 2],
}

impl<V> Default for Node<V> {
    fn default() -> Self {
        Node {
            value: None,
            children: [None, None],
        }
    }
}

impl<V> Default for PrefixTrie<V> {
    fn default() -> Self {
        Self::new()
    }
}

/// The `i`-th bit of `bits`, counting from the most significant.
fn bit(bits: u32, i: u8) -> usize {
    ((bits >> (31 - i)) & 1) as usize
}

impl<V> PrefixTrie<V> {
    /// An empty trie.
    pub fn new() -> Self {
        PrefixTrie {
            root: Node::default(),
            len: 0,
        }
    }

    /// Number of prefixes stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the trie holds no prefixes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert a value for `prefix`, returning the previous value if any.
    pub fn insert(&mut self, prefix: Prefix, value: V) -> Option<V> {
        let mut node = &mut self.root;
        for i in 0..prefix.len() {
            let b = bit(prefix.bits(), i);
            node = node.children[b].get_or_insert_with(Box::default);
        }
        let old = node.value.replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Remove the value for exactly `prefix`, returning it if present.
    /// (Empty interior nodes are left in place; removal is rare in our
    /// workloads and lookups skip them for free.)
    pub fn remove(&mut self, prefix: &Prefix) -> Option<V> {
        let mut node = &mut self.root;
        for i in 0..prefix.len() {
            let b = bit(prefix.bits(), i);
            node = node.children[b].as_deref_mut()?;
        }
        let old = node.value.take();
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// The value stored for exactly `prefix`.
    pub fn get(&self, prefix: &Prefix) -> Option<&V> {
        let mut node = &self.root;
        for i in 0..prefix.len() {
            let b = bit(prefix.bits(), i);
            node = node.children[b].as_deref()?;
        }
        node.value.as_ref()
    }

    /// Mutable access to the value stored for exactly `prefix`.
    pub fn get_mut(&mut self, prefix: &Prefix) -> Option<&mut V> {
        let mut node = &mut self.root;
        for i in 0..prefix.len() {
            let b = bit(prefix.bits(), i);
            node = node.children[b].as_deref_mut()?;
        }
        node.value.as_mut()
    }

    /// Longest-prefix match for a single address: the most specific stored
    /// prefix containing `addr`, with its value.
    pub fn longest_match(&self, addr: Ipv4Addr) -> Option<(Prefix, &V)> {
        let bits = u32::from(addr);
        let mut node = &self.root;
        let mut best: Option<(Prefix, &V)> = None;
        for i in 0..=32u8 {
            if let Some(v) = &node.value {
                best = Some((Prefix::from_bits(bits, i), v));
            }
            if i == 32 {
                break;
            }
            match node.children[bit(bits, i)].as_deref() {
                Some(child) => node = child,
                None => break,
            }
        }
        best
    }

    /// All stored prefixes that contain `addr`, least specific first.
    pub fn matches(&self, addr: Ipv4Addr) -> Vec<(Prefix, &V)> {
        let mut out = Vec::new();
        self.walk(addr, |p, v| out.push((p, v)));
        out
    }

    /// Visit every stored prefix containing `addr`, least specific first,
    /// without allocating. This is the data-plane lookup primitive: the
    /// switch's tuple-space index walks the containing chain of each
    /// prefix-keyed bucket per packet, so the allocation-free form matters.
    pub fn walk<'a>(&'a self, addr: Ipv4Addr, mut visit: impl FnMut(Prefix, &'a V)) {
        let bits = u32::from(addr);
        let mut node = &self.root;
        for i in 0..=32u8 {
            if let Some(v) = &node.value {
                visit(Prefix::from_bits(bits, i), v);
            }
            if i == 32 {
                break;
            }
            match node.children[bit(bits, i)].as_deref() {
                Some(child) => node = child,
                None => break,
            }
        }
    }

    /// Iterate over all `(prefix, value)` pairs in lexicographic order.
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, &V)> {
        let mut out = Vec::with_capacity(self.len);
        collect(&self.root, 0, 0, &mut out);
        out.into_iter()
    }

    /// Remove every entry.
    pub fn clear(&mut self) {
        self.root = Node::default();
        self.len = 0;
    }
}

fn collect<'a, V>(node: &'a Node<V>, bits: u32, depth: u8, out: &mut Vec<(Prefix, &'a V)>) {
    if let Some(v) = &node.value {
        out.push((Prefix::from_bits(bits, depth), v));
    }
    if depth == 32 {
        return;
    }
    if let Some(child) = node.children[0].as_deref() {
        collect(child, bits, depth + 1, out);
    }
    if let Some(child) = node.children[1].as_deref() {
        collect(child, bits | (1 << (31 - depth)), depth + 1, out);
    }
}

impl<V> FromIterator<(Prefix, V)> for PrefixTrie<V> {
    fn from_iter<T: IntoIterator<Item = (Prefix, V)>>(iter: T) -> Self {
        let mut trie = PrefixTrie::new();
        for (p, v) in iter {
            trie.insert(p, v);
        }
        trie
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn a(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn insert_get_remove() {
        let mut t = PrefixTrie::new();
        assert_eq!(t.insert(p("10.0.0.0/8"), 1), None);
        assert_eq!(t.insert(p("10.0.0.0/8"), 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&p("10.0.0.0/8")), Some(&2));
        assert_eq!(t.get(&p("10.0.0.0/16")), None);
        assert_eq!(t.remove(&p("10.0.0.0/8")), Some(2));
        assert_eq!(t.remove(&p("10.0.0.0/8")), None);
        assert!(t.is_empty());
    }

    #[test]
    fn longest_match_prefers_specific() {
        let mut t = PrefixTrie::new();
        t.insert(p("0.0.0.0/0"), "default");
        t.insert(p("10.0.0.0/8"), "eight");
        t.insert(p("10.1.0.0/16"), "sixteen");
        assert_eq!(t.longest_match(a("10.1.2.3")).unwrap().1, &"sixteen");
        assert_eq!(t.longest_match(a("10.2.0.1")).unwrap().1, &"eight");
        assert_eq!(t.longest_match(a("192.0.2.1")).unwrap().1, &"default");
    }

    #[test]
    fn longest_match_none_when_empty_or_uncovered() {
        let mut t = PrefixTrie::new();
        assert!(t.longest_match(a("10.0.0.1")).is_none());
        t.insert(p("10.0.0.0/8"), ());
        assert!(t.longest_match(a("11.0.0.1")).is_none());
    }

    #[test]
    fn matches_returns_chain_least_specific_first() {
        let mut t = PrefixTrie::new();
        t.insert(p("0.0.0.0/0"), 0);
        t.insert(p("10.0.0.0/8"), 8);
        t.insert(p("10.1.0.0/16"), 16);
        t.insert(p("10.1.2.3/32"), 32);
        let chain: Vec<i32> = t
            .matches(a("10.1.2.3"))
            .into_iter()
            .map(|(_, v)| *v)
            .collect();
        assert_eq!(chain, vec![0, 8, 16, 32]);
    }

    #[test]
    fn walk_agrees_with_matches() {
        let mut t = PrefixTrie::new();
        t.insert(p("0.0.0.0/0"), 0);
        t.insert(p("10.0.0.0/8"), 8);
        t.insert(p("10.1.0.0/16"), 16);
        for addr in ["10.1.2.3", "10.9.9.9", "192.0.2.1"] {
            let mut walked = Vec::new();
            t.walk(a(addr), |q, v| walked.push((q, v)));
            assert_eq!(walked, t.matches(a(addr)));
        }
    }

    #[test]
    fn host_route_matchable() {
        let mut t = PrefixTrie::new();
        t.insert(p("1.2.3.4/32"), "host");
        assert_eq!(t.longest_match(a("1.2.3.4")).unwrap().1, &"host");
        assert!(t.longest_match(a("1.2.3.5")).is_none());
    }

    #[test]
    fn iter_visits_all_in_order() {
        let prefixes = ["10.0.0.0/8", "0.0.0.0/0", "10.1.0.0/16", "192.168.0.0/24"];
        let t: PrefixTrie<usize> = prefixes
            .iter()
            .enumerate()
            .map(|(i, s)| (p(s), i))
            .collect();
        let got: Vec<Prefix> = t.iter().map(|(q, _)| q).collect();
        assert_eq!(got.len(), 4);
        // Lexicographic (DFS, zero-branch first) ordering.
        assert_eq!(got[0], p("0.0.0.0/0"));
        assert_eq!(got[1], p("10.0.0.0/8"));
        assert_eq!(got[2], p("10.1.0.0/16"));
        assert_eq!(got[3], p("192.168.0.0/24"));
    }

    #[test]
    fn clear_resets() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), ());
        t.clear();
        assert!(t.is_empty());
        assert!(t.longest_match(a("10.0.0.1")).is_none());
    }
}
