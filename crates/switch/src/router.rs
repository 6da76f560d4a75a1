//! A participant's BGP border router, modelled at the forwarding level.
//!
//! This is stage one of the paper's multi-stage FIB (§4.2, Figure 2): the
//! router's own forwarding table maps destination prefixes to BGP next-hop
//! IPs. Because the SDX route server advertises *virtual* next hops, the
//! router's ordinary BGP/ARP machinery ends up tagging packets with the VMAC
//! for the destination's forwarding equivalence class — "without any
//! additional table space" and with unmodified routers.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use sdx_ip::{MacAddr, Prefix, PrefixTrie};
use sdx_policy::{Field, Packet};

use crate::arp::{ArpReply, ArpRequest, ETHTYPE_IPV4};

/// The border router's forwarding state.
#[derive(Debug, Clone)]
pub struct BorderRouter {
    /// The router's MAC on its IXP-facing interface.
    mac: MacAddr,
    /// The router's IP on the IXP peering LAN.
    ip: Ipv4Addr,
    /// The SDX fabric port the router is attached to.
    port: u32,
    /// FIB: destination prefix → BGP next-hop IP (a VNH at an SDX).
    fib: PrefixTrie<Ipv4Addr>,
    /// ARP cache: next-hop IP → MAC (a VMAC at an SDX).
    arp_cache: BTreeMap<Ipv4Addr, MacAddr>,
}

/// What the router does with an outbound packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Forward {
    /// Frame ready to enter the SDX fabric on the router's port.
    Frame(Packet),
    /// The next hop's MAC is unknown; the router must ARP for it first.
    NeedArp(ArpRequest),
    /// No route for the destination.
    NoRoute,
}

impl BorderRouter {
    /// A router attached to fabric port `port`.
    pub fn new(port: u32, mac: MacAddr, ip: Ipv4Addr) -> Self {
        BorderRouter {
            mac,
            ip,
            port,
            fib: PrefixTrie::new(),
            arp_cache: BTreeMap::new(),
        }
    }

    /// The router's fabric port.
    pub fn port(&self) -> u32 {
        self.port
    }

    /// The router's interface MAC.
    pub fn mac(&self) -> MacAddr {
        self.mac
    }

    /// The router's peering-LAN IP.
    pub fn ip(&self) -> Ipv4Addr {
        self.ip
    }

    /// Install (or replace) a route: what happens when BGP selects a best
    /// path whose NEXT_HOP is `next_hop`.
    pub fn install_route(&mut self, prefix: Prefix, next_hop: Ipv4Addr) {
        self.fib.insert(prefix, next_hop);
    }

    /// Remove a route (withdrawal with no replacement).
    pub fn remove_route(&mut self, prefix: &Prefix) -> Option<Ipv4Addr> {
        self.fib.remove(prefix)
    }

    /// Apply one FIB decision for `prefix`: `Some((next_hop, mac))`
    /// installs the route and, when the next hop resolved, learns its MAC;
    /// `None` removes the route.
    pub fn set_route(&mut self, prefix: Prefix, route: Option<(Ipv4Addr, Option<MacAddr>)>) {
        match route {
            Some((next_hop, mac)) => {
                self.install_route(prefix, next_hop);
                if let Some(mac) = mac {
                    self.arp_cache.insert(next_hop, mac);
                }
            }
            None => {
                self.remove_route(&prefix);
            }
        }
    }

    /// Number of FIB entries.
    pub fn fib_len(&self) -> usize {
        self.fib.len()
    }

    /// The next hop the FIB currently selects for an address.
    pub fn next_hop_for(&self, dst: Ipv4Addr) -> Option<Ipv4Addr> {
        self.fib.longest_match(dst).map(|(_, nh)| *nh)
    }

    /// Iterate over the FIB: `(prefix, next hop)` in lexicographic order.
    /// The whole-fabric verifier reads the router's real forwarding state
    /// through this instead of re-deriving it from BGP.
    pub fn routes(&self) -> impl Iterator<Item = (Prefix, Ipv4Addr)> + '_ {
        self.fib.iter().map(|(p, nh)| (p, *nh))
    }

    /// The cached MAC for a next-hop IP, if the router has resolved it.
    pub fn arp_lookup(&self, ip: Ipv4Addr) -> Option<MacAddr> {
        self.arp_cache.get(&ip).copied()
    }

    /// Learn an ARP binding (from a reply or gratuitous ARP).
    pub fn learn_arp(&mut self, reply: &ArpReply) {
        self.arp_cache.insert(reply.sender_ip, reply.sender_mac);
    }

    /// Forget an ARP binding (cache expiry).
    pub fn expire_arp(&mut self, ip: &Ipv4Addr) {
        self.arp_cache.remove(ip);
    }

    /// Forward an IP packet: longest-prefix match, resolve the next hop's
    /// MAC, and emit the frame onto the fabric port with the destination MAC
    /// set — at an SDX, that destination MAC is the FEC's VMAC tag.
    pub fn forward(&self, mut pkt: Packet) -> Forward {
        let Some(dst) = pkt.dst_ip() else {
            return Forward::NoRoute;
        };
        let Some(next_hop) = self.next_hop_for(dst) else {
            return Forward::NoRoute;
        };
        let Some(nh_mac) = self.arp_cache.get(&next_hop) else {
            return Forward::NeedArp(ArpRequest {
                sender_mac: self.mac,
                sender_ip: self.ip,
                target_ip: next_hop,
            });
        };
        pkt.set(Field::Port, self.port);
        pkt.set(Field::EthType, ETHTYPE_IPV4);
        pkt.set(Field::SrcMac, self.mac);
        pkt.set(Field::DstMac, *nh_mac);
        Forward::Frame(pkt)
    }

    /// [`forward`](Self::forward) with ARP resolved synchronously: on a
    /// cache miss, ask `arp`, learn the reply, and retry once. The frame,
    /// or `None` when there is no route or the next hop does not resolve.
    pub fn forward_resolving(
        &mut self,
        pkt: Packet,
        arp: impl FnOnce(&ArpRequest) -> Option<ArpReply>,
    ) -> Option<Packet> {
        match self.forward(pkt.clone()) {
            Forward::Frame(f) => Some(f),
            Forward::NeedArp(req) => {
                self.learn_arp(&arp(&req)?);
                match self.forward(pkt) {
                    Forward::Frame(f) => Some(f),
                    _ => None,
                }
            }
            Forward::NoRoute => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn router() -> BorderRouter {
        BorderRouter::new(1, MacAddr::from_u64(0xa1), Ipv4Addr::new(172, 0, 0, 1))
    }

    fn ip_pkt(dst: &str) -> Packet {
        Packet::new()
            .with(Field::DstIp, dst.parse::<Ipv4Addr>().unwrap())
            .with(Field::DstPort, 80u16)
    }

    fn reply(ip: &str, mac: u64) -> ArpReply {
        ArpReply {
            sender_mac: MacAddr::from_u64(mac),
            sender_ip: ip.parse().unwrap(),
            target_mac: MacAddr::from_u64(0xa1),
            target_ip: Ipv4Addr::new(172, 0, 0, 1),
        }
    }

    #[test]
    fn no_route_without_fib_entry() {
        let r = router();
        assert_eq!(r.forward(ip_pkt("10.0.0.1")), Forward::NoRoute);
    }

    #[test]
    fn needs_arp_before_first_frame() {
        let mut r = router();
        r.install_route("10.0.0.0/8".parse().unwrap(), "172.16.0.5".parse().unwrap());
        match r.forward(ip_pkt("10.0.0.1")) {
            Forward::NeedArp(req) => {
                assert_eq!(req.target_ip, "172.16.0.5".parse::<Ipv4Addr>().unwrap());
                assert_eq!(req.sender_mac, r.mac());
            }
            other => panic!("expected NeedArp, got {other:?}"),
        }
    }

    #[test]
    fn frames_carry_vmac_after_arp() {
        let mut r = router();
        r.install_route("10.0.0.0/8".parse().unwrap(), "172.16.0.5".parse().unwrap());
        r.learn_arp(&reply("172.16.0.5", 0x0200_0000_0007));
        match r.forward(ip_pkt("10.0.0.1")) {
            Forward::Frame(f) => {
                assert_eq!(f.dst_mac(), Some(MacAddr::from_u64(0x0200_0000_0007)));
                assert_eq!(f.src_mac(), Some(r.mac()));
                assert_eq!(f.port(), Some(1));
            }
            other => panic!("expected Frame, got {other:?}"),
        }
    }

    #[test]
    fn longest_prefix_match_selects_specific_route() {
        let mut r = router();
        r.install_route("10.0.0.0/8".parse().unwrap(), "172.16.0.1".parse().unwrap());
        r.install_route(
            "10.1.0.0/16".parse().unwrap(),
            "172.16.0.2".parse().unwrap(),
        );
        assert_eq!(
            r.next_hop_for("10.1.2.3".parse().unwrap()),
            Some("172.16.0.2".parse().unwrap())
        );
        assert_eq!(
            r.next_hop_for("10.2.0.1".parse().unwrap()),
            Some("172.16.0.1".parse().unwrap())
        );
    }

    #[test]
    fn next_hop_change_rebinds_vmac() {
        // A BGP update changing the VNH makes subsequent packets carry the
        // new VMAC — the control-plane signalling trick of §4.2.
        let mut r = router();
        r.install_route("10.0.0.0/8".parse().unwrap(), "172.16.0.1".parse().unwrap());
        r.learn_arp(&reply("172.16.0.1", 1));
        r.learn_arp(&reply("172.16.0.2", 2));
        r.install_route("10.0.0.0/8".parse().unwrap(), "172.16.0.2".parse().unwrap());
        match r.forward(ip_pkt("10.0.0.1")) {
            Forward::Frame(f) => assert_eq!(f.dst_mac(), Some(MacAddr::from_u64(2))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn routes_and_arp_are_observable() {
        let mut r = router();
        r.install_route("10.0.0.0/8".parse().unwrap(), "172.16.0.5".parse().unwrap());
        r.install_route("20.0.0.0/8".parse().unwrap(), "172.16.0.6".parse().unwrap());
        r.learn_arp(&reply("172.16.0.5", 0x42));
        let routes: Vec<_> = r.routes().collect();
        assert_eq!(routes.len(), 2);
        assert_eq!(routes[0].0, "10.0.0.0/8".parse().unwrap());
        assert_eq!(
            r.arp_lookup("172.16.0.5".parse().unwrap()),
            Some(MacAddr::from_u64(0x42))
        );
        assert_eq!(r.arp_lookup("172.16.0.6".parse().unwrap()), None);
    }

    #[test]
    fn set_route_applies_one_fib_decision() {
        let mut r = router();
        let prefix: Prefix = "10.0.0.0/8".parse().unwrap();
        let (nh1, nh2): (Ipv4Addr, Ipv4Addr) =
            ("172.16.0.5".parse().unwrap(), "172.16.0.6".parse().unwrap());
        r.set_route(prefix, Some((nh1, Some(MacAddr::from_u64(0x42)))));
        assert_eq!(r.routes().collect::<Vec<_>>(), vec![(prefix, nh1)]);
        assert_eq!(r.arp_lookup(nh1), Some(MacAddr::from_u64(0x42)));
        // An unresolved next hop installs the route and learns nothing.
        r.set_route(prefix, Some((nh2, None)));
        assert_eq!(r.routes().collect::<Vec<_>>(), vec![(prefix, nh2)]);
        assert_eq!(r.arp_lookup(nh2), None);
        r.set_route(prefix, None);
        assert_eq!(r.fib_len(), 0);
    }

    #[test]
    fn forward_resolving_learns_and_retries_once() {
        let mut r = router();
        r.install_route("10.0.0.0/8".parse().unwrap(), "172.16.0.5".parse().unwrap());
        assert_eq!(r.forward_resolving(ip_pkt("10.0.0.1"), |_| None), None);
        let frame = r
            .forward_resolving(ip_pkt("10.0.0.1"), |req| {
                assert_eq!(req.target_ip, "172.16.0.5".parse::<Ipv4Addr>().unwrap());
                Some(reply("172.16.0.5", 7))
            })
            .expect("resolved frame");
        assert_eq!(frame.dst_mac(), Some(MacAddr::from_u64(7)));
        // The binding is cached: no second ARP round trip.
        assert!(r
            .forward_resolving(ip_pkt("10.0.0.1"), |_| panic!("cached"))
            .is_some());
        assert_eq!(
            r.forward_resolving(ip_pkt("30.0.0.1"), |_| panic!("no route")),
            None
        );
    }

    #[test]
    fn route_removal_and_arp_expiry() {
        let mut r = router();
        r.install_route("10.0.0.0/8".parse().unwrap(), "172.16.0.1".parse().unwrap());
        r.learn_arp(&reply("172.16.0.1", 1));
        r.expire_arp(&"172.16.0.1".parse().unwrap());
        assert!(matches!(r.forward(ip_pkt("10.0.0.1")), Forward::NeedArp(_)));
        r.remove_route(&"10.0.0.0/8".parse().unwrap());
        assert_eq!(r.forward(ip_pkt("10.0.0.1")), Forward::NoRoute);
        assert_eq!(r.fib_len(), 0);
    }
}
