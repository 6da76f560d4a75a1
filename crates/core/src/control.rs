//! The wire-facing control plane: BGP sessions between participant border
//! routers and the SDX route server, carried over the in-memory transport.
//!
//! This is the deployment glue of §5.1 — participants "interact with the
//! SDX route server in the same way that they do with a conventional route
//! server": they open an ordinary BGP session, send UPDATEs, and receive
//! re-advertisements whose next hops the SDX has substituted with virtual
//! next hops.

use std::collections::BTreeMap;

use sdx_bgp::session::{pipe, Endpoint, Session, SessionAction, SessionConfig, SessionEvent};
use sdx_bgp::wire::Message;
use sdx_bgp::{Asn, RouterId, Update};
use sdx_ip::Prefix;

use crate::{ParticipantId, SdxRuntime};

/// The route server's AS number on its sessions.
pub const ROUTE_SERVER_ASN: Asn = Asn(64_512);

/// The SDX control plane: the runtime plus one BGP session per connected
/// participant.
#[derive(Debug)]
pub struct ControlPlane {
    runtime: SdxRuntime,
    sessions: BTreeMap<ParticipantId, PeerSession>,
}

#[derive(Debug)]
struct PeerSession {
    session: Session,
    endpoint: Endpoint,
    established: bool,
}

impl ControlPlane {
    /// Wrap a configured runtime.
    pub fn new(runtime: SdxRuntime) -> Self {
        ControlPlane {
            runtime,
            sessions: BTreeMap::new(),
        }
    }

    /// The wrapped runtime.
    pub fn runtime(&self) -> &SdxRuntime {
        &self.runtime
    }

    /// Mutable access to the runtime (policy changes etc.).
    pub fn runtime_mut(&mut self) -> &mut SdxRuntime {
        &mut self.runtime
    }

    /// Open a BGP session for a registered participant. Returns the
    /// router-side transport endpoint; the caller drives its own
    /// [`Session`] over it. The server side starts immediately.
    pub fn connect(&mut self, id: ParticipantId) -> Endpoint {
        let (server_end, router_end) = pipe();
        let mut session = Session::new(SessionConfig {
            asn: ROUTE_SERVER_ASN,
            router_id: RouterId(0),
            hold_time: 90,
        });
        // Bring the server side up to OpenSent.
        let mut actions = session.handle(SessionEvent::ManualStart);
        actions.extend(session.handle(SessionEvent::TransportUp));
        for action in actions {
            if let SessionAction::Send(msg) = action {
                server_end.send(&msg);
            }
        }
        self.sessions.insert(
            id,
            PeerSession {
                session,
                endpoint: server_end,
                established: false,
            },
        );
        router_end
    }

    /// Is a participant's session established?
    pub fn is_established(&self, id: ParticipantId) -> bool {
        self.sessions
            .get(&id)
            .map(|p| p.established)
            .unwrap_or(false)
    }

    /// Drain every session: advance FSMs, feed delivered UPDATEs into the
    /// runtime (which runs the fast path), and re-advertise touched prefixes
    /// to every established peer — the sender included, since the fast path
    /// re-homes each touched prefix onto a fresh VNH for every viewer.
    /// Returns the number of UPDATEs applied. Call repeatedly until it
    /// returns 0 to reach quiescence.
    pub fn pump(&mut self) -> usize {
        let mut applied = 0;
        let ids: Vec<ParticipantId> = self.sessions.keys().copied().collect();
        for id in ids {
            // Collect this peer's deliverable updates first.
            let mut delivered: Vec<Update> = Vec::new();
            let mut came_up = false;
            {
                let peer = self.sessions.get_mut(&id).expect("session exists");
                while let Ok(Some(msg)) = peer.endpoint.recv() {
                    for action in peer.session.handle(SessionEvent::Message(msg)) {
                        match action {
                            SessionAction::Send(out) => {
                                peer.endpoint.send(&out);
                            }
                            SessionAction::Established => {
                                peer.established = true;
                                came_up = true;
                            }
                            SessionAction::Deliver(update) => delivered.push(update),
                            SessionAction::Closed(_) => {
                                peer.established = false;
                            }
                        }
                    }
                }
            }
            // A freshly established peer gets the full table (the initial
            // RIB dump a conventional route server performs).
            if came_up {
                self.dump_table_to(id);
            }
            for update in delivered {
                applied += 1;
                let touched = self.runtime.apply_update(id, &update);
                self.readvertise(&touched);
            }
        }
        applied
    }

    /// Send the current best-route table (with VNH substitution) to one
    /// peer.
    fn dump_table_to(&mut self, id: ParticipantId) {
        let prefixes = self.runtime.route_server().all_prefixes();
        self.send_advertisements(id, &prefixes);
    }

    /// Re-advertise the given prefixes to every established peer.
    fn readvertise(&mut self, prefixes: &[Prefix]) {
        let ids: Vec<ParticipantId> = self
            .sessions
            .iter()
            .filter(|(_, p)| p.established)
            .map(|(id, _)| *id)
            .collect();
        for id in ids {
            self.send_advertisements(id, prefixes);
        }
    }

    /// Send advertisements (or withdrawals) for `prefixes` to one peer.
    fn send_advertisements(&mut self, id: ParticipantId, prefixes: &[Prefix]) {
        let mut messages = Vec::new();
        for prefix in prefixes {
            match self.runtime.advertisement(prefix, id) {
                Some(update) => messages.push(Message::Update(update)),
                // No visible route: withdraw.
                None => messages.push(Message::Update(Update::withdraw([*prefix]))),
            }
        }
        if let Some(peer) = self.sessions.get_mut(&id) {
            if peer.established {
                for msg in &messages {
                    peer.endpoint.send(msg);
                }
            }
        }
    }

    /// Compile the runtime and push refreshed advertisements for every
    /// prefix to every established peer (VNH assignments may have changed).
    pub fn compile_and_advertise(&mut self) -> Result<crate::CompileStats, crate::CompileError> {
        let stats = self.runtime.compile()?;
        let prefixes = self.runtime.route_server().all_prefixes();
        self.readvertise(&prefixes);
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Participant, PortConfig};
    use sdx_bgp::{AsPath, PathAttributes, SessionState};
    use std::net::Ipv4Addr;

    struct Router {
        session: Session,
        endpoint: Endpoint,
        received: Vec<Update>,
    }

    impl Router {
        fn new(asn: u32, endpoint: Endpoint) -> Self {
            Router {
                session: Session::new(SessionConfig {
                    asn: Asn(asn),
                    router_id: RouterId(asn),
                    hold_time: 90,
                }),
                endpoint,
                received: Vec::new(),
            }
        }

        fn start(&mut self) {
            let mut actions = self.session.handle(SessionEvent::ManualStart);
            actions.extend(self.session.handle(SessionEvent::TransportUp));
            self.run_actions(actions);
        }

        fn run_actions(&mut self, actions: Vec<SessionAction>) {
            for action in actions {
                match action {
                    SessionAction::Send(msg) => {
                        self.endpoint.send(&msg);
                    }
                    SessionAction::Deliver(update) => self.received.push(update),
                    _ => {}
                }
            }
        }

        fn pump(&mut self) {
            while let Ok(Some(msg)) = self.endpoint.recv() {
                let actions = self.session.handle(SessionEvent::Message(msg));
                self.run_actions(actions);
            }
        }

        fn announce(&mut self, update: Update) {
            self.endpoint.send(&Message::Update(update));
        }
    }

    fn participant(i: u32) -> Participant {
        Participant::new(
            ParticipantId(i),
            Asn(65_000 + i),
            vec![PortConfig {
                port: i,
                mac: sdx_ip::MacAddr::from_u64(i as u64),
                ip: Ipv4Addr::from(0x0afe_0000 + i),
            }],
        )
    }

    fn converge(cp: &mut ControlPlane, routers: &mut [&mut Router]) {
        // Handshake messages don't surface as deliveries, so run a fixed
        // number of pump rounds (each round is a full message exchange).
        for _ in 0..10 {
            cp.pump();
            for r in routers.iter_mut() {
                r.pump();
            }
        }
    }

    #[test]
    fn sessions_establish_and_updates_flow() {
        let mut runtime = SdxRuntime::default();
        runtime.add_participant(participant(1));
        runtime.add_participant(participant(2));
        let mut cp = ControlPlane::new(runtime);

        let mut r1 = Router::new(65_001, cp.connect(ParticipantId(1)));
        let mut r2 = Router::new(65_002, cp.connect(ParticipantId(2)));
        r1.start();
        r2.start();
        converge(&mut cp, &mut [&mut r1, &mut r2]);

        assert_eq!(r1.session.state(), SessionState::Established);
        assert!(cp.is_established(ParticipantId(1)));
        assert!(cp.is_established(ParticipantId(2)));

        // Router 2 announces a prefix over the wire.
        r2.announce(Update::announce(
            ["20.0.0.0/8".parse().unwrap()],
            PathAttributes::new(AsPath::sequence([65_002]), Ipv4Addr::from(0x0afe_0002)),
        ));
        converge(&mut cp, &mut [&mut r1, &mut r2]);

        // The route server learned it…
        assert_eq!(cp.runtime().route_server().prefix_count(), 1);
        // …and re-advertised it to router 1. Router 2 hears the touched
        // prefix too, but never its own route back: it has no other route,
        // so it gets exactly one withdrawal.
        assert_eq!(r1.received.len(), 1);
        assert_eq!(r1.received[0].announce, vec!["20.0.0.0/8".parse().unwrap()]);
        assert_eq!(r2.received.len(), 1);
        assert_eq!(r2.received[0].withdraw, vec!["20.0.0.0/8".parse().unwrap()]);
        assert!(r2.received[0].announce.is_empty());
    }

    #[test]
    fn compiled_vnh_appears_on_the_wire() {
        let mut runtime = SdxRuntime::default();
        runtime.add_participant(participant(1));
        runtime.add_participant(participant(2));
        let mut cp = ControlPlane::new(runtime);
        let mut r1 = Router::new(65_001, cp.connect(ParticipantId(1)));
        let mut r2 = Router::new(65_002, cp.connect(ParticipantId(2)));
        r1.start();
        r2.start();
        converge(&mut cp, &mut [&mut r1, &mut r2]);

        r2.announce(Update::announce(
            ["20.0.0.0/8".parse().unwrap()],
            PathAttributes::new(AsPath::sequence([65_002]), Ipv4Addr::from(0x0afe_0002)),
        ));
        converge(&mut cp, &mut [&mut r1, &mut r2]);
        // Participant 1 installs a policy towards 2, putting 20/8 in a FEC.
        cp.runtime_mut().set_policy(
            ParticipantId(1),
            crate::ParticipantPolicy::new().outbound(crate::Clause::fwd(
                sdx_policy::Predicate::test(sdx_policy::Field::DstPort, 80u16),
                ParticipantId(2),
            )),
        );
        r1.received.clear();
        cp.compile_and_advertise().unwrap();
        converge(&mut cp, &mut [&mut r1, &mut r2]);

        // The refreshed advertisement to router 1 carries a VNH next hop.
        let nh = r1.received.last().unwrap().attrs.as_ref().unwrap().next_hop;
        assert!(
            "172.16.0.0/12"
                .parse::<sdx_ip::Prefix>()
                .unwrap()
                .contains_addr(nh),
            "next hop {nh} is not a VNH"
        );
    }

    #[test]
    fn withdrawal_propagates_as_withdrawal() {
        let mut runtime = SdxRuntime::default();
        runtime.add_participant(participant(1));
        runtime.add_participant(participant(2));
        let mut cp = ControlPlane::new(runtime);
        let mut r1 = Router::new(65_001, cp.connect(ParticipantId(1)));
        let mut r2 = Router::new(65_002, cp.connect(ParticipantId(2)));
        r1.start();
        r2.start();
        converge(&mut cp, &mut [&mut r1, &mut r2]);

        r2.announce(Update::announce(
            ["20.0.0.0/8".parse().unwrap()],
            PathAttributes::new(AsPath::sequence([65_002]), Ipv4Addr::from(0x0afe_0002)),
        ));
        converge(&mut cp, &mut [&mut r1, &mut r2]);
        r1.received.clear();

        r2.announce(Update::withdraw(["20.0.0.0/8".parse().unwrap()]));
        converge(&mut cp, &mut [&mut r1, &mut r2]);
        assert_eq!(r1.received.len(), 1);
        assert_eq!(r1.received[0].withdraw, vec!["20.0.0.0/8".parse().unwrap()]);
        assert!(r1.received[0].announce.is_empty());
    }

    #[test]
    fn withdrawing_sender_learns_the_remaining_route_under_a_fresh_vnh() {
        let mut runtime = SdxRuntime::default();
        runtime.add_participant(participant(1));
        runtime.add_participant(participant(2));
        let mut cp = ControlPlane::new(runtime);
        let mut r1 = Router::new(65_001, cp.connect(ParticipantId(1)));
        let mut r2 = Router::new(65_002, cp.connect(ParticipantId(2)));
        r1.start();
        r2.start();
        converge(&mut cp, &mut [&mut r1, &mut r2]);

        // Both routers announce 20/8; the exchange compiles.
        let prefix: Prefix = "20.0.0.0/8".parse().unwrap();
        r1.announce(Update::announce(
            [prefix],
            PathAttributes::new(AsPath::sequence([65_001]), Ipv4Addr::from(0x0afe_0001)),
        ));
        r2.announce(Update::announce(
            [prefix],
            PathAttributes::new(AsPath::sequence([65_002]), Ipv4Addr::from(0x0afe_0002)),
        ));
        converge(&mut cp, &mut [&mut r1, &mut r2]);
        cp.compile_and_advertise().unwrap();
        converge(&mut cp, &mut [&mut r1, &mut r2]);
        r2.received.clear();

        // Router 2 withdraws while router 1 still announces: the fast path
        // re-homes 20/8 onto a fresh VNH, and the sender must hear it too.
        r2.announce(Update::withdraw([prefix]));
        converge(&mut cp, &mut [&mut r1, &mut r2]);
        let fresh = cp
            .runtime()
            .overlays()
            .iter()
            .find(|o| o.prefix == prefix)
            .expect("the fast path re-homed 20/8")
            .vnh;
        assert_eq!(r2.received.len(), 1);
        assert_eq!(r2.received[0].announce, vec![prefix]);
        let attrs = r2.received[0].attrs.as_ref().unwrap();
        assert_eq!(attrs.next_hop, fresh);
        assert_eq!(attrs.as_path, AsPath::sequence([65_001]));
    }

    #[test]
    fn late_joiner_gets_full_table_dump() {
        let mut runtime = SdxRuntime::default();
        runtime.add_participant(participant(1));
        runtime.add_participant(participant(2));
        let mut cp = ControlPlane::new(runtime);
        let mut r2 = Router::new(65_002, cp.connect(ParticipantId(2)));
        r2.start();
        converge(&mut cp, &mut [&mut r2]);
        r2.announce(Update::announce(
            ["20.0.0.0/8".parse().unwrap()],
            PathAttributes::new(AsPath::sequence([65_002]), Ipv4Addr::from(0x0afe_0002)),
        ));
        converge(&mut cp, &mut [&mut r2]);

        // Router 1 connects afterwards and receives the existing table.
        let mut r1 = Router::new(65_001, cp.connect(ParticipantId(1)));
        r1.start();
        converge(&mut cp, &mut [&mut r1, &mut r2]);
        assert_eq!(r1.received.len(), 1);
        assert_eq!(r1.received[0].announce, vec!["20.0.0.0/8".parse().unwrap()]);
    }
}
