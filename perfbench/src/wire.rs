//! `wire-churn`: every change goes out as RFC 4271 UPDATE bytes on its
//! announcer's BGP session to `ControlPlane`, which applies it on the
//! overlay fast path and re-advertises it; the viewer's router decodes the
//! re-advertisement and probes the fabric.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use sdx_bgp::session::{Endpoint, Session, SessionAction, SessionConfig, SessionEvent};
use sdx_bgp::wire::Message;
use sdx_bgp::Update;
use sdx_core::{CompileOptions, ControlPlane, ParticipantId};
use sdx_ip::Prefix;
use sdx_switch::BorderRouter;

use crate::churn::{self, Change, ChurnPath, Inputs, Recompile};
use crate::measure::{median, ms, pct, ratio, us, Tracer};
use crate::Outcome;

/// A participant's border router, played by the benchmark: a BGP session
/// over an in-memory transport and the FIB it learns from the wire.
struct Peer {
    session: Session,
    endpoint: Endpoint,
    router: BorderRouter,
}

impl Peer {
    /// Receive everything pending: run the session FSM, answer it, and
    /// apply delivered UPDATEs to the FIB. Returns the messages received.
    fn drain(&mut self) -> usize {
        let mut n = 0;
        while let Ok(Some(msg)) = self.endpoint.recv() {
            n += 1;
            for action in self.session.handle(SessionEvent::Message(msg)) {
                match action {
                    SessionAction::Send(out) => {
                        self.endpoint.send(&out);
                    }
                    SessionAction::Deliver(update) => self.learn(&update),
                    SessionAction::Established | SessionAction::Closed(_) => {}
                }
            }
        }
        n
    }

    fn learn(&mut self, update: &Update) {
        for prefix in &update.withdraw {
            self.router.remove_route(prefix);
        }
        if let Some(attrs) = &update.attrs {
            for prefix in &update.announce {
                self.router.install_route(*prefix, attrs.next_hop);
            }
        }
    }
}

struct Wire<'a> {
    inputs: &'a Inputs,
    cp: ControlPlane,
    peers: BTreeMap<ParticipantId, Peer>,
    pump_ns: Vec<u64>,
    apply_us: Vec<u64>,
    pump_other_ns: Vec<u64>,
    recv_ns: Vec<u64>,
    probe_ns: Vec<u64>,
    adverts: usize,
    readvertise_ns: Vec<u64>,
}

/// Set-up: install and compile the fabric, open a session per physical
/// participant, and let every router take the initial table dump.
fn setup(inputs: &Inputs) -> (ControlPlane, BTreeMap<ParticipantId, Peer>) {
    let mut rt = churn::install(&inputs.topology, &inputs.mix, CompileOptions::default());
    rt.compile().expect("initial compile");
    let mut cp = ControlPlane::new(rt);
    let mut peers = BTreeMap::new();
    for p in inputs
        .topology
        .participants
        .iter()
        .filter(|p| p.is_physical())
    {
        let endpoint = cp.connect(p.id);
        let mut session = Session::new(SessionConfig {
            asn: p.asn,
            router_id: p.router_id,
            hold_time: 90,
        });
        let mut actions = session.handle(SessionEvent::ManualStart);
        actions.extend(session.handle(SessionEvent::TransportUp));
        for action in actions {
            if let SessionAction::Send(msg) = action {
                endpoint.send(&msg);
            }
        }
        let port = &p.ports[0];
        let router = BorderRouter::new(port.port, port.mac, port.ip);
        peers.insert(
            p.id,
            Peer {
                session,
                endpoint,
                router,
            },
        );
    }
    loop {
        cp.pump();
        let received: usize = peers.values_mut().map(Peer::drain).sum();
        if received == 0 && peers.keys().all(|id| cp.is_established(*id)) {
            break;
        }
    }
    (cp, peers)
}

impl ChurnPath for Wire<'_> {
    fn change(&mut self, t: &mut Tracer, op: u64, index: usize) -> Change {
        let ev = &self.inputs.trace[index];
        let prefix = churn::prefix_of(ev);
        let msg = Message::Update(ev.update.clone());
        let updates_before = self.cp.runtime().incremental_stats().updates;
        let t0 = t.now();
        let sender = self.peers.get(&ev.from).expect("announcers hold sessions");
        let (_, send_ns) = t.span("bgp.session.send", op, |_| sender.endpoint.send(&msg));
        let cp = &mut self.cp;
        let (_, pump_ns) = t.span("core.control.pump", op, |_| cp.pump());
        let t_busy = t.now();
        let inc = self.cp.runtime().incremental_stats();
        self.pump_ns.push(pump_ns);
        self.apply_us.push(inc.last_update_us);
        self.pump_other_ns
            .push(pump_ns.saturating_sub(inc.last_update_us * 1_000));

        let mut change = Change {
            lead_ns: send_ns,
            busy_ns: pump_ns,
            path_ns: t_busy - t0,
            span_ns: send_ns + pump_ns,
            ..Default::default()
        };
        // A change that moved no best route is not re-advertised and has
        // nothing to probe, as in `ChurnEngine`.
        let target = (inc.updates > updates_before)
            .then(|| churn::probe_target(self.cp.runtime(), prefix))
            .flatten();
        if let Some(target) = target {
            let t1 = t.now();
            let peer = self
                .peers
                .get_mut(&target.0)
                .expect("viewers hold sessions");
            let (received, recv_ns) = t.span("bgp.session.viewer_recv", op, |_| peer.drain());
            let rt = self.cp.runtime_mut();
            let (probe, probe_ns, t2) = churn::probe(t, op, rt, &mut peer.router, prefix, target);
            change.path_ns += t2 - t1;
            change.span_ns += recv_ns + probe_ns;
            change.probe = Some(probe);
            self.adverts += received;
            self.recv_ns.push(recv_ns);
            self.probe_ns.push(probe_ns);
        }
        // The other routers take their re-advertisements off the clock.
        self.adverts += self.peers.values_mut().map(Peer::drain).sum::<usize>();
        change
    }

    fn background(&mut self, t: &mut Tracer, op: u64) -> Recompile {
        let cp = &mut self.cp;
        let rc = Recompile::timed(t, "core.control.compile_and_advertise", op, || {
            cp.compile_and_advertise()
        });
        if let Some(stats) = rc.stats {
            self.readvertise_ns
                .push(rc.wall_ns.saturating_sub(stats.duration_us * 1_000));
        }
        for peer in self.peers.values_mut() {
            peer.drain();
        }
        rc
    }
}

/// End-of-run audit: every router's wire-learned FIB against what the
/// route server advertises it. Returns (routers audited, routers with a
/// stale route, stale routes).
fn audit(cp: &ControlPlane, peers: &BTreeMap<ParticipantId, Peer>) -> (usize, usize, usize) {
    let rt = cp.runtime();
    let rs = rt.route_server();
    let mut stale_routers = 0;
    let mut stale = 0;
    for (id, peer) in peers {
        let fib: BTreeMap<Prefix, Ipv4Addr> = peer.router.routes().collect();
        let mut prefixes: Vec<Prefix> = fib.keys().copied().collect();
        prefixes.extend(rs.all_prefixes());
        prefixes.sort_unstable();
        prefixes.dedup();
        let wrong = prefixes
            .iter()
            .filter(|p| {
                let want = rs
                    .best_route(p, id.peer())
                    .and_then(|_| rt.advertised_next_hop(p, *id));
                want != fib.get(p).copied()
            })
            .count();
        stale += wrong;
        stale_routers += usize::from(wrong > 0);
    }
    (peers.len(), stale_routers, stale)
}

pub fn run(seconds: f64, setups: usize, t: &mut Tracer) -> Outcome {
    let inputs = churn::inputs(seconds);
    let ((cp, peers), setup_ns) = crate::set_up(t, setups, || setup(&inputs));
    let mut wire = Wire {
        inputs: &inputs,
        cp,
        peers,
        pump_ns: Vec::new(),
        apply_us: Vec::new(),
        pump_other_ns: Vec::new(),
        recv_ns: Vec::new(),
        probe_ns: Vec::new(),
        adverts: 0,
        readvertise_ns: Vec::new(),
    };
    let replay = churn::replay(&mut wire, &inputs, t);

    let oracle_start = t.now();
    let (routers, stale_routers, stale) = audit(&wire.cp, &wire.peers);
    let oracle_ns = t.now() - oracle_start;

    let mut out = Outcome::new(setup_ns);
    out.summary = replay.describe(wire.cp.runtime());
    out.summary.push_str(&format!(
        "# oracle fib_audit: {stale} stale routes \
         on {stale_routers} of {routers} routers ({:.1} ms)\n",
        ms(oracle_ns)
    ));
    out.attempted = (replay.probes + replay.recompiles.len() + routers) as u64;
    out.failed = (replay.failed.len() + replay.failed_recompiles() + stale_routers) as u64;
    out.work_ns = replay.path_ns;
    out.ops = replay.changes as u64;
    replay.end_to_end(&mut out.e2e);

    let m = &mut out.layers;
    replay.layers(m);
    crate::compile_layers(m, &replay.compile_stats());
    crate::switch_layers(m, wire.cp.runtime());
    m.put(
        "core.control.pump_p50_us",
        "us",
        us(pct(&mut wire.pump_ns, 0.5)),
    );
    m.put(
        "core.control.pump_p99_us",
        "us",
        us(pct(&mut wire.pump_ns, 0.99)),
    );
    m.put(
        "core.runtime.apply_update_p50_us",
        "us",
        median(&mut wire.apply_us) as f64,
    );
    m.put(
        "core.control.pump_other_p50_us",
        "us",
        us(median(&mut wire.pump_other_ns)),
    );
    m.put(
        "core.control.adverts_per_change",
        "count",
        ratio(wire.adverts as f64, replay.changes as f64),
    );
    m.put(
        "bgp.session.viewer_recv_p50_us",
        "us",
        us(median(&mut wire.recv_ns)),
    );
    m.put("switch.probe_p50_us", "us", us(median(&mut wire.probe_ns)));
    m.put(
        "core.control.readvertise_p50_ms",
        "ms",
        ms(median(&mut wire.readvertise_ns)),
    );
    m.put("core.control.stale_fib_routes", "count", stale as f64);
    m.put("oracle.check_ms", "ms", ms(oracle_ns));
    out
}
