//! End-to-end fabric simulation: the SDX runtime plus one border router per
//! participant port, kept in sync with the route server's advertisements.
//! This is the harness behind the deployment experiments (Figure 5) and the
//! examples: it exercises the *actual* compiled flow rules, the multi-stage
//! FIB, ARP, and VMAC tagging.

use std::collections::BTreeMap;

use sdx_policy::Packet;
use sdx_switch::{encode_frame, BorderRouter, PcapWriter};

use crate::{ParticipantId, SdxRuntime};

/// A delivered packet: where it left the fabric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// The participant owning the egress port.
    pub to: ParticipantId,
    /// The egress fabric port.
    pub port: u32,
    /// The packet as it left (rewrites applied).
    pub packet: Packet,
}

/// The simulation: runtime + border routers.
#[derive(Debug)]
pub struct FabricSim {
    runtime: SdxRuntime,
    /// One router per (participant, port), keyed by fabric port number.
    routers: BTreeMap<u32, (ParticipantId, BorderRouter)>,
    /// Participants that re-inject delivered traffic (middleboxes): a
    /// delivery to them is processed and sent onward through their own
    /// router, enabling the service chaining of §8.
    reinjectors: std::collections::BTreeSet<ParticipantId>,
    /// Optional packet capture of every frame entering the fabric.
    capture: Option<PcapWriter>,
    /// Virtual clock for capture timestamps, microseconds.
    clock_us: u64,
    /// Delivered packets per (sender, receiver) pair.
    matrix: BTreeMap<(ParticipantId, ParticipantId), u64>,
}

impl FabricSim {
    /// Wrap a configured runtime, creating a border router for every
    /// registered participant port.
    pub fn new(runtime: SdxRuntime) -> Self {
        let mut routers = BTreeMap::new();
        for participant in runtime.participants() {
            for port in &participant.ports {
                routers.insert(
                    port.port,
                    (
                        participant.id,
                        BorderRouter::new(port.port, port.mac, port.ip),
                    ),
                );
            }
        }
        FabricSim {
            runtime,
            routers,
            reinjectors: std::collections::BTreeSet::new(),
            capture: None,
            clock_us: 0,
            matrix: BTreeMap::new(),
        }
    }

    /// Start capturing every frame that enters the fabric (the deployment
    /// tooling's `--pcap`). Retrieve the capture with
    /// [`take_capture`](Self::take_capture).
    pub fn enable_capture(&mut self) {
        self.capture = Some(PcapWriter::new());
    }

    /// Finish and return the capture, if one was enabled.
    pub fn take_capture(&mut self) -> Option<bytes::Bytes> {
        self.capture.take().map(PcapWriter::finish)
    }

    /// Advance the virtual clock used for capture timestamps.
    pub fn set_time_us(&mut self, us: u64) {
        self.clock_us = us;
    }

    /// Packets delivered per (sender, receiver) pair since construction —
    /// the exchange's traffic matrix.
    pub fn traffic_matrix(&self) -> &BTreeMap<(ParticipantId, ParticipantId), u64> {
        &self.matrix
    }

    /// Mark a participant as a middlebox that re-injects traffic it
    /// receives: deliveries to it are forwarded onward through its own
    /// border router (its outbound SDX clauses apply), chaining services.
    pub fn enable_reinjection(&mut self, id: ParticipantId) {
        self.reinjectors.insert(id);
    }

    /// The wrapped runtime.
    pub fn runtime(&self) -> &SdxRuntime {
        &self.runtime
    }

    /// Mutable access (policy changes, BGP updates). Call
    /// [`sync`](Self::sync) afterwards.
    pub fn runtime_mut(&mut self) -> &mut SdxRuntime {
        &mut self.runtime
    }

    /// A participant's border router (the one at its primary port).
    pub fn router(&self, id: ParticipantId) -> Option<&BorderRouter> {
        self.routers
            .values()
            .find(|(owner, _)| *owner == id)
            .map(|(_, r)| r)
    }

    /// Propagate the SDX's current advertisements into every border router
    /// (routes and resolved next-hop MACs).
    pub fn sync(&mut self) {
        for (owner, router) in self.routers.values_mut() {
            self.runtime.sync_router(*owner, router);
        }
    }

    /// Send an IP packet from a participant's network: its border router
    /// forwards (FIB + ARP → VMAC tag), the fabric switches it, and the
    /// deliveries name the receiving participants.
    ///
    /// The packet needs `DstIp` set; `Port`/MACs are filled in by the
    /// router.
    pub fn send_from(&mut self, from: ParticipantId, packet: Packet) -> Vec<Delivery> {
        self.send_from_traced(from, packet).0
    }

    /// Like [`send_from`](Self::send_from), additionally returning the
    /// sequence of participants the packet visited (middlebox chains).
    pub fn send_from_traced(
        &mut self,
        from: ParticipantId,
        packet: Packet,
    ) -> (Vec<Delivery>, Vec<ParticipantId>) {
        let mut trace = vec![from];
        let out = self.send_inner(from, packet, &mut trace, 4);
        (out, trace)
    }

    /// Send a batch of IP packets from one participant, pushing them through
    /// the fabric switch in one batched pipeline pass (the traffic driver's
    /// path — see [`SdxRuntime::process_batch`]). Deliveries are grouped per
    /// input packet, in input order; middlebox re-injection falls back to
    /// per-packet processing, as in [`send_from`](Self::send_from).
    pub fn send_batch_from(
        &mut self,
        from: ParticipantId,
        packets: &[Packet],
    ) -> Vec<Vec<Delivery>> {
        // Stage 1: every packet through the sender's border router.
        let frames: Vec<Option<Packet>> = packets
            .iter()
            .map(|p| self.forward_frame(from, p.clone()))
            .collect();
        for frame in frames.iter().flatten() {
            self.capture_frame(frame);
        }
        // Stage 2: the routable ones through the fabric, batched.
        let flat: Vec<Packet> = frames.iter().flatten().cloned().collect();
        let mut batched = self.runtime.process_batch(&flat).into_iter();
        // Reassemble per-input results (un-routable packets deliver nothing).
        frames
            .iter()
            .map(|slot| {
                if slot.is_none() {
                    return Vec::new();
                }
                let outs = batched.next().expect("one batch result per frame");
                let deliveries: Vec<Delivery> = outs
                    .into_iter()
                    .filter_map(|(port, packet)| {
                        let to = self.runtime.port_owner(port)?;
                        Some(Delivery { to, port, packet })
                    })
                    .collect();
                let mut trace = vec![from];
                self.finish_deliveries(from, deliveries, &mut trace, 4)
            })
            .collect()
    }

    fn send_inner(
        &mut self,
        from: ParticipantId,
        packet: Packet,
        trace: &mut Vec<ParticipantId>,
        budget: usize,
    ) -> Vec<Delivery> {
        if budget == 0 {
            return Vec::new();
        }
        let Some(frame) = self.forward_frame(from, packet) else {
            return Vec::new();
        };
        self.capture_frame(&frame);
        let deliveries = self.deliver(frame);
        self.finish_deliveries(from, deliveries, trace, budget)
    }

    /// A participant's border router turns an IP packet into a tagged
    /// fabric frame (FIB + ARP). The sim resolves ARP synchronously: ask
    /// the SDX responder, learn the binding, and retry once.
    fn forward_frame(&mut self, from: ParticipantId, packet: Packet) -> Option<Packet> {
        let (_, router) = self
            .routers
            .values_mut()
            .find(|(owner, _)| *owner == from)?;
        router.forward_resolving(packet, |req| self.runtime.resolve_arp(req))
    }

    fn capture_frame(&mut self, frame: &Packet) {
        if let Some(cap) = &mut self.capture {
            if let Ok(bytes) = encode_frame(frame, &[]) {
                cap.write_frame(
                    (self.clock_us / 1_000_000) as u32,
                    (self.clock_us % 1_000_000) as u32,
                    &bytes,
                );
            }
        }
    }

    /// Attribute deliveries to the traffic matrix, recursing through
    /// middlebox re-injection.
    fn finish_deliveries(
        &mut self,
        from: ParticipantId,
        deliveries: Vec<Delivery>,
        trace: &mut Vec<ParticipantId>,
        budget: usize,
    ) -> Vec<Delivery> {
        let mut out = Vec::new();
        for d in deliveries {
            if self.reinjectors.contains(&d.to) && d.to != from {
                trace.push(d.to);
                out.extend(self.send_inner(d.to, d.packet, trace, budget - 1));
            } else {
                *self.matrix.entry((from, d.to)).or_default() += 1;
                out.push(d);
            }
        }
        out
    }

    fn deliver(&mut self, frame: Packet) -> Vec<Delivery> {
        self.runtime
            .process_packet(&frame)
            .into_iter()
            .filter_map(|(port, packet)| {
                let to = self.runtime.port_owner(port)?;
                Some(Delivery { to, port, packet })
            })
            .collect()
    }
}
