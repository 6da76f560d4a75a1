//! The SDX data plane: OpenFlow-style flow tables, a software switch, ARP
//! machinery, and a border-router model implementing stage one of the
//! paper's multi-stage FIB (§4.2).
//!
//! ```
//! use sdx_switch::SoftSwitch;
//! use sdx_policy::{fwd, match_, Field, Packet};
//! use std::net::Ipv4Addr;
//!
//! let mut sw = SoftSwitch::new([1, 2]);
//! sw.install_classifier(&(match_(Field::DstPort, 80u16) >> fwd(2)).compile(), 1);
//! let pkt = Packet::tcp(1, Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(20, 0, 0, 1), 4000, 80);
//! let out = sw.process(&pkt);
//! assert_eq!(out[0].0, 2);
//! ```

mod arp;
mod frame;
mod index;
pub mod openflow;
mod pcap;
mod router;
mod shard;
mod switch;
mod table;

pub use arp::{ArpReply, ArpRequest, ArpResponder, ETHTYPE_ARP, ETHTYPE_IPV4};
pub use frame::{decode_frame, encode_frame, FrameError};
pub use index::IndexStats;
pub use pcap::{read_pcap, CapturedFrame, PcapError, PcapWriter};
pub use router::{BorderRouter, Forward};
pub use shard::{flow_hash, ShardedSwitch};
pub use switch::{BatchOutput, SoftSwitch, SwitchStats};
pub use table::{FlowRule, FlowTable};
