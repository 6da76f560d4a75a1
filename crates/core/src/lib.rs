//! The SDX controller — a software defined Internet exchange point, after
//! Gupta et al., *SDX: A Software Defined Internet Exchange* (SIGCOMM 2014).
//!
//! Participants write [`ParticipantPolicy`] clauses against their own
//! *virtual switch*; the controller joins them with BGP state from the
//! integrated route server, groups prefixes into forwarding equivalence
//! classes, assigns virtual next hops, and compiles everything into one
//! fabric flow table — with a sub-second incremental fast path for BGP
//! updates.
//!
//! ```
//! use sdx_core::{Clause, Participant, ParticipantId, ParticipantPolicy, PortConfig, SdxRuntime};
//! use sdx_bgp::{AsPath, Asn, PathAttributes};
//! use sdx_policy::{match_, Field};
//! use std::net::Ipv4Addr;
//!
//! let mut sdx = SdxRuntime::default();
//! let a = ParticipantId(1);
//! let b = ParticipantId(2);
//! sdx.add_participant(Participant::new(a, Asn(65001), vec![PortConfig {
//!     port: 1, mac: "02:0a:00:00:00:01".parse().unwrap(), ip: Ipv4Addr::new(172, 0, 0, 1),
//! }]));
//! sdx.add_participant(Participant::new(b, Asn(65002), vec![PortConfig {
//!     port: 2, mac: "02:0b:00:00:00:01".parse().unwrap(), ip: Ipv4Addr::new(172, 0, 0, 2),
//! }]));
//! sdx.announce(b, ["20.0.0.0/8".parse().unwrap()],
//!     PathAttributes::new(AsPath::sequence([65002]), Ipv4Addr::new(172, 0, 0, 2)));
//! // Application-specific peering: A sends web traffic via B.
//! sdx.set_policy(a, ParticipantPolicy::new()
//!     .outbound(Clause::fwd(match_(Field::DstPort, 80u16), b)));
//! let stats = sdx.compile().unwrap();
//! assert!(stats.rules > 0);
//! ```

pub mod analysis;
mod clause;
pub mod compile;
pub mod control;
pub mod fec;
mod participant;
mod runtime;
mod sim;
pub mod verify;
mod vnh;

pub use clause::{Clause, Dest, ParticipantPolicy};
pub use compile::{
    Compilation, CompileError, CompileInput, CompileOptions, CompileStats, MemoCache, StageTimes,
};
pub use control::{ControlPlane, ROUTE_SERVER_ASN};
pub use fec::{minimum_disjoint_subsets, minimum_disjoint_subsets_par, DefaultView, PrefixGroup};
pub use participant::{is_vport, Participant, ParticipantId, PortConfig, VPORT_BASE};
pub use runtime::{DeltaInstall, DeltaRecord, IncrementalStats, Overlay, SdxRuntime};
pub use sdx_analyze::{
    diff, hs, reach, Analysis, AnalysisMode, Diagnostic, DiffReport, DiffSide, FibEntry, FibModel,
    GroupBinding, ReachReport, Severity, VerifyInput,
};
pub use sdx_plan::{
    DeltaReport, DeltaVerdict, PlanReport, PlanStep, Schedule, Violation, ViolationKind,
};
pub use sim::{Delivery, FabricSim};
pub use vnh::VnhAllocator;
