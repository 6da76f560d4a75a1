//! A line-oriented scenario language for driving an SDX from a file or
//! stdin — the `sdx-cli` binary's engine, and a convenient fixture format
//! for tests.
//!
//! ```text
//! # comments and blank lines are ignored
//! participant A asn 65001 port 1 mac 02:00:00:00:00:01 ip 172.0.0.1
//! participant B asn 65002 port 2 mac 02:00:00:00:00:02 ip 172.0.0.2
//! remote D asn 64500
//! announce B 20.0.0.0/8 path 65002 nexthop 172.0.0.2
//! deny-export B 20.0.0.0/8 to A
//! policy A outbound match dstport=80 fwd B
//! policy B inbound match srcip=0.0.0.0/1 port 2
//! compile
//! send A src 10.0.0.1 dst 20.0.0.1 dstport 80
//! table
//! groups
//! ```
//!
//! Every command appends its output to the transcript returned by
//! [`run_scenario`].

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::net::Ipv4Addr;

use sdx_bgp::{AsPath, Asn, ExportPolicy, PathAttributes};
use sdx_core::{
    Clause, Dest, FabricSim, Participant, ParticipantId, ParticipantPolicy, PortConfig, SdxRuntime,
};
use sdx_ip::{MacAddr, Prefix};
use sdx_policy::{Field, Packet, Predicate};

/// A scenario interpretation error, with its line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ScenarioError {}

/// The interpreter state.
struct Interp {
    runtime: Option<SdxRuntime>,
    sim: Option<FabricSim>,
    names: BTreeMap<String, ParticipantId>,
    next_id: u32,
    pending_policies: BTreeMap<ParticipantId, ParticipantPolicy>,
    out: String,
    /// Render every `announce`/`withdraw` line after the first `compile`
    /// into the transcript as a delta: the incremental verifier's
    /// per-delta verdicts and the rule counts. Both modes apply updates
    /// through [`SdxRuntime::apply_update_delta`]; this one only reports.
    delta: bool,
    /// Delta-log records already rendered into the transcript.
    delta_logged: usize,
}

/// Run a scenario, returning its transcript.
pub fn run_scenario(input: &str) -> Result<String, ScenarioError> {
    run_scenario_with(sdx_core::CompileOptions::default(), input).map(|(out, _)| out)
}

/// Run a scenario under explicit [`CompileOptions`](sdx_core::CompileOptions),
/// returning the transcript together with the static analysis of the last
/// compilation (if `options.analysis` was enabled and a `compile` ran).
///
/// This is the engine behind `sdx-lint`: drive the scenario with
/// [`AnalysisMode::Warn`](sdx_core::AnalysisMode) to collect diagnostics, or
/// `Deny` to make a defective `compile` line fail outright.
pub fn run_scenario_with(
    options: sdx_core::CompileOptions,
    input: &str,
) -> Result<(String, Option<sdx_core::Analysis>), ScenarioError> {
    let (interp, _) = run_interp(options, input, false)?;
    Ok(interp)
}

/// Run a scenario in *delta replay* mode: every `announce`/`withdraw` after
/// the first `compile` is streamed through the incremental fast path
/// ([`SdxRuntime::apply_update_delta`]) with the per-delta header-space
/// verifier active (per `options.delta_check`), and the verifier's verdict
/// for each delta lands in the transcript. Returns the transcript together
/// with the full [`sdx_core::DeltaRecord`] log.
///
/// This is the engine behind `sdx-lint --delta`.
pub fn run_scenario_delta(
    options: sdx_core::CompileOptions,
    input: &str,
) -> Result<(String, Vec<sdx_core::DeltaRecord>), ScenarioError> {
    let ((out, _), records) = run_interp(options, input, true)?;
    Ok((out, records))
}

/// `run_interp`'s result: the transcript (with the last analysis, when one
/// ran) plus the streamed-delta verdict records.
type InterpOutput = (
    (String, Option<sdx_core::Analysis>),
    Vec<sdx_core::DeltaRecord>,
);

fn run_interp(
    options: sdx_core::CompileOptions,
    input: &str,
    delta: bool,
) -> Result<InterpOutput, ScenarioError> {
    let mut runtime = SdxRuntime::new(options);
    if delta {
        runtime.set_delta_log_limit(4_096);
        runtime.set_delta_judge_naive(true);
    }
    let mut interp = Interp {
        runtime: Some(runtime),
        sim: None,
        names: BTreeMap::new(),
        next_id: 1,
        pending_policies: BTreeMap::new(),
        out: String::new(),
        delta,
        delta_logged: 0,
    };
    for (i, raw) in input.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        interp.command(line).map_err(|message| ScenarioError {
            line: i + 1,
            message,
        })?;
    }
    let analysis = interp
        .runtime()
        .ok()
        .and_then(|r| r.compilation())
        .and_then(|c| c.analysis.clone());
    let records = interp
        .runtime()
        .ok()
        .map(|r| r.delta_log().to_vec())
        .unwrap_or_default();
    Ok(((interp.out, analysis), records))
}

impl Interp {
    fn command(&mut self, line: &str) -> Result<(), String> {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens[0] {
            "participant" => self.cmd_participant(&tokens),
            "remote" => self.cmd_remote(&tokens),
            "announce" => self.cmd_announce(&tokens),
            "withdraw" => self.cmd_withdraw(&tokens),
            "deny-export" => self.cmd_deny_export(&tokens),
            "policy" => self.cmd_policy(&tokens),
            "compile" => self.cmd_compile(),
            "send" => self.cmd_send(&tokens),
            "table" => self.cmd_table(),
            "groups" => self.cmd_groups(),
            "advertisements" => self.cmd_advertisements(&tokens),
            "echo" => {
                let _ = writeln!(self.out, "{}", line.trim_start_matches("echo").trim());
                Ok(())
            }
            other => Err(format!("unknown command {other:?}")),
        }
    }

    fn runtime_mut(&mut self) -> Result<&mut SdxRuntime, String> {
        match (&mut self.runtime, &mut self.sim) {
            (Some(r), _) => Ok(r),
            (None, Some(sim)) => Ok(sim.runtime_mut()),
            _ => Err("no runtime".into()),
        }
    }

    fn runtime(&self) -> Result<&SdxRuntime, String> {
        match (&self.runtime, &self.sim) {
            (Some(r), _) => Ok(r),
            (None, Some(sim)) => Ok(sim.runtime()),
            _ => Err("no runtime".into()),
        }
    }

    fn lookup(&self, name: &str) -> Result<ParticipantId, String> {
        self.names
            .get(name)
            .copied()
            .ok_or_else(|| format!("unknown participant {name:?}"))
    }

    fn cmd_participant(&mut self, t: &[&str]) -> Result<(), String> {
        // participant NAME asn N port P mac M ip I [port P2 mac M2 ip I2]…
        let name = *t.get(1).ok_or("participant needs a name")?;
        let mut asn: Option<u32> = None;
        let mut ports: Vec<PortConfig> = Vec::new();
        let mut i = 2;
        let mut current: Option<(Option<u32>, Option<MacAddr>, Option<Ipv4Addr>)> = None;
        while i + 1 < t.len() + 1 {
            if i >= t.len() {
                break;
            }
            let key = t[i];
            let value = *t.get(i + 1).ok_or_else(|| format!("{key} needs a value"))?;
            match key {
                "asn" => asn = Some(value.parse().map_err(|_| "bad asn")?),
                "port" => {
                    if let Some(c) = current.take() {
                        ports.push(finish_port(c)?);
                    }
                    current = Some((Some(value.parse().map_err(|_| "bad port")?), None, None));
                }
                "mac" => {
                    let c = current.as_mut().ok_or("mac before port")?;
                    c.1 = Some(value.parse().map_err(|e| format!("bad mac: {e}"))?);
                }
                "ip" => {
                    let c = current.as_mut().ok_or("ip before port")?;
                    c.2 = Some(value.parse().map_err(|_| "bad ip")?);
                }
                other => return Err(format!("unknown participant key {other:?}")),
            }
            i += 2;
        }
        if let Some(c) = current.take() {
            ports.push(finish_port(c)?);
        }
        let asn = asn.ok_or("participant needs asn")?;
        let id = ParticipantId(self.next_id);
        self.next_id += 1;
        self.names.insert(name.to_string(), id);
        self.runtime_mut()?
            .add_participant(Participant::new(id, Asn(asn), ports));
        Ok(())
    }

    fn cmd_remote(&mut self, t: &[&str]) -> Result<(), String> {
        // remote NAME asn N
        let name = *t.get(1).ok_or("remote needs a name")?;
        if t.get(2) != Some(&"asn") {
            return Err("remote NAME asn N".into());
        }
        let asn: u32 = t
            .get(3)
            .ok_or("missing asn")?
            .parse()
            .map_err(|_| "bad asn")?;
        let id = ParticipantId(self.next_id);
        self.next_id += 1;
        self.names.insert(name.to_string(), id);
        self.runtime_mut()?
            .add_participant(Participant::remote(id, Asn(asn)));
        Ok(())
    }

    fn cmd_announce(&mut self, t: &[&str]) -> Result<(), String> {
        // announce NAME PREFIX[,PREFIX…] path A[,B…] nexthop IP
        let id = self.lookup(t.get(1).ok_or("announce needs a participant")?)?;
        let prefixes = parse_prefix_list(t.get(2).ok_or("announce needs prefixes")?)?;
        let mut path: Vec<u32> = Vec::new();
        let mut nexthop: Option<Ipv4Addr> = None;
        let mut i = 3;
        while i < t.len() {
            match t[i] {
                "path" => {
                    path = t
                        .get(i + 1)
                        .ok_or("path needs a value")?
                        .split(',')
                        .map(|s| s.parse().map_err(|_| "bad asn in path".to_string()))
                        .collect::<Result<_, _>>()?;
                }
                "nexthop" => {
                    nexthop = Some(
                        t.get(i + 1)
                            .ok_or("nexthop needs a value")?
                            .parse()
                            .map_err(|_| "bad ip")?,
                    )
                }
                other => return Err(format!("unknown announce key {other:?}")),
            }
            i += 2;
        }
        let nexthop = nexthop.ok_or("announce needs nexthop")?;
        let attrs = PathAttributes::new(AsPath::sequence(path), nexthop);
        if self.streaming() {
            return self.apply_delta(id, sdx_bgp::Update::announce(prefixes, attrs));
        }
        self.runtime_mut()?.announce(id, prefixes, attrs);
        self.resync();
        Ok(())
    }

    fn cmd_withdraw(&mut self, t: &[&str]) -> Result<(), String> {
        // withdraw NAME PREFIX[,PREFIX…]
        let id = self.lookup(t.get(1).ok_or("withdraw needs a participant")?)?;
        let prefixes = parse_prefix_list(t.get(2).ok_or("withdraw needs prefixes")?)?;
        if self.streaming() {
            return self.apply_delta(id, sdx_bgp::Update::withdraw(prefixes));
        }
        self.runtime_mut()?.withdraw(id, prefixes);
        self.resync();
        Ok(())
    }

    /// Is the interpreter past the first `compile` in delta-replay mode?
    fn streaming(&self) -> bool {
        self.delta
            && self
                .runtime()
                .ok()
                .is_some_and(|r| r.compilation().is_some())
    }

    /// Stream one BGP update through the incremental fast path and render
    /// the verifier's verdict(s) for it into the transcript.
    fn apply_delta(&mut self, from: ParticipantId, update: sdx_bgp::Update) -> Result<(), String> {
        let logged = self.delta_logged;
        let (lines, installed, removed, needs_reoptimize) = {
            let runtime = self.runtime_mut()?;
            let (_, install) = runtime.apply_update_delta(from, &update);
            let lines: Vec<String> = runtime.delta_log()[logged..]
                .iter()
                .map(render_delta_record)
                .collect();
            (
                lines,
                install.installed,
                install.removed,
                runtime.needs_reoptimize(),
            )
        };
        self.delta_logged = logged + lines.len();
        for l in lines {
            let _ = writeln!(self.out, "{l}");
        }
        let _ = writeln!(
            self.out,
            "delta: +{installed} -{removed} rules{}",
            if needs_reoptimize {
                " (reoptimize needed)"
            } else {
                ""
            }
        );
        self.resync();
        Ok(())
    }

    fn cmd_deny_export(&mut self, t: &[&str]) -> Result<(), String> {
        // deny-export NAME PREFIX to NAME
        let announcer = self.lookup(t.get(1).ok_or("deny-export needs a participant")?)?;
        let prefix: Prefix = t
            .get(2)
            .ok_or("deny-export needs a prefix")?
            .parse()
            .map_err(|e| format!("{e}"))?;
        if t.get(3) != Some(&"to") {
            return Err("deny-export NAME PREFIX to NAME".into());
        }
        let viewer = self.lookup(t.get(4).ok_or("deny-export needs a viewer")?)?;
        self.runtime_mut()?.set_export_policy(
            announcer,
            ExportPolicy::export_all().deny_prefix_to(prefix, viewer.peer()),
        );
        Ok(())
    }

    fn cmd_policy(&mut self, t: &[&str]) -> Result<(), String> {
        // policy NAME outbound match K=V[,K=V…] fwd NAME [unfiltered]
        // policy NAME inbound  match K=V[,K=V…] (port N | fwd NAME | drop)
        //        [rewrite K=V[,…]]
        let id = self.lookup(t.get(1).ok_or("policy needs a participant")?)?;
        let direction = *t.get(2).ok_or("policy needs a direction")?;
        let mut match_ = Predicate::True;
        let mut dest: Option<Dest> = None;
        let mut rewrites: Vec<(Field, u64)> = Vec::new();
        let mut unfiltered = false;
        let mut i = 3;
        while i < t.len() {
            match t[i] {
                "match" => {
                    match_ = parse_match(t.get(i + 1).ok_or("match needs conditions")?)?;
                    i += 2;
                }
                "fwd" => {
                    dest = Some(Dest::Participant(
                        self.lookup(t.get(i + 1).ok_or("fwd needs a participant")?)?,
                    ));
                    i += 2;
                }
                "port" => {
                    dest = Some(Dest::OwnPort(
                        t.get(i + 1)
                            .ok_or("port needs a number")?
                            .parse()
                            .map_err(|_| "bad port")?,
                    ));
                    i += 2;
                }
                "drop" => {
                    dest = Some(Dest::Drop);
                    i += 1;
                }
                "bgp" => {
                    dest = Some(Dest::BgpDefault);
                    i += 1;
                }
                "rewrite" => {
                    for (f, v) in
                        parse_assignments(t.get(i + 1).ok_or("rewrite needs assignments")?)?
                    {
                        rewrites.push((f, v));
                    }
                    i += 2;
                }
                "unfiltered" => {
                    unfiltered = true;
                    i += 1;
                }
                other => return Err(format!("unknown policy key {other:?}")),
            }
        }
        let dest = dest.ok_or("policy needs a destination (fwd/port/drop/bgp)")?;
        let clause = Clause {
            match_,
            dst_prefixes: None,
            rewrites,
            dest,
            unfiltered,
        };
        let policy = self.pending_policies.entry(id).or_default();
        match direction {
            "outbound" => policy.outbound.push(clause),
            "inbound" => policy.inbound.push(clause),
            other => return Err(format!("direction must be inbound/outbound, got {other:?}")),
        }
        Ok(())
    }

    fn cmd_compile(&mut self) -> Result<(), String> {
        let pending = std::mem::take(&mut self.pending_policies);
        let runtime = self.runtime_mut()?;
        for (id, policy) in pending {
            runtime.set_policy(id, policy);
        }
        let stats = runtime.compile().map_err(|e| e.to_string())?;
        let _ = writeln!(
            self.out,
            "compiled: {} rules, {} groups, {} µs",
            stats.rules, stats.groups, stats.duration_us
        );
        // (Re)build the simulation around the configured runtime.
        if self.sim.is_none() {
            let runtime = self.runtime.take().ok_or("runtime moved")?;
            self.sim = Some(FabricSim::new(runtime));
        }
        self.resync();
        Ok(())
    }

    fn resync(&mut self) {
        if let Some(sim) = &mut self.sim {
            sim.sync();
        }
    }

    fn cmd_send(&mut self, t: &[&str]) -> Result<(), String> {
        // send NAME src IP dst IP [srcport N] [dstport N] [proto N]
        let from = self.lookup(t.get(1).ok_or("send needs a sender")?)?;
        let mut pkt = Packet::new()
            .with(Field::EthType, 0x0800u16)
            .with(Field::IpProto, 6u8);
        let mut i = 2;
        while i + 1 < t.len() + 1 && i < t.len() {
            let key = t[i];
            let value = *t.get(i + 1).ok_or_else(|| format!("{key} needs a value"))?;
            match key {
                "src" => pkt.set(
                    Field::SrcIp,
                    value.parse::<Ipv4Addr>().map_err(|_| "bad ip")?,
                ),
                "dst" => pkt.set(
                    Field::DstIp,
                    value.parse::<Ipv4Addr>().map_err(|_| "bad ip")?,
                ),
                "srcport" => pkt.set(
                    Field::SrcPort,
                    value.parse::<u16>().map_err(|_| "bad port")?,
                ),
                "dstport" => pkt.set(
                    Field::DstPort,
                    value.parse::<u16>().map_err(|_| "bad port")?,
                ),
                "proto" => pkt.set(
                    Field::IpProto,
                    value.parse::<u8>().map_err(|_| "bad proto")?,
                ),
                other => return Err(format!("unknown send key {other:?}")),
            }
            i += 2;
        }
        let sim = self
            .sim
            .as_mut()
            .ok_or("send requires a compiled fabric (run `compile`)")?;
        let out = sim.send_from(from, pkt);
        if out.is_empty() {
            let _ = writeln!(self.out, "send: dropped");
        } else {
            for d in out {
                let name = self
                    .names
                    .iter()
                    .find(|(_, id)| **id == d.to)
                    .map(|(n, _)| n.clone())
                    .unwrap_or_else(|| d.to.to_string());
                let _ = writeln!(self.out, "send: delivered to {name} port {}", d.port);
            }
        }
        Ok(())
    }

    fn cmd_table(&mut self) -> Result<(), String> {
        let table = format!("{}", self.runtime()?.switch().table());
        let _ = writeln!(self.out, "{table}");
        Ok(())
    }

    fn cmd_groups(&mut self) -> Result<(), String> {
        let lines: Vec<String> = {
            let runtime = self.runtime()?;
            let Some(c) = runtime.compilation() else {
                return Err("no compilation (run `compile`)".into());
            };
            c.groups
                .iter()
                .enumerate()
                .map(|(i, group)| {
                    let (vnh, vmac) = c.vnh[i];
                    format!(
                        "group {i}: vnh {vnh} vmac {vmac} prefixes {}",
                        group.prefixes
                    )
                })
                .collect()
        };
        for l in lines {
            let _ = writeln!(self.out, "{l}");
        }
        Ok(())
    }

    fn cmd_advertisements(&mut self, t: &[&str]) -> Result<(), String> {
        // advertisements NAME
        let viewer = self.lookup(t.get(1).ok_or("advertisements needs a participant")?)?;
        let runtime = self.runtime()?;
        let mut lines = Vec::new();
        // What the route server actually sends the viewer: prefixes it has
        // no best route for are withdrawn, not advertised.
        for prefix in runtime.route_server().all_prefixes() {
            if let Some(attrs) = runtime.advertisement(&prefix, viewer).and_then(|u| u.attrs) {
                lines.push(format!("advertise {prefix} nexthop {}", attrs.next_hop));
            }
        }
        for l in lines {
            let _ = writeln!(self.out, "{l}");
        }
        Ok(())
    }
}

/// One transcript block for a checked streamed delta: the verdict line plus
/// (capped) witness lines for the proposed and naive orderings.
fn render_delta_record(r: &sdx_core::DeltaRecord) -> String {
    const SHOWN: usize = 4;
    let rep = &r.report;
    let mut s = format!(
        "delta {}: {}{} ({} dirty injections, {} states, {} µs)",
        r.prefix,
        rep.verdict.label(),
        if rep.structural { " [structural]" } else { "" },
        rep.dirty_injections,
        rep.states_checked,
        rep.check_us,
    );
    let mut witnesses = |label: &str, violations: &[sdx_core::Violation]| {
        for v in violations.iter().take(SHOWN) {
            let _ = write!(
                s,
                "\n  {label} {} after [{}]: {}",
                v.kind.code_suffix(),
                v.step_desc,
                v.message
            );
        }
        if violations.len() > SHOWN {
            let _ = write!(s, "\n  {label} … {} more", violations.len() - SHOWN);
        }
    };
    witnesses("proposed-order", &rep.violations);
    witnesses("naive-order", &rep.naive_violations);
    if let Some(agreed) = r.agreed {
        let _ = write!(
            s,
            "\n  from-scratch oracle {} in {} µs",
            if agreed { "agrees" } else { "DISAGREES" },
            r.from_scratch_us
        );
    }
    s
}

fn finish_port(
    (port, mac, ip): (Option<u32>, Option<MacAddr>, Option<Ipv4Addr>),
) -> Result<PortConfig, String> {
    Ok(PortConfig {
        port: port.ok_or("port missing")?,
        mac: mac.ok_or("port needs mac")?,
        ip: ip.ok_or("port needs ip")?,
    })
}

fn parse_prefix_list(s: &str) -> Result<Vec<Prefix>, String> {
    s.split(',')
        .map(|p| p.parse().map_err(|e| format!("{e}")))
        .collect()
}

/// Parse `k=v[,k=v…]` into a conjunctive predicate. IP fields accept CIDR.
fn parse_match(s: &str) -> Result<Predicate, String> {
    let mut pred = Predicate::True;
    for part in s.split(',') {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| format!("bad condition {part:?}"))?;
        let field = parse_field(key)?;
        let term = if field.is_ip() && value.contains('/') {
            Predicate::test_prefix(field, value.parse().map_err(|e| format!("{e}"))?)
        } else {
            Predicate::test(field, parse_value(field, value)?)
        };
        pred = pred.and(term);
    }
    Ok(pred)
}

fn parse_assignments(s: &str) -> Result<Vec<(Field, u64)>, String> {
    s.split(',')
        .map(|part| {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("bad assignment {part:?}"))?;
            let field = parse_field(key)?;
            Ok((field, parse_value(field, value)?))
        })
        .collect()
}

fn parse_field(s: &str) -> Result<Field, String> {
    Field::ALL
        .iter()
        .find(|f| f.name() == s)
        .copied()
        .ok_or_else(|| format!("unknown field {s:?}"))
}

fn parse_value(field: Field, s: &str) -> Result<u64, String> {
    if field.is_ip() {
        Ok(u32::from(s.parse::<Ipv4Addr>().map_err(|_| format!("bad ip {s:?}"))?) as u64)
    } else if field.is_mac() {
        Ok(s.parse::<MacAddr>().map_err(|e| format!("{e}"))?.to_u64())
    } else {
        s.parse().map_err(|_| format!("bad value {s:?}"))
    }
}
