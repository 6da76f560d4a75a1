//! The SDX runtime: owns the route server, participant registry, policies,
//! compiler state, ARP responder, and the fabric switch, and keeps them
//! consistent as policies and BGP routes change.
//!
//! Updates follow the two stages of §4.3.2:
//!
//! * the **fast stage**, [`SdxRuntime::apply_update`] (one path with
//!   [`SdxRuntime::apply_update_delta`]): re-home every touched prefix onto
//!   a *fresh* VNH, compile the sender stage for that prefix alone under
//!   its VMAC, and swap it in make-before-break — the new fragment is
//!   installed directly above the table's live priority ceiling, then the
//!   prefix's previous fragment is retired by cookie. With
//!   [`CompileOptions::delta_check`] active, the incremental verifier
//!   certifies each rule-level delta before a single rule moves.
//! * the **background stage**, [`SdxRuntime::reoptimize`]: the full
//!   [`SdxRuntime::compile`] pipeline — recompute FECs and VNHs, rebuild
//!   the fabric table (which resets the priority ceiling), re-bind ARP, and
//!   refresh advertisements.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::time::Instant;

use sdx_analyze::AnalysisMode;
use sdx_bgp::{ExportPolicy, PathAttributes, RouteServer, RpkiStatus, RpkiValidator, Update};
use sdx_ip::{MacAddr, Prefix};
use sdx_plan::{DeltaOp, PlanReport, TableState};
use sdx_policy::{Classifier, Packet};
use sdx_switch::{
    ArpReply, ArpRequest, ArpResponder, BatchOutput, BorderRouter, FlowTable, ShardedSwitch,
    SoftSwitch,
};

use crate::compile::{
    compile, stage1_rules_for_prefix, Compilation, CompileError, CompileInput, CompileOptions,
    CompileStats, MemoCache,
};
use crate::verify::{self, AdvertMap, RouteView};
use crate::vnh::VnhAllocator;
use crate::{Participant, ParticipantId, ParticipantPolicy};

/// One fast-path fragment: a prefix re-homed onto a fresh VNH after a BGP
/// update, with its rules installed above the base table until the next
/// full compile coalesces them.
#[derive(Debug, Clone)]
pub struct Overlay {
    /// The prefix the overlay covers.
    pub prefix: Prefix,
    /// Its fresh virtual next hop.
    pub vnh: Ipv4Addr,
    /// Its fresh VMAC tag.
    pub vmac: MacAddr,
    /// The flow-table cookie identifying the fragment's rules.
    pub cookie: u64,
    /// How many rules the fragment installed (Figure 9's "additional rules").
    pub rules: usize,
}

/// Counters for the incremental path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Touched prefixes processed through the fast path.
    pub updates: u64,
    /// Total fast-path fragment rules currently installed (summed over
    /// the live [`Overlay`]s).
    pub overlay_rules: usize,
    /// Microseconds spent in the most recent fast-path update.
    pub last_update_us: u64,
    /// Fast-path fragments refused because their band above the live
    /// priority ceiling would overflow the 32-bit priority space; the
    /// background recompilation resets the ceiling and recovers these.
    pub install_errors: u64,
    /// Fast-path updates that found the VNH pool exhausted. The previous
    /// overlay (or base table) keeps serving the prefix — stale but
    /// forwarding — and [`SdxRuntime::needs_reoptimize`] is raised so the
    /// background stage recovers promptly.
    pub overlay_exhausted: u64,
    /// Individual rules installed by the delta path.
    pub delta_installed: u64,
    /// Individual rules removed by the delta path.
    pub delta_removed: u64,
    /// Streamed deltas checked by the incremental verifier (0 when
    /// [`CompileOptions::delta_check`] is `Off`).
    pub delta_checked: u64,
    /// Checked deltas certified safe (structurally or symbolically).
    pub delta_certified: u64,
    /// Certified deltas decided by the structural region-disjointness gate
    /// alone (subset of `delta_certified`; zero symbolic work).
    pub delta_structural: u64,
    /// Checked deltas whose proposed schedule was unsafe but a safe
    /// reordering was synthesized and installed.
    pub delta_reordered: u64,
    /// Checked deltas for which no per-packet-consistent schedule exists.
    pub delta_rejected: u64,
    /// Rejected deltas whose install was skipped under
    /// `delta_check = Deny` (the stale overlay keeps forwarding and a full
    /// reoptimize is scheduled instead).
    pub delta_denied: u64,
    /// Total microseconds spent in incremental delta checking.
    pub delta_check_us: u64,
    /// Microseconds of incremental checking within the most recent
    /// [`SdxRuntime::apply_update_delta`] call (summed over its touched
    /// prefixes).
    pub last_check_us: u64,
}

/// The SDX controller runtime.
#[derive(Debug)]
pub struct SdxRuntime {
    participants: BTreeMap<ParticipantId, Participant>,
    /// The policies in force: those of the last successful compile.
    policies: BTreeMap<ParticipantId, ParticipantPolicy>,
    /// Policies set since then, applied by the next successful compile.
    /// While a compile runs, each slot holds the policy it replaced (`None`:
    /// there was none), so a failed compile swaps them back.
    staged: BTreeMap<ParticipantId, Option<ParticipantPolicy>>,
    /// Memo versions: bumped on every policy or registration change, never
    /// reset, so a cached receiver block is never served for other inputs.
    policy_versions: BTreeMap<ParticipantId, u64>,
    route_server: RouteServer,
    options: CompileOptions,
    alloc: VnhAllocator,
    memo: MemoCache,
    compilation: Option<Compilation>,
    arp: ArpResponder,
    switch: ShardedSwitch,
    overlays: Vec<Overlay>,
    next_cookie: u64,
    incremental: IncrementalStats,
    rpki: Option<RpkiValidator>,
    rpki_rejected: u64,
    last_plan: Option<PlanReport>,
    needs_reoptimize: bool,
    /// The persistent incremental delta verifier; `Some` once a compile ran
    /// with [`CompileOptions::delta_check`] active (reseeded every compile).
    delta_checker: Option<sdx_plan::IncrementalChecker>,
    delta_judge_naive: bool,
    /// Run the from-scratch oracle on every nth checked delta (0 = never).
    delta_sample: u64,
    delta_log: Vec<DeltaRecord>,
    delta_log_limit: usize,
    /// Deny-skipped deltas since the last compile (stamped into
    /// [`CompileStats::delta_deny_fallbacks`] by the recovering compile).
    pending_deny_fallbacks: u64,
    /// Fault injection: treat the next N checked deltas as unsafe
    /// (see [`inject_delta_deny`](Self::inject_delta_deny)).
    delta_deny_next: u64,
}

/// What one rule-level delta install did to the live tables (see
/// [`SdxRuntime::apply_update_delta`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaInstall {
    /// Rules installed into the live table.
    pub installed: usize,
    /// Rules removed from the live table.
    pub removed: usize,
}

/// One streamed delta's verdict record (kept when
/// [`SdxRuntime::set_delta_log_limit`] enables logging — the `sdx-lint
/// --delta` replay and the equivalence proptest read these).
#[derive(Debug, Clone)]
pub struct DeltaRecord {
    /// The prefix the delta migrated.
    pub prefix: Prefix,
    /// The incremental checker's verdict and evidence.
    pub report: sdx_plan::DeltaReport,
    /// The from-scratch oracle's report, when this event was sampled.
    pub from_scratch: Option<sdx_plan::DeltaReport>,
    /// Microseconds the from-scratch check took (0 when not sampled).
    pub from_scratch_us: u64,
    /// Did the incremental and from-scratch reports agree (verdict,
    /// schedule, and witness content)? `None` when not sampled.
    pub agreed: Option<bool>,
}

/// Cookie tagging the base (fully compiled) table.
const BASE_COOKIE: u64 = 1;

/// Saturating µs cast for the stage-timing fields.
fn clamp_us(us: u128) -> u64 {
    u64::try_from(us).unwrap_or(u64::MAX)
}

impl Default for SdxRuntime {
    fn default() -> Self {
        Self::new(CompileOptions::default())
    }
}

impl SdxRuntime {
    /// A runtime with the given compiler options.
    pub fn new(options: CompileOptions) -> Self {
        SdxRuntime {
            participants: BTreeMap::new(),
            policies: BTreeMap::new(),
            staged: BTreeMap::new(),
            policy_versions: BTreeMap::new(),
            route_server: RouteServer::new(),
            options,
            alloc: VnhAllocator::default_pool(),
            memo: MemoCache::new(),
            compilation: None,
            arp: ArpResponder::new(),
            switch: ShardedSwitch::new(SoftSwitch::new([]), options.dataplane_threads),
            overlays: Vec::new(),
            next_cookie: BASE_COOKIE + 1,
            incremental: IncrementalStats::default(),
            rpki: None,
            rpki_rejected: 0,
            last_plan: None,
            needs_reoptimize: false,
            delta_checker: None,
            delta_judge_naive: false,
            delta_sample: 0,
            delta_log: Vec::new(),
            delta_log_limit: 0,
            pending_deny_fallbacks: 0,
            delta_deny_next: 0,
        }
    }

    /// Replace the VNH allocation pool (test/operational knob; a tiny pool
    /// makes exhaustion reachable). Releases all current allocations.
    pub fn set_vnh_pool(&mut self, pool: Prefix) {
        self.alloc = VnhAllocator::new(pool);
    }

    /// True when the fast path has degraded (VNH pool exhausted, priority
    /// space exhausted, or a delta denied) and a background
    /// [`reoptimize`](Self::reoptimize) is required to restore optimal —
    /// and in the exhaustion case, *fresh* — forwarding state. Cleared by
    /// the next successful [`compile`](Self::compile).
    pub fn needs_reoptimize(&self) -> bool {
        self.needs_reoptimize
    }

    /// Enable RPKI route-origin validation: announcements whose origin AS
    /// is *Invalid* against the ROA database are rejected (the paper's
    /// ownership check for SDX-originated prefixes, §3.2). `NotFound`
    /// announcements are accepted, per common route-server practice.
    pub fn set_rpki(&mut self, validator: RpkiValidator) {
        self.rpki = Some(validator);
    }

    /// Announcements rejected by RPKI validation so far.
    pub fn rpki_rejected(&self) -> u64 {
        self.rpki_rejected
    }

    /// Register a participant: a route-server peer, fabric ports, and ARP
    /// bindings for its router interfaces.
    pub fn add_participant(&mut self, participant: Participant) {
        self.route_server.add_peer(
            participant.id.peer(),
            participant.asn,
            participant.router_id,
        );
        for port in &participant.ports {
            self.switch.master_mut().add_port(port.port);
            self.arp.bind(port.ip, port.mac);
        }
        self.bump_version(participant.id);
        self.participants.insert(participant.id, participant);
    }

    fn bump_version(&mut self, id: ParticipantId) {
        *self.policy_versions.entry(id).or_insert(0) += 1;
    }

    /// Set a participant's export policy on the route server.
    pub fn set_export_policy(&mut self, id: ParticipantId, export: ExportPolicy) {
        self.route_server.set_export_policy(id.peer(), export);
    }

    /// Stage (replace) a participant's SDX policy. It takes effect at the
    /// next successful [`compile`](Self::compile); until then the fast
    /// path keeps enforcing the policy in force, and a compile that fails
    /// leaves it in force and this one staged.
    pub fn set_policy(&mut self, id: ParticipantId, policy: ParticipantPolicy) {
        self.bump_version(id);
        self.staged.insert(id, Some(policy));
    }

    /// The registered participants.
    pub fn participants(&self) -> impl Iterator<Item = &Participant> {
        self.participants.values()
    }

    /// Read access to the route server.
    pub fn route_server(&self) -> &RouteServer {
        &self.route_server
    }

    /// Read access to the fabric switch.
    pub fn switch(&self) -> &SoftSwitch {
        self.switch.master()
    }

    /// The last full compilation, if any.
    pub fn compilation(&self) -> Option<&Compilation> {
        self.compilation.as_ref()
    }

    /// The compiler options in force.
    pub fn options(&self) -> CompileOptions {
        self.options
    }

    /// Fast-path counters.
    pub fn incremental_stats(&self) -> IncrementalStats {
        IncrementalStats {
            overlay_rules: self.overlays.iter().map(|o| o.rules).sum(),
            ..self.incremental
        }
    }

    /// The incremental delta verifier's internal counters (`None` until a
    /// compile ran with [`CompileOptions::delta_check`] active).
    pub fn delta_checker_stats(&self) -> Option<sdx_plan::IncStats> {
        self.delta_checker.as_ref().map(|c| c.stats())
    }

    /// Keep up to `limit` per-delta verdict records (see
    /// [`delta_log`](Self::delta_log)); 0 (the default) disables logging.
    pub fn set_delta_log_limit(&mut self, limit: usize) {
        self.delta_log_limit = limit;
    }

    /// The retained per-delta verdict records, oldest first.
    pub fn delta_log(&self) -> &[DeltaRecord] {
        &self.delta_log
    }

    /// Run the from-scratch checking oracle on every `n`th checked delta
    /// (0 = never); its report, time and verdict agreement land in that
    /// delta's [`DeltaRecord`]. The equivalence proptest uses 1; the bench
    /// a sparse sample.
    pub fn set_delta_check_sample(&mut self, n: u64) {
        self.delta_sample = n;
    }

    /// Fault injection: force the next `n` checked deltas through the
    /// deny path as if the verifier had found them unsafe. MBB fast-path
    /// schedules are structurally safe by construction, so the Deny
    /// recovery machinery (skip install, schedule a reoptimize, stamp
    /// [`CompileStats::delta_deny_fallbacks`]) is unreachable from real
    /// traffic — this hook keeps it testable end to end.
    pub fn inject_delta_deny(&mut self, n: u64) {
        self.delta_deny_next = n;
    }

    /// Also judge the *naive* differ ordering of every checked delta
    /// (evidence for `sdx-lint --delta`; forces symbolic work per event).
    /// Takes effect at the next [`compile`](Self::compile) reseed, or
    /// immediately when the checker is already live.
    pub fn set_delta_judge_naive(&mut self, on: bool) {
        self.delta_judge_naive = on;
        if let Some(c) = self.delta_checker.as_mut() {
            c.set_judge_naive(on);
        }
    }

    /// Current overlays (fast-path state awaiting background optimization).
    pub fn overlays(&self) -> &[Overlay] {
        &self.overlays
    }

    fn input(&self) -> CompileInput<'_> {
        CompileInput {
            participants: &self.participants,
            policies: &self.policies,
            policy_versions: &self.policy_versions,
            route_server: &self.route_server,
            options: self.options,
        }
    }

    /// Run the full compilation pipeline and install the result: fabric
    /// rules, ARP bindings for every VNH, and (conceptually) refreshed
    /// advertisements. Clears any fast-path overlays. The staged policies
    /// (see [`set_policy`](Self::set_policy)) come into force here; when
    /// the compile fails they stay staged, and the policies, tables and VNH
    /// pool in force stay as they were.
    ///
    /// With [`CompileOptions::plan`] active and tables already installed,
    /// the install happens as a *verified update plan*: the rule-level
    /// delta against the live tables is computed, a safe ordering is
    /// synthesized (`sdx-plan`), and the steps are applied one by one —
    /// instead of a wholesale table replacement. `Deny` refuses to install
    /// when no safe schedule exists ([`CompileError::PlanRejected`]); the
    /// old tables stay in place.
    pub fn compile(&mut self) -> Result<CompileStats, CompileError> {
        self.swap_staged();
        let result = self.compile_policies();
        if result.is_ok() {
            self.staged.clear();
        } else {
            self.swap_staged();
        }
        result
    }

    /// Exchange each staged policy with the one in force.
    fn swap_staged(&mut self) {
        for (id, slot) in &mut self.staged {
            *slot = match slot.take() {
                Some(policy) => self.policies.insert(*id, policy),
                None => self.policies.remove(id),
            };
        }
    }

    /// [`compile`](Self::compile) with the staged policies in force.
    fn compile_policies(&mut self) -> Result<CompileStats, CompileError> {
        // Capture the pre-update view before anything moves: the installed
        // tables (overlays included) and the live verifier input.
        let plan_old = if self.options.plan != AnalysisMode::Off {
            self.verify_input().map(|vi| (vi, self.installed_state()))
        } else {
            None
        };

        // The pool advances only if this compile installs: a failed one
        // leaves the installed groups' and fragments' tags allocated.
        let mut alloc = self.alloc.clone();
        let mut compilation = compile(&self.input(), &mut alloc, &self.memo)?;

        // ---- Update-plan safety gate (§ consistent updates) --------------
        let mut schedule = None;
        if let Some((old_vi, old_state)) = plan_old {
            let new_vi = verify::compiled_verify_input(&self.input(), &compilation);
            let new_state = self.target_state(&compilation);
            let report = sdx_plan::plan(&sdx_plan::PlanInput {
                old_state,
                new_state,
                old_verify: &old_vi,
                new_verify: &new_vi,
                budget: sdx_plan::DEFAULT_SEARCH_BUDGET,
            });

            compilation.stats.plan_steps = report.steps.len();
            compilation.stats.plan_explored = report.explored;
            compilation.stats.plan_two_phase = report.two_phase();
            compilation.stats.stages.plan_delta_us = clamp_us(report.times.delta_us);
            compilation.stats.stages.plan_search_us = clamp_us(report.times.search_us);
            compilation.stats.stages.plan_check_us = clamp_us(report.check_us);
            let verdict = sdx_analyze::Analysis {
                diagnostics: report.diagnostics(),
            };
            compilation.stats.plan_warnings = verdict.warnings();
            compilation.stats.plan_errors = verdict.errors();

            // The gate blocks only when *no* safe schedule exists:
            // naive-ordering violations are the evidence the planner routes
            // around, not a defect of the new state.
            if self.options.plan == AnalysisMode::Deny && !report.safe() {
                return Err(CompileError::PlanRejected(verdict.error_messages()));
            }
            compilation
                .analysis
                .get_or_insert_with(Default::default)
                .diagnostics
                .extend(verdict.diagnostics);
            schedule = report.schedule.clone();
            self.last_plan = Some(report);
        }
        self.alloc = alloc;

        // ---- Install ------------------------------------------------------
        let planned = schedule
            .map(|s| self.install_planned(&compilation, &s))
            .unwrap_or(false);
        compilation.stats.plan_applied = planned;
        if !planned {
            self.install_wholesale(&compilation);
        }
        // VNH → VMAC bindings for the ARP responder. Router-interface
        // bindings are kept; stale VNH bindings are harmless (the pool
        // restarts, so indices are reused consistently).
        for (vnh, vmac) in &compilation.vnh {
            self.arp.bind(*vnh, *vmac);
        }
        self.overlays.clear();
        self.needs_reoptimize = false;
        // Deny-skipped deltas degraded to this full reoptimize; hand the
        // count to the stats and reset the window.
        compilation.stats.delta_deny_fallbacks = self.pending_deny_fallbacks;
        self.pending_deny_fallbacks = 0;
        let stats = compilation.stats;
        self.compilation = Some(compilation);
        // Reseed the incremental delta verifier from the freshly installed
        // state: the tables changed wholesale, so every cached partition and
        // the whole emissions model start over.
        if self.options.delta_check != AnalysisMode::Off {
            if let Some(vi) = self.verify_input() {
                let state = self.installed_state();
                let judge = self.delta_judge_naive;
                let checker = self
                    .delta_checker
                    .get_or_insert_with(sdx_plan::IncrementalChecker::new);
                checker.seed(&vi, &state);
                checker.set_judge_naive(judge);
            }
        }
        Ok(stats)
    }

    /// The pipeline a wholesale install of `compilation` loads, in
    /// traversal order: each table's classifier and the table its non-drop
    /// rules `goto`. Multi-table mode runs the sender stage (goto 1), then
    /// the receiver stage, with no composition; otherwise the composed
    /// fabric is the single table.
    fn pipeline<'c>(&self, compilation: &'c Compilation) -> Vec<(&'c Classifier, Option<usize>)> {
        if self.options.multi_table {
            vec![(&compilation.stage1, Some(1)), (&compilation.stage2, None)]
        } else {
            vec![(&compilation.fabric, None)]
        }
    }

    /// Wholesale install: reset the pipeline and load the compiled tables.
    fn install_wholesale(&mut self, compilation: &Compilation) {
        let pipeline = self.pipeline(compilation);
        let master = self.switch.master_mut();
        master.reset_pipeline(pipeline.len());
        for (i, (classifier, goto)) in pipeline.into_iter().enumerate() {
            if let Some(table) = master.table_at_mut(i) {
                table.install_classifier_goto(classifier, BASE_COOKIE, goto);
            }
        }
    }

    /// Apply a synthesized update plan step-by-step to the *live* tables
    /// (the delta path: touched rules only, no wholesale rebuild), then
    /// cross-check the result against a fresh install by content
    /// fingerprint. Returns `false` — caller falls back to the wholesale
    /// path — when the pipeline shape changed or the fingerprints disagree.
    fn install_planned(
        &mut self,
        compilation: &Compilation,
        schedule: &sdx_plan::Schedule,
    ) -> bool {
        if self.switch.master().table_count() != self.pipeline(compilation).len() {
            return false;
        }
        for step in &schedule.order {
            let Some(table) = self.switch.master_mut().table_at_mut(step.table) else {
                return false;
            };
            match step.op {
                DeltaOp::Install => table.install(step.rule.to_flow_rule(BASE_COOKIE)),
                DeltaOp::Remove => {
                    table.remove_matching(&step.rule.to_flow_rule(BASE_COOKIE));
                }
            }
        }
        // Paranoia cross-check: the planned result must be content-identical
        // to what a wholesale install would have produced; if not, the
        // wholesale reinstall repairs the divergence.
        let fresh = self.reference_tables(compilation);
        let live = self.switch.master().tables();
        live.len() == fresh.len()
            && live
                .iter()
                .zip(&fresh)
                .all(|(l, f)| l.fingerprint() == f.fingerprint())
    }

    /// The tables a wholesale install of `compilation` would produce.
    fn reference_tables(&self, compilation: &Compilation) -> Vec<FlowTable> {
        self.pipeline(compilation)
            .into_iter()
            .map(|(classifier, goto)| {
                let mut table = FlowTable::new();
                table.install_classifier_goto(classifier, BASE_COOKIE, goto);
                table
            })
            .collect()
    }

    /// The rule content of the currently installed pipeline, per table.
    fn installed_state(&self) -> Vec<TableState> {
        let tables = self.switch.master().tables();
        tables.iter().map(sdx_plan::state_of_table).collect()
    }

    /// The rule content a wholesale install of `compilation` would produce.
    fn target_state(&self, compilation: &Compilation) -> Vec<TableState> {
        self.pipeline(compilation)
            .into_iter()
            .map(|(classifier, goto)| sdx_plan::state_of_classifier(classifier, goto))
            .collect()
    }

    /// The update planner's report for the most recent plan-gated
    /// [`compile`](Self::compile): the delta, the synthesized schedule, the
    /// naive-ordering violations, and the search counters. `None` until a
    /// recompile runs with [`CompileOptions::plan`] active and tables
    /// already installed.
    pub fn last_plan(&self) -> Option<&PlanReport> {
        self.last_plan.as_ref()
    }

    /// The paper's "background" stage: rerun the optimal compilation,
    /// coalescing fast-path overlays back into minimal tables.
    pub fn reoptimize(&mut self) -> Result<CompileStats, CompileError> {
        self.compile()
    }

    /// RPKI-filter one update and feed it to the route server, returning
    /// the prefixes whose best route changed.
    fn ingest_update(&mut self, from: ParticipantId, update: &Update) -> Vec<Prefix> {
        // RPKI origin validation: strip Invalid announcements.
        let mut update = update.clone();
        if let (Some(rpki), Some(attrs)) = (&self.rpki, &update.attrs) {
            let origin = attrs.as_path.origin_as().unwrap_or(sdx_bgp::Asn(0));
            let before = update.announce.len();
            update
                .announce
                .retain(|p| rpki.validate(p, origin) != RpkiStatus::Invalid);
            self.rpki_rejected += (before - update.announce.len()) as u64;
            if update.announce.is_empty() {
                update.attrs = None;
            }
        }
        let events = self.route_server.apply_update(from.peer(), &update);
        events
            .into_iter()
            .filter_map(|e| match e {
                sdx_bgp::RsEvent::PrefixTouched(p) => Some(p),
                _ => None,
            })
            .collect()
    }

    /// Ingest a BGP update from a participant. If a compilation is active,
    /// every touched prefix goes through the fast path (see
    /// [`apply_update_delta`](Self::apply_update_delta)). Returns the
    /// touched prefixes.
    pub fn apply_update(&mut self, from: ParticipantId, update: &Update) -> Vec<Prefix> {
        self.apply_update_delta(from, update).0
    }

    /// Ingest a BGP update and run §4.3.2's fast stage for every touched
    /// prefix: a fresh VNH, the rules mentioning its VMAC installed above
    /// the live priority ceiling, then the prefix's previous fragment
    /// retired — make-before-break, no classifier rebuild. Returns the
    /// touched prefixes and the aggregate rule delta.
    pub fn apply_update_delta(
        &mut self,
        from: ParticipantId,
        update: &Update,
    ) -> (Vec<Prefix>, DeltaInstall) {
        let touched = self.ingest_update(from, update);
        let mut total = DeltaInstall::default();
        if self.compilation.is_some() {
            let start = Instant::now();
            self.incremental.last_check_us = 0;
            for prefix in &touched {
                let d = self.fast_path_delta(*prefix);
                total.installed += d.installed;
                total.removed += d.removed;
            }
            self.incremental.updates = self
                .incremental
                .updates
                .saturating_add(touched.len() as u64);
            self.incremental.last_update_us =
                u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        }
        (touched, total)
    }

    /// Convenience announce (see [`apply_update`](Self::apply_update)).
    pub fn announce(
        &mut self,
        from: ParticipantId,
        prefixes: impl IntoIterator<Item = Prefix>,
        attrs: PathAttributes,
    ) -> Vec<Prefix> {
        self.apply_update(from, &Update::announce(prefixes, attrs))
    }

    /// Convenience withdraw (see [`apply_update`](Self::apply_update)).
    pub fn withdraw(
        &mut self,
        from: ParticipantId,
        prefixes: impl IntoIterator<Item = Prefix>,
    ) -> Vec<Prefix> {
        self.apply_update(from, &Update::withdraw(prefixes))
    }

    /// Retire the overlay covering `prefix` (rules, ARP binding,
    /// bookkeeping), if one exists. Returns how many rules were removed.
    fn retire_overlay(&mut self, prefix: Prefix) -> usize {
        let Some(pos) = self.overlays.iter().position(|o| o.prefix == prefix) else {
            return 0;
        };
        let old = self.overlays.remove(pos);
        let removed = self
            .switch
            .master_mut()
            .table_mut()
            .remove_by_cookie(old.cookie);
        self.arp.unbind(&old.vnh);
        removed
    }

    /// Compile the stage-1 fragment for `prefix` tagged with `vmac`,
    /// composed down to single-table form unless the pipeline runs
    /// multi-table mode.
    fn fragment_for(&self, prefix: &Prefix, vmac: MacAddr) -> Vec<sdx_policy::Rule> {
        let Some(compilation) = &self.compilation else {
            return Vec::new();
        };
        let fragment_rules = stage1_rules_for_prefix(&self.input(), prefix, vmac);
        if self.options.multi_table {
            // Pipeline mode: the sender-stage fragment goes straight into
            // table 0 (goto 1); no composition needed.
            return fragment_rules;
        }
        let fragment = Classifier::new(fragment_rules);
        let composed = sdx_policy::sequential_compose(&fragment, &compilation.stage2);
        // Only the rules constrained to the fresh VMAC are meaningful (the
        // fragment's catch-all drop must not shadow the base table).
        let vmac_pattern = sdx_policy::Pattern::Exact(vmac.to_u64());
        composed
            .rules()
            .iter()
            .filter(|r| r.match_.get(sdx_policy::Field::DstMac) == Some(&vmac_pattern))
            .cloned()
            .collect()
    }

    /// §4.3.2's fast stage for one prefix: assume a new VNH is needed,
    /// compile only the rules mentioning the fresh VMAC, and migrate the
    /// prefix make-before-break — install the new fragment, then retire the
    /// old one by cookie. Because every fragment rule is pinned to an exact,
    /// never-reused VMAC tag, the two generations match disjoint packets and
    /// every intermediate state is per-packet consistent. The new fragment
    /// lands directly above the table's live priority ceiling, so each
    /// fragment owns a priority band of its own; every full compile resets
    /// the ceiling to the base table's.
    ///
    /// A withdrawal (no route left anywhere) is the same transition to an
    /// empty fragment: no VNH is allocated and no cookie consumed, the
    /// schedule is the old fragment's drain alone, and the routers stop
    /// tagging the prefix.
    fn fast_path_delta(&mut self, prefix: Prefix) -> DeltaInstall {
        // Allocate *before* retiring the previous fragment: when the pool
        // is exhausted the stale fragment keeps forwarding the prefix (its
        // VNH is still advertised and its rules still present) instead of
        // leaving it ruleless until someone happens to recompile. The
        // condition is counted and flags the background stage.
        let fresh = if self.route_server.best_route_global(&prefix).is_some() {
            let Some(binding) = self.alloc.allocate() else {
                self.incremental.overlay_exhausted =
                    self.incremental.overlay_exhausted.saturating_add(1);
                self.needs_reoptimize = true;
                return DeltaInstall::default();
            };
            Some(binding)
        } else {
            None
        };
        let vmac = fresh.map(|(_, vmac)| vmac);
        let fragment = vmac
            .map(|vmac| self.fragment_for(&prefix, vmac))
            .unwrap_or_default();
        let n = fragment.len() as u32;
        // A long-lived runtime can run the band above the ceiling out of
        // priority space. That is an operational condition, not a bug:
        // leave the previous rules serving the prefix and let the
        // background recompilation reset the ceiling.
        let ceiling = self.switch.master().table().max_priority().unwrap_or(0);
        if ceiling.checked_add(n).is_none() {
            self.incremental.install_errors = self.incremental.install_errors.saturating_add(1);
            self.needs_reoptimize = true;
            return DeltaInstall::default();
        }

        let goto = self.options.multi_table.then_some(1);
        let new_state: TableState = fragment
            .into_iter()
            .enumerate()
            .map(|(i, r)| sdx_plan::PlanRule {
                priority: ceiling + n - i as u32,
                goto_table: goto.filter(|_| !r.is_drop()),
                match_: r.match_,
                actions: r.actions,
            })
            .collect();

        // ---- Incremental safety gate --------------------------------------
        // Statically certify (or reorder, or reject) the make-before-break
        // schedule before a single rule moves. A denied delta installs
        // nothing: the stale overlay keeps forwarding and the scheduled full
        // reoptimize recovers. (A VNH allocated above stays consumed until
        // that reoptimize resets the pool — bounded by the deny window.)
        let checked = if self.delta_check_active() {
            let old_state = self.overlay_state(&prefix);
            let steps = sdx_plan::diff(&[old_state], std::slice::from_ref(&new_state));
            let schedule = sdx_plan::make_before_break(&steps);
            let adverts = self.route_server.advert_map(&prefix);
            let adds = vmac
                .map(|vmac| self.delta_adds(&prefix, vmac, &adverts))
                .unwrap_or_default();
            let advert_now = verify::advert_pairs(&self.participants, &adverts);
            self.check_streamed_delta(prefix, adds, advert_now, schedule, steps)
        } else {
            None
        };
        if matches!(checked, Some((_, true))) {
            return DeltaInstall::default();
        }

        // Installs, then the barrier, then removals. Old and new fragments
        // never share rule content (distinct VMAC tags), so the schedule's
        // install side is exactly the new fragment and its removal side
        // exactly the old cookie's rules, which one `remove_by_cookie`
        // retires with a single index rebuild.
        let installed = new_state.len();
        let overlay = fresh.map(|(vnh, vmac)| {
            let cookie = self.next_cookie;
            self.next_cookie += 1;
            let table = self.switch.master_mut().table_mut();
            for rule in &new_state {
                table.install(rule.to_flow_rule(cookie));
            }
            Overlay {
                prefix,
                vnh,
                vmac,
                cookie,
                rules: installed,
            }
        });
        let removed = self.retire_overlay(prefix);
        if let Some((ev, _)) = &checked {
            let schedule = &ev.schedule;
            debug_assert_eq!(
                (schedule.barrier, schedule.order.len() - schedule.barrier),
                (installed, removed),
                "checked schedule diverged from the installed delta"
            );
        }
        if let Some(o) = overlay {
            self.arp.bind(o.vnh, o.vmac);
            self.overlays.push(o);
        }
        self.incremental.delta_installed = self
            .incremental
            .delta_installed
            .saturating_add(installed as u64);
        self.incremental.delta_removed = self
            .incremental
            .delta_removed
            .saturating_add(removed as u64);
        if let Some((ev, _)) = checked {
            if let Some(c) = self.delta_checker.as_mut() {
                c.commit(&ev, &ev.schedule.order);
            }
        }
        DeltaInstall { installed, removed }
    }

    /// Is the streamed-delta safety gate on and seeded?
    fn delta_check_active(&self) -> bool {
        self.options.delta_check != AnalysisMode::Off && self.delta_checker.is_some()
    }

    /// The live rule content of the overlay covering `prefix` (empty when
    /// none is installed).
    fn overlay_state(&self, prefix: &Prefix) -> TableState {
        match self.overlays.iter().find(|o| o.prefix == *prefix) {
            Some(o) => sdx_plan::state_of_cookie(self.switch.master().table(), o.cookie),
            None => TableState::new(),
        }
    }

    /// The emission keys that will carry `prefix` after it re-homes onto
    /// `vmac`: every physical participant with a best route to it (and not
    /// announcing it itself) emits it from each of its ports under the
    /// fresh tag — mirroring what [`fib_entry`](Self::fib_entry) will resolve
    /// once the overlay's ARP binding lands.
    fn delta_adds(
        &self,
        prefix: &Prefix,
        vmac: MacAddr,
        adverts: &AdvertMap,
    ) -> Vec<sdx_plan::EmissionKey> {
        let tag = vmac.to_u64();
        let mut adds = Vec::new();
        for p in self.participants.values().filter(|p| p.is_physical()) {
            // Point lookup, not `announced_by(..).contains(..)`: building a
            // peer's full announced set per participant per event dominates
            // the streamed check's cost at churn rate.
            if self.route_server.route_from(p.id.peer(), prefix).is_some() {
                continue;
            }
            // A viewer has a best route iff it has any feasible candidate.
            if !adverts.contains_key(&p.id.peer()) {
                continue;
            }
            for port in p.port_numbers() {
                adds.push((p.id.0, port, tag));
            }
        }
        adds
    }

    /// Build, check, record, and (on `Deny` + unsafe) veto one streamed
    /// delta. Returns `(event, denied)`; the caller must install and
    /// [`commit`](sdx_plan::IncrementalChecker::commit) the event unless
    /// `denied`. `None` (unchecked) when no checker is seeded.
    fn check_streamed_delta(
        &mut self,
        prefix: Prefix,
        adds: Vec<sdx_plan::EmissionKey>,
        advert_now: Vec<(u32, u32)>,
        schedule: sdx_plan::Schedule,
        naive: Vec<sdx_plan::PlanStep>,
    ) -> Option<(sdx_plan::DeltaEvent, bool)> {
        let mut ev = sdx_plan::DeltaEvent {
            prefix,
            adds,
            advert_now,
            schedule,
            naive,
        };
        ev.normalize();
        let sample_due = self.delta_sample > 0
            && self
                .incremental
                .delta_checked
                .saturating_add(1)
                .is_multiple_of(self.delta_sample);

        let start = Instant::now();
        let need = self.delta_checker.as_ref()?.needs_tables(&ev);
        let tables = (need || sample_due || self.delta_judge_naive).then(|| self.installed_state());
        let mut report = self
            .delta_checker
            .as_mut()?
            .check_delta(&ev, tables.as_deref());
        report.check_us = clamp_us(start.elapsed().as_micros());

        let s = &mut self.incremental;
        s.delta_checked = s.delta_checked.saturating_add(1);
        match report.verdict {
            sdx_plan::DeltaVerdict::Certified => {
                s.delta_certified = s.delta_certified.saturating_add(1);
                if report.structural {
                    s.delta_structural = s.delta_structural.saturating_add(1);
                }
            }
            sdx_plan::DeltaVerdict::Reordered => {
                s.delta_reordered = s.delta_reordered.saturating_add(1);
            }
            sdx_plan::DeltaVerdict::Rejected => {
                s.delta_rejected = s.delta_rejected.saturating_add(1);
            }
        }
        s.delta_check_us = s.delta_check_us.saturating_add(report.check_us);
        s.last_check_us = s.last_check_us.saturating_add(report.check_us);

        // From-scratch oracle on sampled events (which carry tables): same
        // verdict pipeline, no cache, no gate, full universe — the
        // soundness cross-check.
        let mut from_scratch = None;
        let mut from_scratch_us = 0;
        let mut agreed = None;
        let oracle = tables.as_deref().filter(|_| sample_due);
        if let (Some(t), Some(c)) = (oracle, self.delta_checker.as_ref()) {
            let t0 = Instant::now();
            let fs = c.check_from_scratch(&ev, t);
            from_scratch_us = clamp_us(t0.elapsed().as_micros());
            agreed = Some(report.agrees_with(&fs));
            from_scratch = Some(fs);
        }

        let forced = self.delta_deny_next > 0;
        if forced {
            self.delta_deny_next -= 1;
        }
        let denied = self.options.delta_check == AnalysisMode::Deny && (!report.safe() || forced);
        if denied {
            self.incremental.delta_denied = self.incremental.delta_denied.saturating_add(1);
            self.pending_deny_fallbacks = self.pending_deny_fallbacks.saturating_add(1);
            self.needs_reoptimize = true;
            if let Some(c) = self.delta_checker.as_mut() {
                c.abort();
            }
        }
        if self.delta_log.len() < self.delta_log_limit {
            self.delta_log.push(DeltaRecord {
                prefix,
                report,
                from_scratch,
                from_scratch_us,
                agreed,
            });
        }
        Some((ev, denied))
    }

    /// The next hop the route server advertises to `viewer` for `prefix`:
    /// the SDX's VNH for it, otherwise the original next hop of the
    /// viewer's best route; `None` when the viewer has no best route.
    pub fn advertised_next_hop(&self, prefix: &Prefix, viewer: ParticipantId) -> Option<Ipv4Addr> {
        verify::advertised(&self.route_server, self, prefix, viewer).map(|(_, nh)| nh)
    }

    /// The full re-advertisement of `prefix` to `viewer`, with the SDX's
    /// next-hop substitution applied; `None` (a withdrawal) when the viewer
    /// has no best route.
    pub fn advertisement(&self, prefix: &Prefix, viewer: ParticipantId) -> Option<Update> {
        let (best, nh) = verify::advertised(&self.route_server, self, prefix, viewer)?;
        Some(Update::announce(
            [*prefix],
            best.route.attrs.with_next_hop(nh),
        ))
    }

    /// `viewer`'s border-router FIB decision for `prefix`, as the live
    /// control plane converges it: the advertised next hop and the ARP
    /// responder's answer for it. `None` when the viewer has no best route,
    /// or announces the prefix itself. Every gate's FIB model makes this
    /// same decision (see [`crate::verify`]).
    pub fn fib_entry(
        &self,
        prefix: &Prefix,
        viewer: ParticipantId,
    ) -> Option<(Ipv4Addr, Option<MacAddr>)> {
        verify::fib_decision(&self.route_server, self, prefix, viewer)
    }

    /// Answer an ARP request (VNHs and router interfaces).
    pub fn resolve_arp(&self, req: &ArpRequest) -> Option<ArpReply> {
        self.arp.respond(req)
    }

    /// Resolve an IP to a MAC directly (simulation convenience).
    pub fn resolve_ip(&self, ip: Ipv4Addr) -> Option<MacAddr> {
        self.arp.resolve(&ip)
    }

    /// Push one packet through the fabric.
    pub fn process_packet(&mut self, pkt: &Packet) -> Vec<(u32, Packet)> {
        self.switch.process(pkt)
    }

    /// Push a batch of packets through the fabric, amortizing the pipeline's
    /// scratch allocation across the batch. Results are grouped per input
    /// packet, in input order.
    pub fn process_batch(&mut self, pkts: &[Packet]) -> Vec<Vec<(u32, Packet)>> {
        self.switch.process_batch(pkts)
    }

    /// The zero-alloc batch entry point: emissions land in the reusable
    /// `out` arena (grouped per input packet, in input order), sharded
    /// across [`dataplane_threads`](Self::dataplane_threads) shards when
    /// more than one is configured.
    pub fn process_batch_into(&mut self, pkts: &[Packet], out: &mut BatchOutput) {
        self.switch.process_batch_into(pkts, out);
    }

    /// Like [`process_batch_into`](Self::process_batch_into) but runs the
    /// shards sequentially on the calling thread, timing each shard's busy
    /// span — the measurement mode for per-shard (dedicated-core) cost; see
    /// [`sdx_switch::ShardedSwitch::process_batch_serial_into`].
    pub fn process_batch_serial_into(&mut self, pkts: &[Packet], out: &mut BatchOutput) {
        self.switch.process_batch_serial_into(pkts, out);
    }

    /// Current data-plane shard count.
    pub fn dataplane_threads(&self) -> usize {
        self.switch.threads()
    }

    /// Change the data-plane shard count (0 is clamped to 1); takes effect
    /// on the next batch. Forwarding output and counters are identical for
    /// every shard count.
    pub fn set_dataplane_threads(&mut self, threads: usize) {
        self.options.dataplane_threads = threads.max(1);
        self.switch.set_threads(threads);
    }

    /// Per-shard cumulative busy time (see
    /// [`sdx_switch::ShardedSwitch::shard_busy`]).
    pub fn shard_busy(&self) -> Vec<std::time::Duration> {
        self.switch.shard_busy()
    }

    /// Zero the per-shard busy clocks.
    pub fn reset_shard_busy(&mut self) {
        self.switch.reset_shard_busy();
    }

    /// Force (or lift) linear-scan flow-table lookups — the indexed fast
    /// path's semantic oracle and the dataplane bench's baseline.
    pub fn set_linear_scan(&mut self, linear: bool) {
        self.switch.master_mut().set_linear_scan(linear);
    }

    /// Bring a participant's border router in sync with the SDX's current
    /// advertisements: apply its [`fib_entry`](Self::fib_entry) for every
    /// known prefix.
    pub fn sync_router(&self, viewer: ParticipantId, router: &mut BorderRouter) {
        for prefix in self.route_server.all_prefixes() {
            router.set_route(prefix, self.fib_entry(&prefix, viewer));
        }
    }

    /// Serialize the installed flow tables as OpenFlow 1.0 `FLOW_MOD`
    /// messages, one `Vec` per pipeline table — what the controller would
    /// push to a hardware switch ("a straightforward mapping to low-level
    /// rules on OpenFlow switches"). Multi-table pipelines are rejected by
    /// the 1.0 codec if rules reference virtual ports; use the composed
    /// single-table mode for hardware export.
    pub fn export_flow_mods(
        &self,
    ) -> Result<Vec<Vec<bytes::Bytes>>, sdx_switch::openflow::FlowModError> {
        let tables = self.switch.master().tables();
        tables
            .iter()
            .map(sdx_switch::openflow::flow_mods_for_table)
            .collect()
    }

    /// Re-run the static analyzer against the *installed* state: same
    /// checks as the compile-time gate, plus ARP-binding verification for
    /// every allocated VNH (the responder exists only at runtime, so the
    /// pure compiler cannot check this). `None` before the first
    /// successful [`compile`](Self::compile).
    pub fn audit_installed(&self) -> Option<sdx_analyze::Analysis> {
        let compilation = self.compilation.as_ref()?;
        let mut analysis_input = crate::analysis::build_input(&self.input(), compilation);
        analysis_input.arp_bound = Some(
            compilation
                .vnh
                .iter()
                .map(|(ip, _)| *ip)
                .filter(|ip| self.arp.resolve(ip).is_some())
                .collect(),
        );
        Some(sdx_analyze::analyze(&analysis_input))
    }

    /// The installed pipeline tables, as classifiers in traversal order
    /// (fast-path fragments included, above the base table).
    fn installed_tables(&self) -> Vec<Classifier> {
        let tables = self.switch.master().tables();
        tables
            .iter()
            .map(|table| {
                Classifier::new(
                    table
                        .rules()
                        .iter()
                        .map(|r| sdx_policy::Rule {
                            match_: r.match_.clone(),
                            actions: r.actions.clone(),
                        })
                        .collect(),
                )
            })
            .collect()
    }

    /// The installed FEC bindings: the compilation's groups, with every
    /// prefix a fast-path overlay re-homed pulled out onto the overlay's
    /// fresh VNH/VMAC — the binding the routers actually converge to.
    fn live_groups(&self, compilation: &Compilation) -> Vec<sdx_analyze::GroupBinding> {
        let mut groups = verify::group_bindings(compilation);
        for o in &self.overlays {
            for g in &mut groups {
                g.prefixes.remove(&o.prefix);
            }
            let mut prefixes = sdx_ip::PrefixSet::new();
            prefixes.insert(o.prefix);
            groups.push(sdx_analyze::GroupBinding {
                prefixes,
                vnh: o.vnh,
                vmac: o.vmac.to_u64(),
            });
        }
        groups
    }

    /// The reachability verifier's input for the *installed* state: the
    /// switch's live tables (fast-path overlays included) fronted by FIB
    /// models derived from the live advertisements and ARP responder.
    /// Exposed so audits can substitute *actual* border-router state via
    /// [`sdx_analyze::VerifyInput::set_fib`] (see
    /// [`crate::verify::fib_from_router`]) before running
    /// [`sdx_analyze::reach::run`] themselves. `None` before the first
    /// successful [`compile`](Self::compile).
    pub fn verify_input(&self) -> Option<sdx_analyze::VerifyInput> {
        let compilation = self.compilation.as_ref()?;
        Some(verify::verify_input(
            &self.input(),
            self.installed_tables(),
            self.live_groups(compilation),
            self,
        ))
    }

    /// Run the whole-fabric reachability verifier against the *installed*
    /// state (see [`verify_input`](Self::verify_input)). `None` before the
    /// first successful [`compile`](Self::compile).
    pub fn verify_fabric(&self) -> Option<sdx_analyze::ReachReport> {
        let vi = self.verify_input()?;
        Some(sdx_analyze::reach::run(&vi, self.options.threads))
    }

    /// Differential recompile equivalence (`sdx-verify`'s fourth invariant):
    /// check that the running fabric — incremental fast-path overlays and
    /// all — is packet-equivalent, modulo VNH tags, to a from-scratch
    /// compile of the current inputs. Confirmed differences come back as
    /// `verify-diff` diagnostics with witness packets; an empty report means
    /// the incremental path converged to the same forwarding behavior. The
    /// pass's wall clock is recorded in the active compilation's
    /// `stages.verify_diff_us`. `None` before the first successful
    /// [`compile`](Self::compile) or if the reference compile itself fails.
    pub fn verify_differential(&mut self) -> Option<sdx_analyze::DiffReport> {
        self.compilation.as_ref()?;
        let old = sdx_analyze::DiffSide {
            tables: self.installed_tables(),
            fibs: verify::fib_models(&self.input(), self),
        };
        // The reference side: a gate-free from-scratch compile of the same
        // inputs with its own VNH pool (tag allocations are expected to
        // differ — the comparison is modulo tag).
        let mut options = self.options;
        options.analysis = sdx_analyze::AnalysisMode::Off;
        options.verify = sdx_analyze::AnalysisMode::Off;
        let (new, participants) = {
            let input = CompileInput {
                options,
                ..self.input()
            };
            let mut alloc = VnhAllocator::default_pool();
            let memo = MemoCache::new();
            let fresh = compile(&input, &mut alloc, &memo).ok()?;
            let tables = self
                .pipeline(&fresh)
                .into_iter()
                .map(|(classifier, _)| classifier.clone())
                .collect();
            let fibs = verify::fib_models(&input, &verify::CompiledView::new(&input, &fresh));
            (
                sdx_analyze::DiffSide { tables, fibs },
                verify::physical_participants(&input),
            )
        };
        let report = sdx_analyze::diff::run(&old, &new, &participants, self.options.threads);
        if let Some(c) = &mut self.compilation {
            c.stats.stages.verify_diff_us = report.duration_us;
        }
        Some(report)
    }

    /// Which participant owns a fabric port.
    pub fn port_owner(&self, port: u32) -> Option<ParticipantId> {
        self.participants
            .values()
            .find(|p| p.port_numbers().any(|n| n == port))
            .map(|p| p.id)
    }
}

/// The live route view: a fast-path overlay's VNH if one covers the
/// prefix, else the installed compilation's group VNH ("the SDX behaves
/// like a normal route server" for ungrouped prefixes), resolved by the
/// ARP responder.
impl RouteView for SdxRuntime {
    fn vnh_of(&self, prefix: &Prefix) -> Option<Ipv4Addr> {
        match self.overlays.iter().find(|o| o.prefix == *prefix) {
            Some(o) => Some(o.vnh),
            None => self.compilation.as_ref()?.vnh_of(prefix),
        }
    }

    fn resolve(&self, ip: &Ipv4Addr) -> Option<MacAddr> {
        self.arp.resolve(ip)
    }
}

#[cfg(test)]
mod tests {
    //! The gates' model of a compilation against the live view. Right after
    //! a compile, with no fast-path overlay installed, the FIBs, groups and
    //! ground truth the gates build for the compilation (its own VNH table,
    //! the participants' interface MACs) must equal what
    //! [`SdxRuntime::verify_input`] reads off the installed runtime.

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sdx_bgp::{AsPath, Asn, ExportPolicy};
    use sdx_policy::{match_, match_prefix, Field};

    use super::*;
    use crate::{Clause, PortConfig};

    fn model_is_live(sdx: &SdxRuntime) {
        assert!(sdx.overlays.is_empty(), "a compile clears every overlay");
        let live = sdx.verify_input().expect("compiled");
        assert!(live.fibs.iter().any(|f| !f.entries.is_empty()));
        let compilation = sdx.compilation.as_ref().expect("compiled");
        let model = verify::compiled_verify_input(&sdx.input(), compilation);
        assert_eq!(model.participants, live.participants);
        assert_eq!(model.fibs, live.fibs);
        assert_eq!(model.groups, live.groups);
        assert_eq!(model.advertised, live.advertised);
    }

    fn port(n: u32) -> PortConfig {
        PortConfig {
            port: n,
            mac: MacAddr::from_u64(0x0a00_0000_0000 + u64::from(n)),
            ip: Ipv4Addr::new(172, 0, 0, n as u8),
        }
    }

    fn attrs(path: &[u32], nh: Ipv4Addr) -> PathAttributes {
        PathAttributes::new(AsPath::sequence(path.iter().copied()), nh)
    }

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// The paper's Figure 1 exchange (see `tests/figure1.rs`).
    fn figure1(multi_table: bool) -> SdxRuntime {
        let (a, b, c) = (ParticipantId(1), ParticipantId(2), ParticipantId(3));
        let mut sdx = SdxRuntime::new(CompileOptions {
            multi_table,
            ..Default::default()
        });
        sdx.add_participant(Participant::new(a, Asn(100), vec![port(1)]));
        sdx.add_participant(Participant::new(b, Asn(200), vec![port(2), port(3)]));
        sdx.add_participant(Participant::new(c, Asn(300), vec![port(4)]));
        let (b_nh, c_nh) = (port(2).ip, port(4).ip);
        let p124 = [p("11.0.0.0/8"), p("12.0.0.0/8"), p("14.0.0.0/8")];
        sdx.announce(b, p124, attrs(&[200, 65001], b_nh));
        sdx.announce(b, [p("13.0.0.0/8")], attrs(&[200], b_nh));
        sdx.set_export_policy(
            b,
            ExportPolicy::export_all().deny_prefix_to(p("14.0.0.0/8"), a.peer()),
        );
        sdx.announce(c, p124, attrs(&[300], c_nh));
        sdx.announce(c, [p("13.0.0.0/8")], attrs(&[300, 500, 65001], c_nh));
        sdx.set_policy(
            a,
            ParticipantPolicy::new()
                .outbound(Clause::fwd(match_(Field::DstPort, 80u16), b))
                .outbound(Clause::fwd(match_(Field::DstPort, 443u16), c)),
        );
        sdx.set_policy(
            b,
            ParticipantPolicy::new()
                .inbound(Clause::to_port(
                    match_prefix(Field::SrcIp, p("0.0.0.0/1")),
                    2,
                ))
                .inbound(Clause::to_port(
                    match_prefix(Field::SrcIp, p("128.0.0.0/1")),
                    3,
                )),
        );
        sdx
    }

    #[test]
    fn figure1_model_equals_live_view() {
        for multi_table in [false, true] {
            let mut sdx = figure1(multi_table);
            sdx.compile().unwrap();
            model_is_live(&sdx);
            // Fast-path churn leaves overlay ARP bindings behind; the
            // recompile that coalesces them must still agree.
            sdx.withdraw(ParticipantId(2), [p("13.0.0.0/8")]);
            sdx.announce(
                ParticipantId(1),
                [p("11.0.0.0/8")],
                attrs(&[100], port(1).ip),
            );
            assert!(!sdx.overlays.is_empty());
            sdx.compile().unwrap();
            model_is_live(&sdx);
        }
    }

    /// A random exchange: physical and remote participants, overlapping
    /// announcements (own prefixes, AS paths through other members),
    /// export denials, and filtered, unfiltered and inbound clauses.
    fn random_fabric(seed: u64, multi_table: bool) -> SdxRuntime {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sdx = SdxRuntime::new(CompileOptions {
            multi_table,
            ..Default::default()
        });
        let n = rng.gen_range(3..=6u32);
        let ids: Vec<ParticipantId> = (1..=n).map(ParticipantId).collect();
        let pool: Vec<Prefix> = (0..8u32)
            .map(|i| Prefix::from_bits(0x0a00_0000 | (i << 16), 16))
            .collect();
        let mut next_port = 1;
        for id in &ids {
            let asn = Asn(65_000 + id.0);
            if id.0 > 1 && rng.gen_bool(0.2) {
                sdx.add_participant(Participant::remote(*id, asn));
                continue;
            }
            let ports = (0..rng.gen_range(1..=2))
                .map(|_| {
                    next_port += 1;
                    port(next_port - 1)
                })
                .collect();
            sdx.add_participant(Participant::new(*id, asn, ports));
        }
        for id in &ids {
            let nh = match sdx.participants[id].primary_port() {
                Some(port) => port.ip,
                None => Ipv4Addr::new(172, 0, 0, 100 + id.0 as u8),
            };
            for prefix in &pool {
                if !rng.gen_bool(0.4) {
                    continue;
                }
                let via = ids[rng.gen_range(0..ids.len())].0;
                let path = [65_000 + id.0, 65_000 + via, 64_999];
                sdx.announce(*id, [*prefix], attrs(&path[..rng.gen_range(1..=3)], nh));
            }
            let mut export = ExportPolicy::export_all();
            for prefix in &pool {
                if !rng.gen_bool(0.2) {
                    continue;
                }
                export = export.deny_prefix_to(*prefix, ids[rng.gen_range(0..ids.len())].peer());
            }
            sdx.set_export_policy(*id, export);
        }
        for id in &ids {
            let own: Vec<u32> = sdx.participants[id].port_numbers().collect();
            let Some(&last_port) = own.last() else {
                continue; // remote participants write no outbound clauses.
            };
            let mut policy = ParticipantPolicy::new();
            for dport in [80u16, 443, 22] {
                if !rng.gen_bool(0.5) {
                    continue;
                }
                let to = ids[rng.gen_range(0..ids.len())];
                let clause = Clause::fwd(match_(Field::DstPort, dport), to);
                policy = policy.outbound(if rng.gen_bool(0.2) {
                    clause.unfiltered()
                } else {
                    clause
                });
            }
            if rng.gen_bool(0.5) {
                let half = match_prefix(Field::SrcIp, p("128.0.0.0/1"));
                policy = policy.inbound(Clause::to_port(half, last_port));
            }
            sdx.set_policy(*id, policy);
        }
        sdx
    }

    #[test]
    fn random_fabric_model_equals_live_view() {
        for seed in 0..24 {
            for multi_table in [false, true] {
                let mut sdx = random_fabric(seed, multi_table);
                sdx.compile().unwrap();
                model_is_live(&sdx);
                let prefix = Prefix::from_bits(0x0a00_0000 | ((seed as u32 % 8) << 16), 16);
                let announcer = ParticipantId(1 + (seed as u32 % 3));
                sdx.withdraw(announcer, [prefix]);
                sdx.announce(
                    ParticipantId(1),
                    [Prefix::from_bits(0x0b00_0000, 8)],
                    attrs(&[65_001], Ipv4Addr::new(172, 0, 0, 101)),
                );
                sdx.compile().unwrap();
                model_is_live(&sdx);
            }
        }
    }
}
