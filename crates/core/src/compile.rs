//! The SDX policy compiler (§4 of the paper): lowers every participant's
//! clauses, joined with BGP state, into one fabric classifier.
//!
//! The pipeline applies the paper's four transformations:
//!
//! 1. **Isolation** — outbound clauses are scoped to the author's physical
//!    ports, inbound clauses to its virtual port.
//! 2. **BGP consistency** — an outbound clause towards participant B is
//!    restricted to the prefixes B actually exports to the author; with the
//!    VNH optimization on, the restriction compiles to a handful of
//!    VMAC-tag matches instead of thousands of prefix matches.
//! 3. **Default forwarding** — packets not captured by a custom clause
//!    follow their VMAC (or real router MAC) to the default BGP next hop.
//! 4. **Composition** — the sender stage and the receiver stage are
//!    sequentially composed into a single-table classifier.
//!
//! §4.3.1's optimizations appear as follows: clause rule-lists from
//! different participants are concatenated rather than parallel-composed
//! (sound because isolation makes them port-disjoint); composition is
//! pairwise-pruned structurally (pushing a sender rule through the receiver
//! stage statically resolves its virtual-port assignment, so only the actual
//! target's rules are visited); and receiver-stage blocks are memoized
//! across recompilations.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sdx_analyze::AnalysisMode;
use sdx_bgp::{PeerId, RouteServer};
use sdx_ip::{MacAddr, Prefix, PrefixSet};
use sdx_policy::{
    sequential_compose_traced_par, Action, Classifier, Field, Match, Pattern, Predicate, Rule,
    SharedPredicatePool,
};
use serde::{Deserialize, Serialize};

use crate::fec::{self, DefaultView, PrefixGroup};
use crate::vnh::VnhAllocator;
use crate::{Clause, Dest, Participant, ParticipantId, ParticipantPolicy};

/// Compiler configuration; the defaults are the paper's design, the flags
/// exist for the ablation benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompileOptions {
    /// Group prefixes into FECs and match VMAC tags (§4.2). Off = splice
    /// raw destination-prefix filters into every clause (the "naive
    /// compilation" whose rule explosion §4.2 warns about).
    pub use_vnh: bool,
    /// Reuse receiver-stage rule blocks across recompilations (§4.3.1's
    /// memoization of policy idioms).
    pub memoize: bool,
    /// Target a two-table OpenFlow pipeline instead of composing both
    /// stages into one table: the sender stage goes to table 0 (with
    /// `goto_table 1`) and the receiver stage to table 1. Avoids the
    /// composition cross-product entirely — the direction iSDX later took —
    /// at the cost of requiring multi-table hardware.
    pub multi_table: bool,
    /// Run the static policy-verification pass (`sdx-analyze`) on the
    /// result. `Warn` records diagnostics on the [`Compilation`]; `Deny`
    /// additionally refuses to return (and therefore install) a compilation
    /// with error-severity findings. `Off` (the default) skips analysis so
    /// the compile-time benchmarks measure the compiler alone.
    pub analysis: AnalysisMode,
    /// Run the whole-fabric symbolic reachability verifier (`sdx-verify`) on
    /// the result: isolation/BGP-consistency, cross-stage blackhole, and
    /// VNH/FIB integrity, each with concrete witness packets. `Warn` records
    /// diagnostics on the [`Compilation`]; `Deny` additionally refuses to
    /// return a compilation with error-severity findings. Independent of
    /// `analysis` — the two gates compose.
    pub verify: AnalysisMode,
    /// Run the static update-plan safety analyzer (`sdx-plan`) when a
    /// recompile replaces already-installed tables: compute the rule-level
    /// delta, synthesize a safe install ordering (two-phase fallback), and
    /// judge the naive install-stream order. `Warn` records diagnostics and
    /// installs via the synthesized plan; `Deny` additionally refuses to
    /// install when **no** safe plan exists (naive-order violations alone
    /// never block — they are the evidence the planner exists to route
    /// around). No effect on a first compile (nothing installed to update).
    pub plan: AnalysisMode,
    /// Run the *incremental* header-space safety verifier on every streamed
    /// fast-path delta before it is installed
    /// (`sdx_plan::IncrementalChecker`): certify the make-before-break
    /// schedule, reorder it when an intermediate state is unsafe, or flag
    /// it when no per-packet-consistent schedule exists. `Warn` installs
    /// regardless (verdicts are recorded); `Deny` skips installing an
    /// unsafe delta — the stale overlay keeps forwarding — and schedules a
    /// full reoptimize instead (counted in
    /// [`IncrementalStats::delta_denied`]). No effect on full compiles;
    /// composes with the `plan` gate, which covers those.
    ///
    /// [`IncrementalStats::delta_denied`]: crate::IncrementalStats::delta_denied
    pub delta_check: AnalysisMode,
    /// Worker threads for the fork-join compile pipeline: `1` (the default)
    /// compiles sequentially, `0` resolves to one worker per available core,
    /// any other value is taken literally. The compiled output is
    /// bit-identical for every thread count — parallelism only changes the
    /// wall clock (see `CompileStats::stages`).
    pub threads: usize,
    /// Shards for the RSS-style sharded data plane: `1` (the default) runs
    /// the single-threaded switch; `N > 1` hashes each packet's flow key to
    /// one of N shards processed over the work-stealing pool. Forwarding
    /// output and counters are bit-identical for every shard count (see
    /// `sdx_switch::ShardedSwitch`); the `SDX_DP_THREADS` environment knob
    /// sets this in the benches.
    pub dataplane_threads: usize,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            use_vnh: true,
            memoize: true,
            multi_table: false,
            analysis: AnalysisMode::Off,
            verify: AnalysisMode::Off,
            plan: AnalysisMode::Off,
            delta_check: AnalysisMode::Off,
            threads: 1,
            dataplane_threads: 1,
        }
    }
}

impl CompileOptions {
    /// The default options with a specific worker count (see
    /// [`CompileOptions::threads`]).
    pub fn with_threads(threads: usize) -> Self {
        CompileOptions {
            threads,
            ..Default::default()
        }
    }
}

/// Per-stage wall-clock breakdown of one compilation, in microseconds, plus
/// the resolved worker count. Purely observational: every other
/// [`CompileStats`] field is identical across thread counts, these are not —
/// [`CompileStats::counters`] masks them for output-equivalence checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageTimes {
    /// Workers the `threads` option resolved to.
    pub threads: usize,
    /// Input validation.
    pub validate_us: u64,
    /// Pass 1: effective policy prefix-set collection.
    pub policy_sets_us: u64,
    /// Passes 2+3: FEC computation and VNH assignment.
    pub fec_us: u64,
    /// Sender-stage construction.
    pub stage1_us: u64,
    /// Receiver-stage construction.
    pub stage2_us: u64,
    /// Stage composition (zero in multi-table mode).
    pub compose_us: u64,
    /// Static analysis (zero when analysis is off).
    pub analysis_us: u64,
    /// Symbolic transit of the reachability verifier (zero when verification
    /// is off), shared by the isolation and blackhole passes.
    pub verify_transit_us: u64,
    /// Isolation / BGP-consistency checking over the transit results.
    pub verify_isolation_us: u64,
    /// Blackhole checking over the transit results.
    pub verify_blackhole_us: u64,
    /// VNH / FIB integrity checking.
    pub verify_vnh_us: u64,
    /// Differential recompile equivalence checking (zero unless the runtime
    /// ran [`SdxRuntime::verify_differential`] after this compile).
    ///
    /// [`SdxRuntime::verify_differential`]: crate::SdxRuntime::verify_differential
    pub verify_diff_us: u64,
    /// Rule-level delta computation of the update planner (zero unless the
    /// plan gate ran).
    pub plan_delta_us: u64,
    /// Safe-ordering synthesis of the update planner, including its
    /// intermediate-state checking (zero unless the plan gate ran).
    pub plan_search_us: u64,
    /// The intermediate-state checking portion of the synthesis alone
    /// (subset of `plan_search_us`).
    pub plan_check_us: u64,
}

/// What the compiler measures, for the evaluation harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompileStats {
    /// Forwarding rules in the final fabric classifier.
    pub rules: usize,
    /// Forwarding equivalence classes (VNH count).
    pub groups: usize,
    /// Pass-1 policy prefix sets collected.
    pub policy_sets: usize,
    /// Sender-stage rules before composition.
    pub stage1_rules: usize,
    /// Receiver-stage rules before composition.
    pub stage2_rules: usize,
    /// Receiver-stage blocks served from the memo cache.
    pub memo_hits: usize,
    /// Receiver-stage blocks compiled fresh.
    pub memo_misses: usize,
    /// Rules of the raw stage-composition product the optimizer removed
    /// (duplicates, single-rule shadows, trailing drops). Zero in
    /// multi-table mode, where no composition product is built.
    pub rules_elided: usize,
    /// Warning-severity findings of the static analyzer (0 when analysis
    /// is off).
    pub analysis_warnings: usize,
    /// Error-severity findings of the static analyzer (0 when analysis is
    /// off; a denied compilation returns an error instead of stats).
    pub analysis_errors: usize,
    /// Warning-severity findings of the reachability verifier (0 when
    /// verification is off).
    pub verify_warnings: usize,
    /// Error-severity findings of the reachability verifier (0 when
    /// verification is off; a denied compilation returns an error instead).
    pub verify_errors: usize,
    /// Distinct hash-consed predicate nodes interned during this compile.
    pub pred_nodes: usize,
    /// Clause-predicate classifier requests served from the intern pool's
    /// memo table (a hit means a structurally identical predicate was
    /// already compiled this run).
    pub pred_cache_hits: usize,
    /// Clause-predicate classifier requests compiled fresh.
    pub pred_cache_misses: usize,
    /// Update-plan steps (rule installs + removals) of the last plan-gated
    /// recompile (0 when the plan gate did not run).
    pub plan_steps: usize,
    /// Intermediate states the ordering search checked (0 when the plan
    /// gate did not run).
    pub plan_explored: usize,
    /// Did the planner fall back to the two-phase schedule?
    pub plan_two_phase: bool,
    /// Warning-severity findings of the update planner (0 when the plan
    /// gate did not run).
    pub plan_warnings: usize,
    /// Error-severity findings of the update planner — naive-ordering
    /// violations count here (0 when the plan gate did not run).
    pub plan_errors: usize,
    /// Did the install go through the synthesized plan (rule-level delta
    /// applied step-by-step) rather than a wholesale table rebuild?
    pub plan_applied: bool,
    /// Streamed deltas the incremental checker denied since the previous
    /// compile — each one degraded to the full reoptimize this compile
    /// performs (0 when `delta_check` is not `Deny`). Saturating.
    pub delta_deny_fallbacks: u64,
    /// Wall-clock time of the whole compilation, in microseconds.
    pub duration_us: u64,
    /// Per-stage wall-clock breakdown and worker count.
    pub stages: StageTimes,
}

impl CompileStats {
    /// The deterministic counters only: this copy zeroes every wall-clock
    /// field (and the worker count), so two compilations of the same input
    /// at different thread counts compare equal. The output-equivalence
    /// property tests and the CI smoke compare these.
    pub fn counters(&self) -> CompileStats {
        CompileStats {
            duration_us: 0,
            stages: StageTimes::default(),
            ..*self
        }
    }
}

/// Compiler failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// A clause predicate used negation, which the clause layer forbids.
    NegatedPredicate(ParticipantId),
    /// A remote (portless) participant declared outbound clauses.
    OutboundFromRemote(ParticipantId),
    /// An inbound clause referenced a port the participant does not own.
    UnknownOwnPort(ParticipantId, u32),
    /// An outbound clause used a destination only valid inbound.
    BadOutboundDest(ParticipantId),
    /// The VNH pool ran out of addresses.
    VnhExhausted,
    /// The static analyzer found error-severity defects and the options
    /// demand denial ([`AnalysisMode::Deny`]). Carries the rendered
    /// findings; no flow rules are produced.
    AnalysisRejected(Vec<String>),
    /// The whole-fabric reachability verifier found error-severity
    /// violations and the options demand denial. Carries the rendered
    /// findings (with witness packets); no flow rules are produced.
    VerifyRejected(Vec<String>),
    /// The update planner found **no** safe install schedule — neither a
    /// single-phase ordering nor the two-phase fallback passes the
    /// intermediate-state checks — and the options demand denial. Carries
    /// the rendered findings (violating step + witness packet); the
    /// previously installed tables stay in place.
    PlanRejected(Vec<String>),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::NegatedPredicate(p) => {
                write!(f, "{p}: clause predicates must be negation-free")
            }
            CompileError::OutboundFromRemote(p) => {
                write!(f, "{p}: remote participants cannot have outbound clauses")
            }
            CompileError::UnknownOwnPort(p, port) => {
                write!(f, "{p}: inbound clause references unknown own port {port}")
            }
            CompileError::BadOutboundDest(p) => {
                write!(f, "{p}: outbound clauses must target a participant or drop")
            }
            CompileError::VnhExhausted => write!(f, "virtual next-hop pool exhausted"),
            CompileError::AnalysisRejected(errors) => {
                write!(
                    f,
                    "static analysis rejected the compilation ({} error",
                    errors.len()
                )?;
                if errors.len() != 1 {
                    write!(f, "s")?;
                }
                write!(f, ")")?;
                for e in errors {
                    write!(f, "\n  {e}")?;
                }
                Ok(())
            }
            CompileError::VerifyRejected(errors) => {
                write!(
                    f,
                    "reachability verification rejected the compilation ({} error",
                    errors.len()
                )?;
                if errors.len() != 1 {
                    write!(f, "s")?;
                }
                write!(f, ")")?;
                for e in errors {
                    write!(f, "\n  {e}")?;
                }
                Ok(())
            }
            CompileError::PlanRejected(errors) => {
                write!(
                    f,
                    "update planning rejected the installation: no safe schedule exists ({} error",
                    errors.len()
                )?;
                if errors.len() != 1 {
                    write!(f, "s")?;
                }
                write!(f, ")")?;
                for e in errors {
                    write!(f, "\n  {e}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// Memo cache for receiver-stage blocks, keyed by participant and a version
/// the runtime bumps whenever that participant's policy or ports change.
///
/// The cache is sharded: entries live behind per-shard mutexes (participants
/// map to shards by id), so the parallel receiver-stage builders read and
/// write it concurrently without a global lock. All methods take `&self`.
///
/// It is also *bounded*: every [`compile`] ends by evicting entries whose
/// participant is no longer registered, so a long-lived runtime that churns
/// through participants cannot grow the cache without limit.
#[derive(Debug)]
pub struct MemoCache {
    shards: Vec<Mutex<MemoShard>>,
}

/// One shard's contents: participant → (policy version, cached block).
type MemoShard = HashMap<ParticipantId, (u64, Vec<Rule>)>;

/// Shard count: enough to make contention unlikely at realistic parallelism
/// without wasting memory on tiny deployments.
const MEMO_SHARDS: usize = 16;

impl Default for MemoCache {
    fn default() -> Self {
        MemoCache {
            shards: (0..MEMO_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }
}

impl MemoCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn shard(&self, id: ParticipantId) -> &Mutex<MemoShard> {
        &self.shards[id.0 as usize % MEMO_SHARDS]
    }

    /// The cached block for `id`, if its version is current.
    fn lookup(&self, id: ParticipantId, version: u64) -> Option<Vec<Rule>> {
        let shard = self.shard(id).lock().unwrap();
        match shard.get(&id) {
            Some((cached_version, rules)) if *cached_version == version => Some(rules.clone()),
            _ => None,
        }
    }

    /// Insert (replace) the block for `id`.
    fn store(&self, id: ParticipantId, version: u64, rules: Vec<Rule>) {
        self.shard(id).lock().unwrap().insert(id, (version, rules));
    }

    /// Evict entries for participants no longer present (the runtime calls
    /// this via [`compile`] so removed participants release their blocks).
    pub fn retain_participants(&self, participants: &BTreeMap<ParticipantId, Participant>) {
        for shard in &self.shards {
            shard
                .lock()
                .unwrap()
                .retain(|id, _| participants.contains_key(id));
        }
    }

    /// Cached entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop everything (e.g. after wholesale reconfiguration).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().unwrap().clear();
        }
    }
}

/// Everything the compiler reads.
pub struct CompileInput<'a> {
    /// Participant configurations.
    pub participants: &'a BTreeMap<ParticipantId, Participant>,
    /// Participant policies (participants absent here have empty policies).
    pub policies: &'a BTreeMap<ParticipantId, ParticipantPolicy>,
    /// Per-participant policy versions for memoization (missing = 0).
    pub policy_versions: &'a BTreeMap<ParticipantId, u64>,
    /// The route server's current state.
    pub route_server: &'a RouteServer,
    /// Compiler configuration.
    pub options: CompileOptions,
}

/// The compiler's output.
#[derive(Debug, Clone)]
pub struct Compilation {
    /// The single-table fabric classifier (ingress physical port → egress
    /// physical port).
    pub fabric: Classifier,
    /// The forwarding equivalence classes.
    pub groups: Vec<PrefixGroup>,
    /// Reverse index: prefix → group id.
    pub group_index: BTreeMap<Prefix, usize>,
    /// Per-group (VNH, VMAC) assignment, parallel to `groups`.
    pub vnh: Vec<(Ipv4Addr, MacAddr)>,
    /// The pass-1 effective prefix sets (by id, as referenced from groups).
    pub policy_sets: Vec<PrefixSet>,
    /// The sender stage before composition (kept for the composition
    /// ablation benchmarks).
    pub stage1: Classifier,
    /// The receiver stage before composition; the incremental fast path
    /// composes per-prefix sender fragments against it (§4.3.2).
    pub stage2: Classifier,
    /// The static analyzer's findings (`None` when analysis is off).
    pub analysis: Option<sdx_analyze::Analysis>,
    /// Measurements.
    pub stats: CompileStats,
}

impl Compilation {
    /// The group id for a prefix, if it belongs to one.
    pub fn group_of(&self, prefix: &Prefix) -> Option<usize> {
        self.group_index.get(prefix).copied()
    }

    /// The VNH IP advertised for a prefix, if the prefix is grouped.
    pub fn vnh_of(&self, prefix: &Prefix) -> Option<Ipv4Addr> {
        self.group_of(prefix).map(|g| self.vnh[g].0)
    }

    /// The VMAC tag for a prefix, if the prefix is grouped.
    pub fn vmac_of(&self, prefix: &Prefix) -> Option<MacAddr> {
        self.group_of(prefix).map(|g| self.vnh[g].1)
    }
}

/// Compile everything. See the module docs for the pipeline.
///
/// `options.threads` controls the fork-join worker count; the output and
/// every [`CompileStats::counters`] field are identical for every thread
/// count. The memo cache is read and written through shared references so
/// the parallel receiver-stage builders can touch it concurrently.
pub fn compile(
    input: &CompileInput<'_>,
    alloc: &mut VnhAllocator,
    memo: &MemoCache,
) -> Result<Compilation, CompileError> {
    let start = Instant::now();
    let mut stats = CompileStats::default();
    let threads = crossbeam::pool::num_threads(input.options.threads);
    stats.stages.threads = threads;

    // One hash-consing pool per compile: structurally identical clause
    // predicates (policy idioms repeated across participants) compile once.
    let pool = SharedPredicatePool::new();

    let t = Instant::now();
    validate(input)?;
    stats.stages.validate_us = duration_us(t.elapsed());

    // ---- Pass 1: effective prefix sets per outbound clause --------------
    let t = Instant::now();
    let (policy_sets, clause_sets) = collect_policy_sets(input);
    stats.policy_sets = policy_sets.len();
    stats.stages.policy_sets_us = duration_us(t.elapsed());

    // ---- Passes 2+3: FEC computation and VNH assignment ------------------
    // In naive mode (the §4.2 ablation) no FECs are formed: clauses match
    // raw destination prefixes and default forwarding uses real router MACs.
    let t = Instant::now();
    let rs = input.route_server;
    let groups = if input.options.use_vnh {
        fec::compute_groups(&policy_sets, |prefix| default_view(rs, prefix), threads)
    } else {
        Vec::new()
    };
    let group_index = fec::index_groups(&groups);
    // With the update-plan gate active the pool is NOT recycled: each
    // recompile allocates a fresh VNH/VMAC *generation*, so a tag never
    // changes meaning across a plan. Tag reuse would make per-packet
    // consistency unachievable at rule granularity — a reused tag's
    // pre-flip traffic needs the old behavior while its post-flip traffic
    // needs the new one, through rules that cannot tell them apart. The
    // /12 pool sustains ~1M allocations before `VnhExhausted` forces an
    // operator reset.
    if input.options.plan == AnalysisMode::Off {
        alloc.reset();
    }
    let mut vnh = Vec::with_capacity(groups.len());
    for _ in &groups {
        vnh.push(alloc.allocate().ok_or(CompileError::VnhExhausted)?);
    }
    stats.groups = groups.len();
    stats.stages.fec_us = duration_us(t.elapsed());

    // ---- Sender stage -----------------------------------------------------
    let t = Instant::now();
    let stage1 = build_stage1(
        input,
        &pool,
        threads,
        &policy_sets,
        &clause_sets,
        &groups,
        &vnh,
    )?;
    stats.stage1_rules = stage1.len();
    stats.stages.stage1_us = duration_us(t.elapsed());

    // ---- Receiver stage ---------------------------------------------------
    let t = Instant::now();
    let stage2 = build_stage2(input, &pool, memo, threads, &mut stats)?;
    stats.stage2_rules = stage2.len();
    stats.stages.stage2_us = duration_us(t.elapsed());

    // ---- Composition ------------------------------------------------------
    // In multi-table mode the stages stay separate (installed as a two-table
    // pipeline); the composed single-table classifier is not built.
    let t = Instant::now();
    let fabric = if input.options.multi_table {
        Classifier::drop_all()
    } else {
        let (fabric, elided) = sequential_compose_traced_par(&stage1, &stage2, threads);
        stats.rules_elided = elided.len();
        fabric
    };
    stats.rules = if input.options.multi_table {
        stage1.len() + stage2.len()
    } else {
        fabric.len()
    };
    stats.stages.compose_us = duration_us(t.elapsed());

    let pool_stats = pool.stats();
    stats.pred_nodes = pool_stats.nodes;
    stats.pred_cache_hits = pool_stats.compile_hits;
    stats.pred_cache_misses = pool_stats.compile_misses;

    // Keep the memo cache bounded: entries for participants that left the
    // fabric are dead weight and can never hit again.
    memo.retain_participants(input.participants);

    let mut compilation = Compilation {
        fabric,
        groups,
        group_index,
        vnh,
        policy_sets,
        stage1,
        stage2,
        analysis: None,
        stats,
    };

    // ---- Static verification gate ----------------------------------------
    if input.options.analysis != AnalysisMode::Off {
        let t = Instant::now();
        let analysis = sdx_analyze::analyze(&crate::analysis::build_input(input, &compilation));
        compilation.stats.analysis_warnings = analysis.warnings();
        compilation.stats.analysis_errors = analysis.errors();
        if let Err(errors) = sdx_analyze::gate(input.options.analysis, &analysis) {
            return Err(CompileError::AnalysisRejected(errors));
        }
        compilation.analysis = Some(analysis);
        compilation.stats.stages.analysis_us = duration_us(t.elapsed());
    }

    // ---- Whole-fabric reachability verification gate ----------------------
    if input.options.verify != AnalysisMode::Off {
        let vi = crate::verify::build_verify_input(input, &compilation);
        let report = sdx_analyze::reach::run(&vi, threads);
        compilation.stats.stages.verify_transit_us = report.times.transit_us;
        compilation.stats.stages.verify_isolation_us = report.times.isolation_us;
        compilation.stats.stages.verify_blackhole_us = report.times.blackhole_us;
        compilation.stats.stages.verify_vnh_us = report.times.vnh_us;
        let verdict = sdx_analyze::Analysis {
            diagnostics: report.diagnostics,
        };
        compilation.stats.verify_warnings = verdict.warnings();
        compilation.stats.verify_errors = verdict.errors();
        if let Err(errors) = sdx_analyze::gate(input.options.verify, &verdict) {
            return Err(CompileError::VerifyRejected(errors));
        }
        compilation
            .analysis
            .get_or_insert_with(Default::default)
            .diagnostics
            .extend(verdict.diagnostics);
    }

    compilation.stats.duration_us = duration_us(start.elapsed());
    Ok(compilation)
}

/// The §4.3.2 fast path's sender-stage fragment for a single prefix that
/// just changed: the full compile's sender stage for that prefix alone,
/// under its *fresh* VMAC. Each author's clause block keeps the filtered
/// clauses whose effective set holds the prefix ([`in_effective_set`]) and
/// pins every drop and unfiltered clause to the VMAC; the prefix's
/// default-forwarding rules follow. Bypasses VNH optimality entirely,
/// exactly as the paper describes ("it restricts compilation to the parts
/// of the policy related to p").
pub fn stage1_rules_for_prefix(
    input: &CompileInput<'_>,
    prefix: &Prefix,
    vmac: MacAddr,
) -> Vec<Rule> {
    let pool = SharedPredicatePool::new();
    let tag = Predicate::test(Field::DstMac, vmac);
    let mut rules: Vec<Rule> = authors(input)
        .flat_map(|(id, policy, participant)| {
            clause_block(&pool, policy, participant, Some(&tag), |_, clause| {
                in_effective_set(input, id, clause, prefix).then(|| tag.clone())
            })
        })
        .collect();
    let view = default_view(input.route_server, prefix);
    rules.extend(exception_rules(input.participants, vmac, &view.exceptions));
    rules.push(default_rule(vmac, view.global));
    rules
}

fn duration_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

fn validate(input: &CompileInput<'_>) -> Result<(), CompileError> {
    for (id, policy) in input.policies {
        let Some(participant) = input.participants.get(id) else {
            continue;
        };
        if !participant.is_physical() && !policy.outbound.is_empty() {
            return Err(CompileError::OutboundFromRemote(*id));
        }
        for clause in policy.outbound.iter().chain(policy.inbound.iter()) {
            if !clause.match_.is_positive() {
                return Err(CompileError::NegatedPredicate(*id));
            }
        }
        for clause in &policy.outbound {
            if !matches!(clause.dest, Dest::Participant(_) | Dest::Drop) {
                return Err(CompileError::BadOutboundDest(*id));
            }
        }
        for clause in &policy.inbound {
            if let Dest::OwnPort(port) = clause.dest {
                if !participant.port_numbers().any(|p| p == port) {
                    return Err(CompileError::UnknownOwnPort(*id, port));
                }
            }
        }
    }
    Ok(())
}

/// Maps each (participant, outbound clause index) to the id of its
/// effective prefix set (None for unfiltered/drop clauses).
pub type ClauseSetIndex = BTreeMap<(ParticipantId, usize), Option<usize>>;

/// Pass 1: for every outbound clause towards a participant, its
/// [`effective_set`]. Also adds, per remote participant with inbound
/// clauses, the set of prefixes it announces, so that traffic towards it is
/// tagged and default-forwarded to its virtual switch.
fn collect_policy_sets(input: &CompileInput<'_>) -> (Vec<PrefixSet>, ClauseSetIndex) {
    let mut sets: Vec<PrefixSet> = Vec::new();
    let mut clause_sets = BTreeMap::new();
    for (id, policy) in input.policies {
        for (ci, clause) in policy.outbound.iter().enumerate() {
            let set_id = effective_set(input, *id, clause).map(|eff| {
                sets.push(eff);
                sets.len() - 1
            });
            clause_sets.insert((*id, ci), set_id);
        }
    }
    // Remote participants with inbound policies: group their announced
    // prefixes so default forwarding can deliver to their virtual switch.
    for (id, policy) in input.policies {
        let Some(participant) = input.participants.get(id) else {
            continue;
        };
        if participant.is_physical() || policy.inbound.is_empty() {
            continue;
        }
        let announced = input.route_server.announced_by(id.peer());
        if !announced.is_empty() {
            sets.push(announced);
        }
    }
    (sets, clause_sets)
}

/// A clause's effective prefix set (§4.2 pass 1): for a filtered clause
/// towards a participant, the prefixes of its destination scope that the
/// target exports to the author, or everything the target exports to the
/// author when the clause is unscoped. `None` for every other clause.
///
/// A scoped clause asks the route server's point predicate
/// [`RouteServer::exports_to`] once per scoped prefix, so pass 1 costs the
/// size of the scopes rather than a walk of the target's whole Adj-RIB-In
/// per clause. The static analyzer asks this too, against the live route
/// server; the fast path asks [`in_effective_set`], its pointwise form.
pub fn effective_set(
    input: &CompileInput<'_>,
    author: ParticipantId,
    clause: &Clause,
) -> Option<PrefixSet> {
    let Dest::Participant(to) = clause.dest else {
        return None;
    };
    if clause.unfiltered {
        return None;
    }
    let rs = input.route_server;
    Some(match &clause.dst_prefixes {
        Some(scope) => scope
            .iter()
            .filter(|prefix| rs.exports_to(to.peer(), prefix, author.peer()))
            .copied()
            .collect(),
        None => rs.prefixes_via(to.peer(), author.peer()),
    })
}

/// Is `prefix` in the clause's [`effective_set`]? `false` for every clause
/// that has none. The fast path's fragment keeps a filtered clause exactly
/// when this holds.
pub fn in_effective_set(
    input: &CompileInput<'_>,
    author: ParticipantId,
    clause: &Clause,
    prefix: &Prefix,
) -> bool {
    let Dest::Participant(to) = clause.dest else {
        return false;
    };
    !clause.unfiltered
        && clause
            .dst_prefixes
            .as_ref()
            .is_none_or(|scope| scope.contains(prefix))
        && input
            .route_server
            .exports_to(to.peer(), prefix, author.peer())
}

/// The pass-2 default-forwarding view of one prefix.
fn default_view(rs: &RouteServer, prefix: &Prefix) -> DefaultView {
    let global = rs.best_route_global(prefix);
    let mut exceptions = BTreeMap::new();
    for viewer in rs.export_exceptions(prefix) {
        exceptions.insert(viewer, rs.best_route(prefix, viewer).map(|c| c.peer));
    }
    DefaultView {
        global: global.map(|c| c.peer),
        exceptions,
    }
}

/// Compile one clause into its rule list: the pass rules of its (positive)
/// predicate with the clause's action substituted. The classifier comes from
/// the hash-consing pool, so structurally identical predicates (shared
/// policy idioms) are compiled once per [`compile`] run.
fn clause_rules(pool: &SharedPredicatePool, pred: &Predicate, action: Vec<Action>) -> Vec<Rule> {
    pool.compile(pred)
        .rules()
        .iter()
        .filter(|r| !r.is_drop())
        .map(|r| Rule {
            match_: r.match_.clone(),
            actions: action.clone(),
        })
        .collect()
}

fn rewrites_action(rewrites: &[(Field, u64)]) -> Action {
    let mut a = Action::identity();
    for (f, v) in rewrites {
        a = a.with(*f, *v);
    }
    a
}

/// Sender stage: custom outbound clause rules (port-isolated,
/// BGP-consistency-filtered) above the shared default-forwarding rules.
///
/// The per-participant clause blocks are independent (isolation makes them
/// port-disjoint), so they build on the fork-join pool; blocks are then
/// concatenated in participant order, which keeps the output identical to a
/// sequential build. The default-forwarding tail is cheap and stays serial.
fn build_stage1(
    input: &CompileInput<'_>,
    pool: &SharedPredicatePool,
    threads: usize,
    policy_sets: &[PrefixSet],
    clause_sets: &ClauseSetIndex,
    groups: &[PrefixGroup],
    vnh: &[(Ipv4Addr, MacAddr)],
) -> Result<Classifier, CompileError> {
    // Custom outbound clauses, isolated to the author's physical ports.
    let authors: Vec<_> = authors(input).collect();
    // The groups each policy set spans, in group order: every clause's
    // VMAC filter reads its row instead of scanning all groups.
    let mut set_groups: Vec<Vec<usize>> = vec![Vec::new(); policy_sets.len()];
    for (gid, group) in groups.iter().enumerate() {
        for &set_id in &group.policy_sets {
            set_groups[set_id].push(gid);
        }
    }
    let block = |(id, policy, participant): (ParticipantId, &ParticipantPolicy, &Participant)| {
        clause_block(pool, policy, participant, None, |ci, _| {
            let set_id = clause_sets.get(&(id, ci)).copied().flatten()?;
            Some(reachability_filter(
                input.options.use_vnh,
                set_id,
                policy_sets,
                &set_groups,
                vnh,
            ))
        })
    };
    let blocks: Vec<Vec<Rule>> = if threads <= 1 || authors.len() < 2 {
        authors.into_iter().map(block).collect()
    } else {
        crossbeam::pool::parallel_map(threads, authors, block)
    };
    let mut rules: Vec<Rule> = blocks.into_iter().flatten().collect();

    // Transformation 3: default forwarding, shared across senders.
    // Exception overrides first (port-scoped), then the global VMAC rules,
    // then real-router-MAC forwarding.
    for (gid, group) in groups.iter().enumerate() {
        rules.extend(exception_rules(
            input.participants,
            vnh[gid].1,
            &group.exceptions,
        ));
    }
    for (gid, group) in groups.iter().enumerate() {
        rules.push(default_rule(vnh[gid].1, group.default_peer));
    }
    for (id, participant) in input.participants {
        for port in &participant.ports {
            rules.push(Rule {
                match_: Match::on(Field::DstMac, Pattern::Exact(port.mac.to_u64())),
                actions: vec![Action::set(Field::Port, id.vport())],
            });
        }
    }

    Ok(Classifier::new(rules))
}

/// The participants with outbound clauses, in participant order: the
/// authors of the sender stage's clause blocks.
fn authors<'a>(
    input: &CompileInput<'a>,
) -> impl Iterator<Item = (ParticipantId, &'a ParticipantPolicy, &'a Participant)> {
    let participants = input.participants;
    input.policies.iter().filter_map(move |(id, policy)| {
        let participant = participants.get(id)?;
        (!policy.outbound.is_empty()).then_some((*id, policy, participant))
    })
}

/// One author's sender-stage clause block: transformations 1 and 2 applied
/// to each outbound clause, in clause order. `filter` gives a filtered
/// clause's BGP-consistency predicate from its index, or `None` to leave
/// the clause out; `pin`, when given, is added to every drop and
/// unfiltered clause.
fn clause_block(
    pool: &SharedPredicatePool,
    policy: &ParticipantPolicy,
    participant: &Participant,
    pin: Option<&Predicate>,
    filter: impl Fn(usize, &Clause) -> Option<Predicate>,
) -> Vec<Rule> {
    let mut rules = Vec::new();
    let ports_pred = Predicate::in_set(Field::Port, participant.port_numbers().map(|p| p as u64));
    for (ci, clause) in policy.outbound.iter().enumerate() {
        let action = match clause.dest {
            Dest::Participant(to) => {
                vec![rewrites_action(&clause.rewrites).with(Field::Port, to.vport())]
            }
            Dest::Drop => Vec::new(),
            // `validate` admits no other outbound destination.
            _ => continue,
        };
        let mut pred = clause.match_.clone().and(ports_pred.clone());
        // Transformation 2: BGP consistency.
        let filtered = matches!(clause.dest, Dest::Participant(_)) && !clause.unfiltered;
        if filtered {
            let Some(reachable) = filter(ci, clause) else {
                continue;
            };
            pred = pred.and(reachable);
        } else {
            if let Some(scope) = &clause.dst_prefixes {
                pred = pred.and(Predicate::in_prefixes(Field::DstIp, scope.clone()));
            }
            if let Some(pin) = pin {
                pred = pred.and(pin.clone());
            }
        }
        rules.extend(clause_rules(pool, &pred, action));
    }
    rules
}

/// Default forwarding for one VMAC, first part: a port-scoped override for
/// each viewer whose best route differs from the global one.
fn exception_rules<'a>(
    participants: &'a BTreeMap<ParticipantId, Participant>,
    vmac: MacAddr,
    exceptions: &'a BTreeMap<PeerId, Option<PeerId>>,
) -> impl Iterator<Item = Rule> + 'a {
    exceptions.iter().flat_map(move |(viewer, peer)| {
        let ports = participants
            .get(&ParticipantId::from(*viewer))
            .into_iter()
            .flat_map(|viewer| viewer.port_numbers());
        ports.map(move |port| Rule {
            match_: Match::on(Field::Port, Pattern::Exact(port as u64))
                .and(Field::DstMac, Pattern::Exact(vmac.to_u64()))
                .expect("distinct fields"),
            actions: forward_to(*peer),
        })
    })
}

/// Default forwarding for one VMAC, second part: its default next hop.
fn default_rule(vmac: MacAddr, peer: Option<PeerId>) -> Rule {
    Rule {
        match_: Match::on(Field::DstMac, Pattern::Exact(vmac.to_u64())),
        actions: forward_to(peer),
    }
}

/// Forward to a peer's virtual port; drop when there is no peer.
fn forward_to(peer: Option<PeerId>) -> Vec<Action> {
    peer.map(|p| vec![Action::set(Field::Port, ParticipantId::from(p).vport())])
        .unwrap_or_default()
}

/// The BGP-consistency filter for a clause whose effective prefix set is
/// `policy_sets[set_id]`: either VMAC-tag membership of the groups
/// `set_groups[set_id]` (VNH mode) or a raw destination-prefix filter
/// (naive mode).
fn reachability_filter(
    use_vnh: bool,
    set_id: usize,
    policy_sets: &[PrefixSet],
    set_groups: &[Vec<usize>],
    vnh: &[(Ipv4Addr, MacAddr)],
) -> Predicate {
    if use_vnh {
        let vmacs = set_groups[set_id].iter().map(|&gid| vnh[gid].1.to_u64());
        Predicate::in_set(Field::DstMac, vmacs)
    } else {
        Predicate::in_prefixes(Field::DstIp, policy_sets[set_id].clone())
    }
}

/// Receiver stage: per-participant blocks (inbound clauses above receiver
/// defaults), memoized across recompilations.
///
/// Blocks build on the fork-join pool — each worker consults and fills the
/// sharded memo cache independently — and are concatenated in participant
/// order, identical to a sequential build. Memo hit/miss totals are summed
/// from the ordered results, so they too are thread-count-independent.
fn build_stage2(
    input: &CompileInput<'_>,
    pool: &SharedPredicatePool,
    memo: &MemoCache,
    threads: usize,
    stats: &mut CompileStats,
) -> Result<Classifier, CompileError> {
    let participants: Vec<(ParticipantId, &Participant)> =
        input.participants.iter().map(|(id, p)| (*id, p)).collect();
    let entry = |(id, participant): (ParticipantId, &Participant)| {
        stage2_entry(input, pool, memo, id, participant)
    };
    let blocks: Vec<Result<(Vec<Rule>, bool), CompileError>> =
        if threads <= 1 || participants.len() < 2 {
            participants.into_iter().map(entry).collect()
        } else {
            crossbeam::pool::parallel_map(threads, participants, entry)
        };
    let mut rules: Vec<Rule> = Vec::new();
    for block in blocks {
        let (block, hit) = block?;
        if hit {
            stats.memo_hits += 1;
        } else {
            stats.memo_misses += 1;
        }
        rules.extend(block);
    }
    Ok(Classifier::new(rules))
}

/// One participant's receiver-stage entry: serve the block from the memo
/// cache when its version is current, else build and (when memoizing) store
/// it. The boolean reports a cache hit.
fn stage2_entry(
    input: &CompileInput<'_>,
    pool: &SharedPredicatePool,
    memo: &MemoCache,
    id: ParticipantId,
    participant: &Participant,
) -> Result<(Vec<Rule>, bool), CompileError> {
    let version = input.policy_versions.get(&id).copied().unwrap_or(0);
    if input.options.memoize {
        if let Some(cached) = memo.lookup(id, version) {
            return Ok((cached, true));
        }
    }
    let block = stage2_block(input, pool, id, participant)?;
    if input.options.memoize {
        memo.store(id, version, block.clone());
    }
    Ok((block, false))
}

/// One participant's receiver block: inbound clauses (isolated to its
/// virtual port), then MAC-directed port selection, then the default
/// deliver-to-primary-port rule.
fn stage2_block(
    input: &CompileInput<'_>,
    pool: &SharedPredicatePool,
    id: ParticipantId,
    participant: &Participant,
) -> Result<Vec<Rule>, CompileError> {
    let mut rules = Vec::new();
    let vport_pred = Predicate::test(Field::Port, id.vport());
    let empty = ParticipantPolicy::default();
    let policy = input.policies.get(&id).unwrap_or(&empty);

    for clause in &policy.inbound {
        let mut pred = clause.match_.clone().and(vport_pred.clone());
        if let Some(scope) = &clause.dst_prefixes {
            pred = pred.and(Predicate::in_prefixes(Field::DstIp, scope.clone()));
        }
        let base = rewrites_action(&clause.rewrites);
        let action = match clause.dest {
            Dest::OwnPort(port) => {
                let cfg = participant
                    .ports
                    .iter()
                    .find(|p| p.port == port)
                    .expect("validated own port");
                vec![deliver(base, cfg.port, cfg.mac)]
            }
            Dest::Drop => Vec::new(),
            Dest::Participant(to) => deliver_to_participant(input, to, base),
            Dest::BgpDefault => resolve_bgp_default(input, id, clause, base),
        };
        rules.extend(clause_rules(pool, &pred, action));
    }

    // Receiver defaults: honor an explicit router-MAC destination, else
    // rewrite to the primary router's MAC and deliver there (the paper's
    // "modify(dstmac=MAC_A1) >> fwd(A1)").
    if participant.is_physical() {
        for port in &participant.ports {
            let m = Match::on(Field::Port, Pattern::Exact(id.vport() as u64))
                .and(Field::DstMac, Pattern::Exact(port.mac.to_u64()))
                .expect("distinct fields");
            rules.push(Rule {
                match_: m,
                actions: vec![Action::set(Field::Port, port.port)],
            });
        }
        let primary = participant.primary_port().expect("physical has ports");
        rules.push(Rule {
            match_: Match::on(Field::Port, Pattern::Exact(id.vport() as u64)),
            actions: vec![deliver(Action::identity(), primary.port, primary.mac)],
        });
    } else {
        // Remote participant: traffic not captured by an inbound clause has
        // nowhere to go.
        rules.push(Rule::drop(Match::on(
            Field::Port,
            Pattern::Exact(id.vport() as u64),
        )));
    }
    Ok(rules)
}

/// Deliver to a physical port, rewriting the destination MAC so the border
/// router accepts the frame.
fn deliver(base: Action, port: u32, mac: MacAddr) -> Action {
    base.with(Field::DstMac, mac).with(Field::Port, port)
}

/// Collapse forwarding to another participant into direct delivery at its
/// primary port (the composed pipeline is two stages deep, so a third hop is
/// resolved at compile time).
fn deliver_to_participant(
    input: &CompileInput<'_>,
    to: ParticipantId,
    base: Action,
) -> Vec<Action> {
    match input
        .participants
        .get(&to)
        .and_then(|p| p.primary_port().copied())
    {
        Some(cfg) => vec![deliver(base, cfg.port, cfg.mac)],
        None => Vec::new(),
    }
}

/// Resolve a `BgpDefault` inbound clause: look up the (rewritten)
/// destination address's best route as seen by the clause's author and
/// deliver to that peer's primary port.
fn resolve_bgp_default(
    input: &CompileInput<'_>,
    author: ParticipantId,
    clause: &Clause,
    base: Action,
) -> Vec<Action> {
    let Some(dst) = base
        .get(Field::DstIp)
        .map(|v| Ipv4Addr::from(v as u32))
        .or_else(|| clause_single_dst(clause))
    else {
        return Vec::new();
    };
    let Some((_, best)) = input.route_server.lpm_best(dst, author.peer()) else {
        return Vec::new();
    };
    deliver_to_participant(input, ParticipantId::from(best.peer), base)
}

/// If the clause is scoped to a single host prefix, its address (used to
/// resolve `BgpDefault` when there is no destination rewrite).
fn clause_single_dst(clause: &Clause) -> Option<Ipv4Addr> {
    let scope = clause.dst_prefixes.as_ref()?;
    let mut it = scope.iter();
    let first = it.next()?;
    if it.next().is_some() || first.len() != 32 {
        return None;
    }
    Some(first.addr())
}
