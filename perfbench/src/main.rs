//! The SDX benchmark: three seeded workloads driven through the public API
//! of `sdx-bgp`, `sdx-core`, `sdx-plan` (through the checked delta path)
//! and `sdx-switch`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload wire-churn|checked-churn|policy-forward \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` runs the
//! workload twice, untraced and then with every timed call kept as a span,
//! and prints the per-layer metrics of the traced run plus the tracing
//! overhead; the spans go to `perfbench/traces/`. The last line of
//! standard output is the JSON result; the lines before it, prefixed with
//! `#`, say what ran and what failed.

mod checked;
mod churn;
mod forward;
mod measure;
mod wire;

use std::fmt::Write as _;

use measure::{median, pct, ratio, self_times, Affinity, Metrics, Tracer};
use sdx_core::{CompileStats, SdxRuntime};

/// The end-to-end metrics, as `BENCHMARK.json` declares them.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("convergence_p50_us", "us"),
    ("convergence_p99_us", "us"),
    ("updates_per_s", "1/s"),
    ("recompile_p50_ms", "ms"),
    ("fwd_mpps", "Mpps"),
    ("fwd_batch_p99_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, as `BENCHMARK.json` declares them. A workload
/// that does not call a layer reports it as 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("core.control.pump_p50_us", "us"),
    ("core.control.pump_p99_us", "us"),
    ("core.runtime.apply_update_p50_us", "us"),
    ("core.control.pump_other_p50_us", "us"),
    ("core.control.adverts_per_change", "count"),
    ("bgp.session.viewer_recv_p50_us", "us"),
    ("core.control.readvertise_p50_ms", "ms"),
    ("core.control.stale_fib_routes", "count"),
    ("bgp.wire.decode_p50_us", "us"),
    ("core.runtime.apply_update_delta_p50_us", "us"),
    ("core.runtime.apply_update_delta_p99_us", "us"),
    ("plan.incremental.check_p50_us", "us"),
    ("core.runtime.delta_other_p50_us", "us"),
    ("core.runtime.reseed_p50_ms", "ms"),
    ("plan.incremental.structural_share", "ratio"),
    ("plan.incremental.checked", "count"),
    ("plan.incremental.denied", "count"),
    ("core.runtime.delta_rules_per_change", "count"),
    ("churn.sync_prefix_p50_us", "us"),
    ("switch.probe_p50_us", "us"),
    ("queue.wait_p50_us", "us"),
    ("queue.wait_p99_us", "us"),
    ("churn.converged_probes", "count"),
    ("churn.failed_probe_share", "ratio"),
    ("core.compile.total_p50_ms", "ms"),
    ("core.compile.validate_p50_ms", "ms"),
    ("core.compile.policy_sets_p50_ms", "ms"),
    ("core.compile.fec_p50_ms", "ms"),
    ("core.compile.stage1_p50_ms", "ms"),
    ("core.compile.stage2_p50_ms", "ms"),
    ("core.compile.compose_p50_ms", "ms"),
    ("core.compile.memo_hit_ratio", "ratio"),
    ("core.compile.memo_lookups", "count"),
    ("core.compile.pred_cache_hit_ratio", "ratio"),
    ("core.compile.pred_cache_lookups", "count"),
    ("core.runtime.install_p50_ms", "ms"),
    ("switch.batch_p50_us", "us"),
    ("switch.ns_per_packet", "ns"),
    ("switch.rules", "count"),
    ("switch.index_buckets", "count"),
    ("switch.index_groups", "count"),
    ("switch.shard_x2_mpps", "Mpps"),
    ("switch.shard_x2_batch_p99_us", "us"),
    ("oracle.check_ms", "ms"),
    ("trace.coverage_min", "ratio"),
    ("trace.coverage_p50", "ratio"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// What one workload run measured and checked.
pub struct Outcome {
    setup_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Every oracle could be evaluated (its mismatches are in `failed`).
    pub checked: bool,
    pub e2e: Metrics,
    pub layers: Metrics,
    pub summary: String,
    /// Measured work and the operations it served, for the tracing
    /// overhead.
    pub work_ns: u64,
    pub ops: u64,
}

impl Outcome {
    pub fn new(setup_ns: Vec<u64>) -> Self {
        Outcome {
            setup_ns,
            attempted: 0,
            failed: 0,
            checked: true,
            e2e: Metrics::default(),
            layers: Metrics::default(),
            summary: String::new(),
            work_ns: 0,
            ops: 0,
        }
    }
}

/// Set up `times` times (at least once) and keep the last fabric; returns
/// it with each set-up's duration. Each fabric is dropped before the next
/// is built, so the peak memory is one fabric's.
pub fn set_up<T>(t: &mut Tracer, times: usize, mut build: impl FnMut() -> T) -> (T, Vec<u64>) {
    let mut took = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        drop(last.take());
        let (built, ns) = t.span("setup", 0, |_| build());
        took.push(ns);
        last = Some(built);
    }
    (last.expect("set up at least once"), took)
}

/// Per-layer figures of the full recompiles a run made.
pub fn compile_layers(m: &mut Metrics, stats: &[CompileStats]) {
    let stage = |f: fn(&CompileStats) -> u64| -> f64 {
        let mut v: Vec<u64> = stats.iter().map(f).collect();
        median(&mut v) as f64 / 1e3
    };
    m.put("core.compile.total_p50_ms", "ms", stage(|s| s.duration_us));
    m.put(
        "core.compile.validate_p50_ms",
        "ms",
        stage(|s| s.stages.validate_us),
    );
    m.put(
        "core.compile.policy_sets_p50_ms",
        "ms",
        stage(|s| s.stages.policy_sets_us),
    );
    m.put("core.compile.fec_p50_ms", "ms", stage(|s| s.stages.fec_us));
    m.put(
        "core.compile.stage1_p50_ms",
        "ms",
        stage(|s| s.stages.stage1_us),
    );
    m.put(
        "core.compile.stage2_p50_ms",
        "ms",
        stage(|s| s.stages.stage2_us),
    );
    m.put(
        "core.compile.compose_p50_ms",
        "ms",
        stage(|s| s.stages.compose_us),
    );
    let sum = |f: fn(&CompileStats) -> usize| stats.iter().map(f).sum::<usize>() as f64;
    let memo = sum(|s| s.memo_hits + s.memo_misses);
    m.put(
        "core.compile.memo_hit_ratio",
        "ratio",
        ratio(sum(|s| s.memo_hits), memo),
    );
    m.put("core.compile.memo_lookups", "count", memo);
    let pred = sum(|s| s.pred_cache_hits + s.pred_cache_misses);
    let hits = sum(|s| s.pred_cache_hits);
    m.put(
        "core.compile.pred_cache_hit_ratio",
        "ratio",
        ratio(hits, pred),
    );
    m.put("core.compile.pred_cache_lookups", "count", pred);
}

/// Size of the installed fabric and its tuple-space index.
pub fn switch_layers(m: &mut Metrics, rt: &SdxRuntime) {
    let index = rt.switch().index_stats();
    m.put("switch.rules", "count", rt.switch().total_rules() as f64);
    m.put("switch.index_buckets", "count", index.buckets as f64);
    m.put("switch.index_groups", "count", index.groups as f64);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let trace = number("--trace")?;
    if trace > 1 {
        return Err("--trace is 0 or 1".into());
    }
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: number("--seed")?,
        seconds: number("--seconds")? as f64,
        trace: trace == 1,
    })
}

/// The churn workloads replay the same inputs on every seed (see
/// `churn::CHURN_SEED`); the seed draws `policy-forward`'s traffic and
/// policy changes.
fn run(args: &Args, t: &mut Tracer, setups: usize, affinity: &Affinity) -> Outcome {
    match args.workload.as_str() {
        "wire-churn" => wire::run(args.seconds, setups, t),
        "checked-churn" => checked::run(args.seconds, setups, t),
        "policy-forward" => forward::run(args.seed, args.seconds, setups, t, affinity),
        other => unreachable!("workload {other} was validated"),
    }
}

/// Keep exactly the declared metrics, in declared order; a declared metric
/// the run did not produce reads 0.
fn declared(m: &Metrics, names: &[(&str, &'static str)]) -> Metrics {
    let mut out = Metrics::default();
    for (name, unit) in names {
        let got = m.0.iter().find(|x| x.name == *name);
        if let Some(x) = got {
            assert_eq!(x.unit, *unit, "unit of {name}");
        }
        out.put(name, unit, got.map_or(0.0, |x| x.value));
    }
    out
}

/// Per span name: count, total and self-time percentiles.
fn span_table(t: &Tracer) -> String {
    let spans = t.spans();
    let selfs = self_times(spans);
    let mut names: Vec<&str> = spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    let mut s = String::from("# span\tcount\ttotal_p50_us\tself_p50_us\tself_p99_us\n");
    for name in names {
        let mut total: Vec<u64> = spans
            .iter()
            .filter(|x| x.name == name)
            .map(|x| x.duration_ns() / 1_000)
            .collect();
        let mut own = measure::self_us(spans, &selfs, name);
        let _ = writeln!(
            s,
            "# {name}\t{}\t{}\t{}\t{}",
            total.len(),
            median(&mut total),
            pct(&mut own, 0.5),
            pct(&mut own, 0.99)
        );
    }
    s
}

/// Write the spans, with self times, as tab-separated lines.
fn write_spans(t: &Tracer, args: &Args) -> std::io::Result<String> {
    let dir = std::path::Path::new("perfbench").join("traces");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{}.tsv", args.workload, args.seed));
    let selfs = self_times(t.spans());
    let mut out = String::from("id\tname\top\tstart_ns\tend_ns\tparent\tself_ns\n");
    for (i, (s, own)) in t.spans().iter().zip(&selfs).enumerate() {
        let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
        let _ = writeln!(
            out,
            "{i}\t{}\t{}\t{}\t{}\t{parent}\t{own}",
            s.name, s.op, s.start_ns, s.end_ns
        );
    }
    std::fs::write(&path, out)?;
    Ok(path.display().to_string())
}

fn json(o: &Outcome, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.checked,
        o.attempted,
        o.failed,
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a)
            if ["wire-churn", "checked-churn", "policy-forward"].contains(&a.workload.as_str()) =>
        {
            a
        }
        Ok(a) => {
            eprintln!("unknown workload {}", a.workload);
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("usage: --workload NAME --seed N --seconds S --trace 0|1 ({e})");
            std::process::exit(2);
        }
    };
    let affinity = Affinity::pin();
    let (outcome, metrics) = if args.trace {
        // The same workload untraced, then traced: the difference in time
        // per operation is the tracing overhead.
        let base = run(&args, &mut Tracer::new(false), 1, &affinity);
        let mut t = Tracer::new(true);
        let mut traced = run(&args, &mut t, 1, &affinity);
        let overhead = 100.0
            * (ratio(
                ratio(traced.work_ns as f64, traced.ops as f64),
                ratio(base.work_ns as f64, base.ops as f64),
            ) - 1.0);
        traced.layers.put("trace.overhead_pct", "%", overhead);
        traced
            .layers
            .put("trace.spans", "count", t.spans().len() as f64);
        traced.summary.push_str(&span_table(&t));
        match write_spans(&t, &args) {
            Ok(path) => traced
                .summary
                .push_str(&format!("# spans written to {path}\n")),
            Err(e) => traced
                .summary
                .push_str(&format!("# spans not written: {e}\n")),
        }
        let metrics = declared(&traced.layers, PER_LAYER);
        (traced, metrics)
    } else {
        let mut o = run(&args, &mut Tracer::new(false), SETUPS, &affinity);
        let setup_s = median(&mut o.setup_ns) as f64 / 1e9;
        o.e2e.put("setup_s", "s", setup_s);
        o.e2e.put("peak_rss_mb", "MB", measure::peak_rss_mb());
        for (name, _) in END_TO_END {
            assert!(
                o.e2e.0.iter().any(|m| m.name == *name),
                "{name} not measured"
            );
        }
        let metrics = declared(&o.e2e, END_TO_END);
        (o, metrics)
    };
    println!(
        "# {} seed {}, {}",
        args.workload,
        args.seed,
        affinity.describe()
    );
    print!("{}", outcome.summary);
    for m in &metrics.0 {
        println!("# {} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", json(&outcome, &metrics));
}
