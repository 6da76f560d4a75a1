//! Streaming churn bench: drains an AMS-IX-profile Table-1 BGP update
//! trace through the churn engine's delta-install pipeline — route-server
//! decision → fragment recompile → rule-level delta in make-before-break
//! order against the live tuple-space index — while replaying packet load
//! on the sharded data plane and periodically running the paper's
//! background reoptimization.
//!
//! Reports sustained updates/sec, convergence-latency percentiles
//! (route-event ingress → first correctly-forwarded packet), per-event
//! delta rule counts, and the streamed-vs-batch forwarding-fingerprint
//! check: a one-shot recompile of the final RIB must forward identically.
//!
//! Three runs land in the artifact:
//! 1. `churn` — the unchecked baseline (as in prior revisions).
//! 2. `churn_checked` — the same trace with `delta_check = Deny`: every
//!    streamed delta passes the incremental header-space verifier before
//!    install. Records verdict counts, per-event check percentiles, and
//!    the throughput ratio against the baseline.
//! 3. `churn_delta_scale` — a 200-participant fabric with sparse
//!    from-scratch sampling: incremental vs from-scratch check latency
//!    percentiles, the p50 speedup, and verdict-agreement counts.
//!
//! Exits nonzero when fingerprints differ, no update was processed, or a
//! sampled incremental verdict disagrees with the from-scratch oracle.
//!
//! `SDX_BENCH_QUICK=1` shrinks to a CI-sized run (1 h virtual AMS-IX
//! churn); the full run covers 24 h. `SDX_BENCH_JSON=path` overrides the
//! artifact path; `SDX_DP_THREADS=N` sets the data-plane shard count.

use sdx_bench::{bench_json_path, build_sdx, percentile, quick_mode, write_bench_json, Record};
use sdx_churn::{forwarding_fingerprint, ChurnConfig, ChurnEngine, ChurnReport};
use sdx_core::{AnalysisMode, CompileOptions};
use sdx_workload::{generate_trace, TraceConfig};

const SEED: u64 = 11;

/// The fields every churn record starts with.
fn churn_record(bench: &str, participants: usize, prefixes: usize, r: &ChurnReport) -> Record {
    Record::new()
        .str("bench", bench)
        .uint("participants", participants)
        .uint("prefixes", prefixes)
        .uint("virtual_s", r.virtual_s)
        .uint("events", r.events)
        .uint("bursts", r.bursts)
        .float("updates_per_sec", r.updates_per_sec, 1)
        .uint("convergence_p50_us", r.convergence_p50_us)
        .uint("convergence_p99_us", r.convergence_p99_us)
        .uint("convergence_max_us", r.convergence_max_us)
        .uint("convergence_samples", r.convergence_samples)
        .uint("convergence_failures", r.convergence_failures)
        .uint("delta_installed", r.runtime.delta_installed)
        .uint("delta_removed", r.runtime.delta_removed)
        .uint("delta_rules_max", r.delta_rules_max)
        .float("delta_rules_mean", r.delta_rules_mean, 2)
        .uint("reoptimizes", r.reoptimizes)
        .uint("reoptimizes_forced", r.reoptimizes_forced)
        .uint("overlay_exhausted", r.runtime.overlay_exhausted)
        .uint("install_errors", r.runtime.install_errors)
        .uint("replay_batches", r.replay_batches)
        .uint("replayed_packets", r.replayed_packets)
        .uint("overlay_rules_final", r.runtime.overlay_rules)
        .float("update_busy_s", r.update_busy_s, 3)
        .float("wall_s", r.wall_s, 3)
}

/// `churn_record` plus the verdict/latency fields of a checked run.
fn checked_record(bench: &str, participants: usize, prefixes: usize, r: &ChurnReport) -> Record {
    churn_record(bench, participants, prefixes, r)
        .uint("delta_checked", r.runtime.delta_checked)
        .uint("delta_certified", r.runtime.delta_certified)
        .uint("delta_structural", r.runtime.delta_structural)
        .uint("delta_reordered", r.runtime.delta_reordered)
        .uint("delta_rejected", r.runtime.delta_rejected)
        .uint("delta_denied", r.runtime.delta_denied)
        .uint("check_p50_us", r.check_p50_us)
        .uint("check_p99_us", r.check_p99_us)
        .uint("check_max_us", r.check_max_us)
        .uint("check_total_us", r.runtime.delta_check_us)
}

fn main() {
    let quick = quick_mode();
    let (participants, prefixes, duration_s, replay_flows) = if quick {
        (14, 200, 3_600, 64)
    } else {
        (60, 4_000, 86_400, 512)
    };
    let shards = std::env::var("SDX_DP_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(4);

    eprintln!(
        "churn: {participants} participants, {prefixes} prefixes, {duration_s} s virtual trace"
    );
    let config = ChurnConfig {
        trace: TraceConfig {
            duration_s,
            ..Default::default()
        },
        seed: SEED,
        replay_interval_s: 60,
        replay_flows,
        reoptimize_interval_s: 1_800,
    };

    // Streamed: the engine drains the trace event by event.
    let (mut sdx, topology, _mix) =
        build_sdx(participants, prefixes, SEED, CompileOptions::default());
    sdx.set_dataplane_threads(shards);
    sdx.compile().expect("initial compile");
    let mut engine = ChurnEngine::new(sdx, topology.clone(), config);
    let report = engine.run();
    let streamed_fp = forwarding_fingerprint(engine.runtime_mut(), &topology, 4);

    // Batch oracle: same updates straight into the RIB, one recompile.
    let (mut batch, _, _) = build_sdx(participants, prefixes, SEED, CompileOptions::default());
    for e in &generate_trace(&topology, config.trace, SEED).events {
        batch.apply_update(e.from, &e.update);
    }
    batch.compile().expect("batch recompile");
    let batch_fp = forwarding_fingerprint(&mut batch, &topology, 4);
    let fingerprints_match = streamed_fp == batch_fp;

    eprintln!(
        "churn: {} events ({} bursts) in {:.2} s busy / {:.2} s wall -> {:.0} updates/s",
        report.events, report.bursts, report.update_busy_s, report.wall_s, report.updates_per_sec
    );
    eprintln!(
        "churn: convergence p50 {} us, p99 {} us, max {} us over {} samples ({} failures)",
        report.convergence_p50_us,
        report.convergence_p99_us,
        report.convergence_max_us,
        report.convergence_samples,
        report.convergence_failures
    );
    eprintln!(
        "churn: deltas +{} -{} rules (max {}/event, mean {:.1}), {} reoptimizes ({} forced), \
         {} exhaustions, {} replayed packets",
        report.runtime.delta_installed,
        report.runtime.delta_removed,
        report.delta_rules_max,
        report.delta_rules_mean,
        report.reoptimizes,
        report.reoptimizes_forced,
        report.runtime.overlay_exhausted,
        report.replayed_packets
    );
    println!("# fingerprint streamed {streamed_fp:016x}");
    println!("# fingerprint batch    {batch_fp:016x}");
    // Checked run: identical trace, every streamed delta gated by the
    // incremental verifier in Deny mode. No from-scratch sampling — the
    // throughput figure isolates the incremental checker's overhead.
    let checked_opts = CompileOptions {
        delta_check: AnalysisMode::Deny,
        ..CompileOptions::default()
    };
    let (mut checked_sdx, _, _) = build_sdx(participants, prefixes, SEED, checked_opts);
    checked_sdx.set_dataplane_threads(shards);
    checked_sdx.compile().expect("initial compile (checked)");
    let mut checked_engine = ChurnEngine::new(checked_sdx, topology.clone(), config);
    let checked = checked_engine.run();
    let checked_fp = forwarding_fingerprint(checked_engine.runtime_mut(), &topology, 4);
    let checked_match = checked_fp == batch_fp;
    let checked_ratio = checked.updates_per_sec / report.updates_per_sec.max(f64::EPSILON);
    eprintln!(
        "churn_checked: {:.0} updates/s ({:.2}x baseline), {} checked \
         ({} structural, {} reordered, {} rejected, {} denied), check p50 {} us p99 {} us",
        checked.updates_per_sec,
        checked_ratio,
        checked.runtime.delta_checked,
        checked.runtime.delta_structural,
        checked.runtime.delta_reordered,
        checked.runtime.delta_rejected,
        checked.runtime.delta_denied,
        checked.check_p50_us,
        checked.check_p99_us
    );

    // Scale run: a 200-participant fabric with sparse from-scratch
    // sampling, measuring the incremental cache's advantage over a
    // ground-up header-space check of the full update schedule.
    // From-scratch checks run over the full tag-closed universe (seconds
    // each at this scale) — sample sparsely to bound bench wall time.
    let (scale_participants, scale_prefixes, scale_duration_s, scale_sample) = if quick {
        (200, 300, 3_600, 8)
    } else {
        (200, 600, 14_400, 8)
    };
    eprintln!(
        "churn_delta_scale: {scale_participants} participants, {scale_prefixes} prefixes, \
         sampling every {scale_sample}th check"
    );
    let scale_opts = CompileOptions {
        delta_check: AnalysisMode::Warn,
        ..CompileOptions::default()
    };
    let (mut scale_sdx, scale_topology, _) =
        build_sdx(scale_participants, scale_prefixes, SEED, scale_opts);
    scale_sdx.set_delta_check_sample(scale_sample);
    scale_sdx.set_delta_log_limit(65_536);
    scale_sdx.compile().expect("initial compile (scale)");
    let scale_config = ChurnConfig {
        trace: TraceConfig {
            duration_s: scale_duration_s,
            ..Default::default()
        },
        seed: SEED,
        replay_interval_s: 0,
        replay_flows: 0,
        reoptimize_interval_s: 1_800,
    };
    let mut scale_engine = ChurnEngine::new(scale_sdx, scale_topology, scale_config);
    let scale = scale_engine.run();
    let runtime = scale_engine.runtime_mut();
    // `(incremental µs, from-scratch µs)` of every sampled delta.
    let (mut inc_us, mut scratch_us): (Vec<u64>, Vec<u64>) = runtime
        .delta_log()
        .iter()
        .filter(|r| r.from_scratch.is_some())
        .map(|r| (r.report.check_us, r.from_scratch_us))
        .unzip();
    inc_us.sort_unstable();
    scratch_us.sort_unstable();
    let inc_p50 = percentile(&inc_us, 0.50);
    let inc_p99 = percentile(&inc_us, 0.99);
    let scratch_p50 = percentile(&scratch_us, 0.50);
    let scratch_p99 = percentile(&scratch_us, 0.99);
    let speedup_p50 = scratch_p50 as f64 / (inc_p50.max(1)) as f64;
    let agreed = runtime
        .delta_log()
        .iter()
        .filter(|r| r.agreed == Some(true))
        .count();
    let disagreed = runtime
        .delta_log()
        .iter()
        .filter(|r| r.agreed == Some(false))
        .count();
    eprintln!(
        "churn_delta_scale: {} samples, incremental p50 {} us / p99 {} us vs \
         from-scratch p50 {} us / p99 {} us ({:.1}x at p50), {} agreed / {} disagreed",
        inc_us.len(),
        inc_p50,
        inc_p99,
        scratch_p50,
        scratch_p99,
        speedup_p50,
        agreed,
        disagreed
    );

    let records = [
        churn_record("churn", participants, prefixes, &report)
            .hex("streamed_fingerprint", streamed_fp)
            .hex("batch_fingerprint", batch_fp)
            .bool("streamed_eq_batch", fingerprints_match),
        checked_record("churn_checked", participants, prefixes, &checked)
            .hex("checked_fingerprint", checked_fp)
            .bool("checked_eq_batch", checked_match)
            .float("baseline_updates_per_sec", report.updates_per_sec, 1)
            .float("checked_over_baseline", checked_ratio, 3),
        checked_record(
            "churn_delta_scale",
            scale_participants,
            scale_prefixes,
            &scale,
        )
        .uint("sample_every", scale_sample)
        .uint("samples", inc_us.len())
        .uint("incremental_p50_us", inc_p50)
        .uint("incremental_p99_us", inc_p99)
        .uint("scratch_p50_us", scratch_p50)
        .uint("scratch_p99_us", scratch_p99)
        .float("speedup_p50", speedup_p50, 1)
        .uint("agreed", agreed)
        .uint("disagreed", disagreed),
    ];

    let path = bench_json_path("BENCH_churn.json");
    write_bench_json(&path, &records).expect("write bench json");
    eprintln!("wrote {}", path.display());

    if !fingerprints_match || !checked_match {
        eprintln!("churn: FAIL — streamed/checked and batch fingerprints differ");
        std::process::exit(1);
    }
    if report.events == 0 || report.convergence_samples == 0 {
        eprintln!("churn: FAIL — trace produced no measurable events");
        std::process::exit(1);
    }
    if checked.runtime.delta_checked == 0 || scale.runtime.delta_checked == 0 || inc_us.is_empty() {
        eprintln!("churn: FAIL — checked runs verified no deltas");
        std::process::exit(1);
    }
    if disagreed > 0 {
        eprintln!("churn: FAIL — incremental verdicts disagreed with the from-scratch oracle");
        std::process::exit(1);
    }
}
