//! The streamed-vs-batch equivalence oracle: replaying a full Table-1
//! trace through the streaming engine (delta installs, interleaved replay,
//! periodic + forced reoptimization) must converge to the same end-to-end
//! forwarding fingerprint as a one-shot batch recompile of the final RIB
//! state — and the engine must recover from VNH-pool exhaustion without a
//! single failed convergence probe.

use proptest::prelude::*;
use sdx_churn::{forwarding_fingerprint, ChurnConfig, ChurnEngine};
use sdx_core::{CompileOptions, SdxRuntime};
use sdx_workload::{generate_policies, generate_trace, IxpProfile, IxpTopology, TraceConfig};

/// A policy-bearing runtime over a fresh AMS-IX-profile topology.
fn build(participants: usize, prefixes: usize, seed: u64) -> (SdxRuntime, IxpTopology) {
    let topology = IxpTopology::generate(IxpProfile::ams_ix(participants, prefixes), seed);
    let mix = generate_policies(&topology, seed.wrapping_add(1));
    let mut sdx = SdxRuntime::new(CompileOptions::default());
    topology.install(&mut sdx);
    for (id, policy) in &mix.policies {
        sdx.set_policy(*id, policy.clone());
    }
    (sdx, topology)
}

fn streamed_vs_batch(seed: u64, duration_s: u64) -> (u64, u64, sdx_churn::ChurnReport) {
    let config = ChurnConfig {
        trace: TraceConfig {
            duration_s,
            ..Default::default()
        },
        seed,
        replay_interval_s: 300,
        replay_flows: 24,
        reoptimize_interval_s: 900,
    };

    // Streamed: every event through the delta-install pipeline.
    let (sdx, topology) = build(10, 80, seed);
    let mut engine = ChurnEngine::new(sdx, topology.clone(), config);
    let report = engine.run();
    let streamed = forwarding_fingerprint(engine.runtime_mut(), &topology, 3);

    // Batch: same updates into the RIB first, one compile at the end.
    let (mut batch, _) = build(10, 80, seed);
    for e in &generate_trace(&topology, config.trace, seed).events {
        batch.apply_update(e.from, &e.update);
    }
    batch.compile().expect("batch recompile");
    let batch_fp = forwarding_fingerprint(&mut batch, &topology, 3);

    (streamed, batch_fp, report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn streamed_equals_batch_fingerprint(seed in 0u64..1_000) {
        let (streamed, batch, report) = streamed_vs_batch(seed, 2_000);
        prop_assert!(report.events > 0, "trace produced no events");
        prop_assert_eq!(streamed, batch, "streamed != batch for seed {}", seed);
        prop_assert_eq!(report.convergence_failures, 0);
    }
}

#[test]
fn engine_measures_convergence_and_installs_deltas() {
    let (streamed, batch, report) = streamed_vs_batch(7, 4_000);
    assert_eq!(streamed, batch);
    assert!(report.events > 10, "events: {}", report.events);
    assert!(report.convergence_samples > 0);
    assert!(report.convergence_p50_us > 0);
    assert!(report.convergence_p99_us >= report.convergence_p50_us);
    assert!(
        report.runtime.delta_installed > 0,
        "steady path installed no deltas"
    );
    assert!(report.updates_per_sec > 0.0);
    assert!(report.replayed_packets > 0, "replay load never ran");
    assert_eq!(report.convergence_failures, 0);
}

#[test]
fn engine_recovers_from_vnh_exhaustion() {
    let config = ChurnConfig {
        trace: TraceConfig {
            duration_s: 8_000,
            ..Default::default()
        },
        seed: 3,
        replay_interval_s: 600,
        replay_flows: 16,
        // No periodic background stage: only the forced (needs_reoptimize)
        // path may recover the pool.
        reoptimize_interval_s: 0,
    };
    let (mut sdx, topology) = build(8, 60, 3);
    // A pool tight enough that sustained churn exhausts it mid-run but a
    // full compile still fits (the runtime's groups need a handful).
    sdx.set_vnh_pool("10.0.0.0/26".parse().unwrap());
    sdx.compile().expect("tight pool still compiles");
    let mut engine = ChurnEngine::new(sdx, topology, config);
    let report = engine.run();
    assert!(
        report.runtime.overlay_exhausted > 0,
        "pool never exhausted; shrink it: {report:?}"
    );
    assert!(
        report.reoptimizes_forced > 0,
        "engine ignored needs_reoptimize"
    );
    // The whole point: exhaustion degrades to stale-but-forwarding and the
    // forced background stage recovers — no probe may ever fail.
    assert_eq!(report.convergence_failures, 0, "{report:?}");
    assert!(!engine.runtime_mut().needs_reoptimize());
}
