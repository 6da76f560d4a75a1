//! Shared harness for the evaluation binaries — one per table and figure,
//! plus `dataplane`, `plan`, `churn` and `ablation`: workload
//! construction, small statistics helpers, and the JSON record writer
//! behind every `BENCH_*.json` artifact.

use std::path::PathBuf;

use sdx_core::{CompileOptions, CompileStats, SdxRuntime};
use sdx_workload::{generate_policies, IxpProfile, IxpTopology, PolicyMix};

mod record;
pub use record::{write_bench_json, Record};

/// Build a fully configured SDX (topology installed, §6.1 policies set) of
/// the given size, ready to compile.
pub fn build_sdx(
    participants: usize,
    prefixes: usize,
    seed: u64,
    options: CompileOptions,
) -> (SdxRuntime, IxpTopology, PolicyMix) {
    let topology = IxpTopology::generate(IxpProfile::ams_ix(participants, prefixes), seed);
    let mix = generate_policies(&topology, seed.wrapping_add(1));
    let mut sdx = SdxRuntime::new(options);
    topology.install(&mut sdx);
    for (id, policy) in &mix.policies {
        sdx.set_policy(*id, policy.clone());
    }
    (sdx, topology, mix)
}

/// The AMS-IX profile without multi-homing. Figures 7–10, `plan` and
/// `ablation` control the prefix-group count directly, so each prefix has
/// one announcer and the group count tracks the policy partition.
pub fn single_homed(participants: usize, prefixes: usize) -> IxpProfile {
    IxpProfile {
        multi_home_fraction: 0.0,
        ..IxpProfile::ams_ix(participants, prefixes)
    }
}

/// The `p`-th percentile (0.0–1.0) of a sorted sample.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One machine-readable compile measurement. `fingerprint` is the fabric
/// classifier's rule-list hash, so two bench runs at different thread
/// counts can be checked for identical output.
pub fn compile_record(
    bench: &str,
    participants: usize,
    target_groups: usize,
    fingerprint: u64,
    stats: &CompileStats,
) -> Record {
    let s = &stats.stages;
    Record::new()
        .str("bench", bench)
        .uint("participants", participants)
        .uint("target_groups", target_groups)
        .uint("groups", stats.groups)
        .uint("rules", stats.rules)
        .uint("threads", s.threads)
        .hex("fingerprint", fingerprint)
        .object(
            "wall_us",
            Record::new()
                .uint("total", stats.duration_us)
                .uint("validate", s.validate_us)
                .uint("policy_sets", s.policy_sets_us)
                .uint("fec", s.fec_us)
                .uint("stage1", s.stage1_us)
                .uint("stage2", s.stage2_us)
                .uint("compose", s.compose_us)
                .uint("analysis", s.analysis_us)
                .uint("verify_transit", s.verify_transit_us)
                .uint("verify_isolation", s.verify_isolation_us)
                .uint("verify_blackhole", s.verify_blackhole_us)
                .uint("verify_vnh", s.verify_vnh_us)
                .uint("verify_diff", s.verify_diff_us),
        )
        .object(
            "verify",
            Record::new()
                .uint("warnings", stats.verify_warnings)
                .uint("errors", stats.verify_errors),
        )
        .object(
            "pred_cache",
            Record::new()
                .uint("nodes", stats.pred_nodes)
                .uint("hits", stats.pred_cache_hits)
                .uint("misses", stats.pred_cache_misses),
        )
        .object(
            "memo",
            Record::new()
                .uint("hits", stats.memo_hits)
                .uint("misses", stats.memo_misses),
        )
}

/// The worker count the benchmarks use: `SDX_THREADS` (0 = one per core),
/// defaulting to 1 (sequential).
pub fn env_threads() -> usize {
    std::env::var("SDX_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// Whether `SDX_BENCH_QUICK=1` asked for the shrunken sweep (the CI smoke
/// uses it to finish in seconds).
pub fn quick_mode() -> bool {
    std::env::var("SDX_BENCH_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Whether `SDX_VERIFY=1` asked the figure binaries to run the symbolic
/// reachability verifier alongside each compile (and a differential check
/// after BGP churn), recording the per-pass wall clocks.
pub fn verify_mode() -> bool {
    std::env::var("SDX_VERIFY")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Where to write the bench JSON artifact: `SDX_BENCH_JSON` or `default`.
pub fn bench_json_path(default: &str) -> PathBuf {
    std::env::var("SDX_BENCH_JSON")
        .unwrap_or_else(|_| default.to_string())
        .into()
}

/// Parse `--scale <f64>` style arguments; returns the default when absent.
pub fn arg_scale(default: f64) -> f64 {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2)
        .find(|w| w[0] == "--scale")
        .and_then(|w| w[1].parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_sdx_compiles() {
        let (mut sdx, topology, mix) = build_sdx(30, 600, 1, CompileOptions::default());
        assert_eq!(topology.participants.len(), 30);
        assert!(mix.clauses > 0);
        let stats = sdx.compile().unwrap();
        assert!(stats.rules > 0);
    }

    /// The rendering ci.sh greps (`"threads":4`,
    /// `"verify":{"warnings":0,"errors":0}`) and readers of the committed
    /// `BENCH_compile.json` rely on, byte for byte.
    #[test]
    fn compile_record_rendering_is_pinned() {
        let stats = CompileStats {
            rules: 8_550,
            groups: 1_000,
            memo_hits: 20,
            memo_misses: 21,
            pred_nodes: 17,
            pred_cache_hits: 18,
            pred_cache_misses: 19,
            duration_us: 1_234_567,
            stages: sdx_core::StageTimes {
                threads: 4,
                validate_us: 1,
                policy_sets_us: 2,
                fec_us: 3,
                stage1_us: 4,
                stage2_us: 5,
                compose_us: 6,
                analysis_us: 7,
                verify_transit_us: 8,
                verify_isolation_us: 9,
                verify_blackhole_us: 10,
                verify_vnh_us: 11,
                verify_diff_us: 12,
                ..Default::default()
            },
            ..Default::default()
        };
        let record = compile_record("fig8", 300, 1_000, 0x0123_4567_89ab_cdef, &stats);
        assert_eq!(
            record.to_string(),
            [
                r#"{"bench":"fig8","participants":300,"target_groups":1000,"groups":1000,"#,
                r#""rules":8550,"threads":4,"fingerprint":"0123456789abcdef","#,
                r#""wall_us":{"total":1234567,"validate":1,"policy_sets":2,"fec":3,"#,
                r#""stage1":4,"stage2":5,"compose":6,"analysis":7,"verify_transit":8,"#,
                r#""verify_isolation":9,"verify_blackhole":10,"verify_vnh":11,"verify_diff":12},"#,
                r#""verify":{"warnings":0,"errors":0},"#,
                r#""pred_cache":{"nodes":17,"hits":18,"misses":19},"#,
                r#""memo":{"hits":20,"misses":21}}"#,
            ]
            .concat()
        );
    }

    #[test]
    fn percentile_bounds() {
        let v = [1, 2, 3, 4, 5];
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&v, 0.5), 3);
        assert_eq!(percentile(&v, 1.0), 5);
        assert_eq!(percentile(&[], 0.5), 0);
    }
}
