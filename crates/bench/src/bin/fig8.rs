//! Regenerates Figure 8: initial compilation time as a function of prefix
//! groups, for 100/200/300 participants.
//!
//! Knobs (environment):
//! - `SDX_THREADS` — fork-join workers for the compile pipeline (0 = one
//!   per core; default 1). The output is bit-identical at every setting.
//! - `SDX_BENCH_QUICK=1` — shrink the sweep so the CI smoke finishes in
//!   seconds.
//! - `SDX_BENCH_JSON` — where to write the machine-readable record array
//!   (default `BENCH_compile.json` in the working directory).
//! - `SDX_VERIFY=1` — run the whole-fabric reachability verifier on every
//!   compile (warn mode) plus a differential recompile check after BGP
//!   churn; the per-pass wall clocks land in the JSON records.
//!
//! Besides the human-readable table, each scale prints a
//! `# fingerprint <participants> <target> <hash>` line; the CI smoke diffs
//! these lines across thread counts to prove output identity.

use sdx_bench::{
    bench_json_path, compile_record, env_threads, quick_mode, single_homed, verify_mode,
    write_bench_json,
};
use sdx_core::{AnalysisMode, CompileOptions, SdxRuntime};
use sdx_workload::{generate_policies_with_groups, IxpTopology};

fn main() {
    let threads = env_threads();
    let verify = verify_mode();
    let (sizes, targets, prefixes): (&[usize], &[usize], usize) = if quick_mode() {
        (&[30], &[100, 200], 3_000)
    } else {
        (&[100, 200, 300], &[200, 400, 600, 800, 1_000], 25_000)
    };

    println!("# Figure 8 — initial compilation time vs prefix groups (threads={threads})");
    println!("participants\ttarget_groups\tmeasured_groups\tcompile_ms");
    let mut records = Vec::new();
    for &n in sizes {
        let topology = IxpTopology::generate(single_homed(n, prefixes), 8);
        for &target in targets {
            let mix = generate_policies_with_groups(&topology, target, 8);
            let mut options = CompileOptions::with_threads(threads);
            if verify {
                options.verify = AnalysisMode::Warn;
            }
            let mut sdx = SdxRuntime::new(options);
            topology.install(&mut sdx);
            for (id, policy) in &mix.policies {
                sdx.set_policy(*id, policy.clone());
            }
            let mut stats = sdx.compile().expect("compiles");
            let fingerprint = sdx.compilation().expect("compiled").fabric.fingerprint();
            if verify {
                // Push a withdraw/re-announce through the §4.3.2 fast path,
                // then check the incrementally patched pipeline against a
                // from-scratch compile (modulo VNH tags).
                let batch = topology.announcements[0].clone();
                let churn = [batch.prefixes[0]];
                sdx.withdraw(batch.from, churn);
                sdx.announce(batch.from, churn, batch.attrs);
                let report = sdx.verify_differential().expect("compiled fabric");
                if !report.diagnostics.is_empty() {
                    eprintln!(
                        "# verify-diff: {} finding(s) at n={n} target={target}",
                        report.diagnostics.len()
                    );
                }
                // Re-read the stats so the differential wall clock lands in
                // the record alongside the reachability pass timings.
                stats = sdx.compilation().expect("compiled").stats;
            }
            println!(
                "{n}\t{target}\t{}\t{:.2}",
                stats.groups,
                stats.duration_us as f64 / 1_000.0
            );
            println!("# fingerprint\t{n}\t{target}\t{fingerprint:016x}");
            records.push(compile_record("fig8", n, target, fingerprint, &stats));
        }
    }

    let path = bench_json_path("BENCH_compile.json");
    write_bench_json(&path, &records).expect("write bench json");
    eprintln!("wrote {}", path.display());
}
