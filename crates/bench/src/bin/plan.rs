//! Update-plan synthesis cost over BGP churn, at 100/200/300 participants:
//! for each churn-driven recompile with the plan gate active, the size of
//! the rule-level delta, the intermediate states the ordering search
//! explored, the per-step verification cost, and how often the planner had
//! to fall back to the two-phase schedule.
//!
//! Honors `SDX_THREADS`, `SDX_BENCH_QUICK=1`, and `SDX_BENCH_JSON`
//! (default `BENCH_plan.json`).

use std::io::Write;

use rand::seq::SliceRandom;
use rand::{rngs::StdRng, SeedableRng};
use sdx_bench::{
    arg_scale, bench_json_path, env_threads, quick_mode, single_homed, write_bench_json, Record,
};
use sdx_core::{AnalysisMode, CompileOptions, SdxRuntime};
use sdx_workload::{generate_policies_with_groups, IxpTopology};

fn main() {
    let threads = env_threads();
    let scale = arg_scale(1.0);
    // Planning cost scales with *table* size (delta steps × symbolic
    // transit per intermediate state), so the full sweep varies the
    // participant count at a fixed moderate prefix/policy density;
    // `--scale` grows the density for longer runs.
    let (sizes, prefixes, target, rounds): (&[usize], usize, usize, usize) = if quick_mode() {
        (&[30], 2_000, 100, 3)
    } else {
        (&[100, 200, 300], 2_000, 100, 5)
    };
    let prefixes = ((prefixes as f64 * scale) as usize).max(100);
    let target = ((target as f64 * scale) as usize).max(10);

    println!("# Update-plan synthesis over BGP churn (threads={threads})");
    println!(
        "participants\tround\tsteps\texplored\ttwo_phase\tapplied\tnaive_violations\t\
         delta_us\tnaive_us\tsearch_us\tper_step_check_us\tround_ms"
    );
    let mut rng = StdRng::seed_from_u64(14);
    let mut records = Vec::new();
    for &n in sizes {
        let topology = IxpTopology::generate(single_homed(n, prefixes), 14);
        let mix = generate_policies_with_groups(&topology, target, 14);
        let mut options = CompileOptions::with_threads(threads);
        options.plan = AnalysisMode::Warn;
        let mut sdx = SdxRuntime::new(options);
        topology.install(&mut sdx);
        for (id, policy) in &mix.policies {
            sdx.set_policy(*id, policy.clone());
        }
        sdx.compile().expect("initial compile");

        let mut churn_prefixes: Vec<_> = sdx
            .compilation()
            .expect("compiled")
            .group_index
            .keys()
            .copied()
            .collect();
        churn_prefixes.shuffle(&mut rng);

        let mut two_phase = 0usize;
        let mut executed = 0usize;
        for (round, prefix) in churn_prefixes.into_iter().take(rounds).enumerate() {
            let owner = topology
                .announcements
                .iter()
                .find(|a| a.prefixes.contains(&prefix))
                .map(|a| (a.from, a.attrs.clone()))
                .expect("announced prefix has an owner");
            // Route churn: the owner flaps the prefix (fast path runs), then
            // the plan-gated recompile folds the overlay back into the base
            // tables through a synthesized schedule.
            let t0 = std::time::Instant::now();
            sdx.withdraw(owner.0, [prefix]);
            sdx.announce(owner.0, [prefix], owner.1);
            let stats = sdx.compile().expect("churn recompile");
            let round_ms = t0.elapsed().as_millis();
            let report = sdx.last_plan().expect("plan gate ran");
            two_phase += stats.plan_two_phase as usize;
            executed += 1;

            println!(
                "{n}\t{round}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                stats.plan_steps,
                stats.plan_explored,
                stats.plan_two_phase,
                stats.plan_applied,
                report.naive_violations.len(),
                stats.stages.plan_delta_us,
                report.times.naive_us,
                stats.stages.plan_search_us,
                report.per_step_check_us,
                round_ms,
            );
            let _ = std::io::stdout().flush();
            records.push(
                Record::new()
                    .str("bench", "plan")
                    .uint("participants", n)
                    .uint("round", round)
                    .uint("steps", stats.plan_steps)
                    .uint("explored", stats.plan_explored)
                    .bool("two_phase", stats.plan_two_phase)
                    .bool("applied", stats.plan_applied)
                    .uint("naive_violations", report.naive_violations.len())
                    .object(
                        "wall_us",
                        Record::new()
                            .uint("delta", stats.stages.plan_delta_us)
                            .uint("naive", report.times.naive_us)
                            .uint("search", stats.stages.plan_search_us)
                            .uint("check", stats.stages.plan_check_us)
                            .uint("per_step_check", report.per_step_check_us),
                    )
                    .uint("round_ms", round_ms),
            );
        }
        println!(
            "# {n} participants: two-phase fallback rate {}/{}",
            two_phase, executed
        );
    }

    let path = bench_json_path("BENCH_plan.json");
    write_bench_json(&path, &records).expect("write bench json");
    eprintln!("wrote {}", path.display());
}
