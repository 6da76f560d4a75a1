//! Regenerates Figure 10: the distribution (CDF) of the time to process a
//! single BGP update through the fast path, for 100/200/300 participants.
//!
//! Honors `SDX_THREADS` (compile workers) and `SDX_BENCH_QUICK=1`
//! (shrunken sweep). It writes no JSON: its numbers are the table it
//! prints (`results/fig10.txt`), and the compile baseline
//! (`BENCH_compile.json`) is `fig8`'s.

use rand::seq::SliceRandom;
use rand::{rngs::StdRng, SeedableRng};
use sdx_bench::{env_threads, percentile, quick_mode, single_homed};
use sdx_bgp::Update;
use sdx_core::{CompileOptions, SdxRuntime};
use sdx_workload::{generate_policies_with_groups, IxpTopology};

fn main() {
    let threads = env_threads();
    let (sizes, prefixes, target, samples): (&[usize], usize, usize, usize) = if quick_mode() {
        (&[30], 2_000, 100, 50)
    } else {
        (&[100, 200, 300], 10_000, 500, 400)
    };

    println!("# Figure 10 — time to process a single BGP update (fast path, threads={threads})");
    println!("participants\tpercentile\ttime_ms");
    let mut rng = StdRng::seed_from_u64(10);
    for &n in sizes {
        let topology = IxpTopology::generate(single_homed(n, prefixes), 10);
        let mix = generate_policies_with_groups(&topology, target, 10);
        let mut sdx = SdxRuntime::new(CompileOptions::with_threads(threads));
        topology.install(&mut sdx);
        for (id, policy) in &mix.policies {
            sdx.set_policy(*id, policy.clone());
        }
        sdx.compile().expect("compiles");

        let mut update_prefixes: Vec<_> = sdx
            .compilation()
            .unwrap()
            .group_index
            .keys()
            .copied()
            .collect();
        update_prefixes.shuffle(&mut rng);

        let mut times_us = Vec::new();
        for prefix in update_prefixes.into_iter().take(samples) {
            let owner = topology
                .announcements
                .iter()
                .find(|a| a.prefixes.contains(&prefix))
                .map(|a| (a.from, a.attrs.clone()))
                .expect("announced prefix has an owner");
            let mut attrs = owner.1;
            attrs.as_path = attrs.as_path.prepend(sdx_bgp::Asn(64_999));
            sdx.apply_update(owner.0, &Update::announce([prefix], attrs));
            times_us.push(sdx.incremental_stats().last_update_us);
        }
        times_us.sort_unstable();
        for p in [0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 1.00] {
            println!(
                "{n}\t{:.2}\t{:.3}",
                p,
                percentile(&times_us, p) as f64 / 1_000.0
            );
        }
    }
}
