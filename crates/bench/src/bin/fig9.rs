//! Regenerates Figure 9: additional forwarding rules installed by the fast
//! path after a burst of BGP updates (worst case: every update allocates a
//! fresh VNH), for 100/200/300 participants.

use rand::seq::SliceRandom;
use rand::{rngs::StdRng, SeedableRng};
use sdx_bench::single_homed;
use sdx_bgp::Update;
use sdx_core::{CompileOptions, SdxRuntime};
use sdx_workload::{generate_policies_with_groups, IxpTopology};

fn main() {
    println!("# Figure 9 — additional rules after a BGP update burst");
    println!("participants\tburst_size\tadditional_rules");
    let mut rng = StdRng::seed_from_u64(9);
    for &n in &[100usize, 200, 300] {
        let topology = IxpTopology::generate(single_homed(n, 10_000), 9);
        for &burst in &[0usize, 20, 40, 60, 80, 100] {
            let mix = generate_policies_with_groups(&topology, 500, 9);
            let mut sdx = SdxRuntime::new(CompileOptions::default());
            topology.install(&mut sdx);
            for (id, policy) in &mix.policies {
                sdx.set_policy(*id, policy.clone());
            }
            sdx.compile().expect("compiles");

            // Worst case: each update changes the best path of a distinct
            // policy-relevant prefix.
            let grouped: Vec<_> = sdx
                .compilation()
                .unwrap()
                .group_index
                .keys()
                .copied()
                .collect();
            let mut sample = grouped.clone();
            sample.shuffle(&mut rng);
            for prefix in sample.into_iter().take(burst) {
                let owner = topology
                    .announcements
                    .iter()
                    .find(|a| a.prefixes.contains(&prefix))
                    .map(|a| (a.from, a.attrs.clone()))
                    .expect("announced prefix has an owner");
                let mut attrs = owner.1;
                attrs.as_path = attrs.as_path.prepend(sdx_bgp::Asn(64_999));
                sdx.apply_update(owner.0, &Update::announce([prefix], attrs));
            }
            println!("{n}\t{burst}\t{}", sdx.incremental_stats().overlay_rules);
        }
    }
}
