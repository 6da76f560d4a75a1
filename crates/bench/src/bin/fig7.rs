//! Regenerates Figure 7: forwarding rules as a function of prefix groups,
//! for 100/200/300 participants.

use sdx_bench::single_homed;
use sdx_core::{CompileOptions, SdxRuntime};
use sdx_workload::{generate_policies_with_groups, IxpTopology};

fn main() {
    println!("# Figure 7 — forwarding rules vs prefix groups");
    println!("participants\ttarget_groups\tmeasured_groups\tflow_rules");
    for &n in &[100usize, 200, 300] {
        let topology = IxpTopology::generate(single_homed(n, 25_000), 7);
        for &target in &[200usize, 400, 600, 800, 1_000] {
            let mix = generate_policies_with_groups(&topology, target, 7);
            let mut sdx = SdxRuntime::new(CompileOptions::default());
            topology.install(&mut sdx);
            for (id, policy) in &mix.policies {
                sdx.set_policy(*id, policy.clone());
            }
            let stats = sdx.compile().expect("compiles");
            println!("{n}\t{target}\t{}\t{}", stats.groups, stats.rules);
        }
    }
}
