//! Ablations of the compiler's design choices (§4.2–§4.3), each on its own
//! seeded, single-homed AMS-IX-profile exchange:
//!
//! - `ablation_mds` — VNH/VMAC grouping (§4.2) vs naive destination-prefix
//!   filters: rules, groups and compile time with `use_vnh` on and off.
//! - `ablation_pairwise` — pruned sequential composition (§4.3.1: only
//!   participant pairs that exchange traffic, via the port index) vs all
//!   pairs, on the compiled stage-1/stage-2 classifiers.
//! - `ablation_memo` — memoized receiver-stage compilation (§4.3.1): a warm
//!   recompile's time and memo hits/misses with `memoize` on and off.
//! - `ablation_fastpath` — the two-stage update (§4.3.2): one BGP update
//!   through the fast path vs the same update plus a full reoptimize.
//! - `ablation_pipeline` — a two-table pipeline (the iSDX direction) vs the
//!   composed single table: stage rule counts and compile time.
//!
//! Each timing is the median of 10 repetitions on an already compiled
//! runtime. `SDX_BENCH_QUICK=1` cuts that to 3 but keeps the workloads, so
//! the quick run's rule, group and memo counts equal the full run's.
//! Prints the tables of `results/ablation.txt` and writes
//! `BENCH_ablation.json` (`SDX_BENCH_JSON` overrides the path). Exits
//! non-zero if the pruned and all-pairs compositions differ.

use std::time::Instant;

use sdx_bench::{bench_json_path, percentile, quick_mode, single_homed, write_bench_json, Record};
use sdx_bgp::{Asn, Update};
use sdx_core::{Clause, CompileOptions, Dest, ParticipantId, ParticipantPolicy, SdxRuntime};
use sdx_ip::Prefix;
use sdx_policy::{sequential_compose, sequential_compose_naive, Field, Predicate};
use sdx_workload::{generate_policies_with_groups, IxpTopology, PolicyMix};

/// An exchange of `participants` single-homed members with `target_groups`
/// prefix groups of policy, installed and ready to compile.
fn build(
    participants: usize,
    prefixes: usize,
    target_groups: usize,
    seed: u64,
    options: CompileOptions,
) -> (SdxRuntime, IxpTopology, PolicyMix) {
    let topology = IxpTopology::generate(single_homed(participants, prefixes), seed);
    let mix = generate_policies_with_groups(&topology, target_groups, seed);
    let mut sdx = SdxRuntime::new(options);
    topology.install(&mut sdx);
    for (id, policy) in &mix.policies {
        sdx.set_policy(*id, policy.clone());
    }
    (sdx, topology, mix)
}

/// The median wall time of `reps` calls of `f`, in milliseconds.
fn median_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut ns: Vec<u64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
        .collect();
    ns.sort_unstable();
    percentile(&ns, 0.5) as f64 / 1e6
}

/// The fields every ablation record starts with.
fn head(bench: &str, participants: usize, target_groups: usize, reps: usize) -> Record {
    Record::new()
        .str("bench", bench)
        .uint("participants", participants)
        .uint("target_groups", target_groups)
        .uint("reps", reps)
}

fn mds(reps: usize) -> Record {
    println!("# VNH/VMAC grouping (§4.2): 60 participants, 150 target groups");
    println!("use_vnh\trules\tgroups\tcompile_ms");
    let mut record = head("ablation_mds", 60, 150, reps);
    for (key, use_vnh) in [("vnh", true), ("no_vnh", false)] {
        let options = CompileOptions {
            use_vnh,
            ..Default::default()
        };
        let (mut sdx, _, _) = build(60, 3_000, 150, 42, options);
        let stats = sdx.compile().expect("compiles");
        let ms = median_ms(reps, || sdx.compile().expect("compiles"));
        println!("{use_vnh}\t{}\t{}\t{ms:.2}", stats.rules, stats.groups);
        let variant = Record::new()
            .uint("rules", stats.rules)
            .uint("groups", stats.groups)
            .float("compile_ms", ms, 2);
        record = record.object(key, variant);
    }
    record
}

/// The record, and whether both compositions produced the same classifier.
fn pairwise(reps: usize) -> (Record, bool) {
    println!("# Pruned vs all-pairs composition (§4.3.1): 60 participants, 150 target groups");
    println!("variant\tstage1_rules\tstage2_rules\tcomposed_rules\tcompose_ms");
    let (mut sdx, _, _) = build(60, 3_000, 150, 43, CompileOptions::default());
    sdx.compile().expect("compiles");
    let compilation = sdx.compilation().expect("compiled");
    let (s1, s2) = (&compilation.stage1, &compilation.stage2);
    let pruned = sequential_compose(s1, s2);
    let all_pairs = sequential_compose_naive(s1, s2);
    let pruned_ms = median_ms(reps, || sequential_compose(s1, s2));
    let all_pairs_ms = median_ms(reps, || sequential_compose_naive(s1, s2));
    let (n1, n2) = (s1.len(), s2.len());
    println!("pruned\t{n1}\t{n2}\t{}\t{pruned_ms:.2}", pruned.len());
    println!(
        "all_pairs\t{n1}\t{n2}\t{}\t{all_pairs_ms:.2}",
        all_pairs.len()
    );
    let equal = pruned == all_pairs;
    let record = head("ablation_pairwise", 60, 150, reps)
        .uint("stage1_rules", n1)
        .uint("stage2_rules", n2)
        .uint("composed_rules", pruned.len())
        .bool("equal", equal)
        .float("pruned_ms", pruned_ms, 2)
        .float("all_pairs_ms", all_pairs_ms, 2);
    (record, equal)
}

fn memo(reps: usize) -> Record {
    println!("# Memoization (§4.3.1), warm recompile: 80 participants, 200 target groups");
    println!("memoize\tmemo_hits\tmemo_misses\trecompile_ms");
    let mut record = head("ablation_memo", 80, 200, reps);
    for (key, memoize) in [("memo", true), ("no_memo", false)] {
        let options = CompileOptions {
            memoize,
            ..Default::default()
        };
        let (mut sdx, _, _) = build(80, 3_000, 200, 44, options);
        sdx.compile().expect("compiles");
        let stats = sdx.reoptimize().expect("recompiles");
        let (hits, misses) = (stats.memo_hits, stats.memo_misses);
        let ms = median_ms(reps, || sdx.reoptimize().expect("recompiles"));
        println!("{memoize}\t{hits}\t{misses}\t{ms:.2}");
        let variant = Record::new()
            .uint("hits", hits)
            .uint("misses", misses)
            .float("recompile_ms", ms, 2);
        record = record.object(key, variant);
    }
    record
}

fn fastpath(reps: usize) -> Record {
    println!("# Two-stage update (§4.3.2): one BGP update, 80 participants, 200 target groups");
    println!("variant\trules\tfragment_rules\ttime_ms");
    let (mut sdx, topology, _) = build(80, 3_000, 200, 45, CompileOptions::default());
    let rules = sdx.compile().expect("compiles").rules;
    let prefix = *sdx
        .compilation()
        .expect("compiled")
        .group_index
        .keys()
        .next()
        .expect("a grouped prefix");
    let owner = topology
        .announcements
        .iter()
        .find(|a| a.prefixes.contains(&prefix))
        .expect("announced prefix has an owner");
    let mut attrs = owner.attrs.clone();
    attrs.as_path = attrs.as_path.prepend(Asn(64_999));
    let update = Update::announce([prefix], attrs);
    // Off the clock: the first update installs the prefix's fragment; every
    // timed one also retires the previous fragment.
    let fragment = sdx.apply_update_delta(owner.from, &update).1.installed;
    let update_ms = median_ms(reps, || sdx.apply_update(owner.from, &update));
    let recompile_ms = median_ms(reps, || {
        sdx.apply_update(owner.from, &update);
        sdx.reoptimize().expect("recompiles")
    });
    println!("fast_path\t{rules}\t{fragment}\t{update_ms:.3}");
    println!("apply_update+reoptimize\t{rules}\t-\t{recompile_ms:.3}");
    head("ablation_fastpath", 80, 200, reps)
        .uint("rules", rules)
        .uint("fragment_rules", fragment)
        .float("update_us", update_ms * 1e3, 1)
        .float("update_reoptimize_ms", recompile_ms, 2)
}

fn pipeline(reps: usize) -> Record {
    println!("# Two-table pipeline vs composed single table: 100 participants, 300 target groups");
    println!("multi_table\tstage1_rules\tstage2_rules\trules\tcompile_ms");
    let mut record = head("ablation_pipeline", 100, 300, reps);
    for (key, multi_table) in [("single_table", false), ("multi_table", true)] {
        let options = CompileOptions {
            multi_table,
            ..Default::default()
        };
        let (mut sdx, topology, mix) = build(100, 5_000, 300, 46, options);
        // Composition's cost is the cross-product of sender rules with
        // receiver clauses, so give every policy target an inbound-
        // engineering block (the §6.1 mix shape: eyeballs steer inbound
        // traffic).
        let targets: std::collections::BTreeSet<ParticipantId> = mix
            .policies
            .values()
            .flat_map(|p| p.outbound.iter())
            .filter_map(|c| match c.dest {
                Dest::Participant(t) => Some(t),
                _ => None,
            })
            .collect();
        for target in targets {
            let port = topology
                .participants
                .iter()
                .find(|p| p.id == target)
                .and_then(|p| p.primary_port())
                .expect("policy target has a port")
                .port;
            let mut policy = ParticipantPolicy::new();
            for i in 0..6u32 {
                let src = Predicate::test_prefix(Field::SrcIp, Prefix::from_bits(i << 29, 3));
                policy = policy.inbound(Clause::to_port(src, port));
            }
            sdx.set_policy(target, policy);
        }
        let stats = sdx.compile().expect("compiles");
        let ms = median_ms(reps, || sdx.compile().expect("compiles"));
        println!(
            "{multi_table}\t{}\t{}\t{}\t{ms:.2}",
            stats.stage1_rules, stats.stage2_rules, stats.rules
        );
        let variant = Record::new()
            .uint("stage1_rules", stats.stage1_rules)
            .uint("stage2_rules", stats.stage2_rules)
            .uint("rules", stats.rules)
            .float("compile_ms", ms, 2);
        record = record.object(key, variant);
    }
    record
}

fn main() {
    let reps = if quick_mode() { 3 } else { 10 };
    let mds = mds(reps);
    let (pairwise, composed_equal) = pairwise(reps);
    let records = [mds, pairwise, memo(reps), fastpath(reps), pipeline(reps)];

    let path = bench_json_path("BENCH_ablation.json");
    write_bench_json(&path, &records).expect("write bench json");
    eprintln!("wrote {}", path.display());
    if !composed_equal {
        eprintln!("ablation: FAIL — pruned and all-pairs composition differ");
        std::process::exit(1);
    }
}
