#!/usr/bin/env bash
# Repo CI: build, test, lint, format — all offline (the workspace vendors
# its external dependencies under vendor/).
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo build --release"
cargo build --release --offline --workspace

echo "== cargo test"
cargo test -q --offline --workspace

echo "== examples (release; every one must exit 0)"
# The examples are the only drivers of FabricSim's router sync and
# forwarding: run all of them and fail on any non-zero exit.
for ex in examples/*.rs; do
    cargo run --release --offline --quiet --example "$(basename "$ex" .rs)" > /dev/null || {
        echo "ci: example $ex failed" >&2; exit 1
    }
done

echo "== cargo clippy"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== cargo fmt --check"
cargo fmt --check

echo "== parallel compile smoke (fig8 quick, threads 1 vs 4)"
# The parallel pipeline must be bit-identical to sequential: run the
# shrunken fig8 sweep at both thread counts and diff the fabric
# fingerprints it prints per scale.
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
SDX_BENCH_QUICK=1 SDX_THREADS=1 SDX_BENCH_JSON="$smoke_dir/b1.json" \
    target/release/fig8 | grep '^# fingerprint' > "$smoke_dir/fp1"
SDX_BENCH_QUICK=1 SDX_THREADS=4 SDX_BENCH_JSON="$smoke_dir/b4.json" \
    target/release/fig8 | grep '^# fingerprint' > "$smoke_dir/fp4"
if ! diff "$smoke_dir/fp1" "$smoke_dir/fp4"; then
    echo "ci: parallel compile output diverged from sequential" >&2; exit 1
fi
grep -q '"threads":4' "$smoke_dir/b4.json" || {
    echo "ci: bench json missing thread count" >&2; exit 1
}

echo "== full-scale fig8 gate (fig8 at SDX_THREADS=1 vs BENCH_compile.json)"
# The 15 full-scale points are the fabrics policy-forward replays: each
# record's participant, group and rule counts and its fabric fingerprint
# must equal the committed baseline's. Only the wall clocks may differ.
SDX_THREADS=1 SDX_BENCH_JSON="$smoke_dir/fig8.json" target/release/fig8 > /dev/null
fig8_outputs() { sed -E 's/,"threads":[0-9]+//; s/,"wall_us".*//' "$1"; }
if ! diff <(fig8_outputs BENCH_compile.json) <(fig8_outputs "$smoke_dir/fig8.json"); then
    echo "ci: full-scale fig8 outputs diverged from BENCH_compile.json" >&2; exit 1
fi

echo "== reachability verify smoke (fig8 quick, SDX_VERIFY=1, threads 1 vs 4)"
# Run the whole-fabric verifier (isolation, blackhole, VNH integrity passes
# on every compile, plus the differential recompile check after BGP churn)
# over the quick sweep at both thread counts; the pass wall clocks must land
# in the bench JSON and the fabric must verify clean.
SDX_BENCH_QUICK=1 SDX_VERIFY=1 SDX_THREADS=1 SDX_BENCH_JSON="$smoke_dir/v1.json" \
    target/release/fig8 | grep '^# fingerprint' > "$smoke_dir/vfp1"
SDX_BENCH_QUICK=1 SDX_VERIFY=1 SDX_THREADS=4 SDX_BENCH_JSON="$smoke_dir/v4.json" \
    target/release/fig8 | grep '^# fingerprint' > "$smoke_dir/vfp4"
if ! diff "$smoke_dir/vfp1" "$smoke_dir/vfp4"; then
    echo "ci: verify-mode compile output diverged across thread counts" >&2; exit 1
fi
for f in "$smoke_dir/v1.json" "$smoke_dir/v4.json"; do
    for key in verify_transit verify_isolation verify_blackhole verify_vnh verify_diff; do
        grep -q "\"$key\":" "$f" || {
            echo "ci: bench json missing $key timing" >&2; exit 1
        }
    done
    grep -q '"verify":{"warnings":0,"errors":0}' "$f" || {
        echo "ci: synthetic fabric failed reachability verification" >&2; exit 1
    }
done

echo "== data-plane smoke (dataplane quick + fig1 indexed-vs-linear diff)"
# The tuple-space index must forward bit-identically to the linear scan:
# --diff-fig1 probes the Figure 1 exchange (base table, fast-path fragment
# churn, fragment retirement) through both paths and exits non-zero on any
# difference. The quick bench run checks the JSON artifact shape.
target/release/dataplane --diff-fig1
SDX_BENCH_QUICK=1 SDX_BENCH_JSON="$smoke_dir/dp.json" \
    target/release/dataplane > /dev/null
for key in shards aggregate_pps wall_pps scaling_efficiency linear_pps \
           linear_packets buckets probes_per_packet index_build_us speedup_vs_linear; do
    grep -q "\"$key\":" "$smoke_dir/dp.json" || {
        echo "ci: dataplane json missing $key" >&2; exit 1
    }
done
# The index's partition (probe only the buckets that can hold the frame's
# VMAC) is invisible to every forwarding check: without it the same rule
# still wins. Its probe count repeats exactly run to run, so gate on it:
# each quick record must probe fewer than half its buckets per frame.
if ! grep -o '"buckets":[0-9]*,"probes_per_packet":[0-9.]*' "$smoke_dir/dp.json" \
    | awk -F'[:,]' '{ n++; print "buckets " $2 ", probes per packet " $4; if ($4 >= $2 / 2) bad = 1 }
                    END { exit (bad || n == 0) }'; then
    echo "ci: the index probes half its buckets or more per frame" >&2; exit 1
fi

echo "== data-plane shard smoke (dataplane quick, SDX_DP_THREADS 1 vs 4)"
# The RSS-sharded data plane must forward bit-identically regardless of the
# shard count: run the quick sweep pinned to 1 and to 4 shards and diff the
# per-batch forwarding fingerprints.
SDX_BENCH_QUICK=1 SDX_DP_THREADS=1 SDX_BENCH_JSON="$smoke_dir/dp1.json" \
    target/release/dataplane | grep '^# fingerprint' \
    | sed 's/shards=[0-9]*/shards=N/' > "$smoke_dir/dpfp1"
SDX_BENCH_QUICK=1 SDX_DP_THREADS=4 SDX_BENCH_JSON="$smoke_dir/dp4.json" \
    target/release/dataplane | grep '^# fingerprint' \
    | sed 's/shards=[0-9]*/shards=N/' > "$smoke_dir/dpfp4"
if ! diff "$smoke_dir/dpfp1" "$smoke_dir/dpfp4"; then
    echo "ci: sharded forwarding diverged from single-shard" >&2; exit 1
fi
grep -q '"shards":4' "$smoke_dir/dp4.json" || {
    echo "ci: dataplane json missing pinned shard count" >&2; exit 1
}

echo "== sdx-lint scenarios"
# Valid policies must lint clean. plan-leak.sdx stacks a BGP-filtered clause
# above an unfiltered one with the same match: the filtered clause catches
# only what its target exports, so the unfiltered one below it is live.
target/release/sdx-lint --quiet --verify scenarios/figure1.sdx \
    scenarios/plan-leak.sdx scenarios/delta-inconsistent.sdx
for s in scenarios/lint-*.sdx; do
    # Seeded-defect fixtures must be flagged (exit 1) — not crash (exit 2+).
    # --verify runs the reachability passes too: lint-isolation.sdx is clean
    # to the static analyzer and only the symbolic verifier catches it.
    if target/release/sdx-lint --quiet --verify "$s" > /dev/null; then
        echo "ci: $s unexpectedly clean" >&2; exit 1
    elif [ $? -ne 1 ]; then
        echo "ci: $s failed to run" >&2; exit 1
    fi
done
# Multi-file invocation: worst exit status across inputs wins.
if target/release/sdx-lint --quiet --verify scenarios/figure1.sdx scenarios/lint-isolation.sdx > /dev/null; then
    echo "ci: multi-file lint must propagate the worst exit" >&2; exit 1
fi

echo "== update-plan smoke (sdx-lint --plan over scenarios/plan-*.sdx)"
# Adversarial update fixtures: the naive rule-delta ordering demonstrably
# traverses a transient blackhole / isolation leak, so --plan must flag
# them (exit 1) with the fixture's own plan-naive-* finding and a witness
# AND synthesize a safe schedule (plan-ordered / plan-two-phase) for the
# same delta.
for s in scenarios/plan-*.sdx; do
    case "$s" in
        */plan-leak.sdx) want=plan-naive-leak ;;
        */plan-blackhole.sdx) want=plan-naive-blackhole ;;
        *) echo "ci: $s has no expected plan finding" >&2; exit 1 ;;
    esac
    if out=$(target/release/sdx-lint --quiet --plan "$s"); then
        echo "ci: $s naive ordering unexpectedly safe" >&2; exit 1
    elif [ $? -ne 1 ]; then
        echo "ci: $s plan lint failed to run" >&2; exit 1
    fi
    echo "$out" | grep -q "$want" || {
        echo "ci: $s missing $want evidence" >&2; exit 1
    }
    echo "$out" | grep -q 'witness:' || {
        echo "ci: $s plan violation lacks a witness packet" >&2; exit 1
    }
    echo "$out" | grep -Eq 'plan-(ordered|two-phase)' || {
        echo "ci: $s no safe schedule synthesized" >&2; exit 1
    }
done
echo "$(grep -c . <<< "$(ls scenarios/plan-*.sdx)") plan fixture(s) flagged with witnesses"

echo "== streaming churn smoke (churn quick: delta pipeline vs batch recompile)"
# The churn engine drains a 1 h virtual AMS-IX trace through rule-level
# delta installs; the binary itself exits non-zero if the streamed runtime's
# forwarding fingerprint differs from a one-shot batch recompile of the
# final RIB, or if no update was processed.
SDX_BENCH_QUICK=1 SDX_BENCH_JSON="$smoke_dir/churn.json" \
    target/release/churn > /dev/null
for key in events updates_per_sec convergence_p50_us convergence_p99_us \
           delta_installed delta_removed delta_rules_max reoptimizes \
           streamed_fingerprint batch_fingerprint; do
    grep -q "\"$key\":" "$smoke_dir/churn.json" || {
        echo "ci: churn json missing $key" >&2; exit 1
    }
done
grep -q '"streamed_eq_batch":true' "$smoke_dir/churn.json" || {
    echo "ci: streamed churn diverged from batch recompile" >&2; exit 1
}
grep -q '"updates_per_sec":0\.0,' "$smoke_dir/churn.json" && {
    echo "ci: churn engine processed no updates" >&2; exit 1
}

echo "== delta-safety smoke (churn quick checked run + sdx-lint --delta)"
# The quick churn bench re-runs the trace with every streamed delta gated
# by the incremental verifier in Deny mode: every event must be checked,
# none denied, the checked runtime must still match the batch recompile
# bit for bit, and the sampled from-scratch oracle must agree on every
# verdict.
for key in delta_checked delta_certified delta_structural delta_denied \
           check_p50_us check_p99_us checked_eq_batch checked_over_baseline \
           incremental_p50_us speedup_p50 agreed disagreed; do
    grep -q "\"$key\":" "$smoke_dir/churn.json" || {
        echo "ci: churn json missing $key" >&2; exit 1
    }
done
grep -q '"delta_checked":0,' "$smoke_dir/churn.json" && {
    echo "ci: checked churn run verified no deltas" >&2; exit 1
}
grep -q '"delta_denied":[1-9]' "$smoke_dir/churn.json" && {
    echo "ci: checked churn run denied a streamed install" >&2; exit 1
}
grep -q '"checked_eq_batch":true' "$smoke_dir/churn.json" || {
    echo "ci: checked streamed run diverged from batch recompile" >&2; exit 1
}
grep -q '"disagreed":0' "$smoke_dir/churn.json" || {
    echo "ci: incremental verdicts disagreed with the from-scratch oracle" >&2; exit 1
}
# Every streamed make-before-break delta must be certified by the
# structural gate alone. The gate keeps no cache for symbolic checks, so a
# fall in the structural share would otherwise show only as a slower delta
# path.
if ! grep -o '"delta_checked":[0-9]*\|"delta_structural":[0-9]*' "$smoke_dir/churn.json" \
    | awk -F: '/checked/ { c = $2; n++ } /structural/ { if ($2 != c) bad = 1 }
               END { exit (bad || n == 0) }'; then
    echo "ci: a checked churn delta was not certified structurally" >&2; exit 1
fi
# Per-delta check latency budget: 20x the committed full-run p99. The
# quick fabric is far smaller than the committed run's, so the headroom
# only has to absorb CI machine noise.
committed_p99=$(grep -o '"check_p99_us":[0-9]*' BENCH_churn.json | head -1 | cut -d: -f2)
quick_p99=$(grep -o '"check_p99_us":[0-9]*' "$smoke_dir/churn.json" | head -1 | cut -d: -f2)
budget=$((committed_p99 * 20))
if [ "$quick_p99" -gt "$budget" ]; then
    echo "ci: per-delta check p99 ${quick_p99}us blew the ${budget}us budget" >&2; exit 1
fi
echo "per-delta check p99 ${quick_p99}us (budget ${budget}us)"
# The oracle's time stays out of the check time: the events the scale run
# samples for the from-scratch oracle are structural like every other, so
# their check p50 may be at most 20x the checked run's (floor 50 us).
checked_p50=$(grep -o '"check_p50_us":[0-9]*' "$smoke_dir/churn.json" | head -1 | cut -d: -f2)
sampled_p50=$(grep -o '"incremental_p50_us":[0-9]*' "$smoke_dir/churn.json" | cut -d: -f2)
sampled_budget=$((checked_p50 * 20 > 50 ? checked_p50 * 20 : 50))
if [ "$sampled_p50" -gt "$sampled_budget" ]; then
    echo "ci: sampled delta check p50 ${sampled_p50}us blew the ${sampled_budget}us budget" >&2; exit 1
fi
echo "sampled delta check p50 ${sampled_p50}us (budget ${sampled_budget}us)"
# Replay the adversarial fixture: the MBB deltas certify (exit 0) while
# the naive ordering demonstrably blackholes (evidence, not a gate).
out=$(target/release/sdx-lint --delta scenarios/delta-inconsistent.sdx) || {
    echo "ci: sdx-lint --delta failed on the churn fixture" >&2; exit 1
}
echo "$out" | grep -q 'naive-order blackhole' || {
    echo "ci: delta fixture lost its naive-order blackhole evidence" >&2; exit 1
}
echo "$out" | grep -q '2 certified' || {
    echo "ci: delta fixture deltas no longer certify" >&2; exit 1
}

echo "== figure 9 regeneration (fast-path rule counts vs results/fig9.txt)"
# The fast path's additional-rule counts after each update burst must match
# the committed figure byte for byte.
if ! target/release/fig9 | diff - results/fig9.txt; then
    echo "ci: fig9 output diverged from results/fig9.txt" >&2; exit 1
fi

echo "== ablation smoke (ablation quick vs BENCH_ablation.json)"
# The quick run keeps the five ablations' workloads and only cuts the timing
# reps. The binary exits non-zero if pruned and all-pairs composition
# differ; with the timings and rep count stripped, its records must equal
# the committed full run's (one per ablation, same rule/group/memo counts).
SDX_BENCH_QUICK=1 SDX_BENCH_JSON="$smoke_dir/abl.json" target/release/ablation > /dev/null || {
    echo "ci: ablation failed (pruned and all-pairs composition differ?)" >&2; exit 1
}
ablation_counts() { sed -E 's/,"(reps|[a-z_]+_(ms|us))":[0-9.]+//g' "$1"; }
if ! diff <(ablation_counts BENCH_ablation.json) <(ablation_counts "$smoke_dir/abl.json"); then
    echo "ci: ablation counts diverged from BENCH_ablation.json" >&2; exit 1
fi

echo "== perfbench smoke (unit tests + a 2 s run of every workload)"
# The benchmark's own arithmetic, then a short run of each workload: every
# oracle must be evaluated ("correct": true) and no operation may fail —
# no lost probe, no stale wire-learned route, no diverged fingerprint.
cargo test -q --offline --manifest-path perfbench/Cargo.toml
for w in wire-churn checked-churn policy-forward; do
    last=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$w" --seed 1 --seconds 2 --trace 0 | tail -n 1)
    if ! grep -q '"correct": true' <<< "$last" || ! grep -q '"failed": 0,' <<< "$last"; then
        echo "ci: perfbench $w failed: ${last:0:200}" >&2; exit 1
    fi
    echo "perfbench $w: ${last:0:60}"
done

echo "== property harnesses (bounded fuzz sweep)"
# The seeded fuzz harness, case-bounded for CI: parser round-trip and
# token-soup robustness, and the tuple-space index vs its linear oracle.
PROPTEST_CASES=64 cargo test -q --offline -p sdx-policy --test parser_prop
PROPTEST_CASES=64 cargo test -q --offline -p sdx-switch --test index_prop

echo "ci: all green"
