//! Soundness of the incremental delta-safety verifier on randomized
//! streamed churn: for every checked delta, the persistent checker's
//! verdict (structural gate, restricted universe) must be identical to a
//! from-scratch header-space check of the same event over the full
//! universe — verdict, synthesized schedule, and witness content alike.
//! Every streamed make-before-break delta is also certified structurally,
//! with no header-space work: the gate keeps no cache for symbolic deltas
//! because streaming produces none.
//!
//! The runtime's own sampling oracle does the comparison
//! ([`DeltaReport::agrees_with`]); with the sample interval at 1 every
//! single streamed event is cross-checked. The fabric/churn generators
//! mirror `plan_prop.rs` but drive [`SdxRuntime::apply_update_delta`]
//! (the streamed fast path) instead of recompiles, with path lengths
//! randomized so best routes genuinely flip — remove + install in one
//! event — rather than only grow.
//!
//! The same churn must also leave the fabric packet-equivalent to a fresh
//! compile after every update (`SdxRuntime::verify_differential`).

use std::net::Ipv4Addr;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdx::core::{
    AnalysisMode, Clause, CompileOptions, DeltaVerdict, Participant, ParticipantId,
    ParticipantPolicy, PortConfig, SdxRuntime,
};
use sdx_bgp::{AsPath, Asn, PathAttributes, Update};
use sdx_ip::Prefix;
use sdx_policy::{match_, Field};

const PREFIXES: [&str; 5] = [
    "10.0.0.0/8",
    "20.0.0.0/8",
    "30.0.0.0/8",
    "40.1.0.0/16",
    "50.2.0.0/16",
];
const PORTS: [u16; 3] = [80, 22, 443];

fn port(n: u32) -> PortConfig {
    PortConfig {
        port: n,
        mac: format!("02:00:00:00:00:{n:02x}").parse().unwrap(),
        ip: Ipv4Addr::new(172, 0, 0, n as u8),
    }
}

/// Path attributes with a randomized AS-path length (1–4 hops), so a
/// re-announcement can beat — or lose to — the incumbent best route.
fn attrs(rng: &mut StdRng, id: ParticipantId) -> PathAttributes {
    let hops = rng.gen_range(1..=4usize);
    let mut path = vec![65000 + id.0];
    for h in 0..hops - 1 {
        path.push(65100 + h as u32);
    }
    PathAttributes::new(AsPath::sequence(path), Ipv4Addr::new(172, 0, 0, id.0 as u8))
}

/// A compiled random fabric with the streamed delta checker on.
fn random_fabric(rng: &mut StdRng, options: CompileOptions) -> Option<SdxRuntime> {
    let n = rng.gen_range(2..=4u32);
    let mut sdx = SdxRuntime::new(options);
    let ids: Vec<ParticipantId> = (1..=n).map(ParticipantId).collect();
    for &id in &ids {
        sdx.add_participant(Participant::new(id, Asn(65000 + id.0), vec![port(id.0)]));
    }
    for &id in &ids {
        for p in PREFIXES {
            if rng.gen_bool(0.4) {
                let a = attrs(rng, id);
                sdx.announce(id, [p.parse::<Prefix>().unwrap()], a);
            }
        }
    }
    for &id in &ids {
        let mut policy = ParticipantPolicy::new();
        for _ in 0..rng.gen_range(0..=2) {
            let dp = PORTS[rng.gen_range(0..PORTS.len())];
            let to = ids[rng.gen_range(0..ids.len())];
            let clause = if rng.gen_bool(0.2) {
                Clause::drop(match_(Field::DstPort, dp))
            } else if rng.gen_bool(0.15) {
                Clause::fwd(match_(Field::DstPort, dp), to).unfiltered()
            } else {
                Clause::fwd(match_(Field::DstPort, dp), to)
            };
            policy = policy.outbound(clause);
        }
        sdx.set_policy(id, policy);
    }
    sdx.compile().ok()?;
    Some(sdx)
}

/// Every streamed delta's incremental verdict is bit-identical to the
/// from-scratch oracle's, across ≥32 random fabrics under random churn.
#[test]
fn incremental_verdicts_match_from_scratch_oracle() {
    let mut rng = StdRng::seed_from_u64(0x000d_e17a_c4ec);
    let mut fabrics = 0usize;
    let mut checked = 0usize;
    let mut flips = 0usize;
    while fabrics < 32 {
        let Some(mut sdx) = random_fabric(
            &mut rng,
            CompileOptions {
                delta_check: AnalysisMode::Warn,
                ..Default::default()
            },
        ) else {
            continue;
        };
        fabrics += 1;
        // Cross-check *every* event against the from-scratch pipeline and
        // keep every record.
        sdx.set_delta_check_sample(1);
        sdx.set_delta_log_limit(1024);

        let n = sdx.verify_input().expect("compiled").participants.len() as u32;
        for _ in 0..rng.gen_range(4..=8) {
            let id = ParticipantId(rng.gen_range(1..=n));
            let p: Prefix = PREFIXES[rng.gen_range(0..PREFIXES.len())].parse().unwrap();
            let update = if rng.gen_bool(0.35) {
                Update::withdraw([p])
            } else {
                let a = attrs(&mut rng, id);
                Update::announce([p], a)
            };
            let (_, delta) = sdx.apply_update_delta(id, &update);
            if delta.installed > 0 && delta.removed > 0 {
                flips += 1; // remove + install in one event
            }
        }

        let records = sdx.delta_log();
        let stats = sdx.incremental_stats();
        assert_eq!(
            records.len() as u64,
            stats.delta_checked,
            "fabric {fabrics}: the log must cover every checked event"
        );
        for r in records {
            checked += 1;
            assert_eq!(
                r.agreed,
                Some(true),
                "fabric {fabrics}, prefix {}: incremental verdict {:?} \
                 (structural={}) disagrees with from-scratch {:?}",
                r.prefix,
                r.report.verdict,
                r.report.structural,
                r.from_scratch.as_ref().map(|f| f.verdict),
            );
            assert_ne!(
                r.report.verdict,
                DeltaVerdict::Rejected,
                "fabric {fabrics}: MBB streamed schedules never reject"
            );
            assert!(
                r.report.structural,
                "fabric {fabrics}, prefix {}: streamed delta needed symbolic work",
                r.prefix
            );
        }
    }
    assert!(checked >= 64, "only {checked} events cross-checked");
    assert!(flips >= 8, "only {flips} remove+install flips exercised");
}

/// Streamed churn converges on what a fresh compile of the same inputs
/// forwards: after every update, in single- and multi-table mode, the
/// differential check finds no packet the running fabric (base table plus
/// fragments) treats differently. The fabrics carry drop and unfiltered
/// clauses, which every fragment must keep.
#[test]
fn streamed_churn_equals_a_fresh_compile() {
    let mut rng = StdRng::seed_from_u64(0x00d1_ff5e);
    let mut updates = 0usize;
    for multi_table in [false, true] {
        let mut fabrics = 0usize;
        while fabrics < 24 {
            let options = CompileOptions {
                multi_table,
                ..Default::default()
            };
            let Some(mut sdx) = random_fabric(&mut rng, options) else {
                continue;
            };
            fabrics += 1;
            let n = sdx.verify_input().expect("compiled").participants.len() as u32;
            for _ in 0..rng.gen_range(4..=8) {
                let id = ParticipantId(rng.gen_range(1..=n));
                let p: Prefix = PREFIXES[rng.gen_range(0..PREFIXES.len())].parse().unwrap();
                let update = if rng.gen_bool(0.35) {
                    Update::withdraw([p])
                } else {
                    let a = attrs(&mut rng, id);
                    Update::announce([p], a)
                };
                sdx.apply_update_delta(id, &update);
                updates += 1;
                let report = sdx.verify_differential().expect("reference compiles");
                assert!(
                    report.diagnostics.is_empty() && report.undecided == 0,
                    "multi_table={multi_table}, fabric {fabrics}, {update:?}: {:?}",
                    report.diagnostics
                );
            }
        }
    }
    assert!(updates >= 200, "only {updates} updates checked");
}

/// Deny-mode recovery, end to end. MBB fast-path schedules are
/// structurally safe by construction, so the deny path is exercised with
/// the fault-injection hook: the denied delta must install nothing, flag a
/// reoptimize, hand its count to the recovering compile
/// (`delta_deny_fallbacks`, reset afterwards), and streamed churn must
/// keep installing against the re-based priority band after the recompile.
#[test]
fn forced_deny_falls_back_to_reoptimize_and_recovers() {
    let mut rng = StdRng::seed_from_u64(0x00de_4a11);
    let mut sdx = loop {
        let fabric = random_fabric(
            &mut rng,
            CompileOptions {
                delta_check: AnalysisMode::Deny,
                ..Default::default()
            },
        );
        if let Some(s) = fabric {
            break s;
        }
    };
    let n = sdx.verify_input().expect("compiled").participants.len() as u32;
    let churn_until_install = |sdx: &mut SdxRuntime, rng: &mut StdRng| loop {
        let id = ParticipantId(rng.gen_range(1..=n));
        let p: Prefix = PREFIXES[rng.gen_range(0..PREFIXES.len())].parse().unwrap();
        let a = attrs(rng, id);
        let (_, delta) = sdx.apply_update_delta(id, &Update::announce([p], a));
        if delta.installed > 0 {
            return delta;
        }
    };

    // Healthy churn first: streamed installs certify and go in.
    churn_until_install(&mut sdx, &mut rng);
    let before = sdx.incremental_stats();
    assert_eq!(before.delta_denied, 0);
    assert!(before.delta_checked > 0);
    assert!(!sdx.needs_reoptimize());

    // Arm the fault and churn until a checked delta hits the deny path.
    sdx.inject_delta_deny(1);
    let denied_install = loop {
        let id = ParticipantId(rng.gen_range(1..=n));
        let p: Prefix = PREFIXES[rng.gen_range(0..PREFIXES.len())].parse().unwrap();
        let a = attrs(&mut rng, id);
        let (_, delta) = sdx.apply_update_delta(id, &Update::announce([p], a));
        if sdx.incremental_stats().delta_denied > 0 {
            break delta;
        }
    };
    assert_eq!(
        denied_install,
        Default::default(),
        "a denied delta must not touch the tables"
    );
    assert!(
        sdx.needs_reoptimize(),
        "deny must schedule the recovery compile"
    );

    // The recovering compile reports the deny window and resets it.
    let stats = sdx.reoptimize().expect("recovery reoptimize");
    assert_eq!(stats.delta_deny_fallbacks, 1);
    assert!(!sdx.needs_reoptimize());

    // Post-recovery churn still installs (the delta priority band was
    // re-based on the fresh tables), and the next compile stamps a clean
    // window.
    churn_until_install(&mut sdx, &mut rng);
    assert_eq!(sdx.incremental_stats().delta_denied, 1, "no further denies");
    let stats = sdx.reoptimize().expect("second reoptimize");
    assert_eq!(stats.delta_deny_fallbacks, 0, "the deny window must reset");
}
