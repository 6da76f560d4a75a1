//! `checked-churn`: every change arrives as UPDATE bytes, is decoded, and
//! goes through the make-before-break delta path with the incremental
//! safety verifier denying unsafe deltas; the viewer's router is synced for
//! the one prefix and probes the fabric.

use std::collections::BTreeMap;

use sdx_bgp::wire::{self, Message};
use sdx_churn::{forwarding_fingerprint, sync_prefix};
use sdx_core::{AnalysisMode, CompileOptions, ParticipantId, SdxRuntime};
use sdx_switch::BorderRouter;

use crate::churn::{self, Change, ChurnPath, Inputs, Recompile};
use crate::measure::{median, ms, pct, ratio, us, Tracer};
use crate::Outcome;

/// Senders whose probes make up the oracle's forwarding fingerprint.
const FINGERPRINT_SENDERS: usize = 4;

struct Checked<'a> {
    inputs: &'a Inputs,
    /// Each trace event as UPDATE bytes, encoded with the inputs.
    bytes: Vec<Vec<u8>>,
    rt: SdxRuntime,
    routers: BTreeMap<ParticipantId, BorderRouter>,
    decode_ns: Vec<u64>,
    apply_ns: Vec<u64>,
    check_us: Vec<u64>,
    delta_other_ns: Vec<u64>,
    delta_rules: usize,
    sync_ns: Vec<u64>,
    probe_ns: Vec<u64>,
    reseed_ns: Vec<u64>,
}

fn options() -> CompileOptions {
    CompileOptions {
        delta_check: AnalysisMode::Deny,
        ..CompileOptions::default()
    }
}

/// Set-up: install and compile the fabric, which also seeds the verifier.
fn setup(inputs: &Inputs) -> SdxRuntime {
    let mut rt = churn::install(&inputs.topology, &inputs.mix, options());
    // The from-scratch soundness sampler stays off: it is a test oracle.
    rt.set_delta_check_sample(0);
    rt.compile().expect("initial compile");
    rt
}

impl Checked<'_> {
    /// A reoptimize: a full recompile that also reseeds the verifier. It
    /// retags every prefix, so the probe routers start over.
    fn reoptimize(&mut self, t: &mut Tracer, name: &'static str, op: u64) -> Recompile {
        let rt = &mut self.rt;
        let rc = Recompile::timed(t, name, op, || rt.reoptimize());
        if let Some(stats) = rc.stats {
            self.reseed_ns
                .push(rc.wall_ns.saturating_sub(stats.duration_us * 1_000));
        }
        self.routers.clear();
        rc
    }
}

impl ChurnPath for Checked<'_> {
    fn change(&mut self, t: &mut Tracer, op: u64, index: usize) -> Change {
        let ev = &self.inputs.trace[index];
        let bytes = &self.bytes[index];
        let t0 = t.now();
        let (msg, decode_ns) = t.span("bgp.wire.decode", op, |_| wire::decode(bytes));
        let Ok((Message::Update(update), _)) = msg else {
            return Change {
                lost: true,
                ..Default::default()
            };
        };
        let rt = &mut self.rt;
        let ((touched, delta), apply_ns) = t.span("core.runtime.apply_update_delta", op, |_| {
            rt.apply_update_delta(ev.from, &update)
        });
        let check_us = self.rt.incremental_stats().last_check_us;
        self.decode_ns.push(decode_ns);
        self.apply_ns.push(apply_ns);
        self.check_us.push(check_us);
        self.delta_other_ns
            .push(apply_ns.saturating_sub(check_us * 1_000));
        self.delta_rules += delta.installed + delta.removed;
        let mut change = Change {
            busy_ns: decode_ns + apply_ns,
            span_ns: decode_ns + apply_ns,
            ..Default::default()
        };
        // A degraded fast path is recovered at once, as `ChurnEngine` does.
        if self.rt.needs_reoptimize() {
            let rc = self.reoptimize(t, "core.runtime.reoptimize_forced", op);
            change.busy_ns += rc.wall_ns;
            change.span_ns += rc.wall_ns;
            change.recompiles.push(rc);
        }
        change.path_ns = t.now() - t0;

        // The first touched prefix that still has a best route, as in
        // `ChurnEngine`.
        let target = touched
            .iter()
            .find_map(|p| churn::probe_target(&self.rt, *p).map(|target| (*p, target)));
        if let Some((prefix, target)) = target {
            let viewer = target.0;
            let rt = &mut self.rt;
            let router = self
                .routers
                .entry(viewer)
                .or_insert_with(|| churn::router_of(rt, viewer));
            let t1 = t.now();
            let (_, sync_ns) = t.span("churn.sync_prefix", op, |_| {
                sync_prefix(rt, viewer, router, prefix)
            });
            let (probe, probe_ns, t2) = churn::probe(t, op, rt, router, prefix, target);
            change.path_ns += t2 - t1;
            change.span_ns += sync_ns + probe_ns;
            change.probe = Some(probe);
            self.sync_ns.push(sync_ns);
            self.probe_ns.push(probe_ns);
        }
        change
    }

    fn background(&mut self, t: &mut Tracer, op: u64) -> Recompile {
        self.reoptimize(t, "core.runtime.reoptimize", op)
    }
}

/// The oracle: a batch recompile of the same updates must forward exactly
/// as the streamed runtime does. Returns whether the fingerprints agree, or
/// `None` when the batch recompile itself failed.
fn batch_agrees(inputs: &Inputs, replayed: usize, streamed: &mut SdxRuntime) -> Option<bool> {
    let mut batch = churn::install(&inputs.topology, &inputs.mix, CompileOptions::default());
    for ev in &inputs.trace[..replayed] {
        batch.apply_update(ev.from, &ev.update);
    }
    batch.compile().ok()?;
    let want = forwarding_fingerprint(&mut batch, &inputs.topology, FINGERPRINT_SENDERS);
    Some(forwarding_fingerprint(streamed, &inputs.topology, FINGERPRINT_SENDERS) == want)
}

pub fn run(seconds: f64, setups: usize, t: &mut Tracer) -> Outcome {
    let inputs = churn::inputs(seconds);
    let bytes = inputs
        .trace
        .iter()
        .map(|ev| wire::encode(&Message::Update(ev.update.clone())).to_vec())
        .collect();
    let (rt, setup_ns) = crate::set_up(t, setups, || setup(&inputs));
    let mut checked = Checked {
        inputs: &inputs,
        bytes,
        rt,
        routers: BTreeMap::new(),
        decode_ns: Vec::new(),
        apply_ns: Vec::new(),
        check_us: Vec::new(),
        delta_other_ns: Vec::new(),
        delta_rules: 0,
        sync_ns: Vec::new(),
        probe_ns: Vec::new(),
        reseed_ns: Vec::new(),
    };
    let replay = churn::replay(&mut checked, &inputs, t);
    let inc = checked.rt.incremental_stats();

    let oracle_start = t.now();
    let agrees = batch_agrees(&inputs, replay.changes, &mut checked.rt);
    let oracle_ns = t.now() - oracle_start;

    let mut out = Outcome::new(setup_ns);
    out.summary = replay.describe(&checked.rt);
    out.summary.push_str(&format!(
        "# oracle batch_fingerprint: {} ({:.1} ms); \
         verifier: {} checked, {} structural, {} denied\n",
        match agrees {
            Some(true) => "streamed == batch",
            Some(false) => "STREAMED != BATCH",
            None => "batch recompile FAILED",
        },
        ms(oracle_ns),
        inc.delta_checked,
        inc.delta_structural,
        inc.delta_denied,
    ));
    out.checked = agrees.is_some();
    out.attempted = (replay.probes + replay.lost + replay.recompiles.len() + 1) as u64;
    out.failed = (replay.failed.len()
        + replay.lost
        + replay.failed_recompiles()
        + usize::from(agrees != Some(true))) as u64;
    out.work_ns = replay.path_ns;
    out.ops = replay.changes as u64;
    replay.end_to_end(&mut out.e2e);

    let m = &mut out.layers;
    replay.layers(m);
    crate::compile_layers(m, &replay.compile_stats());
    crate::switch_layers(m, &checked.rt);
    let c = &mut checked;
    m.put("bgp.wire.decode_p50_us", "us", us(median(&mut c.decode_ns)));
    m.put(
        "core.runtime.apply_update_delta_p50_us",
        "us",
        us(pct(&mut c.apply_ns, 0.5)),
    );
    m.put(
        "core.runtime.apply_update_delta_p99_us",
        "us",
        us(pct(&mut c.apply_ns, 0.99)),
    );
    m.put(
        "plan.incremental.check_p50_us",
        "us",
        median(&mut c.check_us) as f64,
    );
    m.put(
        "core.runtime.delta_other_p50_us",
        "us",
        us(median(&mut c.delta_other_ns)),
    );
    m.put(
        "core.runtime.reseed_p50_ms",
        "ms",
        ms(median(&mut c.reseed_ns)),
    );
    m.put(
        "plan.incremental.structural_share",
        "ratio",
        ratio(inc.delta_structural as f64, inc.delta_checked as f64),
    );
    m.put(
        "plan.incremental.checked",
        "count",
        inc.delta_checked as f64,
    );
    m.put("plan.incremental.denied", "count", inc.delta_denied as f64);
    m.put(
        "core.runtime.delta_rules_per_change",
        "count",
        ratio(c.delta_rules as f64, replay.changes as f64),
    );
    m.put("churn.sync_prefix_p50_us", "us", us(median(&mut c.sync_ns)));
    m.put("switch.probe_p50_us", "us", us(median(&mut c.probe_ns)));
    m.put("oracle.check_ms", "ms", ms(oracle_ns));
    out
}
