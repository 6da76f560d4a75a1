//! The benchmark's own arithmetic: percentiles under the ten-beyond rule,
//! the controller's virtual clock, and spans with self time.

use std::time::Instant;

/// Samples that must lie beyond a reported percentile.
const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile (`p` in 0..=1) of an ascending sample; 0 when
/// the sample is empty.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    match sorted.len() {
        0 => 0,
        n => sorted[rank(n, p) - 1],
    }
}

/// The 1-based nearest rank of percentile `p` in a sample of `n`.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// How many samples of `n` lie strictly beyond the nearest-rank `p`.
fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Does a sample of `n` support percentile `p` (at least [`MIN_BEYOND`]
/// samples beyond it)?
pub fn supported(n: usize, p: f64) -> bool {
    beyond(n, p) >= MIN_BEYOND
}

/// Sort `v` in place and return its `p` percentile.
pub fn pct(v: &mut [u64], p: f64) -> u64 {
    v.sort_unstable();
    percentile(v, p)
}

/// The median of `v` (nearest rank), sorting it in place.
pub fn median(v: &mut [u64]) -> u64 {
    pct(v, 0.5)
}

/// The single-threaded controller on the trace's virtual clock. Work due at
/// some virtual instant starts when the controller is free, holds it for
/// its measured duration, and everything due meanwhile waits.
#[derive(Debug, Default)]
pub struct VirtualClock {
    free_ns: u64,
}

impl VirtualClock {
    /// Admit work that arrives at `arrive_ns`: returns its virtual start.
    /// The wait is `start - arrive_ns`.
    pub fn start(&self, arrive_ns: u64) -> u64 {
        arrive_ns.max(self.free_ns)
    }

    /// The work admitted at `start_ns` held the controller for `busy_ns`.
    pub fn hold(&mut self, start_ns: u64, busy_ns: u64) {
        self.free_ns = start_ns + busy_ns;
    }
}

/// One timed call into a layer's public API.
#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The change or batch the span served.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Times calls; when `on`, also keeps each call as a [`Span`] in memory.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the tracer was made.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` as span `name` of operation `op`; returns its result and its
    /// duration in ns. Spans opened inside `f` become its children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> (R, u64) {
        let start = self.now();
        let id = self.on.then(|| {
            self.spans.push(Span {
                name,
                start_ns: start,
                end_ns: start,
                parent: self.open.last().copied(),
                op,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let r = f(self);
        let end = self.now();
        if let Some(id) = id {
            self.open.pop();
            self.spans[id].end_ns = end;
        }
        (r, end - start)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the part of it that its
/// direct children cover (overlapping children are merged first).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Self times of every span called `name`, in µs.
pub fn self_us(spans: &[Span], selfs: &[u64], name: &str) -> Vec<u64> {
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name)
        .map(|(_, t)| t / 1_000)
        .collect()
}

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// Collects metrics in report order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, unit: &'static str, value: f64) {
        self.0.push(Metric {
            name: name.to_string(),
            unit,
            value: if value.is_finite() { value } else { 0.0 },
        });
    }
}

/// Microseconds, keeping the fraction.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Milliseconds, keeping the fraction.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The CPUs this process may run on, and the one it was pinned to.
///
/// The benchmark pins itself to one CPU with `taskset` (the standard
/// library cannot set affinity): migrations between CPUs otherwise spread
/// the microsecond figures by a third from run to run on a shared host.
/// Where `taskset` is missing the run goes on unpinned.
pub struct Affinity {
    all: Option<String>,
    one: Option<String>,
}

impl Affinity {
    pub fn pin() -> Self {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        let all = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
            .map(|s| s.trim().to_string());
        // Field 39 of /proc/self/stat, counted after the command name.
        let one = std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| {
                let rest = s.rsplit_once(')')?.1;
                rest.split_whitespace().nth(36).map(str::to_string)
            });
        Affinity {
            all,
            one: one.filter(|cpu| set_affinity(cpu)),
        }
    }

    pub fn describe(&self) -> String {
        match &self.one {
            Some(cpu) => format!("pinned to CPU {cpu}"),
            None => "not pinned".to_string(),
        }
    }

    /// Run `f` free to use every allowed CPU.
    pub fn widened<R>(&self, f: impl FnOnce() -> R) -> R {
        if let Some(all) = &self.all {
            set_affinity(all);
        }
        let r = f();
        if let Some(one) = &self.one {
            set_affinity(one);
        }
        r
    }
}

/// Set the affinity of every thread of this process; true on success.
fn set_affinity(cpus: &str) -> bool {
    std::process::Command::new("taskset")
        .args(["-a", "-p", "-c", cpus, &std::process::id().to_string()])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

/// Peak resident memory of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert!(supported(1_000, 0.99));
        assert_eq!(beyond(1_000, 0.99), 10);
        assert!(!supported(999, 0.99));
        assert_eq!(beyond(999, 0.99), 9);
        assert!(supported(20, 0.5));
        assert!(!supported(19, 0.5));
        assert_eq!(beyond(0, 0.99), 0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=1_000).collect();
        assert_eq!(percentile(&v, 0.5), 500);
        assert_eq!(percentile(&v, 0.99), 990);
        assert_eq!(percentile(&v, 1.0), 1_000);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[], 0.5), 0);
        let mut odd = vec![5, 1, 3];
        assert_eq!(median(&mut odd), 3);
    }

    #[test]
    fn burst_waits_behind_background_stage_and_earlier_changes() {
        const MS: u64 = 1_000_000;
        const S: u64 = 1_000 * MS;
        let mut clock = VirtualClock::default();
        // The background stage is due at 1800 s and holds 500 ms.
        let bg = clock.start(1_800 * S);
        assert_eq!(bg, 1_800 * S);
        clock.hold(bg, 500 * MS);
        // A three-change burst due at 1800 s, 2 ms each.
        let waits: Vec<u64> = (0..3)
            .map(|_| {
                let start = clock.start(1_800 * S);
                clock.hold(start, 2 * MS);
                start - 1_800 * S
            })
            .collect();
        assert_eq!(waits, vec![500 * MS, 502 * MS, 504 * MS]);
        // A change due after the controller went idle does not wait.
        let later = clock.start(1_801 * S);
        assert_eq!(later, 1_801 * S);
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        };
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)), // overlaps a: 10..60 covered once
            span("leaf", 15, 20, Some(1)),
            span("other", 200, 250, None),
        ];
        assert_eq!(self_times(&spans), vec![50, 25, 30, 5, 50]);
    }

    #[test]
    fn tracer_nests_spans_and_times_when_off() {
        let mut t = Tracer::new(true);
        let ((), outer) = t.span("outer", 7, |t| {
            t.span("inner", 7, |_| std::hint::black_box(1 + 1));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].op, 7);
        assert_eq!(spans[0].duration_ns(), outer);
        let mut off = Tracer::new(false);
        off.span("x", 0, |_| ());
        assert!(off.spans().is_empty());
    }
}
