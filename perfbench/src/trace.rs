//! The benchmark's own span recorder and the small statistics it reports.
//!
//! Spans are recorded from the benchmark's files, around calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! A disabled [`Tracer`] takes no timestamps at all, so the same replay
//! code runs traced and untraced and the difference is the overhead.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept in memory for the trace file (about 4 MB of JSON);
/// aggregates keep counting past this cap.
const MAX_KEPT_SPANS: usize = 1 << 15;

/// Parent index of a span no root caused.
const NO_PARENT: u32 = u32::MAX;

/// One recorded span: a layer call made by the benchmark.
struct Span {
    name: &'static str,
    /// Index of the root span (one replayed request) that caused it.
    parent: u32,
    start_ns: u64,
    end_ns: u64,
    /// Units of work the call did (keys, batches, edges, ...).
    work: u64,
}

/// Totals of every span with one name.
#[derive(Default, Clone, Copy)]
pub struct Agg {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration in nanoseconds.
    pub ns: u64,
    /// Summed work units.
    pub work: u64,
}

impl Agg {
    /// Mean nanoseconds per unit of work.
    pub fn ns_per_work(&self) -> f64 {
        self.ns as f64 / self.work.max(1) as f64
    }

    /// Mean nanoseconds per span.
    pub fn ns_per_span(&self) -> f64 {
        self.ns as f64 / self.count.max(1) as f64
    }
}

/// In-memory span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    root: u32,
    aggs: BTreeMap<&'static str, Agg>,
}

/// A started span: `None` when the tracer is disabled.
pub type Started = Option<Instant>;

impl Tracer {
    /// A recorder; a disabled one records nothing and reads no clock.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            root: NO_PARENT,
            aggs: BTreeMap::new(),
        }
    }

    /// Turn recording on or off (the overhead comparison flips this).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Open a span.
    #[inline]
    pub fn start(&self) -> Started {
        self.enabled.then(Instant::now)
    }

    /// Close a span opened by [`Tracer::start`].
    #[inline]
    pub fn end(&mut self, name: &'static str, started: Started, work: u64) {
        let Some(t0) = started else { return };
        let span = self.close(name, t0, work, self.root);
        if self.spans.len() < MAX_KEPT_SPANS {
            self.spans.push(span);
        }
    }

    /// Time `f` as one span.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, work: u64, f: impl FnOnce() -> R) -> R {
        let t = self.start();
        let r = f();
        self.end(name, t, work);
        r
    }

    /// Open the root span of one replayed request: spans closed before
    /// [`Tracer::end_root`] name it as their parent.
    pub fn root(&mut self) -> Started {
        let t = self.start();
        if t.is_some() && self.spans.len() < MAX_KEPT_SPANS {
            self.root = self.spans.len() as u32;
            // Placeholder, filled in by `end_root`.
            self.spans.push(Span {
                name: "",
                parent: NO_PARENT,
                start_ns: 0,
                end_ns: 0,
                work: 0,
            });
        }
        t
    }

    /// Close the root span opened by [`Tracer::root`].
    pub fn end_root(&mut self, name: &'static str, started: Started, work: u64) {
        let Some(t0) = started else { return };
        let root = std::mem::replace(&mut self.root, NO_PARENT);
        let span = self.close(name, t0, work, NO_PARENT);
        if let Some(slot) = self.spans.get_mut(root as usize) {
            *slot = span;
        }
    }

    fn close(&mut self, name: &'static str, t0: Instant, work: u64, parent: u32) -> Span {
        let start_ns = t0.duration_since(self.epoch).as_nanos() as u64;
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let agg = self.aggs.entry(name).or_default();
        agg.count += 1;
        agg.ns += end_ns - start_ns;
        agg.work += work;
        Span {
            name,
            parent,
            start_ns,
            end_ns,
            work,
        }
    }

    /// Totals for `name` (zero if never recorded).
    pub fn agg(&self, name: &str) -> Agg {
        self.aggs.get(name).copied().unwrap_or_default()
    }

    /// The kept spans as JSON lines: name, parent index, start and end
    /// (ns since the tracer started), work.
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 64);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"work\":{}}}",
                s.name, s.start_ns, s.end_ns, s.work
            );
        }
        out
    }
}

/// Nearest-rank percentile of `samples` (sorts in place); `q` in (0, 1].
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of `samples` (sorts in place).
pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Mean of `samples`.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// Reads the share of CPU time the hypervisor stole from this machine
/// (the `steal` column of `/proc/stat`) since it was started.
pub struct StealMeter {
    start: Option<(u64, u64)>,
}

fn steal_and_total() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    // user nice system idle iowait irq softirq steal (guest time is
    // already counted in user).
    let fields: Vec<u64> = line
        .split_whitespace()
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.len() == 8).then(|| (fields[7], fields.iter().sum()))
}

impl StealMeter {
    pub fn start() -> Self {
        StealMeter {
            start: steal_and_total(),
        }
    }

    /// Stolen share of CPU time since [`StealMeter::start`]; 0 where
    /// `/proc/stat` cannot be read.
    pub fn share(&self) -> f64 {
        match (self.start, steal_and_total()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
            _ => 0.0,
        }
    }
}

/// Samples of one quantity in windows of load (one slice each), with the
/// CPU share the hypervisor stole during each window.
#[derive(Default)]
pub struct Windows {
    windows: Vec<(Vec<f64>, f64)>,
}

impl Windows {
    /// Record one window's samples.
    pub fn push(&mut self, samples: Vec<f64>, steal: f64) {
        if !samples.is_empty() {
            self.windows.push((samples, steal));
        }
    }

    /// The median, over the quietest quarter of the windows, of each
    /// window's `q` percentile. Quietest means least CPU stolen by the
    /// hypervisor: other tenants of the host only ever make a window
    /// slower, and their share comes and goes in bursts, so this keeps
    /// their noise out while a change to the program moves every window.
    pub fn quiet_percentile(&mut self, q: f64) -> f64 {
        let mut steal: Vec<f64> = self.windows.iter().map(|w| w.1).collect();
        let cut = percentile(&mut steal, 0.25);
        let mut per_window: Vec<f64> = self
            .windows
            .iter_mut()
            .filter(|w| w.1 <= cut)
            .map(|w| percentile(&mut w.0, q))
            .collect();
        median(&mut per_window)
    }

    /// Mean of every sample.
    pub fn mean(&self) -> f64 {
        let n: usize = self.windows.iter().map(|w| w.0.len()).sum();
        self.windows.iter().flat_map(|w| &w.0).sum::<f64>() / n.max(1) as f64
    }
}
