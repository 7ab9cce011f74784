//! In-memory host-clock spans for the traced run.
//!
//! Each thread (the main thread, or one simulated rank) records into its
//! own [`SpanLog`]; logs are merged once the recording threads have joined
//! and written out when the benchmark ends. A span is one call into a
//! layer's public function, made from this benchmark's own code.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval (nanoseconds since the run's epoch).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Public call the span wraps, e.g. `distfft.execute.fwd`.
    pub name: &'static str,
    /// Module the call belongs to (`fftkern`, `distfft`, `mpisim`, or
    /// `perfbench` for the benchmark's own step and replay spans).
    pub layer: &'static str,
    /// Simulated rank the span ran on, if any.
    pub rank: Option<usize>,
    /// Step (or replay iteration) the span belongs to.
    pub step: u64,
    /// Index of the enclosing span in the same log.
    pub parent: Option<usize>,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// Handle of an open span; `None` when tracing is off.
pub type SpanId = Option<usize>;

/// A per-thread span recorder. Disabled logs record nothing and cost one
/// branch per call.
#[derive(Debug, Clone)]
pub struct SpanLog {
    epoch: Instant,
    rank: Option<usize>,
    enabled: bool,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log measuring from `epoch`, tagging spans with `rank`.
    pub fn new(epoch: Instant, rank: Option<usize>, enabled: bool) -> SpanLog {
        SpanLog {
            epoch,
            rank,
            enabled,
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off for subsequent spans.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span.
    pub fn enter(
        &mut self,
        name: &'static str,
        layer: &'static str,
        step: u64,
        parent: SpanId,
    ) -> SpanId {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            rank: self.rank,
            step,
            parent,
            start_ns,
            end_ns: 0,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`SpanLog::enter`].
    pub fn exit(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        step: u64,
        parent: SpanId,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.enter(name, layer, step, parent);
        let out = f();
        self.exit(id);
        out
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another log's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover (children of one span never overlap: each log is one
    /// thread).
    pub fn self_ms(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::ms).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.ms();
            }
        }
        own
    }

    /// Per-step sum of the self time of `layer`'s spans under root spans
    /// named `root`, on the rank whose root span took longest in that step
    /// (the rank the step waited for). One value per step, in step order.
    pub fn layer_self_per_step(&self, root: &str, layer: &str) -> Vec<f64> {
        let own = self.self_ms();
        // Parents precede their children in a log, so one pass finds roots.
        let mut root_of: Vec<usize> = Vec::with_capacity(self.spans.len());
        for (i, s) in self.spans.iter().enumerate() {
            let r = s.parent.map_or(i, |p| root_of[p]);
            root_of.push(r);
        }
        let mut layer_ms = vec![0.0; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if s.layer == layer {
                layer_ms[root_of[i]] += own[i];
            }
        }
        let mut critical: std::collections::BTreeMap<u64, usize> = Default::default();
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_none() && s.name == root {
                let slot = critical.entry(s.step).or_insert(i);
                if s.ms() > self.spans[*slot].ms() {
                    *slot = i;
                }
            }
        }
        critical.values().map(|&r| layer_ms[r]).collect()
    }

    /// JSON array of every span (one object per line).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |x| x.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"rank\":{},\"step\":{},\
                 \"parent\":{},\"start_ns\":{},\"end_ns\":{}}}{}",
                s.name,
                s.layer,
                opt(s.rank),
                s.step,
                opt(s.parent),
                s.start_ns,
                s.end_ns,
                if i + 1 < self.spans.len() {
                    ",\n"
                } else {
                    "\n"
                }
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_picks_the_critical_rank() {
        let epoch = Instant::now();
        let mut log = SpanLog::new(epoch, Some(0), true);
        let root = log.enter("step", "perfbench", 0, None);
        log.time("x", "distfft", 0, root, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        log.exit(root);
        let own = log.self_ms();
        assert!(own[0] >= 0.0 && own[0] < log.spans()[0].ms());
        let per_step = log.layer_self_per_step("step", "distfft");
        assert_eq!(per_step.len(), 1);
        assert!(per_step[0] >= 2.0);
        let mut merged = SpanLog::new(epoch, None, true);
        merged.enter("other", "perfbench", 0, None);
        merged.absorb(log);
        assert_eq!(merged.spans()[2].parent, Some(1));
    }
}
