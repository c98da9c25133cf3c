//! In-memory tracing from outside the program: spans around calls into
//! each layer's public functions, and a telemetry recorder that keeps the
//! counters the program already emits. Nothing is written until the run
//! ends.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

use crate::stats::{self, SpanRec};

thread_local! {
    /// Open spans of the current thread, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Collects spans from any thread; nesting is tracked per thread.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the trace origin.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of the innermost span
    /// open on this thread.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let parent = OPEN.with(|open| open.borrow().last().copied());
        let start = self.now();
        let id = {
            let mut spans = self.spans.lock().expect("trace lock");
            spans.push(SpanRec {
                name,
                start,
                end: start,
                parent,
            });
            spans.len() - 1
        };
        OPEN.with(|open| open.borrow_mut().push(id));
        let out = f();
        OPEN.with(|open| open.borrow_mut().pop());
        let end = self.now();
        self.spans.lock().expect("trace lock")[id].end = end;
        out
    }

    /// Records an already-measured interval as a root span.
    pub fn record(&self, name: &'static str, start: u64, end: u64) {
        self.spans.lock().expect("trace lock").push(SpanRec {
            name,
            start,
            end,
            parent: None,
        });
    }

    /// Drains the spans recorded so far into per-name self-time totals.
    pub fn take(&self) -> Stages {
        let spans = std::mem::take(&mut *self.spans.lock().expect("trace lock"));
        let selfs = stats::self_times(&spans);
        let mut stages = Stages::default();
        for (span, self_ns) in spans.iter().zip(selfs) {
            let e = stages.by_name.entry(span.name).or_default();
            e.push(self_ns as f64 * 1e-9);
        }
        stages
    }
}

/// Self times (seconds) of every span drained from a [`Tracer`], by name.
#[derive(Debug, Default)]
pub struct Stages {
    by_name: HashMap<&'static str, Vec<f64>>,
}

impl Stages {
    /// Total self seconds of spans named `name`.
    #[must_use]
    pub fn total(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |v| v.iter().sum())
    }

    /// Number of spans named `name`.
    #[must_use]
    pub fn count(&self, name: &str) -> usize {
        self.by_name.get(name).map_or(0, Vec::len)
    }

    /// Self times of the spans named `name`, in recording order.
    #[must_use]
    pub fn samples(&self, name: &str) -> &[f64] {
        self.by_name.get(name).map_or(&[][..], Vec::as_slice)
    }

    /// Adds another drain's spans to this one.
    pub fn merge(&mut self, other: &Stages) {
        for (name, samples) in &other.by_name {
            self.by_name
                .entry(name)
                .or_default()
                .extend_from_slice(samples);
        }
    }

    /// Total self seconds of every span.
    #[must_use]
    pub fn all_total(&self) -> f64 {
        self.by_name.values().flatten().sum()
    }
}

/// Keeps the program's own telemetry counters (nn GEMM calls, serve
/// counters) in memory; gauges, histograms and events are ignored.
#[derive(Debug, Default)]
pub struct Counters {
    counts: Mutex<HashMap<String, u64>>,
}

impl Counters {
    /// Current value of counter `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> u64 {
        self.counts
            .lock()
            .expect("counter lock")
            .get(name)
            .copied()
            .unwrap_or(0)
    }
}

impl telemetry::Recorder for Counters {
    fn counter(&self, name: &str, delta: u64) {
        let mut counts = self.counts.lock().expect("counter lock");
        match counts.get_mut(name) {
            Some(v) => *v += delta,
            None => {
                counts.insert(name.to_string(), delta);
            }
        }
    }
    fn gauge(&self, _name: &str, _value: f64) {}
    fn observe(&self, _name: &str, _value: f64) {}
    fn event(&self, _name: &str, _data: telemetry::Value) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_per_thread_and_self_time_excludes_children() {
        let tracer = Tracer::default();
        let wall = Instant::now();
        tracer.span("outer", || {
            std::thread::sleep(std::time::Duration::from_millis(4));
            tracer.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(8))
            });
        });
        let wall = wall.elapsed().as_secs_f64();
        std::thread::scope(|s| {
            s.spawn(|| tracer.span("other", || ()));
        });
        let stages = tracer.take();
        assert_eq!(stages.count("outer"), 1);
        assert_eq!(stages.count("other"), 1);
        let (outer, inner) = (stages.total("outer"), stages.total("inner"));
        assert!(inner >= 0.008, "inner {inner}");
        assert!(outer >= 0.004, "outer self {outer}");
        assert!(outer + inner <= wall, "{outer} + {inner} > {wall}");
        assert_eq!(tracer.take().count("outer"), 0, "take drains");
    }
}
