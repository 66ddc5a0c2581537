//! In-memory span recording around calls into the program's layers.
//!
//! A span is a name, a start, an end and the span that caused it (its
//! parent). Spans stay in memory until the run ends; a layer's *self
//! time* is its spans' durations minus the part covered by their child
//! spans. The same composition runs once with recording on and once
//! with it off; the difference of the two totals is the tracing
//! overhead.

use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
}

/// Records nested spans; with recording off, [`Tracer::span`] only runs
/// its closure.
#[derive(Debug)]
pub struct Tracer {
    recording: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records when `recording` is set.
    pub fn new(recording: bool) -> Self {
        Tracer {
            recording,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.recording {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.epoch.elapsed(),
            end: Duration::ZERO,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.epoch.elapsed();
        out
    }

    /// Summed duration of the spans named `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Summed self time of the spans named `name`: their durations minus
    /// the durations of their direct children.
    pub fn self_time(&self, name: &str) -> Duration {
        let mut children = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.end - s.start;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| (s.end - s.start).saturating_sub(children[i]))
            .sum()
    }

    /// Durations of the individual spans named `name`, in start order.
    pub fn durations(&self, name: &str) -> Vec<Duration> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            std::thread::sleep(Duration::from_millis(5));
            t.span("inner", |_| std::thread::sleep(Duration::from_millis(20)));
        });
        let outer = t.total("outer");
        let inner = t.total("inner");
        assert!(inner >= Duration::from_millis(20));
        assert!(outer >= inner + Duration::from_millis(5));
        assert_eq!(t.self_time("outer"), outer - inner);
        assert_eq!(t.self_time("inner"), inner);
        assert_eq!(t.durations("outer").len(), 1);
    }

    #[test]
    fn disabled_tracer_runs_closures_without_recording() {
        let mut t = Tracer::new(false);
        let v = t.span("x", |t| t.span("y", |_| 7));
        assert_eq!(v, 7);
        assert!(t.durations("x").is_empty());
        assert_eq!(t.total("y"), Duration::ZERO);
    }
}
