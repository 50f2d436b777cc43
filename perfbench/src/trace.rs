//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only around the public library calls the benchmark
//! makes, on the thread that makes them. Nothing is written while the
//! workload runs; [`finish`] hands back every span once it is over, and
//! [`summarize`] turns them into per-name counts, total time and self
//! time (a span's duration minus the part covered by its children).

use serde::Serialize;
use std::cell::RefCell;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root span.
    pub parent: Option<usize>,
    /// Shared by every span of one unit of work (a run, a scenario, a
    /// request).
    pub unit: u64,
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    unit: u64,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread (discarding anything recorded before).
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: crate::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            unit: 0,
        });
    });
}

/// Stops recording on this thread and returns the spans in start order.
pub fn finish() -> Vec<Span> {
    RECORDER.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.spans)
            .unwrap_or_default()
    })
}

/// Sets the unit id stamped on spans opened from now on.
pub fn set_unit(unit: u64) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.unit = unit;
        }
    });
}

/// Runs `f` inside a span called `name` (just runs it when not recording).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let opened = RECORDER.with(|r| {
        let mut guard = r.borrow_mut();
        let rec = guard.as_mut()?;
        let idx = rec.spans.len();
        let start_ns = elapsed_ns(rec.epoch);
        rec.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: rec.open.last().copied(),
            unit: rec.unit,
        });
        rec.open.push(idx);
        Some(idx)
    });
    let out = f();
    if let Some(idx) = opened {
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[idx].end_ns = elapsed_ns(rec.epoch);
                rec.open.pop();
            }
        });
    }
    out
}

/// Records an interval measured elsewhere (e.g. a request from its
/// scheduled send to its reply) as a span of `unit`.
pub fn record(name: &'static str, start: Instant, end: Instant, unit: u64) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let ns = |t: Instant| {
                u64::try_from(t.saturating_duration_since(rec.epoch).as_nanos()).unwrap_or(u64::MAX)
            };
            let span = Span {
                name,
                start_ns: ns(start),
                end_ns: ns(end).max(ns(start)),
                parent: rec.open.last().copied(),
                unit,
            };
            rec.spans.push(span);
        }
    });
}

/// Appends `more` (recorded after a later [`start`]) to `spans`, keeping
/// parent links valid.
pub fn append(spans: &mut Vec<Span>, more: Vec<Span>) {
    let offset = spans.len();
    spans.extend(more.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + offset);
        s
    }));
}

/// Durations in microseconds of every span called `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect()
}

fn elapsed_ns(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Per-name aggregate of a span list.
#[derive(Debug, Clone, Default)]
pub struct Layer {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Layer {
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }

    /// Mean duration per span in microseconds (0 when never called).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / 1e3 / self.count as f64
        }
    }
}

/// Aggregates spans by name, in first-seen order.
pub fn summarize(spans: &[Span]) -> Vec<(&'static str, Layer)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: Vec<(&'static str, Layer)> = Vec::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let dur = s.end_ns - s.start_ns;
        let i = match out.iter().position(|(n, _)| *n == s.name) {
            Some(i) => i,
            None => {
                out.push((s.name, Layer::default()));
                out.len() - 1
            }
        };
        let layer = &mut out[i].1;
        layer.count += 1;
        layer.total_ns += dur;
        layer.self_ns += dur.saturating_sub(children);
    }
    out
}

/// The aggregate for `name` (all zeros if it never ran).
pub fn layer(summary: &[(&'static str, Layer)], name: &str) -> Layer {
    summary
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, l)| l.clone())
        .unwrap_or_default()
}

/// Writes spans as JSON lines, one span per line; `parent` is the
/// zero-based line number of the enclosing span.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> Result<(), String> {
    let mut text = String::with_capacity(spans.len() * 96);
    for s in spans {
        text.push_str(&serde_json::to_string(s).map_err(|e| e.to_string())?);
        text.push('\n');
    }
    std::fs::write(path, text).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        start();
        set_unit(7);
        span("outer", || {
            span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.unit == 7));
        let sum = summarize(&spans);
        let outer = layer(&sum, "outer");
        let inner = layer(&sum, "inner");
        assert_eq!(outer.self_ns + inner.total_ns, outer.total_ns);
    }
}
