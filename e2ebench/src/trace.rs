//! Spans recorded from outside the program: around each public call the
//! harness makes, plus the `TrainEvent`s the trainer's `TrainObserver`
//! interface already emits. Kept in memory and written once at the end.

use srclda_obs::{TrainEvent, TrainObserver};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub parent: Option<usize>,
    pub name: &'static str,
    /// Phase or request id.
    pub tag: String,
    /// Seconds since the run started.
    pub start: f64,
    pub end: f64,
}

/// Phase timer and span store. With `on == false` it still times phases
/// (the end-to-end metrics need that) but stores nothing.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<(usize, f64)>,
}

pub struct Open {
    id: usize,
    start: f64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Seconds since the run started.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    pub fn at(&self, instant: Instant) -> f64 {
        instant.duration_since(self.origin).as_secs_f64()
    }

    pub fn begin(&mut self, name: &'static str, tag: impl Into<String>) -> Open {
        let start = self.now();
        let id = self.spans.len();
        if self.on {
            let parent = self.stack.last().map(|&(p, _)| p);
            self.spans.push(Span {
                parent,
                name,
                tag: tag.into(),
                start,
                end: start,
            });
            self.stack.push((id, start));
        }
        Open { id, start }
    }

    /// Close a span; returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let end = self.now();
        if self.on {
            self.spans[open.id].end = end;
            self.stack.retain(|&(id, _)| id != open.id);
        }
        end - open.start
    }

    /// Time `f` as a span; returns its value and duration.
    pub fn time<T>(&mut self, name: &'static str, tag: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin(name, tag);
        let out = f();
        let secs = self.end(open);
        (out, secs)
    }

    /// Record a finished span under the innermost open span.
    pub fn record(&mut self, name: &'static str, tag: impl Into<String>, start: f64, end: f64) {
        if self.on {
            let parent = self.stack.last().map(|&(p, _)| p);
            self.spans.push(Span {
                parent,
                name,
                tag: tag.into(),
                start,
                end,
            });
        }
    }

    /// Span duration minus the part of it that its children cover.
    pub fn self_time(&self, id: usize) -> f64 {
        let span = &self.spans[id];
        let mut children: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start.max(span.start), s.end.min(span.end)))
            .collect();
        children.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut reach = span.start;
        for (s, e) in children {
            let s = s.max(reach);
            if e > s {
                covered += e - s;
                reach = e;
            }
        }
        (span.end - span.start) - covered
    }

    /// Write every span as one JSON line, with its self time.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"tag\":\"{}\",\
                 \"start\":{:.6},\"end\":{:.6},\"self\":{:.6}}}",
                s.name,
                s.tag,
                s.start,
                s.end,
                self.self_time(id)
            )?;
        }
        out.flush()
    }
}

/// A `TrainObserver` that keeps every event with its arrival time.
pub struct EventLog {
    origin: Instant,
    pub events: Vec<(f64, TrainEvent)>,
}

impl EventLog {
    pub fn new(tracer: &Tracer) -> Self {
        EventLog {
            origin: tracer.origin,
            events: Vec::new(),
        }
    }

    /// Fold the events into spans under the innermost open span.
    pub fn fold_into(&self, tracer: &mut Tracer, tag: &str) {
        for (t, ev) in &self.events {
            match ev {
                TrainEvent::Sweep { duration_secs, .. } => {
                    tracer.record("sampler.sweep", tag, t - duration_secs, *t)
                }
                TrainEvent::ShardSweep { timings, .. } => {
                    tracer.record("shard.merge", tag, t - timings.merge_secs, *t);
                }
                TrainEvent::Adapt { duration_secs, .. } => {
                    tracer.record("adapt", tag, t - duration_secs, *t)
                }
                TrainEvent::Checkpoint { duration_secs, .. } => {
                    tracer.record("checkpoint", tag, t - duration_secs, *t)
                }
                _ => {}
            }
        }
    }
}

impl TrainObserver for EventLog {
    fn on_event(&mut self, event: &TrainEvent) {
        let t = self.origin.elapsed().as_secs_f64();
        self.events.push((t, event.clone()));
    }
}
