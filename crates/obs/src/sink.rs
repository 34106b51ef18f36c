//! File and stream sinks: JSONL event logs and human-readable progress
//! lines.

use crate::event::TrainEvent;
use crate::observer::TrainObserver;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Writes one JSON object per event, one event per line, to any
/// [`Write`] target. Lines follow the schema documented in the README's
/// Observability section and round-trip through [`crate::json::parse`],
/// the parser the serving daemon reads requests with.
pub struct JsonlSink<W: Write> {
    /// `None` only after [`JsonlSink::finish`] takes the writer.
    writer: Option<W>,
    /// First write error, if any — surfaced by [`JsonlSink::finish`].
    error: Option<io::Error>,
}

impl JsonlSink<BufWriter<File>> {
    /// Create (truncate) a JSONL file at `path`.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        Ok(Self::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wrap any writer.
    pub fn new(writer: W) -> Self {
        Self {
            writer: Some(writer),
            error: None,
        }
    }

    /// Flush and return the writer, surfacing any deferred write error.
    /// Observers cannot fail mid-sweep (the fit loop never unwinds for
    /// telemetry), so errors are held until the caller asks.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        let mut writer = self.writer.take().expect("writer present until finish");
        writer.flush()?;
        Ok(writer)
    }
}

impl<W: Write> TrainObserver for JsonlSink<W> {
    fn on_event(&mut self, event: &TrainEvent) {
        if self.error.is_some() {
            return;
        }
        let mut line = event.to_json();
        line.push('\n');
        if let Some(w) = self.writer.as_mut() {
            if let Err(e) = w.write_all(line.as_bytes()) {
                self.error = Some(e);
            }
        }
    }
}

impl<W: Write> Drop for JsonlSink<W> {
    fn drop(&mut self) {
        if let Some(w) = self.writer.as_mut() {
            let _ = w.flush();
        }
    }
}

/// Emits a one-line human-readable summary per sweep (plus fit
/// completion), suitable for a terminal while a long run trains.
pub struct ProgressSink<W: Write> {
    writer: W,
}

impl ProgressSink<io::Stderr> {
    /// Progress lines on standard error.
    pub fn stderr() -> Self {
        Self::new(io::stderr())
    }
}

impl<W: Write> ProgressSink<W> {
    /// Wrap any writer.
    pub fn new(writer: W) -> Self {
        Self { writer }
    }
}

impl<W: Write> TrainObserver for ProgressSink<W> {
    fn on_event(&mut self, event: &TrainEvent) {
        let line = match event {
            TrainEvent::Sweep {
                sweep,
                duration_secs,
                tokens_per_sec,
                loglik,
                ..
            } => {
                let ll = match loglik {
                    Some(ll) => format!(" loglik={ll:.2}"),
                    None => String::new(),
                };
                format!(
                    "sweep {sweep}: {:.1}ms, {:.0} tok/s{ll}",
                    duration_secs * 1e3,
                    tokens_per_sec
                )
            }
            TrainEvent::Adapt {
                sweep,
                duration_secs,
                threads,
            } => format!(
                "adapt @ sweep {sweep}: {:.1}ms on {threads} thread(s)",
                duration_secs * 1e3
            ),
            TrainEvent::Checkpoint {
                sweep,
                bytes,
                duration_secs,
            } => format!(
                "checkpoint @ sweep {sweep}: {bytes} bytes in {:.1}ms",
                duration_secs * 1e3
            ),
            TrainEvent::FitComplete {
                sweeps,
                duration_secs,
                tokens_per_sec,
                ..
            } => format!(
                "fit complete: {sweeps} sweeps in {duration_secs:.2}s ({tokens_per_sec:.0} tok/s)"
            ),
            TrainEvent::Perplexity {
                perplexity,
                rescued_draws,
                ..
            } => format!("perplexity {perplexity:.3} ({rescued_draws} rescued draws)"),
            // Bucket/shard detail stays in the JSONL stream.
            TrainEvent::SparseBuckets { .. } | TrainEvent::ShardSweep { .. } => return,
        };
        let _ = writeln!(self.writer, "{line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SparseBucketCounts;

    fn sweep(n: u64) -> TrainEvent {
        TrainEvent::Sweep {
            sweep: n,
            duration_secs: 0.25,
            tokens: 1000,
            tokens_per_sec: 4000.0,
            loglik: Some(-12.5),
            loglik_clamped_tokens: 0,
        }
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.on_event(&sweep(1));
        sink.on_event(&TrainEvent::SparseBuckets {
            sweep: 1,
            counts: SparseBucketCounts {
                q_hits: 9,
                r_hits: 1,
                s_hits: 0,
                dense_fallbacks: 0,
            },
        });
        let bytes = sink.finish().expect("no write errors");
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"event\":\"sweep\""));
        assert!(lines[1].starts_with("{\"event\":\"sparse_buckets\""));
        assert!(lines.iter().all(|l| l.ends_with('}')));
    }

    #[test]
    fn jsonl_sink_create_writes_file() {
        let dir = std::env::temp_dir().join("srclda_obs_sink_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let mut sink = JsonlSink::create(&path).unwrap();
        sink.on_event(&sweep(7));
        sink.finish().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"sweep\":7"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn progress_sink_renders_sweeps_and_skips_detail_events() {
        let mut buf = Vec::new();
        {
            let mut sink = ProgressSink::new(&mut buf);
            sink.on_event(&sweep(3));
            sink.on_event(&TrainEvent::SparseBuckets {
                sweep: 3,
                counts: SparseBucketCounts::default(),
            });
            sink.on_event(&TrainEvent::FitComplete {
                sweeps: 3,
                duration_secs: 0.75,
                tokens_per_sec: 4000.0,
                loglik_clamped_tokens: 0,
            });
        }
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("sweep 3: 250.0ms, 4000 tok/s loglik=-12.50"));
        assert!(text.contains("fit complete: 3 sweeps in 0.75s (4000 tok/s)"));
    }
}
