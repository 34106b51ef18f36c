//! Relaxed-atomic counters, gauges, histograms, and the metric registry.
//!
//! Everything here is lock-free on the hot path: a [`Counter`] add, a
//! [`Gauge`] update, or a [`LatencyHistogram`] record is a relaxed atomic
//! operation on a handle resolved at registration, so instrumented code
//! never contends with itself. The [`Registry`] owns the family metadata
//! (name, help, kind, labels) behind a mutex that is only taken at
//! registration and render time — never per observation.

use crate::histogram::LatencyHistogram;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// A monotonically increasing relaxed-atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A relaxed-atomic gauge holding an `f64` (stored as its bit pattern).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Atomically add `delta` (negative to lower the gauge).
    pub fn add(&self, delta: f64) {
        self.update(|v| Some(v + delta));
    }

    /// Atomically add one unless the gauge already holds `cap` or more;
    /// returns whether it did. `f64::INFINITY` never refuses. One CAS
    /// loop, so the cap holds exactly with every caller racing.
    pub fn try_inc(&self, cap: f64) -> bool {
        self.update(|v| (v < cap).then_some(v + 1.0))
    }

    fn update(&self, f: impl Fn(f64) -> Option<f64>) -> bool {
        self.0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                f(f64::from_bits(bits)).map(f64::to_bits)
            })
            .is_ok()
    }
}

/// A wall-clock span: start it, read elapsed seconds (or nanos) when the
/// spanned work finishes. Reading does not consume the timer.
#[derive(Debug, Clone, Copy)]
pub struct SpanTimer(Instant);

impl SpanTimer {
    /// Start timing now.
    pub fn start() -> Self {
        Self(Instant::now())
    }

    /// Elapsed seconds since [`SpanTimer::start`].
    pub fn elapsed_secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// Elapsed whole nanoseconds (saturating at `u64::MAX`).
    pub fn elapsed_nanos(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[derive(Debug, Clone)]
enum Metric {
    /// A counter rendered as `get() * scale` — scale `1.0` for plain
    /// counts, `1e-9` for counters accumulating nanoseconds but exposed
    /// as `_seconds_total`.
    Counter(Arc<Counter>, f64),
    Gauge(Arc<Gauge>),
    Histogram(Arc<LatencyHistogram>),
}

impl Metric {
    /// The Prometheus `# TYPE` of the metric's family.
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(..) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug)]
struct Sample {
    labels: Vec<(String, String)>,
    metric: Metric,
}

#[derive(Debug)]
struct Family {
    name: String,
    help: String,
    kind: &'static str,
    samples: Vec<Sample>,
}

/// A named collection of metric families, renderable as Prometheus text
/// exposition. Registration is idempotent: asking for an existing
/// `(name, labels)` pair returns the already-registered handle.
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Family>> {
        self.families.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Return the metric registered under `(name, labels)`, registering
    /// `fresh` there first if there is none.
    fn register(&self, name: &str, help: &str, labels: &[(&str, &str)], fresh: Metric) -> Metric {
        let mut families = self.lock();
        let index = match families.iter().position(|f| f.name == name) {
            Some(i) => i,
            None => {
                families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    kind: fresh.kind(),
                    samples: Vec::new(),
                });
                families.len() - 1
            }
        };
        let family = &mut families[index];
        assert_eq!(
            family.kind,
            fresh.kind(),
            "metric {name:?} registered with two kinds"
        );
        let same_labels = |s: &&Sample| {
            s.labels.len() == labels.len()
                && s.labels
                    .iter()
                    .zip(labels)
                    .all(|((k, v), (lk, lv))| k == lk && v == lv)
        };
        if let Some(existing) = family.samples.iter().find(same_labels) {
            return existing.metric.clone();
        }
        family.samples.push(Sample {
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            metric: fresh.clone(),
        });
        fresh
    }

    /// Register (or fetch) a counter sample.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.counter_scaled(name, help, labels, 1.0)
    }

    /// Register (or fetch) a counter whose rendered value is
    /// `get() * scale` — e.g. a nanosecond accumulator exposed as a
    /// `_seconds_total` family with `scale = 1e-9`.
    pub fn counter_scaled(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        scale: f64,
    ) -> Arc<Counter> {
        match self.register(name, help, labels, Metric::Counter(Arc::default(), scale)) {
            Metric::Counter(c, _) => c,
            _ => unreachable!("a counter family holds only counters"),
        }
    }

    /// Register (or fetch) a gauge sample.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.register(name, help, labels, Metric::Gauge(Arc::default())) {
            Metric::Gauge(g) => g,
            _ => unreachable!("a gauge family holds only gauges"),
        }
    }

    /// Register (or fetch) a latency histogram sample, rendered in
    /// seconds as `_bucket{le=…}`, `_sum`, and `_count` lines.
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Arc<LatencyHistogram> {
        match self.register(name, help, labels, Metric::Histogram(Arc::default())) {
            Metric::Histogram(h) => h,
            _ => unreachable!("a histogram family holds only histograms"),
        }
    }

    /// True when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Render every family as Prometheus text exposition
    /// (`text/plain; version=0.0.4`), in registration order.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// [`Registry::render`] appending into an existing buffer (so a
    /// caller can follow it with families it reads live at scrape time).
    pub fn render_into(&self, out: &mut String) {
        let mut text = crate::prom::PromText::wrap(out);
        for family in self.lock().iter() {
            text.header(&family.name, &family.help, family.kind);
            for sample in &family.samples {
                let labels: Vec<(&str, &str)> = sample
                    .labels
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.as_str()))
                    .collect();
                match &sample.metric {
                    Metric::Counter(c, scale) => {
                        text.sample(&family.name, &labels, c.get() as f64 * scale)
                    }
                    Metric::Gauge(g) => text.sample(&family.name, &labels, g.get()),
                    Metric::Histogram(h) => text.histogram(
                        &family.name,
                        &labels,
                        &h.prometheus_buckets(),
                        h.sum_secs(),
                        h.count(),
                    ),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_register_and_render() {
        let r = Registry::new();
        assert!(r.is_empty());
        let c = r.counter("srclda_test_total", "A test counter.", &[]);
        c.add(3);
        c.inc();
        let labeled = r.counter("srclda_labeled_total", "Labeled.", &[("bucket", "word")]);
        labeled.add(7);
        let g = r.gauge("srclda_test_gauge", "A gauge.", &[]);
        g.set(-2.5);
        let secs = r.counter_scaled("srclda_test_seconds_total", "Seconds.", &[], 1e-9);
        secs.add(1_500_000_000);
        let held = r.gauge("srclda_test_held", "A capped gauge.", &[]);
        assert!(held.try_inc(2.0) && held.try_inc(2.0));
        assert!(!held.try_inc(2.0), "the cap refuses a third increment");
        held.add(-1.0);
        assert!(held.try_inc(f64::INFINITY));
        let h = r.histogram("srclda_test_seconds", "A histogram.", &[]);
        h.record(std::time::Duration::from_millis(3));
        let text = r.render();
        assert!(text.contains("# HELP srclda_test_total A test counter.\n"));
        assert!(text.contains("# TYPE srclda_test_total counter\n"));
        assert!(
            text.contains("\nsrclda_test_total 4\n") || text.starts_with("srclda_test_total 4")
        );
        assert!(text.contains("srclda_labeled_total{bucket=\"word\"} 7\n"));
        assert!(text.contains("srclda_test_gauge -2.5\n"));
        assert!(text.contains("srclda_test_seconds_total 1.5\n"));
        assert!(text.contains("srclda_test_held 2\n"));
        assert!(text.contains("# TYPE srclda_test_seconds histogram\n"));
        assert!(text.contains("srclda_test_seconds_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("srclda_test_seconds_count 1\n"));
        assert_eq!(crate::validate_exposition(&text).map(|n| n > 16), Ok(true));
    }

    #[test]
    fn registration_is_idempotent() {
        let r = Registry::new();
        let a = r.counter("x_total", "X.", &[("m", "1")]);
        let b = r.counter("x_total", "X.", &[("m", "1")]);
        let other = r.counter("x_total", "X.", &[("m", "2")]);
        a.add(1);
        b.add(1);
        other.add(5);
        assert_eq!(a.get(), 2);
        let text = r.render();
        assert!(text.contains("x_total{m=\"1\"} 2\n"));
        assert!(text.contains("x_total{m=\"2\"} 5\n"));
        // One family header, two samples.
        assert_eq!(text.matches("# TYPE x_total counter").count(), 1);
    }

    #[test]
    fn span_timer_measures_forward_time() {
        let t = SpanTimer::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(t.elapsed_secs() > 0.0);
        assert!(t.elapsed_nanos() > 0);
    }
}
