//! Serving metrics: typed handles into the server's
//! [`srclda_obs::Registry`], registered once per server.
//!
//! Recording is a relaxed atomic operation on a handle resolved at
//! registration, so metrics never contend with the request path. Both
//! `/metrics` shapes read these handles: the Prometheus body is the
//! registry's own rendering, and the JSON body reads the same counters,
//! so the two expositions can never drift apart.

use std::sync::{Arc, Mutex};
use std::time::{Duration, SystemTime};

use srclda_obs::{Counter, Gauge, LatencyHistogram, Registry};

fn nanos(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
}

/// RAII guard holding a gauge one higher while a connection, an admitted
/// `/infer` request, or a per-model request is in progress. Dropping it
/// (on any exit path, including errors) releases it.
#[derive(Debug)]
pub struct GaugeGuard<'a>(&'a Gauge);

impl<'a> GaugeGuard<'a> {
    fn enter(gauge: &'a Gauge) -> Self {
        gauge.add(1.0);
        Self(gauge)
    }
}

impl Drop for GaugeGuard<'_> {
    fn drop(&mut self) {
        self.0.add(-1.0);
    }
}

/// Per-model serving handles, registered on the first request naming the
/// model and shared across workers via `Arc`.
#[derive(Debug)]
pub struct ModelStats {
    /// `/infer` requests naming this model.
    pub requests: Arc<Counter>,
    /// Requests currently inside the handler for this model.
    pub active: Arc<Gauge>,
    /// Nanoseconds of inference compute spent on this model.
    pub infer_nanos: Arc<Counter>,
}

impl ModelStats {
    /// Count one request and hold the active gauge up until the returned
    /// guard drops.
    pub fn begin(&self) -> GaugeGuard<'_> {
        self.requests.inc();
        GaugeGuard::enter(&self.active)
    }

    /// Add `elapsed` to the model's inference-compute accumulator.
    pub fn record_infer(&self, elapsed: Duration) {
        self.infer_nanos.add(nanos(elapsed));
    }
}

/// Aggregate serving handles, shared by all workers.
#[derive(Debug)]
pub struct Metrics {
    registry: Arc<Registry>,
    /// Requests received — routed ones plus unparseable ones that were
    /// answered with a 4xx, so this is always ≥ the sum of the response
    /// counters below.
    pub requests: Arc<Counter>,
    /// Responses with 2xx status.
    pub responses_ok: Arc<Counter>,
    /// Responses with 4xx status.
    pub responses_client_error: Arc<Counter>,
    /// Responses with 5xx status.
    pub responses_server_error: Arc<Counter>,
    /// Connections currently being serviced by a worker.
    pub active_connections: Arc<Gauge>,
    /// `/infer` requests currently inside the handler (all models) —
    /// the gauge the admission cap is enforced against.
    pub infer_inflight: Arc<Gauge>,
    /// `/infer` requests shed with 503 + `Retry-After` by admission
    /// control (in-flight cap or p99 threshold).
    pub shed_total: Arc<Counter>,
    /// Completed `/reload` operations (full or single-model).
    pub reloads: Arc<Counter>,
    /// Failed `/reload` operations — the old model kept serving.
    pub reload_failures: Arc<Counter>,
    /// Unix timestamp (whole seconds) of the last completed reload;
    /// zero until the first reload.
    pub last_reload_unix: Arc<Gauge>,
    /// Documents scored through `/infer`.
    pub infer_docs: Arc<Counter>,
    /// In-vocabulary tokens folded in through `/infer`.
    pub infer_tokens: Arc<Counter>,
    /// Nanoseconds spent inside inference (excludes socket I/O).
    pub infer_nanos: Arc<Counter>,
    /// End-to-end `/infer` handler latency.
    pub infer_latency: Arc<LatencyHistogram>,
    /// Per-model handles, keyed by model name. A `Vec` rather than a map:
    /// a daemon serves a handful of models, and scans stay trivially
    /// cheap at that size. The lock is taken only to look up or insert
    /// the `Arc` — never while counting, and never together with the
    /// registry's render lock except on a model's first request.
    models: Mutex<Vec<(String, Arc<ModelStats>)>>,
}

impl Metrics {
    /// Register the serving families into `registry`.
    pub fn new(registry: Arc<Registry>) -> Self {
        let responses = |class| {
            registry.counter(
                "srclda_serve_responses_total",
                "HTTP responses by status class.",
                &[("class", class)],
            )
        };
        Self {
            requests: registry.counter(
                "srclda_serve_requests_total",
                "HTTP requests received, including unroutable ones.",
                &[],
            ),
            responses_ok: responses("ok"),
            responses_client_error: responses("client_error"),
            responses_server_error: responses("server_error"),
            active_connections: registry.gauge(
                "srclda_serve_active_connections",
                "Connections currently being serviced.",
                &[],
            ),
            infer_inflight: registry.gauge(
                "srclda_serve_infer_inflight",
                "/infer requests currently inside the handler.",
                &[],
            ),
            shed_total: registry.counter(
                "srclda_serve_shed_total",
                "/infer requests shed with 503 + Retry-After by admission control.",
                &[],
            ),
            reloads: registry.counter(
                "srclda_serve_reloads_total",
                "Completed /reload operations.",
                &[],
            ),
            reload_failures: registry.counter(
                "srclda_serve_reload_failures_total",
                "Failed /reload operations (the old model kept serving).",
                &[],
            ),
            last_reload_unix: registry.gauge(
                "srclda_serve_last_reload_timestamp_seconds",
                "Unix time of the last completed reload (0 before the first).",
                &[],
            ),
            infer_docs: registry.counter(
                "srclda_serve_infer_docs_total",
                "Documents scored through /infer.",
                &[],
            ),
            infer_tokens: registry.counter(
                "srclda_serve_infer_tokens_total",
                "In-vocabulary tokens folded in through /infer.",
                &[],
            ),
            infer_nanos: registry.counter_scaled(
                "srclda_serve_infer_compute_seconds_total",
                "Seconds spent inside inference, excluding socket I/O.",
                &[],
                1e-9,
            ),
            infer_latency: registry.histogram(
                "srclda_serve_infer_latency_seconds",
                "End-to-end /infer handler latency.",
                &[],
            ),
            models: Mutex::default(),
            registry,
        }
    }

    /// The registry the handles live in — the server's one metrics
    /// store, rendered by the Prometheus shape of `GET /metrics`.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Count one response by status class.
    pub fn record_status(&self, status: u16) {
        match status {
            200..=299 => &self.responses_ok,
            400..=499 => &self.responses_client_error,
            _ => &self.responses_server_error,
        }
        .inc();
    }

    /// Record a completed `/infer` handler call.
    pub fn record_infer(&self, docs: u64, tokens: u64, elapsed: Duration) {
        self.infer_docs.add(docs);
        self.infer_tokens.add(tokens);
        self.infer_nanos.add(nanos(elapsed));
        self.infer_latency.record(elapsed);
    }

    /// Tokens per second of inference compute time (not wall-clock): total
    /// folded tokens over total in-handler nanoseconds.
    pub fn tokens_per_sec(&self) -> f64 {
        let nanos = self.infer_nanos.get();
        if nanos == 0 {
            return 0.0;
        }
        self.infer_tokens.get() as f64 / (nanos as f64 / 1e9)
    }

    /// Raise the active-connection gauge for the guard's lifetime.
    pub fn connection_guard(&self) -> GaugeGuard<'_> {
        GaugeGuard::enter(&self.active_connections)
    }

    fn lock_models(&self) -> std::sync::MutexGuard<'_, Vec<(String, Arc<ModelStats>)>> {
        self.models.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The handles for `model`, registering its `{model="…"}` samples on
    /// first sight.
    pub fn model(&self, model: &str) -> Arc<ModelStats> {
        let mut models = self.lock_models();
        if let Some((_, stats)) = models.iter().find(|(name, _)| name == model) {
            return stats.clone();
        }
        let labels = [("model", model)];
        let stats = Arc::new(ModelStats {
            requests: self.registry.counter(
                "srclda_serve_model_requests_total",
                "/infer requests by model.",
                &labels,
            ),
            active: self.registry.gauge(
                "srclda_serve_model_active_requests",
                "Requests currently in the handler, by model.",
                &labels,
            ),
            infer_nanos: self.registry.counter_scaled(
                "srclda_serve_model_infer_compute_seconds_total",
                "Inference-compute seconds by model.",
                &labels,
                1e-9,
            ),
        });
        models.push((model.to_string(), stats.clone()));
        stats
    }

    /// The handles for `model` if a request has named it.
    pub fn seen_model(&self, model: &str) -> Option<Arc<ModelStats>> {
        self.lock_models()
            .iter()
            .find(|(name, _)| name == model)
            .map(|(_, stats)| stats.clone())
    }

    /// Try to admit one `/infer` request under `cap`: `None` is
    /// unlimited (the gauge is still tracked), `Some(n)` admits at most
    /// `n` concurrent handlers — `Some(0)` sheds everything, which is
    /// how CI pins the shed path deterministically with one request.
    /// Admission is a single CAS loop, so the cap holds exactly even
    /// with every worker racing; `None` means the caller must shed.
    pub fn try_begin_infer(&self, cap: Option<usize>) -> Option<GaugeGuard<'_>> {
        let cap = cap.map_or(f64::INFINITY, |cap| cap as f64);
        // `then` (not `then_some`): the guard must only be constructed
        // when admitted — a refused temporary would run Drop and
        // decrement a gauge it never incremented.
        self.infer_inflight
            .try_inc(cap)
            .then(|| GaugeGuard(&self.infer_inflight))
    }

    /// Count one shed request.
    pub fn record_shed(&self) {
        self.shed_total.inc();
    }

    /// Count one failed reload (the old model keeps serving).
    pub fn record_reload_failure(&self) {
        self.reload_failures.inc();
    }

    /// Count one completed reload and stamp its wall-clock time.
    pub fn record_reload(&self) {
        self.reloads.inc();
        let unix = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        self.last_reload_unix.set(unix as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> Metrics {
        Metrics::new(Arc::new(Registry::new()))
    }

    #[test]
    fn render_prometheus_is_valid_exposition() {
        let m = metrics();
        m.requests.add(3);
        m.record_status(200);
        m.record_infer(2, 100, Duration::from_millis(10));
        m.record_reload();
        {
            let _conn = m.connection_guard();
            let wiki = m.model("wiki");
            let _guard = wiki.begin();
            wiki.record_infer(Duration::from_millis(4));
            let out = m.registry().render();
            srclda_obs::validate_exposition(&out).expect("valid exposition");
            assert!(out.contains("srclda_serve_requests_total 3\n"));
            assert!(out.contains("srclda_serve_active_connections 1\n"));
            assert!(out.contains("srclda_serve_reloads_total 1\n"));
            assert!(out.contains("srclda_serve_model_requests_total{model=\"wiki\"} 1\n"));
            assert!(out.contains("srclda_serve_model_active_requests{model=\"wiki\"} 1\n"));
            assert!(out.contains("srclda_serve_infer_latency_seconds_count 1\n"));
            assert!(out.contains("srclda_serve_infer_latency_seconds_bucket"));
        }
        // Guards released both gauges on drop.
        let out = m.registry().render();
        assert!(out.contains("srclda_serve_active_connections 0\n"));
        assert!(out.contains("srclda_serve_model_active_requests{model=\"wiki\"} 0\n"));
        assert!(out.contains("srclda_serve_last_reload_timestamp_seconds"));
    }

    #[test]
    fn inflight_cap_admits_exactly_n_and_guards_release() {
        let m = metrics();
        // Unlimited: always admitted, gauge tracked.
        {
            let a = m.try_begin_infer(None).expect("unlimited admits");
            let _b = m.try_begin_infer(None).expect("unlimited admits");
            assert_eq!(m.infer_inflight.get(), 2.0);
            drop(a);
            assert_eq!(m.infer_inflight.get(), 1.0);
        }
        assert_eq!(m.infer_inflight.get(), 0.0);
        // Cap 1: second concurrent request is refused until the first
        // guard drops.
        let first = m.try_begin_infer(Some(1)).expect("under cap");
        assert!(m.try_begin_infer(Some(1)).is_none());
        drop(first);
        assert!(m.try_begin_infer(Some(1)).is_some());
        // Cap 0 sheds everything — the deterministic CI configuration.
        assert!(m.try_begin_infer(Some(0)).is_none());
        m.record_shed();
        m.record_reload_failure();
        let out = m.registry().render();
        srclda_obs::validate_exposition(&out).expect("valid exposition");
        assert!(out.contains("srclda_serve_shed_total 1\n"));
        assert!(out.contains("srclda_serve_reload_failures_total 1\n"));
        assert!(out.contains("srclda_serve_infer_inflight 0\n"));
    }

    #[test]
    fn metrics_aggregate_infer_calls() {
        let m = metrics();
        m.record_infer(2, 100, Duration::from_millis(10));
        m.record_infer(1, 50, Duration::from_millis(5));
        assert_eq!(m.infer_docs.get(), 3);
        assert_eq!(m.infer_tokens.get(), 150);
        let tps = m.tokens_per_sec();
        assert!((tps - 10_000.0).abs() < 1.0, "tokens/sec = {tps}");
        assert_eq!(m.infer_latency.count(), 2);
    }

    #[test]
    fn status_classes_are_counted_separately() {
        let m = metrics();
        m.record_status(200);
        m.record_status(204);
        m.record_status(404);
        m.record_status(500);
        assert_eq!(m.responses_ok.get(), 2);
        assert_eq!(m.responses_client_error.get(), 1);
        assert_eq!(m.responses_server_error.get(), 1);
        assert_eq!(m.tokens_per_sec(), 0.0);
    }
}
