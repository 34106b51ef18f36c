//! The `srclda-served` network daemon: a long-lived process that holds
//! models resident and answers inference over HTTP/1.1 on a TCP socket.
//!
//! The ROADMAP workload is fold-in at serving time — exactly the shape
//! that belongs behind a daemon with caching and batching rather than a
//! one-shot CLI. The server is hand-rolled on `std::net::TcpListener`
//! (the workspace vendors no async runtime or HTTP stack) and kept
//! deliberately boring:
//!
//! * a **fixed worker pool**: `workers` OS threads, each accepting
//!   connections from the shared listener and running a keep-alive
//!   connection loop ([`http`]);
//! * **routing** to four endpoints — `POST /infer` (single doc or batch,
//!   JSON in/out), `GET /healthz`, `GET /metrics`, and `POST /reload`
//!   (hot-swap artifacts via the [`registry`]);
//! * **determinism end to end**: `/infer` calls the same
//!   [`InferenceEngine`](crate::InferenceEngine) batch path as
//!   `srclda-infer`, and θ is rendered with shortest-round-trip float
//!   formatting ([`json`]), so a response body carries *bit-identical*
//!   θ to the engine API on the same artifact;
//! * **graceful shutdown**: flip the [`ServerHandle`] (wired to
//!   SIGTERM/ctrl-c by the binary), workers finish their in-flight
//!   request, answer with `Connection: close`, and exit.

pub mod http;
pub mod json;
pub mod metrics;
pub mod registry;

use crate::engine::DocumentScore;
use crate::error::ServeError;
use http::{read_request, write_response, ReadError, Request};
use json::{obj, Value};
use metrics::Metrics;
use registry::{ModelEntry, ModelRegistry};
use srclda_obs::{Counter, PromText, Registry};
use std::io::{self, BufRead, BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// Connection worker threads (clamped to at least 1).
    pub workers: usize,
    /// Threads used per batch `/infer` request
    /// ([`InferenceEngine::infer_batch_parallel`](crate::InferenceEngine::infer_batch_parallel)).
    pub batch_workers: usize,
    /// Keep-alive connections idle longer than this are closed.
    pub idle_timeout: Duration,
    /// Poll granularity for accept and idle-read loops; bounds how long
    /// shutdown can lag behind the handle flip.
    pub poll_interval: Duration,
    /// Admission cap on concurrent `/infer` handlers: `None` is
    /// unlimited, `Some(n)` sheds request n+1 with 503 + `Retry-After`
    /// (`Some(0)` sheds every `/infer` — useful to pin the shed path in
    /// tests). The connection pool itself bounds *connections* at
    /// `workers`; this bounds the expensive inference work inside them.
    pub max_inflight: Option<usize>,
    /// Shed `/infer` when the p99 of the latency histogram exceeds this.
    /// The histogram is cumulative over the process lifetime, so after a
    /// genuine overload ends the p99 decays only as fast as new fast
    /// requests dilute the slow ones — a deliberate bias toward shedding
    /// too long rather than flapping. `None` disables the check.
    pub shed_p99: Option<Duration>,
    /// The `Retry-After` value (whole seconds) attached to shed
    /// responses.
    pub retry_after_secs: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".to_string(),
            workers: std::thread::available_parallelism().map_or(2, |n| n.get()),
            batch_workers: 1,
            idle_timeout: Duration::from_secs(10),
            poll_interval: Duration::from_millis(25),
            max_inflight: None,
            shed_p99: None,
            retry_after_secs: 1,
        }
    }
}

/// A remote control for a running server: flip it to begin graceful
/// shutdown, and read the shared metrics or mount more families into
/// them. Cloneable and thread-safe.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    shutdown: Arc<AtomicBool>,
    metrics: Arc<Metrics>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// Begin graceful shutdown: workers stop accepting, finish their
    /// in-flight request, and exit.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// True once shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// The server's shared metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The server's metric registry, rendered by the Prometheus shape of
    /// `GET /metrics`. A trainer in the same process mounts into it by
    /// building its [`srclda_obs::RegistryObserver`] on this registry, so
    /// one scrape covers training and serving.
    pub fn registry(&self) -> &Arc<Registry> {
        self.metrics.registry()
    }

    /// The bound socket address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

/// A bound-but-not-yet-running server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    registry: Arc<ModelRegistry>,
    metrics: Arc<Metrics>,
    shutdown: Arc<AtomicBool>,
    config: ServerConfig,
}

/// Everything a worker thread needs, shared by `Arc`.
struct WorkerCtx {
    registry: Arc<ModelRegistry>,
    metrics: Arc<Metrics>,
    shutdown: Arc<AtomicBool>,
    config: ServerConfig,
}

impl Server {
    /// Bind the listen socket.
    ///
    /// # Errors
    /// Address parse/bind failures.
    pub fn bind(config: ServerConfig, registry: Arc<ModelRegistry>) -> Result<Self, ServeError> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let metrics = Arc::new(Metrics::new(Arc::new(Registry::new())));
        Ok(Self {
            listener,
            registry,
            metrics,
            shutdown,
            config,
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    ///
    /// # Errors
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> Result<SocketAddr, ServeError> {
        Ok(self.listener.local_addr()?)
    }

    /// A handle for shutdown and metrics, usable from any thread.
    ///
    /// # Errors
    /// Propagates the socket address query failure.
    pub fn handle(&self) -> Result<ServerHandle, ServeError> {
        Ok(ServerHandle {
            shutdown: self.shutdown.clone(),
            metrics: self.metrics.clone(),
            addr: self.local_addr()?,
        })
    }

    /// Run the worker pool until shutdown is requested. Blocks the calling
    /// thread; spawn it on a thread (tests) or call from `main` (daemon).
    ///
    /// # Errors
    /// Listener clone failures at startup; per-connection I/O errors are
    /// contained to their connection.
    pub fn run(self) -> Result<(), ServeError> {
        let workers = self.config.workers.max(1);
        let ctx = Arc::new(WorkerCtx {
            registry: self.registry,
            metrics: self.metrics,
            shutdown: self.shutdown,
            config: self.config,
        });
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let listener = self.listener.try_clone()?;
            let ctx = ctx.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("srclda-served-{w}"))
                    .spawn(move || accept_loop(&listener, &ctx))?,
            );
        }
        drop(self.listener);
        for handle in handles {
            let _ = handle.join();
        }
        Ok(())
    }
}

/// One worker: accept connections until shutdown, handling each to
/// completion (fixed pool — a worker serves one connection at a time).
fn accept_loop(listener: &TcpListener, ctx: &WorkerCtx) {
    loop {
        if ctx.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Connection-level failures (peer reset, timeout) are that
                // connection's problem, never the worker's.
                let _ = handle_connection(stream, ctx);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(ctx.config.poll_interval);
            }
            Err(_) => std::thread::sleep(ctx.config.poll_interval),
        }
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Serve one keep-alive connection until the peer closes, an error, idle
/// timeout, or graceful shutdown.
fn handle_connection(stream: TcpStream, ctx: &WorkerCtx) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    // Responses are written as one flush from a BufWriter, but disable
    // Nagle anyway: a coalescing delay on loopback costs more than it
    // saves, and tail latency is a served metric.
    stream.set_nodelay(true)?;
    // The socket carries one short read timeout throughout: while
    // *waiting* for the next request it lets a parked keep-alive
    // connection notice shutdown and idle-timeout promptly, and while
    // *parsing* one, `read_request` retries timed-out reads against a
    // per-request wall-clock deadline — so a client descheduled mid-write
    // on a loaded box is not 408'd after one poll tick, while a
    // byte-dripping peer cannot pin a fixed-pool worker past the deadline.
    let poll_timeout = ctx.config.poll_interval.max(Duration::from_millis(10));
    let request_budget = ctx.config.idle_timeout.max(poll_timeout);
    stream.set_read_timeout(Some(poll_timeout))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut idle_since = Instant::now();
    let _active = ctx.metrics.connection_guard();
    loop {
        match reader.fill_buf() {
            Ok([]) => return Ok(()), // peer closed
            Ok(_) => {}
            Err(e) if is_timeout(&e) => {
                if ctx.shutdown.load(Ordering::SeqCst)
                    || idle_since.elapsed() >= ctx.config.idle_timeout
                {
                    return Ok(());
                }
                continue;
            }
            Err(_) => return Ok(()),
        }
        // Unparseable requests still count as requests — `/metrics` must
        // keep `requests ≥ every response counter` or error rates computed
        // from them exceed 100%.
        let deadline = Instant::now() + request_budget;
        match read_request(&mut reader, deadline) {
            Ok(request) => {
                ctx.metrics.requests.inc();
                let response = route(&request, ctx);
                ctx.metrics.record_status(response.status);
                let close = request.wants_close || ctx.shutdown.load(Ordering::SeqCst);
                let retry_after = response.retry_after.map(|secs| secs.to_string());
                let extra: Vec<(&str, &str)> = retry_after
                    .as_deref()
                    .map(|v| ("Retry-After", v))
                    .into_iter()
                    .collect();
                http::write_response_with(
                    &mut writer,
                    response.status,
                    response.content_type,
                    &response.body,
                    close,
                    &extra,
                )?;
                if close {
                    return Ok(());
                }
                idle_since = Instant::now();
            }
            Err(ReadError::Closed) => return Ok(()),
            Err(ReadError::Malformed(msg)) => {
                ctx.metrics.requests.inc();
                ctx.metrics.record_status(400);
                return write_response(&mut writer, 400, &error_body(msg), true);
            }
            Err(ReadError::TooLarge(msg)) => {
                ctx.metrics.requests.inc();
                ctx.metrics.record_status(413);
                return write_response(&mut writer, 413, &error_body(msg), true);
            }
            Err(ReadError::DeadlineExceeded) => {
                ctx.metrics.requests.inc();
                ctx.metrics.record_status(408);
                return write_response(&mut writer, 408, &error_body("request timed out"), true);
            }
            Err(ReadError::Io(_)) => return Ok(()),
        }
    }
}

fn error_body(message: &str) -> String {
    obj(vec![("error", Value::from(message))]).render()
}

/// Content type of every endpoint except the Prometheus `/metrics` shape.
const JSON_TYPE: &str = "application/json";

/// A routed response: status, content type, body, and an optional
/// `Retry-After` value (whole seconds) for shed requests.
struct Response {
    status: u16,
    content_type: &'static str,
    body: String,
    retry_after: Option<u64>,
}

impl Response {
    fn json((status, body): (u16, String)) -> Self {
        Self {
            status,
            content_type: JSON_TYPE,
            body,
            retry_after: None,
        }
    }
}

/// Dispatch one request to its endpoint handler.
fn route(request: &Request, ctx: &WorkerCtx) -> Response {
    let json = Response::json;
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => json(handle_healthz(ctx)),
        ("GET", "/metrics") => {
            let (status, content_type, body) = handle_metrics(request, ctx);
            Response {
                status,
                content_type,
                body,
                retry_after: None,
            }
        }
        // Admission control happens here, before the request body is even
        // parsed: a shed must cost the daemon as close to nothing as
        // possible, or shedding itself becomes the overload.
        ("POST", "/infer") => match admit_infer(ctx) {
            Ok(_guard) => json(handle_infer(request, ctx)),
            Err(retry_after) => {
                ctx.metrics.record_shed();
                Response {
                    status: 503,
                    content_type: JSON_TYPE,
                    body: error_body(&format!("overloaded, retry after {retry_after}s")),
                    retry_after: Some(retry_after),
                }
            }
        },
        ("POST", "/reload") => json(handle_reload(request, ctx)),
        (_, "/healthz" | "/metrics") => json((405, error_body("use GET for this endpoint"))),
        (_, "/infer" | "/reload") => json((405, error_body("use POST for this endpoint"))),
        _ => json((404, error_body("no such endpoint"))),
    }
}

/// Decide whether an `/infer` request is admitted. `Ok` carries the RAII
/// guard holding the in-flight gauge up for the handler's duration; `Err`
/// carries the `Retry-After` seconds for the shed response. Two checks,
/// cheapest last-resort first: the configured p99 threshold against the
/// served latency histogram, then the CAS-bounded in-flight cap.
fn admit_infer(ctx: &WorkerCtx) -> Result<metrics::GaugeGuard<'_>, u64> {
    if let Some(threshold) = ctx.config.shed_p99 {
        if let Some(p99_secs) = ctx.metrics.infer_latency.quantile(0.99) {
            if p99_secs > threshold.as_secs_f64() {
                return Err(ctx.config.retry_after_secs);
            }
        }
    }
    ctx.metrics
        .try_begin_infer(ctx.config.max_inflight)
        .ok_or(ctx.config.retry_after_secs)
}

/// True when the `Accept` header asks for the Prometheus text shape.
///
/// The default stays JSON for compatibility with existing consumers: no
/// header, `*/*` (curl's default), and `application/json` all keep the
/// JSON body. Any listed `text/plain` — with or without the `version`
/// parameter Prometheus sends — selects the exposition format.
fn wants_prometheus(accept: Option<&str>) -> bool {
    let Some(accept) = accept else { return false };
    accept.split(',').any(|part| {
        let mime = part.split(';').next().unwrap_or("").trim();
        mime.eq_ignore_ascii_case("text/plain")
    })
}

fn handle_healthz(ctx: &WorkerCtx) -> (u16, String) {
    let models: Vec<Value> = ctx.registry.names().into_iter().map(Value::from).collect();
    let (status, state) = if models.is_empty() {
        (503, "no models loaded")
    } else {
        (200, "ok")
    };
    (
        status,
        obj(vec![
            ("status", Value::from(state)),
            ("models", Value::Arr(models)),
        ])
        .render(),
    )
}

fn handle_metrics(request: &Request, ctx: &WorkerCtx) -> (u16, &'static str, String) {
    if wants_prometheus(request.accept.as_deref()) {
        return (
            200,
            srclda_obs::prom::CONTENT_TYPE,
            render_prometheus_metrics(ctx),
        );
    }
    (200, JSON_TYPE, render_json_metrics(ctx))
}

/// Families read live from the model registry's entries at scrape time:
/// name, help, type, and the per-entry value.
type EntryFamily = (
    &'static str,
    &'static str,
    &'static str,
    fn(&ModelEntry) -> f64,
);

const ENTRY_FAMILIES: [EntryFamily; 5] = [
    (
        "srclda_serve_model_generation",
        "Reload generation of the live artifact, by model.",
        "gauge",
        |entry| entry.generation as f64,
    ),
    (
        "srclda_serve_model_topics",
        "Topic count of the live artifact, by model.",
        "gauge",
        |entry| entry.engine.num_topics() as f64,
    ),
    (
        "srclda_serve_model_cache_hits_total",
        "Fold-in cache hits, by model.",
        "counter",
        |entry| entry.engine.cache_stats().hits as f64,
    ),
    (
        "srclda_serve_model_cache_misses_total",
        "Fold-in cache misses, by model.",
        "counter",
        |entry| entry.engine.cache_stats().misses as f64,
    ),
    (
        "srclda_serve_model_cache_entries",
        "Resident fold-in cache entries, by model.",
        "gauge",
        |entry| entry.engine.cache_stats().entries as f64,
    ),
];

/// The Prometheus shape of `/metrics`: the server's registry (serving
/// families plus anything mounted into it, such as a trainer's), then the
/// families read live from the model entries — one scrape covering the
/// whole process.
fn render_prometheus_metrics(ctx: &WorkerCtx) -> String {
    let mut out = String::new();
    ctx.metrics.registry().render_into(&mut out);
    let entries = live_entries(ctx);
    if !entries.is_empty() {
        let mut text = PromText::wrap(&mut out);
        for (name, help, kind, value) in ENTRY_FAMILIES {
            text.header(name, help, kind);
            for entry in &entries {
                text.sample(name, &[("model", &entry.name)], value(entry));
            }
        }
    }
    out
}

fn live_entries(ctx: &WorkerCtx) -> Vec<Arc<ModelEntry>> {
    ctx.registry
        .names()
        .iter()
        .filter_map(|name| ctx.registry.get(name))
        .collect()
}

/// The JSON shape of `/metrics` (the daemon's original format, kept as
/// the default for existing consumers), read from the same handles the
/// Prometheus shape renders.
fn render_json_metrics(ctx: &WorkerCtx) -> String {
    let m = &ctx.metrics;
    let count = |c: &Counter| Value::from(c.get());
    let quantile_ms = |q: f64| {
        m.infer_latency
            .quantile(q)
            .map_or(Value::Null, |secs| Value::Num(secs * 1e3))
    };
    let models: Vec<Value> = live_entries(ctx)
        .iter()
        .map(|entry| {
            let cache = entry.engine.cache_stats();
            let stats = m.seen_model(&entry.name);
            let stat =
                |f: fn(&metrics::ModelStats) -> f64| Value::Num(stats.as_deref().map_or(0.0, f));
            obj(vec![
                ("name", Value::from(entry.name.clone())),
                ("generation", Value::from(entry.generation)),
                ("topics", Value::from(entry.engine.num_topics())),
                ("requests", stat(|s| s.requests.get() as f64)),
                ("active_requests", stat(|s| s.active.get())),
                (
                    "cache",
                    obj(vec![
                        ("hits", Value::from(cache.hits)),
                        ("misses", Value::from(cache.misses)),
                        ("entries", Value::from(cache.entries)),
                    ]),
                ),
            ])
        })
        .collect();
    let body = obj(vec![
        ("requests", count(&m.requests)),
        ("active_connections", Value::Num(m.active_connections.get())),
        (
            "responses",
            obj(vec![
                ("ok", count(&m.responses_ok)),
                ("client_error", count(&m.responses_client_error)),
                ("server_error", count(&m.responses_server_error)),
            ]),
        ),
        ("shed_total", count(&m.shed_total)),
        (
            "reload",
            obj(vec![
                ("count", count(&m.reloads)),
                ("failures", count(&m.reload_failures)),
                ("last_unix", Value::Num(m.last_reload_unix.get())),
            ]),
        ),
        (
            "infer",
            obj(vec![
                ("docs", count(&m.infer_docs)),
                ("tokens", count(&m.infer_tokens)),
                ("inflight", Value::Num(m.infer_inflight.get())),
                ("tokens_per_sec", Value::Num(m.tokens_per_sec())),
                ("latency_p50_ms", quantile_ms(0.50)),
                ("latency_p99_ms", quantile_ms(0.99)),
            ]),
        ),
        ("models", Value::Arr(models)),
    ]);
    body.render()
}

/// Fields `/infer` accepts; anything else is a client error (silent
/// tolerance would hide typos like `"txet"` forever).
const INFER_FIELDS: &[&str] = &["model", "text", "docs", "top"];

fn handle_infer(request: &Request, ctx: &WorkerCtx) -> (u16, String) {
    let started = Instant::now();
    let Ok(body_text) = std::str::from_utf8(&request.body) else {
        return (400, error_body("request body is not utf-8"));
    };
    let body = match json::parse(body_text) {
        Ok(v) => v,
        Err(e) => return (400, error_body(&e.to_string())),
    };
    let Value::Obj(members) = &body else {
        return (400, error_body("request body must be a json object"));
    };
    if let Some((unknown, _)) = members
        .iter()
        .find(|(k, _)| !INFER_FIELDS.contains(&k.as_str()))
    {
        return (400, error_body(&format!("unknown field {unknown:?}")));
    }

    let model_name = match body.get("model") {
        None => None,
        Some(v) => match v.as_str() {
            Some(s) => Some(s),
            None => return (400, error_body("\"model\" must be a string")),
        },
    };
    let Some(entry) = ctx.registry.resolve(model_name) else {
        let message = match model_name {
            Some(name) => format!("no model named {name:?}"),
            None => "no models loaded".to_string(),
        };
        return (404, error_body(&message));
    };
    // Counts the request and holds the model's active gauge up for the
    // rest of the handler, including every error return below.
    let model_stats = ctx.metrics.model(&entry.name);
    let _active = model_stats.begin();

    let top = match body.get("top") {
        None => 3,
        Some(v) => match v.as_usize() {
            Some(n) => n,
            None => return (400, error_body("\"top\" must be a non-negative integer")),
        },
    };

    let (texts, single): (Vec<&str>, bool) = match (body.get("text"), body.get("docs")) {
        (Some(_), Some(_)) => {
            return (
                400,
                error_body("send either \"text\" or \"docs\", not both"),
            )
        }
        (Some(text), None) => match text.as_str() {
            Some(s) => (vec![s], true),
            None => return (400, error_body("\"text\" must be a string")),
        },
        (None, Some(docs)) => match docs.as_arr() {
            Some(items) => {
                let mut texts = Vec::with_capacity(items.len());
                for item in items {
                    match item.as_str() {
                        Some(s) => texts.push(s),
                        None => return (400, error_body("\"docs\" must be an array of strings")),
                    }
                }
                (texts, false)
            }
            None => return (400, error_body("\"docs\" must be an array of strings")),
        },
        (None, None) => return (400, error_body("request needs \"text\" or \"docs\"")),
    };

    let scores = match entry
        .engine
        .infer_batch_parallel(&texts, ctx.config.batch_workers)
    {
        Ok(scores) => scores,
        Err(e) => return (500, error_body(&e.to_string())),
    };
    let tokens: u64 = scores.iter().map(|s| s.num_tokens() as u64).sum();
    let elapsed = started.elapsed();
    ctx.metrics
        .record_infer(scores.len() as u64, tokens, elapsed);
    model_stats.record_infer(elapsed);

    let mut members: Vec<(String, Value)> = vec![
        ("model".to_string(), Value::from(entry.name.clone())),
        ("generation".to_string(), Value::from(entry.generation)),
    ];
    if single {
        // Single-document responses flatten the score fields into the top
        // level ({"model": …, "theta": …}), batch responses nest them.
        // `scores` has exactly one entry here (one input document), but go
        // through `first()` so the request path stays panic-free.
        if let Some(first) = scores.first() {
            if let Value::Obj(score_members) = score_value(&entry, first, top) {
                members.extend(score_members);
            }
        }
    } else {
        members.push((
            "results".to_string(),
            Value::Arr(
                scores
                    .iter()
                    .map(|score| score_value(&entry, score, top))
                    .collect(),
            ),
        ));
    }
    (200, Value::Obj(members).render())
}

/// Render one scored document. θ is emitted in full — shortest-round-trip
/// floats, so the client can reconstruct the engine's exact bits.
fn score_value(entry: &ModelEntry, score: &DocumentScore, top: usize) -> Value {
    let top_topics: Vec<Value> = score
        .top_topics(top)
        .into_iter()
        .map(|t| {
            obj(vec![
                ("topic", Value::from(t)),
                (
                    "label",
                    entry
                        .engine
                        .label(t)
                        .map_or(Value::Null, |l| Value::from(l.to_string())),
                ),
                (
                    "weight",
                    Value::Num(score.theta().get(t).copied().unwrap_or(0.0)),
                ),
            ])
        })
        .collect();
    obj(vec![
        (
            "theta",
            Value::Arr(score.theta().iter().map(|&p| Value::Num(p)).collect()),
        ),
        ("top", Value::Arr(top_topics)),
        ("tokens", Value::from(score.num_tokens())),
        ("oov_tokens", Value::from(score.oov_tokens())),
        ("log_likelihood", Value::Num(score.log_likelihood())),
        ("perplexity", Value::Num(score.perplexity())),
    ])
}

fn handle_reload(request: &Request, ctx: &WorkerCtx) -> (u16, String) {
    // Strict like /infer: a typo'd key must not silently degrade into a
    // reload of *every* model. Reload-all is requested by an empty body
    // or an empty object, nothing else.
    let names: Vec<String> = if request.body.is_empty() {
        ctx.registry.names()
    } else {
        let Ok(body_text) = std::str::from_utf8(&request.body) else {
            return (400, error_body("request body is not utf-8"));
        };
        let body = match json::parse(body_text) {
            Ok(v) => v,
            Err(e) => return (400, error_body(&e.to_string())),
        };
        let Value::Obj(members) = &body else {
            return (400, error_body("request body must be a json object"));
        };
        if let Some((unknown, _)) = members.iter().find(|(k, _)| k != "model") {
            return (400, error_body(&format!("unknown field {unknown:?}")));
        }
        match body.get("model") {
            Some(m) => match m.as_str() {
                Some(name) => vec![name.to_string()],
                None => return (400, error_body("\"model\" must be a string")),
            },
            None => ctx.registry.names(),
        }
    };
    if names.is_empty() {
        return (404, error_body("no models loaded"));
    }
    let mut reloaded = Vec::new();
    for name in &names {
        match ctx.registry.reload(name) {
            Ok(()) => reloaded.push(Value::from(name.clone())),
            Err(e @ ServeError::UnknownModel { .. }) => {
                return (404, error_body(&e.to_string()));
            }
            Err(e) => {
                // Old entry is still live (swap is all-or-nothing), so the
                // daemon stays healthy; the operator sees what failed —
                // both in the response and in the reload_failures counter.
                ctx.metrics.record_reload_failure();
                return (500, error_body(&format!("reload of {name:?} failed: {e}")));
            }
        }
    }
    ctx.metrics.record_reload();
    (200, obj(vec![("reloaded", Value::Arr(reloaded))]).render())
}
