//! Loopback integration tests for the `srclda-served` daemon: boot the
//! real server in-process on an OS-assigned port, speak actual HTTP over
//! `TcpStream`, and hold the responses to the subsystem's headline bar —
//! θ from the wire must be **bit-identical** to θ from the engine API on
//! the same artifact (same content-derived seeds), across concurrent
//! connections, batches, and hot reloads.

use srclda_core::prelude::*;
use srclda_corpus::{CorpusBuilder, Tokenizer};
use srclda_knowledge::KnowledgeSourceBuilder;
use srclda_serve::server::json;
use srclda_serve::{
    EngineOptions, InferenceEngine, ModelArtifact, ModelRegistry, RetryClient, RetryPolicy, Server,
    ServerConfig, ServerHandle,
};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

fn artifact(seed: u64) -> ModelArtifact {
    artifact_with_alpha(seed, 0.5)
}

fn artifact_with_alpha(seed: u64, alpha: f64) -> ModelArtifact {
    let tokenizer = Tokenizer::default().min_len(2);
    let mut b = CorpusBuilder::new().tokenizer(tokenizer.clone());
    for _ in 0..8 {
        b.add_text("school", "pencil pencil ruler eraser notebook");
        b.add_text("sports", "baseball umpire baseball glove pitcher");
    }
    let corpus = b.build();
    let mut ks = KnowledgeSourceBuilder::new();
    ks.add_article(
        "School Supplies",
        "pencil pencil ruler ruler eraser notebook",
    );
    ks.add_article("Baseball", "baseball baseball umpire glove pitcher");
    let source = ks.build(corpus.vocabulary());
    let fitted = SourceLda::builder()
        .knowledge_source(source)
        .variant(Variant::Bijective)
        .alpha(alpha)
        .iterations(60)
        .seed(seed)
        .build()
        .unwrap()
        .fit(&corpus)
        .unwrap();
    ModelArtifact::from_fitted(&fitted, corpus.vocabulary(), &tokenizer).unwrap()
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("srclda-loopback-{}-{tag}.slda", std::process::id()))
}

/// Boot a server with one model ("m") loaded from `path`.
fn boot(path: &PathBuf, workers: usize) -> (ServerHandle, JoinHandle<()>, Arc<ModelRegistry>) {
    let registry = Arc::new(ModelRegistry::new(EngineOptions::default()));
    registry.load("m", path).unwrap();
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        batch_workers: 2,
        ..ServerConfig::default()
    };
    let server = Server::bind(config, registry.clone()).unwrap();
    let handle = server.handle().unwrap();
    let join = std::thread::spawn(move || server.run().unwrap());
    (handle, join, registry)
}

/// Read one HTTP response (status, body) from a buffered stream.
fn read_response<R: BufRead>(reader: &mut R) -> (u16, String) {
    srclda_serve::server::http::read_simple_response(reader).unwrap()
}

/// One-shot request on a fresh connection (`Connection: close`).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    write!(
        writer,
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    read_response(&mut BufReader::new(stream))
}

/// Extract θ from a single-document `/infer` response as raw bits.
fn theta_bits(body: &str) -> Vec<u64> {
    let v = json::parse(body).unwrap();
    v.get("theta")
        .unwrap_or_else(|| panic!("no theta in {body}"))
        .as_arr()
        .unwrap()
        .iter()
        .map(|p| p.as_f64().unwrap().to_bits())
        .collect()
}

fn engine_theta_bits(engine: &InferenceEngine, text: &str) -> Vec<u64> {
    engine
        .infer(text)
        .unwrap()
        .theta()
        .iter()
        .map(|p| p.to_bits())
        .collect()
}

#[test]
fn healthz_reports_loaded_models() {
    let path = temp_path("healthz");
    artifact(11).save(&path).unwrap();
    let (handle, join, _) = boot(&path, 2);
    let (status, body) = http(handle.addr(), "GET", "/healthz", "");
    assert_eq!(status, 200, "{body}");
    let v = json::parse(&body).unwrap();
    assert_eq!(v.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(v.get("models").unwrap().as_arr().unwrap().len(), 1);
    handle.shutdown();
    join.join().unwrap();
    let _ = std::fs::remove_file(path);
}

#[test]
fn infer_theta_is_bit_identical_to_the_engine_api() {
    let path = temp_path("bitexact");
    let artifact = artifact(11);
    artifact.save(&path).unwrap();
    // The reference engine: same artifact, same (default) options the
    // registry builds its engines with.
    let engine = InferenceEngine::from_artifact(&artifact, EngineOptions::default()).unwrap();
    let (handle, join, _) = boot(&path, 2);

    for text in [
        "the umpire caught the baseball",
        "pencil ruler eraser notebook",
        "pencil baseball quasar",
        "",
    ] {
        let request = json::obj(vec![("text", json::Value::from(text))]).render();
        let (status, body) = http(handle.addr(), "POST", "/infer", &request);
        assert_eq!(status, 200, "{body}");
        assert_eq!(
            theta_bits(&body),
            engine_theta_bits(&engine, text),
            "θ over the wire diverged for {text:?}"
        );
        let v = json::parse(&body).unwrap();
        let reference = engine.infer(text).unwrap();
        assert_eq!(
            v.get("tokens").unwrap().as_usize(),
            Some(reference.num_tokens())
        );
        assert_eq!(
            v.get("oov_tokens").unwrap().as_usize(),
            Some(reference.oov_tokens())
        );
        assert_eq!(
            v.get("perplexity").unwrap().as_f64().unwrap().to_bits(),
            reference.perplexity().to_bits()
        );
    }
    handle.shutdown();
    join.join().unwrap();
    let _ = std::fs::remove_file(path);
}

#[test]
fn batch_infer_matches_engine_batch_and_labels_topics() {
    let path = temp_path("batch");
    let artifact = artifact(11);
    artifact.save(&path).unwrap();
    let engine = InferenceEngine::from_artifact(&artifact, EngineOptions::default()).unwrap();
    let (handle, join, _) = boot(&path, 2);

    let docs = [
        "pencil pencil ruler",
        "baseball umpire glove",
        "notebook eraser",
    ];
    let request = json::obj(vec![
        (
            "docs",
            json::Value::Arr(docs.iter().map(|&d| d.into()).collect()),
        ),
        ("top", json::Value::from(1usize)),
    ])
    .render();
    let (status, body) = http(handle.addr(), "POST", "/infer", &request);
    assert_eq!(status, 200, "{body}");
    let v = json::parse(&body).unwrap();
    let results = v.get("results").unwrap().as_arr().unwrap();
    assert_eq!(results.len(), docs.len());
    let reference = engine.infer_batch(&docs).unwrap();
    for (result, reference) in results.iter().zip(&reference) {
        let bits: Vec<u64> = result
            .get("theta")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|p| p.as_f64().unwrap().to_bits())
            .collect();
        let expect: Vec<u64> = reference.theta().iter().map(|p| p.to_bits()).collect();
        assert_eq!(bits, expect);
        // `top: 1` limits the labeled topics per document.
        assert_eq!(result.get("top").unwrap().as_arr().unwrap().len(), 1);
    }
    // The top topic of the baseball document is labeled.
    let top = &results[1].get("top").unwrap().as_arr().unwrap()[0];
    assert_eq!(top.get("label").unwrap().as_str(), Some("Baseball"));
    handle.shutdown();
    join.join().unwrap();
    let _ = std::fs::remove_file(path);
}

#[test]
fn concurrent_connections_all_see_identical_bits() {
    let path = temp_path("concurrent");
    let artifact = artifact(11);
    artifact.save(&path).unwrap();
    let engine = InferenceEngine::from_artifact(&artifact, EngineOptions::default()).unwrap();
    let (handle, join, _) = boot(&path, 4);
    let addr = handle.addr();

    // Six texts with *distinct in-vocabulary token sequences* — the cache
    // keys on token ids, so an OOV-only difference would collapse them.
    let words = [
        "pencil", "ruler", "eraser", "notebook", "baseball", "umpire", "glove", "pitcher",
    ];
    let texts: Vec<String> = (0..6)
        .map(|i| format!("{} {} {}", words[i], words[i + 1], words[i + 2]))
        .collect();
    let expected: Vec<Vec<u64>> = texts
        .iter()
        .map(|t| engine_theta_bits(&engine, t))
        .collect();
    std::thread::scope(|s| {
        for client in 0..8 {
            let texts = &texts;
            let expected = &expected;
            s.spawn(move || {
                // Each client hammers every text on a persistent
                // keep-alive connection, out of phase with the others.
                let stream = TcpStream::connect(addr).unwrap();
                let mut writer = stream.try_clone().unwrap();
                let mut reader = BufReader::new(stream);
                for round in 0..3 {
                    for i in 0..texts.len() {
                        let idx = (i + client + round) % texts.len();
                        let body =
                            json::obj(vec![("text", json::Value::from(texts[idx].as_str()))])
                                .render();
                        write!(
                            writer,
                            "POST /infer HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                            body.len()
                        )
                        .unwrap();
                        let (status, response) = read_response(&mut reader);
                        assert_eq!(status, 200, "{response}");
                        assert_eq!(theta_bits(&response), expected[idx], "client {client}");
                    }
                }
            });
        }
    });
    // Cache coherence across all that traffic: hits + misses == requests.
    let (status, body) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let v = json::parse(&body).unwrap();
    let cache = v.get("models").unwrap().as_arr().unwrap()[0]
        .get("cache")
        .unwrap();
    let hits = cache.get("hits").unwrap().as_f64().unwrap() as u64;
    let misses = cache.get("misses").unwrap().as_f64().unwrap() as u64;
    assert_eq!(hits + misses, 8 * 3 * 6);
    // The cache has no single-flight: two clients missing the same text
    // concurrently both fold in (identical bits either way), so misses
    // can exceed the 6 distinct texts — but never the first round's
    // worst case of every client missing every text.
    assert!(
        (6..=8 * 6).contains(&misses),
        "misses = {misses}, expected between 6 and 48"
    );
    handle.shutdown();
    join.join().unwrap();
    let _ = std::fs::remove_file(path);
}

#[test]
fn error_paths_return_structured_json() {
    let path = temp_path("errors");
    artifact(11).save(&path).unwrap();
    let (handle, join, _) = boot(&path, 2);
    let addr = handle.addr();

    let cases = [
        ("POST", "/infer", "not json", 400),
        ("POST", "/infer", "{\"text\": 3}", 400),
        ("POST", "/infer", "{}", 400),
        ("POST", "/infer", "{\"text\": \"x\", \"docs\": []}", 400),
        ("POST", "/infer", "{\"txet\": \"typo\"}", 400),
        ("POST", "/infer", "{\"text\": \"x\", \"top\": -1}", 400),
        (
            "POST",
            "/infer",
            "{\"text\": \"x\", \"model\": \"nope\"}",
            404,
        ),
        ("POST", "/reload", "{\"model\": \"nope\"}", 404),
        // A typo'd key must not silently degrade into reload-all.
        ("POST", "/reload", "{\"modle\": \"typo\"}", 400),
        ("POST", "/reload", "[\"m\"]", 400),
        ("GET", "/nope", "", 404),
        ("POST", "/healthz", "", 405),
        ("GET", "/infer", "", 405),
    ];
    for (method, route, body, expect) in cases {
        let (status, response) = http(addr, method, route, body);
        assert_eq!(status, expect, "{method} {route} {body} → {response}");
        assert!(
            json::parse(&response).unwrap().get("error").is_some() || status < 400,
            "error responses carry an \"error\" field: {response}"
        );
    }
    // Malformed HTTP gets a 400 too (handled below request parsing).
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "BROKEN\r\n\r\n").unwrap();
    let (status, _) = read_response(&mut BufReader::new(stream));
    assert_eq!(status, 400);
    handle.shutdown();
    join.join().unwrap();
    let _ = std::fs::remove_file(path);
}

#[test]
fn metrics_count_requests_and_tokens() {
    let path = temp_path("metrics");
    artifact(11).save(&path).unwrap();
    let (handle, join, _) = boot(&path, 2);
    let addr = handle.addr();

    // Before any document has been served, the latency histogram is empty:
    // /metrics must report null quantiles, not a fabricated p50/p99 of 0.
    let (status, body) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let v = json::parse(&body).unwrap();
    let infer = v.get("infer").unwrap();
    for field in ["latency_p50_ms", "latency_p99_ms"] {
        let value = infer.get(field).unwrap();
        assert!(
            value.as_f64().is_none(),
            "{field} must be null before the first sample, got {body}"
        );
        assert!(
            body.contains(&format!("\"{field}\":null")),
            "{field} must render as a JSON null: {body}"
        );
    }
    assert_eq!(infer.get("docs").unwrap().as_usize(), Some(0));

    for _ in 0..3 {
        let (status, _) = http(
            addr,
            "POST",
            "/infer",
            "{\"text\": \"pencil ruler baseball\"}",
        );
        assert_eq!(status, 200);
    }
    let (_, _) = http(addr, "POST", "/infer", "{\"nope\": 1}");
    let (status, body) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let v = json::parse(&body).unwrap();
    // 1 empty-histogram /metrics probe + 3 infers + 1 bad infer.
    assert_eq!(v.get("requests").unwrap().as_usize(), Some(5 + 1));
    let responses = v.get("responses").unwrap();
    // 3 infer 200s + the empty-histogram /metrics probe's 200.
    assert_eq!(responses.get("ok").unwrap().as_usize(), Some(3 + 1));
    assert_eq!(responses.get("client_error").unwrap().as_usize(), Some(1));
    let infer = v.get("infer").unwrap();
    assert_eq!(infer.get("docs").unwrap().as_usize(), Some(3));
    assert_eq!(infer.get("tokens").unwrap().as_usize(), Some(9));
    assert!(infer.get("tokens_per_sec").unwrap().as_f64().unwrap() > 0.0);
    assert!(infer.get("latency_p50_ms").unwrap().as_f64().unwrap() > 0.0);
    assert!(
        infer.get("latency_p99_ms").unwrap().as_f64().unwrap()
            >= infer.get("latency_p50_ms").unwrap().as_f64().unwrap()
    );
    handle.shutdown();
    join.join().unwrap();
    let _ = std::fs::remove_file(path);
}

#[test]
fn metrics_prometheus_shape_unifies_serving_and_trainer_families() {
    use std::io::Read as _;

    let path = temp_path("prom");
    artifact(11).save(&path).unwrap();
    let registry = Arc::new(ModelRegistry::new(EngineOptions::default()));
    registry.load("m", &path).unwrap();
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        batch_workers: 2,
        ..ServerConfig::default()
    };
    let server = Server::bind(config, registry).unwrap();
    let handle = server.handle().unwrap();
    // Mount a trainer family into the server's registry, as a
    // RegistryObserver built on `handle.registry()` in a daemon colocated
    // with training would.
    handle
        .registry()
        .counter("srclda_train_sweeps_total", "Completed sweeps.", &[])
        .add(42);
    let join = std::thread::spawn(move || server.run().unwrap());
    let addr = handle.addr();

    let (status, body) = http(addr, "POST", "/infer", "{\"text\": \"pencil ruler\"}");
    assert_eq!(status, 200, "{body}");
    let (status, body) = http(addr, "POST", "/reload", "");
    assert_eq!(status, 200, "{body}");

    // Accept: text/plain selects the Prometheus exposition.
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    write!(
        writer,
        "GET /metrics HTTP/1.1\r\nHost: t\r\nAccept: text/plain; version=0.0.4\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    BufReader::new(stream).read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 200 OK\r\n"), "{raw}");
    assert!(
        raw.contains("Content-Type: text/plain; version=0.0.4\r\n"),
        "missing exposition content type: {raw}"
    );
    let text = raw.split("\r\n\r\n").nth(1).unwrap();
    let samples = srclda_obs::validate_exposition(text).expect("valid exposition");
    assert!(
        samples > 20,
        "expected a full exposition, got {samples} samples"
    );
    // Serving families, per-model families, registry families, and the
    // mounted trainer family all appear in one scrape.
    assert!(
        text.contains("srclda_serve_responses_total{class=\"ok\"}"),
        "{text}"
    );
    assert!(text.contains("srclda_serve_reloads_total 1\n"), "{text}");
    assert!(
        text.contains("srclda_serve_last_reload_timestamp_seconds"),
        "{text}"
    );
    assert!(
        text.contains("srclda_serve_model_requests_total{model=\"m\"} 1\n"),
        "{text}"
    );
    assert!(
        text.contains("srclda_serve_model_active_requests{model=\"m\"} 0\n"),
        "{text}"
    );
    assert!(
        text.contains("srclda_serve_model_generation{model=\"m\"} 1\n"),
        "{text}"
    );
    assert!(
        text.contains("srclda_serve_infer_latency_seconds_bucket"),
        "{text}"
    );
    assert!(
        text.contains("srclda_serve_infer_latency_seconds_count 1\n"),
        "{text}"
    );
    assert!(text.contains("srclda_train_sweeps_total 42\n"), "{text}");

    // Without an Accept header the JSON shape (with the new reload and
    // connection fields) is unchanged as the default.
    let (status, body) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let v = json::parse(&body).unwrap();
    let reload = v.get("reload").unwrap();
    assert_eq!(reload.get("count").unwrap().as_usize(), Some(1));
    assert!(reload.get("last_unix").unwrap().as_f64().unwrap() > 0.0);
    assert!(v.get("active_connections").is_some());
    let model = &v.get("models").unwrap().as_arr().unwrap()[0];
    assert_eq!(model.get("requests").unwrap().as_usize(), Some(1));
    assert_eq!(model.get("active_requests").unwrap().as_usize(), Some(0));
    handle.shutdown();
    join.join().unwrap();
    let _ = std::fs::remove_file(path);
}

#[test]
fn reload_hot_swaps_the_artifact_atomically() {
    let path = temp_path("reload");
    artifact(11).save(&path).unwrap();
    let (handle, join, registry) = boot(&path, 2);
    let addr = handle.addr();
    // An odd in-vocabulary token count: the topic counts cannot split
    // evenly, so θ = (n + α)/(N + Tα) must differ between the two α's.
    let text_request = "{\"text\": \"pencil ruler baseball umpire glove\"}";

    let (_, before) = http(addr, "POST", "/infer", text_request);
    let before_bits = theta_bits(&before);
    assert_eq!(
        json::parse(&before)
            .unwrap()
            .get("generation")
            .unwrap()
            .as_usize(),
        Some(0)
    );

    // A different model (distinct α, so θ must change) lands on the same
    // path; /reload swaps it in.
    artifact_with_alpha(97, 0.9).save(&path).unwrap();
    let (status, body) = http(addr, "POST", "/reload", "");
    assert_eq!(status, 200, "{body}");
    let reloaded = json::parse(&body).unwrap();
    assert_eq!(reloaded.get("reloaded").unwrap().as_arr().unwrap().len(), 1);

    let (_, after) = http(addr, "POST", "/infer", text_request);
    assert_eq!(
        json::parse(&after)
            .unwrap()
            .get("generation")
            .unwrap()
            .as_usize(),
        Some(1)
    );
    assert_ne!(theta_bits(&after), before_bits, "swap must change θ");
    // And the swapped engine matches a fresh engine on the new artifact.
    let engine = InferenceEngine::from_artifact(
        &ModelArtifact::load(&path).unwrap(),
        EngineOptions::default(),
    )
    .unwrap();
    assert_eq!(
        theta_bits(&after),
        engine_theta_bits(&engine, "pencil ruler baseball umpire glove")
    );
    assert_eq!(registry.get("m").unwrap().generation, 1);
    handle.shutdown();
    join.join().unwrap();
    let _ = std::fs::remove_file(path);
}

/// Boot a server with one model ("m") and an explicit config (the shed
/// knobs default off in [`boot`]).
fn boot_with(
    path: &PathBuf,
    config: ServerConfig,
) -> (ServerHandle, JoinHandle<()>, Arc<ModelRegistry>) {
    let registry = Arc::new(ModelRegistry::new(EngineOptions::default()));
    registry.load("m", path).unwrap();
    let server = Server::bind(config, registry.clone()).unwrap();
    let handle = server.handle().unwrap();
    let join = std::thread::spawn(move || server.run().unwrap());
    (handle, join, registry)
}

#[test]
fn overloaded_daemon_sheds_with_503_retry_after_and_counts_it() {
    let path = temp_path("shed");
    artifact(11).save(&path).unwrap();
    // `--max-inflight 0`: every /infer sheds — the deterministic way to
    // observe the overload path without racing real concurrency.
    let (handle, join, _) = boot_with(
        &path,
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            batch_workers: 2,
            max_inflight: Some(0),
            retry_after_secs: 7,
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();

    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let body = "{\"text\": \"pencil ruler\"}";
    write!(
        writer,
        "POST /infer HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let (status, headers, response) =
        srclda_serve::server::http::read_response_with_headers(&mut BufReader::new(stream))
            .unwrap();
    assert_eq!(status, 503, "{response}");
    let retry_after = headers
        .iter()
        .find(|(name, _)| name == "retry-after")
        .map(|(_, value)| value.as_str());
    assert_eq!(retry_after, Some("7"), "headers: {headers:?}");
    let v = json::parse(&response).unwrap();
    assert!(
        v.get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("overloaded"),
        "{response}"
    );

    // Sheds are visible in both metric shapes; /healthz stays unshedded.
    let (status, _) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    let (_, body) = http(addr, "GET", "/metrics", "");
    let v = json::parse(&body).unwrap();
    assert_eq!(v.get("shed_total").unwrap().as_usize(), Some(1));
    assert_eq!(
        v.get("infer").unwrap().get("inflight").unwrap().as_usize(),
        Some(0)
    );
    use std::io::Read as _;
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    write!(
        writer,
        "GET /metrics HTTP/1.1\r\nHost: t\r\nAccept: text/plain\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    BufReader::new(stream).read_to_string(&mut raw).unwrap();
    let text = raw.split("\r\n\r\n").nth(1).unwrap();
    srclda_obs::validate_exposition(text).expect("valid exposition");
    assert!(text.contains("srclda_serve_shed_total 1\n"), "{text}");
    assert!(text.contains("srclda_serve_infer_inflight 0\n"), "{text}");
    handle.shutdown();
    join.join().unwrap();
    let _ = std::fs::remove_file(path);
}

#[test]
fn retry_client_backs_off_through_sheds_and_succeeds_under_a_tight_cap() {
    let path = temp_path("retryclient");
    let reference = artifact(11);
    reference.save(&path).unwrap();
    let engine = InferenceEngine::from_artifact(&reference, EngineOptions::default()).unwrap();
    // One admitted /infer at a time: concurrent clients *will* be shed,
    // and each must recover through backoff rather than erroring out.
    let (handle, join, _) = boot_with(
        &path,
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            batch_workers: 2,
            max_inflight: Some(1),
            retry_after_secs: 0,
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr().to_string();

    let expected = engine_theta_bits(&engine, "pencil ruler baseball");
    std::thread::scope(|s| {
        for client in 0..6u64 {
            let addr = &addr;
            let expected = &expected;
            s.spawn(move || {
                let client = RetryClient::new(RetryPolicy {
                    max_attempts: 60,
                    base_delay: Duration::from_millis(2),
                    max_delay: Duration::from_millis(40),
                    jitter_seed: client,
                });
                for _ in 0..3 {
                    let (status, body) = client
                        .request(
                            addr,
                            "POST",
                            "/infer",
                            "{\"text\": \"pencil ruler baseball\"}",
                        )
                        .expect("the daemon is reachable");
                    assert_eq!(status, 200, "retry budget exhausted while shed: {body}");
                    assert_eq!(&theta_bits(&body), expected);
                }
            });
        }
    });

    // Against a shed-everything daemon the client gives up *politely*:
    // the final 503 is returned, not a socket error.
    let registry = srclda_obs::Registry::new();
    let give_up = RetryClient::with_registry(
        RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(2),
            jitter_seed: 9,
        },
        &registry,
    );
    handle.shutdown();
    join.join().unwrap();
    let (handle, join, _) = boot_with(
        &path,
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            batch_workers: 2,
            max_inflight: Some(0),
            retry_after_secs: 0,
            ..ServerConfig::default()
        },
    );
    let (status, body) = give_up
        .request(
            &handle.addr().to_string(),
            "POST",
            "/infer",
            "{\"text\": \"pencil\"}",
        )
        .expect("a shed is a response, not an error");
    assert_eq!(status, 503, "{body}");
    let text = registry.render();
    assert!(text.contains("srclda_client_attempts_total 3\n"), "{text}");
    assert!(
        text.contains("srclda_client_retries_total{reason=\"shed\"} 2\n"),
        "{text}"
    );
    assert!(text.contains("srclda_client_giveups_total 1\n"), "{text}");
    handle.shutdown();
    join.join().unwrap();
    let _ = std::fs::remove_file(path);
}

#[test]
fn failed_reload_keeps_the_old_model_serving_and_counts_the_failure() {
    let path = temp_path("reloadfail");
    artifact(11).save(&path).unwrap();
    let (handle, join, registry) = boot(&path, 2);
    let addr = handle.addr();
    let request = "{\"text\": \"pencil ruler baseball\"}";

    let (status, before) = http(addr, "POST", "/infer", request);
    assert_eq!(status, 200, "{before}");
    let before_bits = theta_bits(&before);

    // The artifact on disk is replaced by garbage — a crashed writer, a
    // partial copy. /reload must fail loudly and keep serving the old
    // model (no half-swapped registry entry, generation unchanged).
    std::fs::write(&path, b"not an artifact").unwrap();
    let (status, body) = http(addr, "POST", "/reload", "");
    assert_eq!(status, 500, "{body}");
    assert!(json::parse(&body).unwrap().get("error").is_some());

    let (status, after) = http(addr, "POST", "/infer", request);
    assert_eq!(status, 200, "old model must keep serving: {after}");
    assert_eq!(theta_bits(&after), before_bits);
    assert_eq!(registry.get("m").unwrap().generation, 0);

    let (_, body) = http(addr, "GET", "/metrics", "");
    let v = json::parse(&body).unwrap();
    let reload = v.get("reload").unwrap();
    assert_eq!(reload.get("count").unwrap().as_usize(), Some(0));
    assert_eq!(reload.get("failures").unwrap().as_usize(), Some(1));
    use std::io::Read as _;
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    write!(
        writer,
        "GET /metrics HTTP/1.1\r\nHost: t\r\nAccept: text/plain\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    BufReader::new(stream).read_to_string(&mut raw).unwrap();
    let text = raw.split("\r\n\r\n").nth(1).unwrap();
    assert!(
        text.contains("srclda_serve_reload_failures_total 1\n"),
        "{text}"
    );
    handle.shutdown();
    join.join().unwrap();
    let _ = std::fs::remove_file(path);
}

#[test]
fn graceful_shutdown_drains_and_releases_the_port() {
    let path = temp_path("shutdown");
    artifact(11).save(&path).unwrap();
    let (handle, join, _) = boot(&path, 3);
    let addr = handle.addr();
    let (status, _) = http(addr, "POST", "/infer", "{\"text\": \"pencil\"}");
    assert_eq!(status, 200);

    handle.shutdown();
    assert!(handle.is_shutdown());
    join.join().expect("workers exit cleanly");

    // Every listener clone is dropped once the workers exit, so the OS
    // refuses new connections (retry briefly: TIME_WAIT etc.).
    let mut refused = false;
    for _ in 0..50 {
        match TcpStream::connect(addr) {
            Err(_) => {
                refused = true;
                break;
            }
            Ok(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    assert!(refused, "port should be released after shutdown");
    let _ = std::fs::remove_file(path);
}
