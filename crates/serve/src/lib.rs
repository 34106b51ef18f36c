//! Model persistence and online inference for the Source-LDA reproduction.
//!
//! The paper's workflow is train-once, use-forever: a Source-LDA model is
//! fitted against a knowledge source (Wikipedia, MeSH) and then applied to
//! streams of unseen documents — the held-out estimation of §III.C.5a and
//! the Bio-LDA-style discovery workloads built on top of it. This crate is
//! that missing serving layer:
//!
//! * [`artifact`] — a versioned, checksummed binary format
//!   ([`ModelArtifact`]) that round-trips a fitted model's word–topic
//!   counts, priors, α and labels — φ derives from them at load —
//!   together with the vocabulary and tokenizer configuration needed to
//!   process raw text (hand-rolled little-endian codec in [`codec`]; no
//!   external serialization dependency);
//! * [`engine`] — [`InferenceEngine`]: load an artifact, accept raw text,
//!   fold it into the frozen model (fixed-φ Gibbs, via
//!   [`srclda_core::inference`]), and return θ, top labeled topics, and
//!   perplexity — with an LRU cache ([`lru`]) for repeated documents and a
//!   multi-worker batch path for concurrent request streams;
//! * [`server`] — the `srclda-served` network daemon: a hand-rolled
//!   HTTP/1.1 server over `std::net::TcpListener` with a fixed worker
//!   pool, a multi-model [`ModelRegistry`] with atomic `Arc` hot-swap
//!   reload, JSON request/response bodies whose floats round-trip θ
//!   bit-exactly, `/healthz` + `/metrics` endpoints, and graceful
//!   shutdown;
//! * [`durable`] / [`checkpoints`] / [`retry`] — the resilience layer:
//!   atomic durable saves ([`DurableFile`]) with a deterministic
//!   fault-injection shim ([`FaultPlan`]), rotating checksummed
//!   checkpoint generations with newest-good-generation recovery
//!   ([`CheckpointStore::resume_auto`]), and a shared
//!   backoff-with-jitter client ([`RetryClient`]) that honors the
//!   daemon's 503 + `Retry-After` shed responses;
//! * `srclda-infer` — a CLI binary with `save` / `inspect` / `infer`
//!   subcommands over the same API (and `srclda-served` to run the
//!   daemon).
//!
//! Everything is deterministic: fold-in seeds derive from document content,
//! so a response is a pure function of (artifact bytes, input text,
//! configured seed) — identical across runs, batch orders, and worker
//! counts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod checkpoints;
pub mod codec;
pub mod durable;
pub mod engine;
pub mod error;
pub mod lru;
pub mod retry;
pub mod server;

pub use artifact::{list_sections, ModelArtifact, SectionInfo, FORMAT_VERSION, MAGIC};
pub use checkpoints::{CheckpointStore, RecoveredGeneration, Recovery};
pub use durable::{DurableFile, FaultKind, FaultPlan, FaultStream};
pub use engine::{CacheStats, DocumentScore, EngineOptions, InferenceEngine};
pub use error::ServeError;
pub use lru::LruCache;
pub use retry::{RetryClient, RetryPolicy};
pub use server::registry::{ModelEntry, ModelRegistry};
pub use server::{Server, ServerConfig, ServerHandle};

/// Convenient `Result` alias.
pub type Result<T> = std::result::Result<T, ServeError>;
