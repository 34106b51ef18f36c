//! Structured telemetry for the Source-LDA reproduction: training
//! observers, JSONL/progress sinks, one metric registry, a Prometheus
//! text encoder, and the workspace's JSON codec.
//!
//! The training stack (`srclda_core`'s fitting loop and sampler
//! backends) emits [`TrainEvent`]s through the [`TrainObserver`] trait;
//! the serving daemon records into typed handles on a [`Registry`]. This
//! crate deliberately depends on **nothing** — not even the other
//! workspace crates — so both `srclda_core` and `srclda_serve` can depend
//! on it without a cycle, and so the observer machinery can make a hard
//! promise: *attaching an observer never perturbs the chain*. Observers
//! are read-only callbacks — they receive value snapshots, never draw
//! RNG, and never touch sampler state — and the default [`NoopObserver`]
//! reports `enabled() == false`, so the fitting loop skips even the clock
//! reads (pinned bit-identical by `tests/telemetry.rs` in the workspace
//! root).
//!
//! * [`Registry`] — families of relaxed-atomic [`Counter`]s, [`Gauge`]s,
//!   and [`LatencyHistogram`]s, rendered as Prometheus text exposition
//!   (`text/plain; version=0.0.4`). The daemon owns one per server
//!   (`ServerHandle::registry` in `srclda_serve`) and serves it on
//!   `GET /metrics`; a trainer in the same process mounts there by
//!   building its [`RegistryObserver`] on that registry, so one scrape
//!   covers training and serving.
//! * [`json`] — the dependency-free JSON parser and writer. The daemon's
//!   HTTP bodies and the [`JsonlSink`] stream (schema on
//!   [`TrainEvent::to_json`]) both go through it.
//! * [`JsonlSink`] / [`ProgressSink`] — one JSON object per line, and
//!   human-readable one-line-per-sweep progress.
//! * [`RegistryObserver`] — aggregates events into `srclda_train_*`
//!   families of a [`Registry`]; [`Fanout`] composes several observers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod histogram;
pub mod json;
pub mod observer;
pub mod prom;
pub mod registry;
pub mod sink;

pub use event::{ShardTimings, SparseBucketCounts, TrainEvent};
pub use histogram::LatencyHistogram;
pub use observer::{Fanout, NoopObserver, RegistryObserver, TrainObserver};
pub use prom::{validate_exposition, PromText};
pub use registry::{Counter, Gauge, Registry, SpanTimer};
pub use sink::{JsonlSink, ProgressSink};
