//! The [`TrainObserver`] trait, the no-op default, fan-out, and the
//! registry-aggregating observer.

use crate::event::{SparseBucketCounts, TrainEvent};
use crate::registry::{Counter, Gauge, Registry};
use std::sync::Arc;

/// A read-only consumer of training telemetry.
///
/// Observers receive value snapshots ([`TrainEvent`]) at sweep and chunk
/// boundaries. They cannot reach back into the sampler — the contract,
/// pinned by the workspace's bit-identity tests, is that attaching any
/// observer leaves the trained model bit-identical to running without
/// one.
pub trait TrainObserver {
    /// Whether the producer should bother building events at all. The
    /// fitting loop checks this once per run and, when `false`, skips
    /// even the per-sweep clock reads — the disabled path costs one
    /// branch.
    fn enabled(&self) -> bool {
        true
    }

    /// Receive one event.
    fn on_event(&mut self, event: &TrainEvent);
}

/// The default observer: reports `enabled() == false` and drops events.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopObserver;

impl TrainObserver for NoopObserver {
    fn enabled(&self) -> bool {
        false
    }

    fn on_event(&mut self, _event: &TrainEvent) {}
}

/// Fan one event stream out to several observers (e.g. a JSONL file plus
/// a progress line plus a metric registry). Enabled iff any child is.
///
/// The children are borrowed, so each stays with its owner once the
/// fan-out is dropped (a JSONL sink can still be `finish()`ed).
#[derive(Default)]
pub struct Fanout<'a> {
    children: Vec<&'a mut dyn TrainObserver>,
}

impl<'a> Fanout<'a> {
    /// An empty fan-out (disabled until a child is added).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a child observer (builder style).
    #[must_use]
    pub fn with(mut self, child: &'a mut dyn TrainObserver) -> Self {
        self.children.push(child);
        self
    }

    /// Add a child observer.
    pub fn push(&mut self, child: &'a mut dyn TrainObserver) {
        self.children.push(child);
    }
}

impl TrainObserver for Fanout<'_> {
    fn enabled(&self) -> bool {
        self.children.iter().any(|c| c.enabled())
    }

    fn on_event(&mut self, event: &TrainEvent) {
        for child in &mut self.children {
            child.on_event(event);
        }
    }
}

/// Aggregates training events into a [`Registry`] of Prometheus
/// families, all prefixed `srclda_train_` (plus the perplexity pair).
/// Share the registry with a serving daemon to expose a live training
/// run on `GET /metrics` next to the serving families.
pub struct RegistryObserver {
    registry: Arc<Registry>,
    sweeps: Arc<Counter>,
    tokens: Arc<Counter>,
    sweep_nanos: Arc<Counter>,
    tokens_per_sec: Arc<Gauge>,
    loglik: Arc<Gauge>,
    loglik_clamped: Arc<Counter>,
    bucket_q: Arc<Counter>,
    bucket_r: Arc<Counter>,
    bucket_s: Arc<Counter>,
    bucket_fallback: Arc<Counter>,
    shard_nanos: Vec<Arc<Counter>>,
    refresh_nanos: Vec<Arc<Counter>>,
    merge_nanos: Arc<Counter>,
    adapts: Arc<Counter>,
    adapt_nanos: Arc<Counter>,
    checkpoints: Arc<Counter>,
    checkpoint_bytes: Arc<Counter>,
    checkpoint_nanos: Arc<Counter>,
    perplexity: Arc<Gauge>,
    rescued_draws: Arc<Counter>,
    zero_mass_draws: Arc<Counter>,
}

const NANOS: f64 = 1e-9;

impl RegistryObserver {
    /// Register the trainer families into `registry` and observe into
    /// them.
    pub fn new(registry: Arc<Registry>) -> Self {
        let bucket = |name: &str| {
            registry.counter(
                "srclda_train_sparse_bucket_hits_total",
                "Sparse-kernel draws resolved per bucket.",
                &[("bucket", name)],
            )
        };
        Self {
            sweeps: registry.counter("srclda_train_sweeps_total", "Completed Gibbs sweeps.", &[]),
            tokens: registry.counter(
                "srclda_train_tokens_total",
                "Tokens sampled across all sweeps.",
                &[],
            ),
            sweep_nanos: registry.counter_scaled(
                "srclda_train_sweep_seconds_total",
                "Wall-clock seconds spent in sweeps.",
                &[],
                NANOS,
            ),
            tokens_per_sec: registry.gauge(
                "srclda_train_tokens_per_sec",
                "Sampling throughput of the most recent sweep.",
                &[],
            ),
            loglik: registry.gauge(
                "srclda_train_loglik",
                "Most recent joint word log-likelihood.",
                &[],
            ),
            loglik_clamped: registry.counter(
                "srclda_train_loglik_clamped_tokens_total",
                "Tokens clamped in log-likelihood evaluations.",
                &[],
            ),
            bucket_q: bucket("word"),
            bucket_r: bucket("doc"),
            bucket_s: bucket("smoothing"),
            bucket_fallback: registry.counter(
                "srclda_train_sparse_dense_fallbacks_total",
                "Sparse-kernel draws that fell back to a dense walk.",
                &[],
            ),
            shard_nanos: Vec::new(),
            refresh_nanos: Vec::new(),
            merge_nanos: registry.counter_scaled(
                "srclda_train_shard_merge_seconds_total",
                "Seconds replaying shard moves into the global counts at sweep boundaries.",
                &[],
                NANOS,
            ),
            adapts: registry.counter(
                "srclda_train_adaptations_total",
                "Completed lambda-adaptation passes.",
                &[],
            ),
            adapt_nanos: registry.counter_scaled(
                "srclda_train_adapt_seconds_total",
                "Seconds spent in lambda adaptation.",
                &[],
                NANOS,
            ),
            checkpoints: registry.counter(
                "srclda_train_checkpoints_total",
                "Checkpoints captured.",
                &[],
            ),
            checkpoint_bytes: registry.counter(
                "srclda_train_checkpoint_bytes_total",
                "Checkpoint payload bytes handed to the writer.",
                &[],
            ),
            checkpoint_nanos: registry.counter_scaled(
                "srclda_train_checkpoint_seconds_total",
                "Seconds spent writing checkpoints.",
                &[],
                NANOS,
            ),
            perplexity: registry.gauge(
                "srclda_perplexity",
                "Most recent held-out per-token perplexity.",
                &[],
            ),
            rescued_draws: registry.counter(
                "srclda_perplexity_rescued_draws_total",
                "Perplexity Gibbs draws that needed the underflow-rescue pass.",
                &[],
            ),
            zero_mass_draws: registry.counter(
                "srclda_perplexity_zero_mass_draws_total",
                "Perplexity Gibbs draws with all-zero topic mass.",
                &[],
            ),
            registry,
        }
    }

    /// The registry this observer writes into.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    fn add_buckets(&self, counts: &SparseBucketCounts) {
        self.bucket_q.add(counts.q_hits);
        self.bucket_r.add(counts.r_hits);
        self.bucket_s.add(counts.s_hits);
        self.bucket_fallback.add(counts.dense_fallbacks);
    }
}

/// Add each shard's seconds to its `{shard}`-labelled counter of
/// `family`, registering the counters on first use.
fn add_per_shard(
    registry: &Registry,
    counters: &mut Vec<Arc<Counter>>,
    (family, help): (&str, &str),
    secs: &[f64],
) {
    while counters.len() < secs.len() {
        let label = counters.len().to_string();
        counters.push(registry.counter_scaled(family, help, &[("shard", &label)], NANOS));
    }
    for (counter, &s) in counters.iter().zip(secs) {
        counter.add(nanos(s));
    }
}

fn nanos(secs: f64) -> u64 {
    if secs.is_finite() && secs > 0.0 {
        (secs * 1e9) as u64
    } else {
        0
    }
}

impl TrainObserver for RegistryObserver {
    fn on_event(&mut self, event: &TrainEvent) {
        match event {
            TrainEvent::Sweep {
                duration_secs,
                tokens,
                tokens_per_sec,
                loglik,
                loglik_clamped_tokens,
                ..
            } => {
                self.sweeps.inc();
                self.tokens.add(*tokens);
                self.sweep_nanos.add(nanos(*duration_secs));
                self.tokens_per_sec.set(*tokens_per_sec);
                if let Some(ll) = loglik {
                    self.loglik.set(*ll);
                }
                self.loglik_clamped.add(*loglik_clamped_tokens);
            }
            TrainEvent::SparseBuckets { counts, .. } => self.add_buckets(counts),
            TrainEvent::ShardSweep { timings, .. } => {
                add_per_shard(
                    &self.registry,
                    &mut self.shard_nanos,
                    (
                        "srclda_train_shard_sweep_seconds_total",
                        "Seconds each shard's kernel spent sweeping.",
                    ),
                    &timings.shard_secs,
                );
                add_per_shard(
                    &self.registry,
                    &mut self.refresh_nanos,
                    (
                        "srclda_train_shard_refresh_seconds_total",
                        "Seconds each shard spent copying the cells other shards moved.",
                    ),
                    &timings.refresh_secs,
                );
                self.merge_nanos.add(nanos(timings.merge_secs));
                // Sharded sparse sweeps carry their bucket tallies inline
                // instead of as separate `SparseBuckets` events.
                if let Some(counts) = &timings.buckets {
                    self.add_buckets(counts);
                }
            }
            TrainEvent::Adapt { duration_secs, .. } => {
                self.adapts.inc();
                self.adapt_nanos.add(nanos(*duration_secs));
            }
            TrainEvent::Checkpoint {
                bytes,
                duration_secs,
                ..
            } => {
                self.checkpoints.inc();
                self.checkpoint_bytes.add(*bytes);
                self.checkpoint_nanos.add(nanos(*duration_secs));
            }
            TrainEvent::FitComplete { .. } => {}
            TrainEvent::Perplexity {
                perplexity,
                rescued_draws,
                zero_mass_draws,
            } => {
                self.perplexity.set(*perplexity);
                self.rescued_draws.add(*rescued_draws);
                self.zero_mass_draws.add(*zero_mass_draws);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ShardTimings;

    #[test]
    fn noop_is_disabled() {
        let mut o = NoopObserver;
        assert!(!o.enabled());
        o.on_event(&TrainEvent::FitComplete {
            sweeps: 1,
            duration_secs: 0.0,
            tokens_per_sec: 0.0,
            loglik_clamped_tokens: 0,
        });
    }

    #[test]
    fn fanout_enabled_iff_any_child_is() {
        let mut noop = NoopObserver;
        let mut registry = RegistryObserver::new(Arc::new(Registry::new()));
        assert!(!Fanout::new().enabled());
        assert!(!Fanout::new().with(&mut noop).enabled());
        let fan = Fanout::new().with(&mut noop).with(&mut registry);
        assert!(fan.enabled());
    }

    #[test]
    fn registry_observer_aggregates_every_event_kind() {
        let registry = Arc::new(Registry::new());
        let mut obs = RegistryObserver::new(registry.clone());
        assert!(obs.enabled());
        for sweep in 1..=3u64 {
            obs.on_event(&TrainEvent::Sweep {
                sweep,
                duration_secs: 0.5,
                tokens: 100,
                tokens_per_sec: 200.0,
                loglik: Some(-50.0 - sweep as f64),
                loglik_clamped_tokens: 1,
            });
        }
        obs.on_event(&TrainEvent::SparseBuckets {
            sweep: 3,
            counts: SparseBucketCounts {
                q_hits: 90,
                r_hits: 8,
                s_hits: 2,
                dense_fallbacks: 1,
            },
        });
        obs.on_event(&TrainEvent::ShardSweep {
            sweep: 3,
            timings: ShardTimings {
                shard_secs: vec![0.25, 0.5],
                merge_secs: 0.125,
                refresh_secs: vec![0.0625, 0.03125],
                moved: 40,
                buckets: None,
            },
        });
        // A sharded sparse sweep's inline tallies land in the same
        // bucket families as standalone `SparseBuckets` events.
        obs.on_event(&TrainEvent::ShardSweep {
            sweep: 4,
            timings: ShardTimings {
                shard_secs: Vec::new(),
                merge_secs: 0.0,
                refresh_secs: Vec::new(),
                moved: 0,
                buckets: Some(SparseBucketCounts {
                    q_hits: 10,
                    r_hits: 2,
                    s_hits: 1,
                    dense_fallbacks: 2,
                }),
            },
        });
        obs.on_event(&TrainEvent::Adapt {
            sweep: 3,
            duration_secs: 1.0,
            threads: 4,
        });
        obs.on_event(&TrainEvent::Checkpoint {
            sweep: 3,
            bytes: 1024,
            duration_secs: 2.0,
        });
        obs.on_event(&TrainEvent::Perplexity {
            perplexity: 42.5,
            rescued_draws: 7,
            zero_mass_draws: 1,
        });
        let text = registry.render();
        assert!(text.contains("srclda_train_sweeps_total 3\n"));
        assert!(text.contains("srclda_train_tokens_total 300\n"));
        assert!(text.contains("srclda_train_sweep_seconds_total 1.5\n"));
        assert!(text.contains("srclda_train_tokens_per_sec 200\n"));
        assert!(text.contains("srclda_train_loglik -53\n"));
        assert!(text.contains("srclda_train_loglik_clamped_tokens_total 3\n"));
        assert!(text.contains("srclda_train_sparse_bucket_hits_total{bucket=\"word\"} 100\n"));
        assert!(text.contains("srclda_train_sparse_bucket_hits_total{bucket=\"doc\"} 10\n"));
        assert!(text.contains("srclda_train_sparse_bucket_hits_total{bucket=\"smoothing\"} 3\n"));
        assert!(text.contains("srclda_train_sparse_dense_fallbacks_total 3\n"));
        assert!(text.contains("srclda_train_shard_sweep_seconds_total{shard=\"0\"} 0.25\n"));
        assert!(text.contains("srclda_train_shard_sweep_seconds_total{shard=\"1\"} 0.5\n"));
        assert!(text.contains("srclda_train_shard_merge_seconds_total 0.125\n"));
        assert!(text.contains("srclda_train_shard_refresh_seconds_total{shard=\"0\"} 0.0625\n"));
        assert!(text.contains("srclda_train_shard_refresh_seconds_total{shard=\"1\"} 0.03125\n"));
        assert!(text.contains("srclda_train_adaptations_total 1\n"));
        assert!(text.contains("srclda_train_adapt_seconds_total 1\n"));
        assert!(text.contains("srclda_train_checkpoints_total 1\n"));
        assert!(text.contains("srclda_train_checkpoint_bytes_total 1024\n"));
        assert!(text.contains("srclda_train_checkpoint_seconds_total 2\n"));
        assert!(text.contains("srclda_perplexity 42.5\n"));
        assert!(text.contains("srclda_perplexity_rescued_draws_total 7\n"));
        assert!(text.contains("srclda_perplexity_zero_mass_draws_total 1\n"));
        assert_eq!(
            crate::prom::validate_exposition(&text).map(|n| n > 15),
            Ok(true)
        );
    }
}
