//! The training event vocabulary.
//!
//! Every event is a plain value snapshot taken at a sweep or chunk
//! boundary of the fitting loop — nothing here can reach back into the
//! sampler. The JSONL schema (one object per line, discriminated by the
//! `"event"` key) is documented on [`TrainEvent::to_json`] and pinned by
//! the round-trip test in the workspace root.

use crate::json::{obj, Value};

/// Per-sweep routing tallies of the sub-linear sparse bucket kernel
/// (`KernelKind::Sparse`): which bucket resolved each token's draw.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SparseBucketCounts {
    /// Draws resolved by the word-sparse `q` bucket (binary search over
    /// the per-word cumulative — the sub-linear fast path).
    pub q_hits: u64,
    /// Draws resolved by the document bucket walk (O(k_d)).
    pub r_hits: u64,
    /// Draws resolved by the smoothing bucket walk entered *normally*
    /// (`u ≥ q + r`); the walk is O(T), the kernel's slow tail.
    pub s_hits: u64,
    /// Dense-walk fallbacks: drift overruns that fell out of their bucket
    /// into the O(T) smoothing walk (or its terminal fallback), plus
    /// zero-mass uniform draws. Should be ~0; growth signals cache drift.
    pub dense_fallbacks: u64,
}

impl SparseBucketCounts {
    /// Total draws tallied.
    pub fn total(&self) -> u64 {
        self.q_hits + self.r_hits + self.s_hits + self.dense_fallbacks
    }

    /// Fold another tally into this one (used to merge per-shard tallies
    /// into one sweep-level total).
    pub fn absorb(&mut self, other: SparseBucketCounts) {
        self.q_hits += other.q_hits;
        self.r_hits += other.r_hits;
        self.s_hits += other.s_hits;
        self.dense_fallbacks += other.dense_fallbacks;
    }
}

/// Per-sweep timings of the document-sharded backend at `S > 1`
/// (`Backend::ShardedDocs`): each shard's kernel sweep, the
/// sweep-boundary merge and each shard's refresh wall-clock, the tokens
/// that changed topic, plus — when the shard kernel is the sparse bucket
/// kernel — the merged bucket-routing tallies across all shards.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardTimings {
    /// Seconds each shard's kernel spent sweeping, indexed by shard.
    pub shard_secs: Vec<f64>,
    /// Seconds spent replaying the shards' moves into the global counts.
    pub merge_secs: f64,
    /// Seconds each shard spent bringing its local counts back to the
    /// merged global counts, indexed by shard.
    pub refresh_secs: Vec<f64>,
    /// Tokens whose topic changed in the sweep.
    pub moved: u64,
    /// Bucket-routing tallies summed over every shard's sweep, `Some` iff
    /// the shard kernel is sparse (`ShardedDocs { kernel: Sparse, .. }`).
    pub buckets: Option<SparseBucketCounts>,
}

/// One telemetry event from a training run.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainEvent {
    /// A full Gibbs sweep completed.
    Sweep {
        /// Absolute completed-sweep index (1-based).
        sweep: u64,
        /// Wall-clock seconds since the previous sweep boundary.
        duration_secs: f64,
        /// Tokens sampled per sweep (the corpus token count).
        tokens: u64,
        /// `tokens / duration_secs` for this sweep.
        tokens_per_sec: f64,
        /// Joint word log-likelihood, when the trace schedule evaluated
        /// it at this sweep.
        loglik: Option<f64>,
        /// Tokens clamped in this sweep's log-likelihood evaluation
        /// (0 when `loglik` is `None`).
        loglik_clamped_tokens: u64,
    },
    /// Sparse-kernel bucket routing tallies for one in-place sweep
    /// (`S = 1`; at `S > 1` they ride on [`TrainEvent::ShardSweep`]).
    SparseBuckets {
        /// Absolute sweep index the tallies cover.
        sweep: u64,
        /// The routing tallies.
        counts: SparseBucketCounts,
    },
    /// Per-shard sweep and merge timings for one sharded sweep (`S > 1`).
    ShardSweep {
        /// Absolute sweep index the timings cover.
        sweep: u64,
        /// The timings.
        timings: ShardTimings,
    },
    /// A λ-adaptation pass completed at a chunk boundary.
    Adapt {
        /// Completed sweeps when the adaptation ran.
        sweep: u64,
        /// Wall-clock seconds of the adaptation.
        duration_secs: f64,
        /// Worker threads the topic-sharded adaptation used.
        threads: u64,
    },
    /// A training checkpoint was captured and handed to the writer.
    Checkpoint {
        /// The checkpoint's completed-sweep index.
        sweep: u64,
        /// Checkpoint payload size in bytes: the values a generation
        /// stores — assignments, RNG states, priors, and the word–topic
        /// counts as their non-zero cells.
        bytes: u64,
        /// Wall-clock seconds the checkpoint callback (the write) took.
        duration_secs: f64,
    },
    /// The fit returned.
    FitComplete {
        /// Sweeps executed by this run (resumed runs count only their
        /// own sweeps).
        sweeps: u64,
        /// Total wall-clock seconds of the run.
        duration_secs: f64,
        /// Aggregate sampled tokens per second over the run.
        tokens_per_sec: f64,
        /// Total clamped tokens across every log-likelihood evaluation
        /// (see `FittedModel::loglik_clamped_tokens`).
        loglik_clamped_tokens: u64,
    },
    /// A held-out perplexity evaluation finished (emitted by evaluation
    /// drivers, not by the fitting loop itself).
    Perplexity {
        /// The per-token perplexity.
        perplexity: f64,
        /// Gibbs draws that needed the `2^512` underflow-rescue pass.
        rescued_draws: u64,
        /// Draws whose topic mass was all-zero (uniform fallback).
        zero_mass_draws: u64,
    },
}

impl TrainEvent {
    /// The event's `"event"` discriminator value.
    pub fn kind(&self) -> &'static str {
        match self {
            TrainEvent::Sweep { .. } => "sweep",
            TrainEvent::SparseBuckets { .. } => "sparse_buckets",
            TrainEvent::ShardSweep { .. } => "shard_sweep",
            TrainEvent::Adapt { .. } => "adapt",
            TrainEvent::Checkpoint { .. } => "checkpoint",
            TrainEvent::FitComplete { .. } => "fit_complete",
            TrainEvent::Perplexity { .. } => "perplexity",
        }
    }

    /// Render the event as one JSON object (no trailing newline), through
    /// the workspace codec ([`crate::json`]) the daemon also serves with.
    /// Counts travel as JSON numbers, exact below 2^53 — far above any
    /// count a run produces.
    ///
    /// Schema — every line carries `"event"` plus its variant's fields:
    ///
    /// ```json
    /// {"event":"sweep","sweep":12,"duration_secs":0.01,"tokens":9600,
    ///  "tokens_per_sec":960000.0,"loglik":-123.4,"loglik_clamped_tokens":0}
    /// {"event":"sparse_buckets","sweep":12,"q_hits":9000,"r_hits":500,
    ///  "s_hits":100,"dense_fallbacks":0}
    /// {"event":"shard_sweep","sweep":12,"merge_secs":0.001,
    ///  "shard_secs":[0.004,0.005],"refresh_secs":[0.0002,0.0003],
    ///  "moved":1200}
    /// {"event":"shard_sweep","sweep":12,"merge_secs":0.001,
    ///  "shard_secs":[0.004,0.005],"refresh_secs":[0.0002,0.0003],
    ///  "moved":1200,"q_hits":9000,"r_hits":500,"s_hits":100,
    ///  "dense_fallbacks":0}
    /// {"event":"adapt","sweep":12,"duration_secs":0.002,"threads":8}
    /// {"event":"checkpoint","sweep":12,"bytes":40960,"duration_secs":0.003}
    /// {"event":"fit_complete","sweeps":24,"duration_secs":0.5,
    ///  "tokens_per_sec":460800.0,"loglik_clamped_tokens":0}
    /// {"event":"perplexity","perplexity":56.4,"rescued_draws":0,
    ///  "zero_mass_draws":0}
    /// ```
    pub fn to_json(&self) -> String {
        let num = Value::Num;
        let int = Value::from;
        let nums = |xs: &[f64]| Value::Arr(xs.iter().copied().map(num).collect());
        let buckets = |b: &SparseBucketCounts| {
            [
                ("q_hits", int(b.q_hits)),
                ("r_hits", int(b.r_hits)),
                ("s_hits", int(b.s_hits)),
                ("dense_fallbacks", int(b.dense_fallbacks)),
            ]
        };
        let mut members = vec![("event", Value::from(self.kind()))];
        match self {
            TrainEvent::Sweep {
                sweep,
                duration_secs,
                tokens,
                tokens_per_sec,
                loglik,
                loglik_clamped_tokens,
            } => members.extend([
                ("sweep", int(*sweep)),
                ("duration_secs", num(*duration_secs)),
                ("tokens", int(*tokens)),
                ("tokens_per_sec", num(*tokens_per_sec)),
                ("loglik", loglik.map_or(Value::Null, num)),
                ("loglik_clamped_tokens", int(*loglik_clamped_tokens)),
            ]),
            TrainEvent::SparseBuckets { sweep, counts } => {
                members.push(("sweep", int(*sweep)));
                members.extend(buckets(counts));
            }
            TrainEvent::ShardSweep { sweep, timings } => {
                members.extend([
                    ("sweep", int(*sweep)),
                    ("merge_secs", num(timings.merge_secs)),
                    ("shard_secs", nums(&timings.shard_secs)),
                    ("refresh_secs", nums(&timings.refresh_secs)),
                    ("moved", int(timings.moved)),
                ]);
                if let Some(b) = &timings.buckets {
                    members.extend(buckets(b));
                }
            }
            TrainEvent::Adapt {
                sweep,
                duration_secs,
                threads,
            } => members.extend([
                ("sweep", int(*sweep)),
                ("duration_secs", num(*duration_secs)),
                ("threads", int(*threads)),
            ]),
            TrainEvent::Checkpoint {
                sweep,
                bytes,
                duration_secs,
            } => members.extend([
                ("sweep", int(*sweep)),
                ("bytes", int(*bytes)),
                ("duration_secs", num(*duration_secs)),
            ]),
            TrainEvent::FitComplete {
                sweeps,
                duration_secs,
                tokens_per_sec,
                loglik_clamped_tokens,
            } => members.extend([
                ("sweeps", int(*sweeps)),
                ("duration_secs", num(*duration_secs)),
                ("tokens_per_sec", num(*tokens_per_sec)),
                ("loglik_clamped_tokens", int(*loglik_clamped_tokens)),
            ]),
            TrainEvent::Perplexity {
                perplexity,
                rescued_draws,
                zero_mass_draws,
            } => members.extend([
                ("perplexity", num(*perplexity)),
                ("rescued_draws", int(*rescued_draws)),
                ("zero_mass_draws", int(*zero_mass_draws)),
            ]),
        }
        obj(members).render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_and_json_shapes() {
        let events = [
            TrainEvent::Sweep {
                sweep: 12,
                duration_secs: 0.01,
                tokens: 9600,
                tokens_per_sec: 960_000.0,
                loglik: Some(-123.5),
                loglik_clamped_tokens: 2,
            },
            TrainEvent::SparseBuckets {
                sweep: 12,
                counts: SparseBucketCounts {
                    q_hits: 9000,
                    r_hits: 500,
                    s_hits: 100,
                    dense_fallbacks: 1,
                },
            },
            TrainEvent::ShardSweep {
                sweep: 3,
                timings: ShardTimings {
                    shard_secs: vec![0.5, 0.25],
                    merge_secs: 0.125,
                    refresh_secs: vec![0.0625, 0.03125],
                    moved: 40,
                    buckets: None,
                },
            },
            TrainEvent::Adapt {
                sweep: 10,
                duration_secs: 0.002,
                threads: 8,
            },
            TrainEvent::Checkpoint {
                sweep: 6,
                bytes: 40960,
                duration_secs: 0.003,
            },
            TrainEvent::FitComplete {
                sweeps: 24,
                duration_secs: 0.5,
                tokens_per_sec: 460_800.0,
                loglik_clamped_tokens: 0,
            },
            TrainEvent::Perplexity {
                perplexity: 56.5,
                rescued_draws: 3,
                zero_mass_draws: 0,
            },
        ];
        for e in &events {
            let line = e.to_json();
            assert!(
                line.starts_with(&format!("{{\"event\":\"{}\"", e.kind())),
                "{line}"
            );
            assert!(line.ends_with('}'), "{line}");
            assert!(!line.contains('\n'));
        }
        // Spot-check exact renderings (the schema contract).
        assert_eq!(
            events[0].to_json(),
            "{\"event\":\"sweep\",\"sweep\":12,\"duration_secs\":0.01,\"tokens\":9600,\
             \"tokens_per_sec\":960000,\"loglik\":-123.5,\"loglik_clamped_tokens\":2}"
        );
        assert_eq!(
            events[2].to_json(),
            "{\"event\":\"shard_sweep\",\"sweep\":3,\"merge_secs\":0.125,\
             \"shard_secs\":[0.5,0.25],\"refresh_secs\":[0.0625,0.03125],\"moved\":40}"
        );
        // Sharded-sparse sweeps append the aggregated bucket tallies.
        let with_buckets = TrainEvent::ShardSweep {
            sweep: 3,
            timings: ShardTimings {
                shard_secs: vec![0.5, 0.25],
                merge_secs: 0.125,
                refresh_secs: vec![0.0625, 0.03125],
                moved: 40,
                buckets: Some(SparseBucketCounts {
                    q_hits: 9000,
                    r_hits: 500,
                    s_hits: 100,
                    dense_fallbacks: 1,
                }),
            },
        };
        assert_eq!(
            with_buckets.to_json(),
            "{\"event\":\"shard_sweep\",\"sweep\":3,\"merge_secs\":0.125,\
             \"shard_secs\":[0.5,0.25],\"refresh_secs\":[0.0625,0.03125],\"moved\":40,\
             \"q_hits\":9000,\"r_hits\":500,\"s_hits\":100,\"dense_fallbacks\":1}"
        );
    }

    #[test]
    fn no_loglik_renders_null() {
        let e = TrainEvent::Sweep {
            sweep: 1,
            duration_secs: 0.0,
            tokens: 10,
            tokens_per_sec: 0.0,
            loglik: None,
            loglik_clamped_tokens: 0,
        };
        assert!(e.to_json().contains("\"loglik\":null"));
    }

    #[test]
    fn bucket_totals_add_up() {
        let c = SparseBucketCounts {
            q_hits: 1,
            r_hits: 2,
            s_hits: 3,
            dense_fallbacks: 4,
        };
        assert_eq!(c.total(), 10);
    }
}
