//! The shared Gibbs engine: [`GibbsModel`] (a configured model ready to
//! fit) and [`FittedModel`] (the sampler's final state, from which the
//! posterior estimates are derived).

use crate::counts::{doc_frequencies, CountMatrices};
use crate::error::CoreError;
use crate::inference::PhiTable;
use crate::loglik;
use crate::params::ModelConfig;
use crate::persist::{CountCells, TrainCheckpoint};
use crate::prior::TopicPrior;
use crate::sampler::{run_sweeps, SamplerRngs, SweepContext};
use rand::Rng;
use srclda_corpus::Corpus;
use srclda_math::{rng_from_seed, rng_from_state, rng_state, spawn_rng, DenseMatrix, SldaRng};
use srclda_obs::{NoopObserver, SpanTimer, TrainEvent, TrainObserver};

/// A fully-specified topic model: one prior per topic, optional labels, and
/// the run configuration. Construct via the model builders ([`crate::Lda`],
/// [`crate::SourceLda`], [`crate::Eda`], [`crate::Ctm`]) or directly for
/// custom mixtures.
#[derive(Debug, Clone)]
pub struct GibbsModel {
    priors: Vec<TopicPrior>,
    labels: Vec<Option<String>>,
    vocab_size: usize,
    config: ModelConfig,
}

impl GibbsModel {
    /// Assemble an engine from parts.
    ///
    /// # Errors
    /// Fails if there are no topics, label/prior lengths mismatch, or the
    /// configuration is invalid.
    pub fn new(
        priors: Vec<TopicPrior>,
        labels: Vec<Option<String>>,
        vocab_size: usize,
        config: ModelConfig,
    ) -> crate::Result<Self> {
        if priors.is_empty() {
            return Err(CoreError::NoTopics);
        }
        if labels.len() != priors.len() {
            return Err(CoreError::InvalidConfig(format!(
                "{} labels for {} topics",
                labels.len(),
                priors.len()
            )));
        }
        config.validate()?;
        Ok(Self {
            priors,
            labels,
            vocab_size,
            config,
        })
    }

    /// Total topic count `T`.
    pub fn num_topics(&self) -> usize {
        self.priors.len()
    }

    /// The per-topic priors.
    pub fn priors(&self) -> &[TopicPrior] {
        &self.priors
    }

    /// Per-topic labels (`None` for unlabeled topics) — what a
    /// [`FittedModel`] will carry, available before fitting so tooling can
    /// persist mid-training snapshots.
    pub fn labels(&self) -> &[Option<String>] {
        &self.labels
    }

    /// The run configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Run the collapsed Gibbs sampler on `corpus`.
    ///
    /// # Errors
    /// Fails on an empty corpus or vocabulary mismatch.
    pub fn fit(&self, corpus: &Corpus) -> crate::Result<FittedModel> {
        self.fit_resumable(corpus, None, None, |_| Ok(()))
    }

    /// [`Self::fit`] with training checkpoint/resume support.
    ///
    /// * `resume` — continue from a [`TrainCheckpoint`] captured by an
    ///   earlier run of the **same model configuration** on the **same
    ///   corpus**. The remaining sweeps replay bit-identically to the
    ///   uninterrupted run: chunk boundaries (λ-adaptation, checkpoints)
    ///   never perturb the chain, because every boundary rebuilds sweep
    ///   state from values that are themselves pure functions of
    ///   `(z, counts, priors, RNG states)`.
    /// * `checkpoint_every` — invoke `on_checkpoint` with a fresh
    ///   checkpoint after every `n` completed sweeps (sweep indices are
    ///   absolute, so a resumed run checkpoints at the same boundaries the
    ///   uninterrupted one would). An error from the callback aborts the
    ///   fit.
    ///
    /// Bit-identity covers the *sampler state* — assignments, counts,
    /// priors, and so φ/θ. Recorded traces ([`crate::params::TraceConfig`])
    /// are **not** part of a checkpoint: a resumed run's
    /// `loglik_trace`/`snapshots` cover only the sweeps it ran itself
    /// (entries before the resume point live in the interrupted run's
    /// output).
    ///
    /// The fit ends with its sampler state: the returned [`FittedModel`]
    /// holds the counts as their non-zero cells and φ as the serving
    /// engine's table, built by one pass over the counts plus one over
    /// each word's candidate topics. Dense φ and θ are built only when
    /// [`FittedModel::phi`] or [`FittedModel::theta`] is called.
    ///
    /// # Errors
    /// Everything [`Self::fit`] rejects, plus: a checkpoint that is
    /// structurally corrupt, disagrees with the corpus (dimensions or
    /// counts-vs-assignments), was taken past `iterations`, or whose shard
    /// layout disagrees with the configured backend (a checkpoint with no
    /// shard streams also resumes under `S = 1`).
    pub fn fit_resumable<F>(
        &self,
        corpus: &Corpus,
        resume: Option<&TrainCheckpoint>,
        checkpoint_every: Option<usize>,
        on_checkpoint: F,
    ) -> crate::Result<FittedModel>
    where
        F: FnMut(&TrainCheckpoint) -> crate::Result<()>,
    {
        self.fit_observed(
            corpus,
            resume,
            checkpoint_every,
            on_checkpoint,
            &mut NoopObserver,
        )
    }

    /// [`Self::fit_resumable`] with a telemetry observer attached.
    ///
    /// The observer receives a [`TrainEvent`] value snapshot after every
    /// sweep (duration, throughput, traced log-likelihood, backend detail
    /// like sparse bucket routing and per-shard timings), every
    /// λ-adaptation, every checkpoint, and at completion. Observation is
    /// strictly read-only: the observer never draws from the RNG and never
    /// touches sampler state, so **attaching any observer leaves the
    /// trained model bit-identical** to running without one (pinned by
    /// `tests/telemetry.rs`). With the default [`NoopObserver`]
    /// (`enabled() == false`), the loop skips even the per-sweep clock
    /// reads — disabled telemetry costs one branch per sweep.
    ///
    /// # Errors
    /// Exactly those of [`Self::fit_resumable`]; observers cannot fail the
    /// fit.
    pub fn fit_observed<F>(
        &self,
        corpus: &Corpus,
        resume: Option<&TrainCheckpoint>,
        checkpoint_every: Option<usize>,
        mut on_checkpoint: F,
        observer: &mut dyn TrainObserver,
    ) -> crate::Result<FittedModel>
    where
        F: FnMut(&TrainCheckpoint) -> crate::Result<()>,
    {
        if corpus.num_tokens() == 0 {
            return Err(CoreError::EmptyCorpus);
        }
        if corpus.vocab_size() != self.vocab_size {
            return Err(CoreError::VocabularyMismatch {
                source: self.vocab_size,
                corpus: corpus.vocab_size(),
            });
        }
        if checkpoint_every == Some(0) {
            return Err(CoreError::InvalidConfig(
                "checkpoint interval must be at least 1 sweep".into(),
            ));
        }
        let t_count = self.num_topics();
        let tokens: Vec<Vec<u32>> = corpus
            .docs()
            .iter()
            .map(|d| d.tokens().iter().map(|w| w.0).collect())
            .collect();
        let doc_lens: Vec<u32> = tokens.iter().map(|d| d.len() as u32).collect();
        let v = self.vocab_size;
        let counts = CountMatrices::new(v, t_count);
        let backend = self.config.backend;
        let total_iters = self.config.iterations;

        // Sampler state: assignments, counts, priors, RNG streams, and the
        // completed-sweep index — initialized fresh or from the checkpoint.
        let mut rng;
        let mut z: Vec<Vec<u32>>;
        let mut priors: Vec<TopicPrior>;
        let mut shard_rngs: Vec<SldaRng>;
        let mut completed: usize;
        match resume {
            None => {
                rng = rng_from_seed(self.config.seed);
                // "Initialize C_topics to random topic assignments"
                // (Algorithm 1).
                z = tokens
                    .iter()
                    .map(|doc| {
                        doc.iter()
                            .map(|&w| {
                                let t = rng.gen_range(0..t_count);
                                counts.increment(w as usize, t);
                                t as u32
                            })
                            .collect()
                    })
                    .collect();
                // Priors are cloned so adaptive λ can re-weight quadrature
                // levels between sweep chunks without mutating the
                // configured model.
                priors = self.priors.clone();
                if self.config.lambda_optimistic_start {
                    for p in priors.iter_mut() {
                        p.optimistic_lambda_start();
                    }
                }
                // Sharded backend: split one stream per shard from the run
                // RNG — shards 1..S are spawned in shard order, then shard
                // 0 *continues* the run stream, so S = 1 spawns nothing
                // and walks its kernel's single-thread chain.
                shard_rngs = Vec::new();
                if backend.is_sharded() {
                    for _ in 1..backend.shards() {
                        shard_rngs.push(spawn_rng(&mut rng));
                    }
                    shard_rngs.insert(0, rng.clone());
                }
                completed = 0;
            }
            Some(cp) => {
                cp.validate(&doc_lens, self.vocab_size, t_count)?;
                let expected_shards = if backend.is_sharded() {
                    backend.shards() as u64
                } else {
                    0
                };
                // A single-thread checkpoint (shard word 0) resumes under
                // S = 1: the lone shard continues the run stream, so
                // seeding it from the main stream continues the chain bit
                // for bit.
                let single_thread_into_one_shard = cp.shard_count() == 0 && expected_shards == 1;
                if cp.shard_count() != expected_shards && !single_thread_into_one_shard {
                    return Err(CoreError::InvalidConfig(format!(
                        "checkpoint was taken with shard layout {} but the backend expects {expected_shards}",
                        cp.shard_count()
                    )));
                }
                // The kernel tag guards sampling *arithmetic*, not
                // scheduling: flat and dense kernels walk bit-identical
                // chains (so swapping between them is legitimate), but the
                // sparse bucket kernel draws from cached bucket masses —
                // resuming a sparse chain densely (or vice versa) would
                // silently fork the chain while keeping the same label.
                let cp_kernel = cp.kernel_kind()?;
                if cp_kernel.is_sparse() != backend.kernel().is_sparse() {
                    return Err(CoreError::InvalidConfig(format!(
                        "checkpoint was trained with the {cp_kernel:?} kernel but the backend \
                         uses the {:?} kernel — sparse and dense-family kernels draw \
                         different chains, so resuming would silently switch the \
                         sampling arithmetic",
                        backend.kernel()
                    )));
                }
                if cp.sweep > total_iters as u64 {
                    return Err(CoreError::InvalidConfig(format!(
                        "checkpoint is at sweep {} but the run is configured for {total_iters}",
                        cp.sweep
                    )));
                }
                if cp.seed != self.config.seed {
                    return Err(CoreError::InvalidConfig(format!(
                        "checkpoint was trained with seed {} but the model is configured \
                         with seed {} — resuming would silently mislabel the run",
                        cp.seed, self.config.seed
                    )));
                }
                // α feeds every token draw ((n_dt + α) in the weight pass),
                // so a changed α breaks bit-identity just as silently as a
                // changed seed; compare bits, not approximate values.
                if cp.alpha.to_bits() != self.config.alpha.to_bits() {
                    return Err(CoreError::InvalidConfig(format!(
                        "checkpoint was trained with alpha {} but the model is configured \
                         with alpha {}",
                        cp.alpha, self.config.alpha
                    )));
                }
                z = cp.z.clone();
                for (doc, zs) in tokens.iter().zip(&z) {
                    for (&w, &t) in doc.iter().zip(zs) {
                        counts.increment(w as usize, t as usize);
                    }
                }
                // The stored counts must be exactly the counts the corpus
                // and assignments imply — a mismatch means the checkpoint
                // belongs to a different corpus (or was corrupted).
                let implied = CountCells::from_dense(self.vocab_size, t_count, counts.nw_values());
                if implied != cp.counts {
                    return Err(CoreError::InvalidConfig(
                        "checkpoint counts disagree with its assignments on this corpus \
                         (checkpoint from a different corpus?)"
                            .into(),
                    ));
                }
                priors = cp
                    .priors
                    .iter()
                    .map(|raw| TopicPrior::from_raw(raw.clone(), self.vocab_size))
                    .collect::<crate::Result<_>>()?;
                rng = rng_from_state(cp.main_rng);
                shard_rngs = if single_thread_into_one_shard {
                    vec![rng.clone()]
                } else {
                    cp.shard_rngs.iter().map(|&s| rng_from_state(s)).collect()
                };
                completed = cp.sweep as usize;
            }
        }

        let mut loglik_trace: Vec<(usize, f64)> = Vec::new();
        let mut loglik_clamped_tokens = 0u64;
        let mut snapshots: Vec<(usize, DenseMatrix<f64>)> = Vec::new();
        let trace = self.config.trace.clone();
        let adapt_every = self
            .config
            .lambda_update_every
            .filter(|_| priors.iter().any(TopicPrior::is_integrated));
        let burn_in = self.config.lambda_burn_in;
        // The first λ-adaptation boundary strictly after `completed`:
        // {burn_in + j·m, j ≥ 0} \ {0}. Chunks end at these boundaries (or
        // at checkpoint boundaries, or at the end of the run); splitting a
        // chunk never changes the chain, only where bookkeeping happens.
        let next_adapt_boundary = |completed: usize| -> usize {
            match adapt_every {
                None => usize::MAX,
                Some(_) if completed < burn_in => burn_in,
                Some(m) => burn_in + ((completed - burn_in) / m + 1) * m,
            }
        };
        let next_checkpoint_boundary = |completed: usize| -> usize {
            match checkpoint_every {
                None => usize::MAX,
                Some(every) => (completed / every + 1) * every,
            }
        };
        // The sweep driver's state, built by the first chunk and lent to
        // every later one (the flat kernel's combined prior table, the
        // sparse kernel's lists, the per-shard workspaces) — λ
        // re-weighting never touches its contents.
        let mut sweep_state = None;
        // Telemetry spans exist only when an enabled observer is attached;
        // the disabled path never reads the clock.
        let observing = observer.enabled();
        let tokens_per_sweep: u64 = doc_lens.iter().map(|&l| u64::from(l)).sum();
        let run_start_sweep = completed;
        let run_span = observing.then(SpanTimer::start);
        let mut sweep_mark = observing.then(SpanTimer::start);
        while completed < total_iters {
            let chunk_end = next_adapt_boundary(completed)
                .min(next_checkpoint_boundary(completed))
                .min(total_iters);
            let chunk = chunk_end - completed;
            let ctx = SweepContext {
                tokens: &tokens,
                counts: &counts,
                priors: &priors,
                alpha: self.config.alpha,
            };
            let base = completed;
            let priors_ref: &[TopicPrior] = &priors;
            run_sweeps(
                backend,
                &ctx,
                &mut z,
                SamplerRngs {
                    main: &mut rng,
                    shards: &mut shard_rngs,
                },
                chunk,
                &mut sweep_state,
                |iter_in_chunk, stats| {
                    let iter = base + iter_in_chunk;
                    // Measure the sweep before the trace work below, so a
                    // traced log-likelihood evaluation is not billed to the
                    // sweep that happened to trigger it.
                    let sweep_secs = sweep_mark.as_ref().map(SpanTimer::elapsed_secs);
                    let mut sweep_loglik = None;
                    let mut sweep_clamped = 0u64;
                    if let Some(every) = trace.log_likelihood_every {
                        if every > 0 && iter.is_multiple_of(every) {
                            let ll = loglik::joint_word_log_likelihood_counted(&counts, priors_ref);
                            loglik_clamped_tokens += ll.clamped_tokens;
                            sweep_clamped = ll.clamped_tokens;
                            sweep_loglik = Some(ll.value);
                            loglik_trace.push((iter, ll.value));
                        }
                    }
                    if trace.phi_snapshots.contains(&iter) {
                        let cells = CountCells::from_dense(v, t_count, counts.nw_values());
                        let phi = PhiTable::from_counts(priors_ref, &cells).to_topic_major();
                        snapshots.push((iter, phi));
                    }
                    if let Some(secs) = sweep_secs {
                        let tokens_per_sec = if secs > 0.0 {
                            tokens_per_sweep as f64 / secs
                        } else {
                            0.0
                        };
                        observer.on_event(&TrainEvent::Sweep {
                            sweep: iter as u64,
                            duration_secs: secs,
                            tokens: tokens_per_sweep,
                            tokens_per_sec,
                            loglik: sweep_loglik,
                            loglik_clamped_tokens: sweep_clamped,
                        });
                        if let Some(counts) = stats.buckets {
                            observer.on_event(&TrainEvent::SparseBuckets {
                                sweep: iter as u64,
                                counts,
                            });
                        }
                        if let Some(timings) = &stats.shards {
                            observer.on_event(&TrainEvent::ShardSweep {
                                sweep: iter as u64,
                                timings: timings.clone(),
                            });
                        }
                        sweep_mark = Some(SpanTimer::start());
                    }
                },
            );
            completed = chunk_end;
            // λ-adaptation runs exactly at its own boundaries — a
            // checkpoint boundary that is not an adaptation boundary must
            // not trigger an extra adaptation (that would make the chain
            // depend on the checkpoint interval).
            let at_adapt_boundary = match adapt_every {
                Some(m) => completed >= burn_in.max(1) && (completed - burn_in).is_multiple_of(m),
                None => false,
            };
            if at_adapt_boundary && completed < total_iters {
                // Topic-sharded (bit-identical for any thread count, so
                // hardware parallelism never perturbs the chain — see
                // `sampler::adapt`).
                let threads = std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1);
                let span = observing.then(SpanTimer::start);
                // Adaptation re-weights the integrated priors' quadrature
                // levels. The next sweep's kernel derives its reciprocals
                // and baselines from the adapted priors at its start, so
                // the sweep state needs no repair.
                crate::sampler::adapt::adapt_integrated_priors(&mut priors, &counts, threads);
                if let Some(span) = span {
                    observer.on_event(&TrainEvent::Adapt {
                        sweep: completed as u64,
                        duration_secs: span.elapsed_secs(),
                        threads: threads as u64,
                    });
                }
            }
            if let Some(every) = checkpoint_every {
                if completed.is_multiple_of(every) {
                    let cp = TrainCheckpoint {
                        sweep: completed as u64,
                        seed: self.config.seed,
                        alpha: self.config.alpha,
                        shards: crate::persist::pack_shards(
                            backend.kernel(),
                            if backend.is_sharded() {
                                backend.shards() as u64
                            } else {
                                0
                            },
                        ),
                        z: z.clone(),
                        counts: CountCells::from_dense(
                            self.vocab_size,
                            t_count,
                            counts.nw_values(),
                        ),
                        main_rng: rng_state(&rng),
                        shard_rngs: shard_rngs.iter().map(rng_state).collect(),
                        priors: priors.iter().map(TopicPrior::to_raw).collect(),
                    };
                    let span = observing.then(SpanTimer::start);
                    on_checkpoint(&cp)?;
                    if let Some(span) = span {
                        observer.on_event(&TrainEvent::Checkpoint {
                            sweep: completed as u64,
                            bytes: cp.payload_bytes(),
                            duration_secs: span.elapsed_secs(),
                        });
                    }
                }
            }
            // Boundary work (adaptation, checkpointing) has its own spans;
            // don't bill it to the next sweep's duration.
            if observing {
                sweep_mark = Some(SpanTimer::start());
            }
        }
        // The shard-local counts and kernel lists are done with.
        drop(sweep_state);

        if let Some(run_span) = run_span {
            let duration_secs = run_span.elapsed_secs();
            let sweeps = (total_iters - run_start_sweep) as u64;
            let sampled = sweeps * tokens_per_sweep;
            let tokens_per_sec = if duration_secs > 0.0 {
                sampled as f64 / duration_secs
            } else {
                0.0
            };
            observer.on_event(&TrainEvent::FitComplete {
                sweeps,
                duration_secs,
                tokens_per_sec,
                loglik_clamped_tokens,
            });
        }

        // The model keeps the counts as their non-zero cells; the dense
        // matrix goes before φ's table is built from the cells.
        let cells = CountCells::from_dense(v, t_count, counts.nw_values());
        drop(counts);
        Ok(FittedModel {
            phi: PhiTable::from_counts(&priors, &cells),
            counts: cells,
            assignments: z,
            labels: self.labels.clone(),
            priors,
            alpha: self.config.alpha,
            loglik_trace,
            loglik_clamped_tokens,
            snapshots,
        })
    }
}

/// One document's θ (Eq. 1), `θ_td = (n_dt + α) / (n_d + Tα)`, into
/// `row` (length `T`), its `n_dt` counted there from the assignments `zs`.
fn theta_into(zs: &[u32], alpha: f64, row: &mut [f64]) {
    row.fill(0.0);
    for &t in zs {
        row[t as usize] += 1.0;
    }
    let denom = zs.len() as f64 + row.len() as f64 * alpha;
    for cell in row {
        *cell = (*cell + alpha) / denom;
    }
}

/// The result of a Gibbs run: the sampler's final state — assignments,
/// the word–topic counts as their non-zero cells, the (λ-adapted) priors
/// and α — with the labels, the recorded traces, and φ as the serving
/// engine's table of per-topic baselines and per-word exceptions (see
/// [`crate::inference`]). Eq. 1 and Eq. 4 define φ and θ as functions of
/// the final counts, so the dense matrices are built on request, each call
/// anew: nothing `V·T` or `D·T` is kept.
#[derive(Debug)]
pub struct FittedModel {
    phi: PhiTable,
    assignments: Vec<Vec<u32>>,
    labels: Vec<Option<String>>,
    priors: Vec<TopicPrior>,
    counts: CountCells,
    alpha: f64,
    loglik_trace: Vec<(usize, f64)>,
    loglik_clamped_tokens: u64,
    snapshots: Vec<(usize, DenseMatrix<f64>)>,
}

impl FittedModel {
    /// Number of topics `T`.
    pub fn num_topics(&self) -> usize {
        self.counts.num_topics()
    }

    /// Vocabulary size `V`.
    pub fn vocab_size(&self) -> usize {
        self.counts.vocab_size()
    }

    /// Topic–word matrix φ (`T × V`, rows normalized), written out from
    /// the model's table: `O(V·T)` time and memory per call, so a caller
    /// that reads several topics calls it once.
    pub fn phi(&self) -> DenseMatrix<f64> {
        self.phi.to_topic_major()
    }

    /// One topic's word distribution, row `t` of [`Self::phi`]: `O(V)`
    /// per call.
    pub fn phi_row(&self, t: usize) -> Vec<f64> {
        self.phi.topic_row(t)
    }

    /// φ as the serving engine's table ([`crate::Inference::from_fitted`]
    /// clones it).
    pub(crate) fn phi_table(&self) -> &PhiTable {
        &self.phi
    }

    /// Document–topic matrix θ (`D × T`, rows normalized), counted from
    /// the assignments: `O(N + D·T)` per call.
    pub fn theta(&self) -> DenseMatrix<f64> {
        let mut theta = DenseMatrix::zeros(self.assignments.len(), self.num_topics());
        for (d, zs) in self.assignments.iter().enumerate() {
            theta_into(zs, self.alpha, theta.row_mut(d));
        }
        theta
    }

    /// One document's topic distribution, row `d` of [`Self::theta`]:
    /// `O(n_d + T)` per call.
    pub fn theta_row(&self, d: usize) -> Vec<f64> {
        let mut row = vec![0.0; self.num_topics()];
        theta_into(&self.assignments[d], self.alpha, &mut row);
        row
    }

    /// Final per-token topic assignments, indexed `[doc][position]`.
    pub fn assignments(&self) -> &[Vec<u32>] {
        &self.assignments
    }

    /// Per-topic labels (`None` for unlabeled topics).
    pub fn labels(&self) -> &[Option<String>] {
        &self.labels
    }

    /// Label of one topic.
    pub fn label(&self, t: usize) -> Option<&str> {
        self.labels[t].as_deref()
    }

    /// The priors the model was fitted with.
    pub fn priors(&self) -> &[TopicPrior] {
        &self.priors
    }

    /// The final word–topic counts as their non-zero cells, with the
    /// topic totals (the frozen training counts of held-out perplexity).
    pub fn counts(&self) -> &CountCells {
        &self.counts
    }

    /// The document–topic prior α used in the fit.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Indices of the `n` most probable words of topic `t`, descending.
    pub fn top_words(&self, t: usize, n: usize) -> Vec<usize> {
        srclda_math::simplex::top_n_indices(&self.phi_row(t), n)
    }

    /// Recorded `(iteration, log-likelihood)` pairs.
    pub fn loglik_trace(&self) -> &[(usize, f64)] {
        &self.loglik_trace
    }

    /// Total tokens whose frozen-topic word probability had to be clamped
    /// across every recorded [`Self::loglik_trace`] evaluation (see
    /// [`crate::loglik::WordLogLikelihood`]). Non-zero means the trace
    /// values floor a numerically degenerate likelihood rather than
    /// measure it exactly; always 0 when no trace was recorded.
    pub fn loglik_clamped_tokens(&self) -> u64 {
        self.loglik_clamped_tokens
    }

    /// Recorded `(iteration, φ)` snapshots.
    pub fn snapshots(&self) -> &[(usize, DenseMatrix<f64>)] {
        &self.snapshots
    }

    /// Document frequencies of every topic: `out[t]` counts the documents
    /// in which topic `t` received at least `min_tokens` assignments (0
    /// counts as 1) — the signal of the superset topic reduction
    /// (§III.C.3), counted from the assignments in one pass.
    pub fn topic_doc_frequencies(&self, min_tokens: u32) -> Vec<usize> {
        doc_frequencies(&self.assignments, self.num_topics(), min_tokens)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::TraceConfig;
    use crate::sampler::Backend;
    use srclda_corpus::{CorpusBuilder, Tokenizer};

    fn corpus() -> Corpus {
        let mut b = CorpusBuilder::new().tokenizer(Tokenizer::permissive());
        for _ in 0..8 {
            b.add_tokens("school", &["pencil", "pencil", "ruler", "eraser"]);
            b.add_tokens("sports", &["baseball", "umpire", "baseball", "glove"]);
        }
        b.build()
    }

    fn config(iters: usize) -> ModelConfig {
        ModelConfig {
            iterations: iters,
            seed: 3,
            ..ModelConfig::default()
        }
    }

    fn symmetric_model(corpus: &Corpus, k: usize, cfg: ModelConfig) -> GibbsModel {
        let v = corpus.vocab_size();
        let priors = (0..k)
            .map(|_| TopicPrior::symmetric(0.1, v).unwrap())
            .collect();
        GibbsModel::new(priors, vec![None; k], v, cfg).unwrap()
    }

    #[test]
    fn fit_produces_normalized_outputs() {
        let c = corpus();
        let fitted = symmetric_model(&c, 2, config(50)).fit(&c).unwrap();
        assert_eq!(fitted.num_topics(), 2);
        assert_eq!(fitted.vocab_size(), c.vocab_size());
        for t in 0..2 {
            let sum: f64 = fitted.phi_row(t).iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "phi row {t} sums to {sum}");
        }
        for d in 0..c.num_docs() {
            let sum: f64 = fitted.theta_row(d).iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "theta row {d} sums to {sum}");
            assert_eq!(fitted.theta_row(d), fitted.theta().row(d));
        }
        // The counts are the histogram of the final assignments.
        let (v, t_count) = (c.vocab_size(), fitted.num_topics());
        let mut nw = vec![0u32; v * t_count];
        for (doc, zs) in c.docs().iter().zip(fitted.assignments()) {
            for (w, &t) in doc.tokens().iter().zip(zs) {
                nw[w.index() * t_count + t as usize] += 1;
            }
        }
        assert_eq!(fitted.counts(), &CountCells::from_dense(v, t_count, nw));
        for t in 0..t_count {
            assert_eq!(fitted.phi_row(t), fitted.phi().row(t));
        }
    }

    #[test]
    fn two_clean_topics_are_recovered() {
        let c = corpus();
        let fitted = symmetric_model(&c, 2, config(150)).fit(&c).unwrap();
        // The top word sets of the two topics should separate school words
        // from sports words.
        let vocab = c.vocabulary();
        let tops: Vec<Vec<&str>> = (0..2)
            .map(|t| {
                fitted
                    .top_words(t, 3)
                    .into_iter()
                    .map(|w| vocab.word(srclda_corpus::WordId::new(w)))
                    .collect()
            })
            .collect();
        let school = ["pencil", "ruler", "eraser"];
        let sports = ["baseball", "umpire", "glove"];
        let t0_school = tops[0].iter().filter(|w| school.contains(w)).count();
        let t0_sports = tops[0].iter().filter(|w| sports.contains(w)).count();
        assert!(
            t0_school == 3 || t0_sports == 3,
            "topics failed to separate: {tops:?}"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let c = corpus();
        let f1 = symmetric_model(&c, 2, config(30)).fit(&c).unwrap();
        let f2 = symmetric_model(&c, 2, config(30)).fit(&c).unwrap();
        assert_eq!(f1.assignments(), f2.assignments());
        assert_eq!(f1.phi().as_slice(), f2.phi().as_slice());
    }

    #[test]
    fn traces_and_snapshots_recorded() {
        let c = corpus();
        let mut cfg = config(20);
        cfg.trace = TraceConfig {
            log_likelihood_every: Some(5),
            phi_snapshots: vec![1, 10],
        };
        let fitted = symmetric_model(&c, 2, cfg).fit(&c).unwrap();
        let iters: Vec<usize> = fitted.loglik_trace().iter().map(|&(i, _)| i).collect();
        assert_eq!(iters, vec![5, 10, 15, 20]);
        let snap_iters: Vec<usize> = fitted.snapshots().iter().map(|&(i, _)| i).collect();
        assert_eq!(snap_iters, vec![1, 10]);
        // Log-likelihood should generally improve from the random start.
        let first = fitted.loglik_trace()[0].1;
        let last = fitted.loglik_trace().last().unwrap().1;
        assert!(last >= first - 1.0, "loglik degraded: {first} → {last}");
    }

    #[test]
    fn rejects_mismatched_corpus() {
        let c = corpus();
        let other = {
            let mut b = CorpusBuilder::new().tokenizer(Tokenizer::permissive());
            b.add_tokens("d", &["only", "three", "words"]);
            b.build()
        };
        let model = symmetric_model(&c, 2, config(5));
        assert!(matches!(
            model.fit(&other),
            Err(CoreError::VocabularyMismatch { .. })
        ));
    }

    #[test]
    fn rejects_empty_corpus() {
        let c = corpus();
        let empty = CorpusBuilder::new().build();
        let model = symmetric_model(&c, 2, config(5));
        assert!(matches!(model.fit(&empty), Err(CoreError::EmptyCorpus)));
    }

    #[test]
    fn rejects_bad_construction() {
        let c = corpus();
        let v = c.vocab_size();
        assert!(matches!(
            GibbsModel::new(vec![], vec![], v, config(5)),
            Err(CoreError::NoTopics)
        ));
        let priors = vec![TopicPrior::symmetric(0.1, v).unwrap()];
        assert!(GibbsModel::new(priors, vec![None, None], v, config(5)).is_err());
    }

    #[test]
    fn parallel_backend_matches_serial_through_public_api() {
        let c = corpus();
        let mut cfg_serial = config(25);
        cfg_serial.backend = Backend::Serial;
        let mut cfg_par = config(25);
        cfg_par.backend = Backend::SimpleParallel { threads: 3 };
        let f1 = symmetric_model(&c, 4, cfg_serial).fit(&c).unwrap();
        let f2 = symmetric_model(&c, 4, cfg_par).fit(&c).unwrap();
        assert_eq!(f1.assignments(), f2.assignments());
    }
}
