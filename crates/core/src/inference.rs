//! Online fold-in inference: score *new* documents against an already
//! trained model.
//!
//! Training (the collapsed Gibbs sampler in [`crate::model`]) and held-out
//! evaluation (§III.C.5a, [`crate::perplexity`]) both work on whole corpora
//! inside one process. Serving works differently: a model is trained once,
//! persisted, and then asked to label a stream of unseen documents, one at a
//! time, concurrently. [`Inference`] is the engine for that workload — it
//! holds only what scoring needs (φ, α, labels), so it can be rebuilt from a
//! deserialized artifact without the training corpus.
//!
//! The engine keeps one copy of φ, word-major (`V × T`): every token of
//! fold-in and of scoring reads the contiguous row of its word. It is built
//! either from a borrowed topic-major φ or, for a model stored as sampler
//! state, derived straight from the counts and priors
//! ([`Inference::from_counts`]); either way it writes that one copy and
//! clones nothing.
//!
//! The estimator is standard *fold-in* Gibbs sampling: φ is frozen at its
//! trained value and only the new document's topic assignments are sampled,
//!
//! ```text
//! p(z_j = t | w_j = w, z_¬j) ∝ φ_tw · (ñ_dt^¬j + α)
//! ```
//!
//! after which `θ̃_td = (ñ_dt + α) / (ñ_d + Tα)` and the document's
//! perplexity is `exp(−Σ_j ln Σ_t φ_t,w_j θ̃_t / ñ_d)`. This is the cheap
//! single-document specialization of the paper's held-out estimator: the
//! `n + ñ` equations collapse to fixed φ because one document's counts are
//! negligible against the training mass (and must be, for results on one
//! request to be independent of every other request in flight).

use crate::error::CoreError;
use crate::model::{compute_phi_word_major, FittedModel};
use crate::persist::CountCells;
use crate::prior::TopicPrior;
use rand::Rng;
use srclda_math::categorical::binary_search_cumulative;
use srclda_math::{rng_from_seed, DenseMatrix};

/// Options for one fold-in run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FoldInConfig {
    /// Gibbs sweeps over the document (clamped to at least 1).
    pub iterations: usize,
    /// RNG seed — fold-in is a pure function of `(φ, α, tokens, seed)`.
    pub seed: u64,
}

impl Default for FoldInConfig {
    fn default() -> Self {
        Self {
            iterations: 30,
            seed: 0,
        }
    }
}

/// The posterior summary of one folded-in document.
#[derive(Debug, Clone, PartialEq)]
pub struct InferredDocument {
    theta: Vec<f64>,
    assignments: Vec<u32>,
    log_likelihood: f64,
}

impl InferredDocument {
    /// The document–topic distribution θ̃ (length `T`, sums to 1).
    pub fn theta(&self) -> &[f64] {
        &self.theta
    }

    /// Final per-token topic assignments (same length as the input tokens).
    pub fn assignments(&self) -> &[u32] {
        &self.assignments
    }

    /// Number of tokens that were folded in.
    pub fn num_tokens(&self) -> usize {
        self.assignments.len()
    }

    /// Total log-likelihood `Σ_j ln p(w_j | φ, θ̃)`.
    pub fn log_likelihood(&self) -> f64 {
        self.log_likelihood
    }

    /// Per-token perplexity `exp(−log-likelihood / ñ_d)`; lower is better.
    ///
    /// An empty document carries no evidence and reports the neutral 1.0.
    pub fn perplexity(&self) -> f64 {
        if self.assignments.is_empty() {
            1.0
        } else {
            (-self.log_likelihood / self.assignments.len() as f64).exp()
        }
    }

    /// Indices of the `n` most probable topics, descending (ties broken by
    /// lowest index — see [`srclda_math::simplex::top_n_indices`]).
    pub fn top_topics(&self, n: usize) -> Vec<usize> {
        srclda_math::simplex::top_n_indices(&self.theta, n)
    }
}

/// A scoring-only view of a trained topic model: φ, α, and labels.
///
/// Build from a live [`FittedModel`] ([`Inference::from_fitted`]) or from
/// deserialized parts ([`Inference::from_parts`]); both paths produce
/// bit-identical fold-in results for the same seed.
#[derive(Debug, Clone)]
pub struct Inference {
    /// φ word-major (`V × T`): row `w` holds `φ_tw` for every topic `t`.
    /// Fold-in and scoring walk all topics of one word per token, so each
    /// token reads one contiguous row. This is the only copy of φ.
    phi: DenseMatrix<f64>,
    alpha: f64,
    labels: Vec<Option<String>>,
}

/// Fill `buf` with the running sums of `phi_row[t] · fact[t]`, added left
/// to right, and return the total. The serial sum bounds the loop at one
/// add latency per topic; taking four topics per iteration keeps its speed
/// independent of where the linker places it (on a 2-vCPU Intel Xeon, a
/// one-topic body ran ~20% slower at T = 2000 whenever it straddled a
/// 64-byte line).
fn cumulative_weights(phi_row: &[f64], fact: &[f64], buf: &mut [f64]) -> f64 {
    let split = phi_row.len() - phi_row.len() % 4;
    let mut acc = 0.0;
    let blocks = buf[..split]
        .chunks_exact_mut(4)
        .zip(phi_row[..split].chunks_exact(4))
        .zip(fact[..split].chunks_exact(4));
    for ((b, p), f) in blocks {
        for i in 0..4 {
            acc += p[i] * f[i];
            b[i] = acc;
        }
    }
    let tail = buf[split..].iter_mut().zip(&phi_row[split..]);
    for ((b, &p), &f) in tail.zip(&fact[split..]) {
        acc += p * f;
        *b = acc;
    }
    acc
}

/// Fails unless a `topics × words` model has topics and words, α is
/// positive and finite, and there is one label per topic.
fn check_parts(topics: usize, words: usize, alpha: f64, labels: usize) -> crate::Result<()> {
    if topics == 0 || words == 0 {
        return Err(CoreError::NoTopics);
    }
    if !(alpha > 0.0 && alpha.is_finite()) {
        return Err(CoreError::NonPositiveParameter {
            name: "alpha",
            value: alpha,
        });
    }
    if labels != topics {
        return Err(CoreError::InvalidConfig(format!(
            "{labels} labels for {topics} topics"
        )));
    }
    Ok(())
}

impl Inference {
    /// Build from explicit parts; `phi` is topic-major (`T × V`) and is
    /// read once into the engine's word-major copy.
    ///
    /// # Errors
    /// Fails if φ has no topics or no words, `alpha` is not positive and
    /// finite, or the label count does not match φ's topic count.
    pub fn from_parts(
        phi: &DenseMatrix<f64>,
        alpha: f64,
        labels: Vec<Option<String>>,
    ) -> crate::Result<Self> {
        check_parts(phi.rows(), phi.cols(), alpha, labels.len())?;
        Ok(Self {
            phi: phi.transposed(),
            alpha,
            labels,
        })
    }

    /// Build from sampler state: φ at the counts `counts` under `priors`
    /// (Eq. 1 / Eq. 4), derived straight into the engine's word-major
    /// layout. No topic-major φ and no dense `nw` is built, and the φ is
    /// bit for bit the one [`Self::from_fitted`] serves for the same
    /// counts and priors.
    ///
    /// # Errors
    /// Fails if there are no topics or no words, `alpha` is not positive
    /// and finite, the label count does not match the topic count, or
    /// `priors` are not one prior per topic over the counts' vocabulary.
    pub fn from_counts(
        priors: &[TopicPrior],
        counts: &CountCells,
        alpha: f64,
        labels: Vec<Option<String>>,
    ) -> crate::Result<Self> {
        check_parts(
            counts.num_topics(),
            counts.vocab_size(),
            alpha,
            labels.len(),
        )?;
        counts.check_priors(priors)?;
        Ok(Self {
            phi: compute_phi_word_major(priors, counts),
            alpha,
            labels,
        })
    }

    /// Snapshot a fitted model's φ/α/labels for serving.
    pub fn from_fitted(fitted: &FittedModel) -> Self {
        Self {
            phi: fitted.phi().transposed(),
            alpha: fitted.alpha(),
            labels: fitted.labels().to_vec(),
        }
    }

    /// Topic count `T`.
    pub fn num_topics(&self) -> usize {
        self.phi.cols()
    }

    /// Vocabulary size `V`.
    pub fn vocab_size(&self) -> usize {
        self.phi.rows()
    }

    /// The document–topic prior α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Per-topic labels (`None` for unlabeled topics).
    pub fn labels(&self) -> &[Option<String>] {
        &self.labels
    }

    /// Label of one topic.
    pub fn label(&self, t: usize) -> Option<&str> {
        self.labels[t].as_deref()
    }

    /// Fold one tokenized document into the model.
    ///
    /// Deterministic: the result is a pure function of the engine state,
    /// `tokens`, and `config.seed`. An empty token slice yields the prior
    /// (uniform) θ with perplexity 1.
    ///
    /// # Errors
    /// Fails if any token id is outside the model's vocabulary.
    pub fn fold_in(
        &self,
        tokens: &[u32],
        config: &FoldInConfig,
    ) -> crate::Result<InferredDocument> {
        let t_count = self.num_topics();
        let v = self.vocab_size();
        if let Some(&w) = tokens.iter().find(|&&w| w as usize >= v) {
            return Err(CoreError::InvalidConfig(format!(
                "token id {w} outside model vocabulary of size {v}"
            )));
        }
        let denom = tokens.len() as f64 + t_count as f64 * self.alpha;
        if tokens.is_empty() {
            return Ok(InferredDocument {
                theta: vec![1.0 / t_count as f64; t_count],
                assignments: Vec::new(),
                log_likelihood: 0.0,
            });
        }

        let mut rng = rng_from_seed(config.seed);
        let mut nd = vec![0u32; t_count];
        let mut z: Vec<u32> = tokens
            .iter()
            .map(|_| {
                let t = rng.gen_range(0..t_count);
                nd[t] += 1;
                t as u32
            })
            .collect();

        // `fact[t]` mirrors `nd[t] as f64 + α`, patched at the two topics a
        // token move touches — the same incremental bookkeeping as the
        // training kernel, and bit-identical to recomputing per topic.
        let mut fact: Vec<f64> = nd.iter().map(|&n| n as f64 + self.alpha).collect();
        let mut buf = vec![0.0; t_count];
        for _ in 0..config.iterations.max(1) {
            for (j, &word) in tokens.iter().enumerate() {
                let w = word as usize;
                let old = z[j] as usize;
                nd[old] -= 1;
                fact[old] = nd[old] as f64 + self.alpha;
                let acc = cumulative_weights(self.phi.row(w), &fact, &mut buf);
                let new = if acc > 0.0 && acc.is_finite() {
                    let u = rng.gen::<f64>() * acc;
                    binary_search_cumulative(&buf, u)
                } else {
                    rng.gen_range(0..t_count)
                };
                z[j] = new as u32;
                nd[new] += 1;
                fact[new] = nd[new] as f64 + self.alpha;
            }
        }

        let theta: Vec<f64> = nd
            .iter()
            .map(|&n| (n as f64 + self.alpha) / denom)
            .collect();
        let log_likelihood = self.token_log_likelihood(&theta, tokens);
        Ok(InferredDocument {
            theta,
            assignments: z,
            log_likelihood,
        })
    }

    /// `Σ_j ln p(w_j)` for `tokens` under the document mixture `theta`:
    /// `p(w) = Σ_t φ_tw θ_t`, summed left to right over `w`'s row and
    /// floored at 1e-300 to keep logs finite.
    ///
    /// The one scorer: fold-in and both held-out perplexity estimators
    /// ([`crate::perplexity`]) call it, so every path scores documents
    /// identically.
    pub fn token_log_likelihood(&self, theta: &[f64], tokens: &[u32]) -> f64 {
        debug_assert_eq!(theta.len(), self.num_topics());
        let mut buf = vec![0.0; theta.len()];
        let mut log_prob = 0.0;
        for &w in tokens {
            let p = cumulative_weights(self.phi.row(w as usize), theta, &mut buf);
            log_prob += p.max(1e-300).ln();
        }
        log_prob
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lda::Lda;
    use srclda_corpus::{Corpus, CorpusBuilder, Tokenizer};

    fn train() -> (Corpus, FittedModel) {
        let mut b = CorpusBuilder::new().tokenizer(Tokenizer::permissive());
        for _ in 0..10 {
            b.add_tokens("a", &["cat", "dog", "pet", "cat"]);
            b.add_tokens("b", &["stock", "bond", "fund", "stock"]);
        }
        let corpus = b.build();
        let fitted = Lda::builder()
            .topics(2)
            .alpha(0.5)
            .beta(0.1)
            .iterations(100)
            .seed(17)
            .build()
            .unwrap()
            .fit(&corpus)
            .unwrap();
        (corpus, fitted)
    }

    fn ids(corpus: &Corpus, words: &[&str]) -> Vec<u32> {
        words
            .iter()
            .map(|w| corpus.vocabulary().get(w).unwrap().0)
            .collect()
    }

    #[test]
    fn fold_in_produces_normalized_theta() {
        let (corpus, fitted) = train();
        let inf = Inference::from_fitted(&fitted);
        let doc = ids(&corpus, &["cat", "dog", "cat", "pet"]);
        let out = inf.fold_in(&doc, &FoldInConfig::default()).unwrap();
        let sum: f64 = out.theta().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "theta sums to {sum}");
        assert_eq!(out.num_tokens(), 4);
        assert_eq!(out.assignments().len(), 4);
        assert!(out.perplexity() > 1.0);
    }

    #[test]
    fn fold_in_recovers_the_dominant_topic() {
        let (corpus, fitted) = train();
        let inf = Inference::from_fitted(&fitted);
        let animals = ids(&corpus, &["cat", "dog", "pet", "cat", "dog"]);
        let finance = ids(&corpus, &["stock", "bond", "fund", "stock", "bond"]);
        let cfg = FoldInConfig {
            iterations: 50,
            seed: 3,
        };
        let a = inf.fold_in(&animals, &cfg).unwrap();
        let f = inf.fold_in(&finance, &cfg).unwrap();
        let ta = a.top_topics(1)[0];
        let tf = f.top_topics(1)[0];
        assert_ne!(ta, tf, "distinct themes should land on distinct topics");
        assert!(
            a.theta()[ta] > 0.7,
            "theme should dominate: {:?}",
            a.theta()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (corpus, fitted) = train();
        let inf = Inference::from_fitted(&fitted);
        let doc = ids(&corpus, &["cat", "stock", "dog", "fund"]);
        let cfg = FoldInConfig {
            iterations: 25,
            seed: 99,
        };
        let a = inf.fold_in(&doc, &cfg).unwrap();
        let b = inf.fold_in(&doc, &cfg).unwrap();
        assert_eq!(a, b);
        // A different seed is allowed (and here, expected) to mix differently.
        let c = inf
            .fold_in(
                &doc,
                &FoldInConfig {
                    iterations: 25,
                    seed: 100,
                },
            )
            .unwrap();
        assert_eq!(a.num_tokens(), c.num_tokens());
    }

    #[test]
    fn from_parts_matches_from_fitted_bit_exactly() {
        let (corpus, fitted) = train();
        let a = Inference::from_fitted(&fitted);
        let b =
            Inference::from_parts(fitted.phi(), fitted.alpha(), fitted.labels().to_vec()).unwrap();
        let doc = ids(&corpus, &["pet", "fund", "cat", "cat"]);
        let cfg = FoldInConfig {
            iterations: 40,
            seed: 7,
        };
        let ra = a.fold_in(&doc, &cfg).unwrap();
        let rb = b.fold_in(&doc, &cfg).unwrap();
        assert_eq!(ra.theta(), rb.theta());
        assert_eq!(ra.assignments(), rb.assignments());
        assert_eq!(ra.log_likelihood(), rb.log_likelihood());
    }

    #[test]
    fn empty_document_yields_prior_theta() {
        let (_, fitted) = train();
        let inf = Inference::from_fitted(&fitted);
        let out = inf.fold_in(&[], &FoldInConfig::default()).unwrap();
        assert_eq!(out.num_tokens(), 0);
        assert_eq!(out.theta(), &[0.5, 0.5]);
        assert_eq!(out.perplexity(), 1.0);
        assert_eq!(out.log_likelihood(), 0.0);
    }

    #[test]
    fn rejects_out_of_vocabulary_token_ids() {
        let (_, fitted) = train();
        let inf = Inference::from_fitted(&fitted);
        let v = inf.vocab_size() as u32;
        assert!(matches!(
            inf.fold_in(&[0, v], &FoldInConfig::default()),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn rejects_bad_construction() {
        let phi = DenseMatrix::filled(2, 2, 0.25);
        assert!(Inference::from_parts(&DenseMatrix::zeros(0, 4), 0.5, vec![]).is_err());
        assert!(Inference::from_parts(&phi, 0.0, vec![None, None]).is_err());
        assert!(Inference::from_parts(&phi, 0.5, vec![None]).is_err());
    }

    #[test]
    fn labels_carry_over() {
        let (_, fitted) = train();
        let mut inf = Inference::from_fitted(&fitted);
        assert_eq!(inf.labels().len(), 2);
        inf =
            Inference::from_parts(fitted.phi(), inf.alpha(), vec![Some("A".into()), None]).unwrap();
        assert_eq!(inf.label(0), Some("A"));
        assert_eq!(inf.label(1), None);
    }

    #[test]
    fn transposed_phi_matches_topic_major_phi() {
        let (_, fitted) = train();
        let inf = Inference::from_fitted(&fitted);
        assert_eq!(inf.phi.rows(), fitted.vocab_size());
        assert_eq!(inf.phi.cols(), fitted.num_topics());
        for w in 0..inf.vocab_size() {
            for t in 0..inf.num_topics() {
                assert_eq!(inf.phi[(w, t)].to_bits(), fitted.phi()[(t, w)].to_bits());
            }
        }
    }

    #[test]
    fn token_log_likelihood_matches_manual_sum() {
        let phi = DenseMatrix::from_vec(2, 2, vec![0.9, 0.1, 0.2, 0.8]);
        let inf = Inference::from_parts(&phi, 0.5, vec![None, None]).unwrap();
        let theta = [0.25, 0.75];
        let ll = inf.token_log_likelihood(&theta, &[0, 1, 1]);
        let p0: f64 = 0.9 * 0.25 + 0.2 * 0.75;
        let p1: f64 = 0.1 * 0.25 + 0.8 * 0.75;
        let manual = p0.ln() + p1.ln() + p1.ln();
        assert!((ll - manual).abs() < 1e-12);
    }
}
