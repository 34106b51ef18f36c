//! Held-out perplexity (§III.C.5a of the paper).
//!
//! Two estimators, matching the paper's citations:
//!
//! * [`gibbs_perplexity`] — "latent variable estimation via Gibbs sampling":
//!   run the collapsed sampler on the held-out documents with the training
//!   counts **frozen** (the `n + ñ` equations of §III.C.5a), then score
//!   `p(w̃) = Σ_t φ_wt θ̃_td` with the training φ and the inferred test θ.
//! * [`importance_sampling_perplexity`] — "importance sampling" (Wallach et
//!   al. 2009): draw θ samples from the prior and average the document
//!   likelihoods in log space.
//!
//! Perplexity is `exp(−Σ ln p(w̃) / Ñ)` over all held-out tokens; lower is
//! better. Both estimators score tokens with
//! [`Inference::token_log_likelihood`], the scorer online fold-in uses.

use crate::error::CoreError;
use crate::inference::Inference;
use crate::model::FittedModel;
use rand::Rng;
use srclda_corpus::Corpus;
use srclda_math::categorical::binary_search_cumulative;
use srclda_math::special::log_sum_exp;
use srclda_math::{rng_from_seed, Dirichlet};

/// A Gibbs perplexity estimate plus the numeric-guard tallies accumulated
/// while inferring it (see [`gibbs_perplexity_counted`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerplexityEstimate {
    /// `exp(−Σ ln p(w̃) / Ñ)`; lower is better.
    pub perplexity: f64,
    /// Held-out draws whose weight accumulator underflowed (zero or
    /// subnormal) and were recovered by the `2^512` rescale pass. Non-zero
    /// is normal for long, well-explained documents; a *large* fraction
    /// means the estimate leans heavily on the rescue arithmetic.
    pub rescued_draws: u64,
    /// Held-out draws with no representable mass even after rescaling
    /// (structural zeros or non-finite weights) that fell back to a
    /// uniform draw. These weaken the estimate — the inferred θ for the
    /// affected tokens is noise.
    pub zero_mass_draws: u64,
}

/// Counters threaded through [`draw_topic_rescued`].
#[derive(Debug, Default)]
struct DrawTallies {
    rescued: u64,
    zero_mass: u64,
}

/// Gibbs-estimator perplexity.
///
/// # Errors
/// Fails on an empty test corpus or vocabulary mismatch.
pub fn gibbs_perplexity(
    fitted: &FittedModel,
    test: &Corpus,
    iterations: usize,
    seed: u64,
) -> crate::Result<f64> {
    gibbs_perplexity_counted(fitted, test, iterations, seed).map(|e| e.perplexity)
}

/// [`gibbs_perplexity`] returning the estimate together with the
/// underflow-rescue and zero-mass fallback tallies, so telemetry can
/// surface how much of the held-out inference ran on guarded arithmetic.
///
/// # Errors
/// Exactly those of [`gibbs_perplexity`].
pub fn gibbs_perplexity_counted(
    fitted: &FittedModel,
    test: &Corpus,
    iterations: usize,
    seed: u64,
) -> crate::Result<PerplexityEstimate> {
    if test.num_tokens() == 0 {
        return Err(CoreError::EmptyCorpus);
    }
    if test.vocab_size() != fitted.vocab_size() {
        return Err(CoreError::VocabularyMismatch {
            source: fitted.vocab_size(),
            corpus: test.vocab_size(),
        });
    }
    let t_count = fitted.num_topics();
    let alpha = fitted.alpha();
    // Frozen training counts (the un-tilded n's in the held-out equations).
    let frozen_nw = fitted.counts().snapshot_nw();
    let frozen_nt = fitted.counts().snapshot_nt();
    let priors = fitted.priors();

    let tokens: Vec<Vec<u32>> = test
        .docs()
        .iter()
        .map(|d| d.tokens().iter().map(|w| w.0).collect())
        .collect();
    let mut rng = rng_from_seed(seed);
    // Test-side dynamic counts (the tilded ñ's).
    let mut test_nw = vec![0u32; fitted.vocab_size() * t_count];
    let mut test_nt = vec![0u32; t_count];
    let mut test_nd: Vec<Vec<u32>> = tokens.iter().map(|_| vec![0u32; t_count]).collect();
    let mut z: Vec<Vec<u32>> = tokens
        .iter()
        .enumerate()
        .map(|(d, doc)| {
            doc.iter()
                .map(|&w| {
                    let t = rng.gen_range(0..t_count);
                    test_nw[w as usize * t_count + t] += 1;
                    test_nt[t] += 1;
                    test_nd[d][t] += 1;
                    t as u32
                })
                .collect()
        })
        .collect();

    let mut buf = vec![0.0; t_count];
    let mut tallies = DrawTallies::default();
    for _ in 0..iterations.max(1) {
        for (d, doc) in tokens.iter().enumerate() {
            for (j, &word) in doc.iter().enumerate() {
                let w = word as usize;
                let old = z[d][j] as usize;
                test_nw[w * t_count + old] -= 1;
                test_nt[old] -= 1;
                test_nd[d][old] -= 1;
                let new = draw_topic_rescued(&mut buf, &mut rng, &mut tallies, |t, scale| {
                    let nw_eff =
                        frozen_nw[w * t_count + t] as f64 + test_nw[w * t_count + t] as f64;
                    let nt_eff = frozen_nt[t] as f64 + test_nt[t] as f64;
                    (priors[t].word_weight(w, nw_eff, nt_eff) * scale)
                        * ((test_nd[d][t] as f64 + alpha) * scale)
                });
                z[d][j] = new as u32;
                test_nw[w * t_count + new] += 1;
                test_nt[new] += 1;
                test_nd[d][new] += 1;
            }
        }
    }

    // Score with training φ and inferred test θ.
    let inference = Inference::from_fitted(fitted);
    let mut log_prob = 0.0;
    let mut n_tokens = 0usize;
    for (d, doc) in tokens.iter().enumerate() {
        let denom = doc.len() as f64 + t_count as f64 * alpha;
        let theta: Vec<f64> = (0..t_count)
            .map(|t| (test_nd[d][t] as f64 + alpha) / denom)
            .collect();
        log_prob += inference.token_log_likelihood(&theta, doc);
        n_tokens += doc.len();
    }
    Ok(PerplexityEstimate {
        perplexity: (-log_prob / n_tokens as f64).exp(),
        rescued_draws: tallies.rescued,
        zero_mass_draws: tallies.zero_mass,
    })
}

/// One conditional topic draw for the held-out sampler, with an underflow
/// rescue pass.
///
/// `weight(t, scale)` must return the unnormalized topic weight with
/// *each* of its two factors (word weight and document factor) multiplied
/// by `scale` — so a product that underflowed to zero at `scale = 1` is
/// recovered at `scale = 2^512` as `weight · 2^1024`, which cannot
/// overflow (both original factors were below `f64::MIN_POSITIVE`'s square
/// root regime for the product to vanish) and lifts any representable
/// product mass back into the normal range.
///
/// The old guard (`acc > 0.0 && acc.is_finite()`) routed a *fully
/// underflowed* accumulator — `acc == 0.0` even though the true
/// conditional is far from uniform — into the uniform fallback, silently
/// destroying the inferred θ for long, well-explained documents. The
/// healthy fast path now also requires `acc >= f64::MIN_POSITIVE`:
/// a subnormal accumulator means every weight is subnormal (the
/// accumulation is non-negative and monotone) and has lost most of its
/// mantissa, so it takes the rescue pass too. Only a state with *no*
/// representable mass at all (structural zeros everywhere, or NaN/∞
/// weights) falls back to uniform, matching the training kernels.
fn draw_topic_rescued<R: Rng, F: FnMut(usize, f64) -> f64>(
    buf: &mut [f64],
    rng: &mut R,
    tallies: &mut DrawTallies,
    mut weight: F,
) -> usize {
    let t_count = buf.len();
    let mut acc = 0.0;
    for (t, slot) in buf.iter_mut().enumerate() {
        acc += weight(t, 1.0);
        *slot = acc;
    }
    if acc >= f64::MIN_POSITIVE && acc.is_finite() {
        let u = rng.gen::<f64>() * acc;
        return binary_search_cumulative(buf, u);
    }
    if acc.is_finite() {
        // Underflow (acc zero or subnormal): rescale both factors of every
        // weight by 2^512 and retry.
        let scale = 2.0f64.powi(512);
        let mut acc = 0.0;
        for (t, slot) in buf.iter_mut().enumerate() {
            acc += weight(t, scale);
            *slot = acc;
        }
        if acc >= f64::MIN_POSITIVE && acc.is_finite() {
            tallies.rescued += 1;
            let u = rng.gen::<f64>() * acc;
            return binary_search_cumulative(buf, u);
        }
    }
    tallies.zero_mass += 1;
    rng.gen_range(0..t_count)
}

/// Importance-sampling perplexity with `samples` θ draws from the `Dir(α)`
/// prior per document.
///
/// # Errors
/// Fails on an empty test corpus or vocabulary mismatch.
pub fn importance_sampling_perplexity(
    fitted: &FittedModel,
    test: &Corpus,
    samples: usize,
    seed: u64,
) -> crate::Result<f64> {
    if test.num_tokens() == 0 {
        return Err(CoreError::EmptyCorpus);
    }
    if test.vocab_size() != fitted.vocab_size() {
        return Err(CoreError::VocabularyMismatch {
            source: fitted.vocab_size(),
            corpus: test.vocab_size(),
        });
    }
    let t_count = fitted.num_topics();
    let samples = samples.max(1);
    let prior = Dirichlet::symmetric(fitted.alpha(), t_count)?;
    let inference = Inference::from_fitted(fitted);
    let mut rng = rng_from_seed(seed);
    let mut log_prob = 0.0;
    let mut n_tokens = 0usize;
    let mut theta = vec![0.0; t_count];
    let mut per_sample = vec![0.0; samples];
    for (_, doc) in test.iter() {
        let ids: Vec<u32> = doc.tokens().iter().map(|w| w.0).collect();
        for slot in per_sample.iter_mut() {
            prior.sample_into(&mut rng, &mut theta);
            *slot = inference.token_log_likelihood(&theta, &ids);
        }
        log_prob += log_sum_exp(&per_sample) - (samples as f64).ln();
        n_tokens += doc.len();
    }
    Ok((-log_prob / n_tokens as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lda::Lda;
    use srclda_corpus::{CorpusBuilder, Tokenizer};

    fn corpora() -> (Corpus, Corpus, Corpus) {
        // Train: two clean themes. In-domain test: same themes. Off-domain
        // test: shuffled mixtures.
        let mut b = CorpusBuilder::new().tokenizer(Tokenizer::permissive());
        for _ in 0..10 {
            b.add_tokens("a", &["cat", "dog", "pet", "cat"]);
            b.add_tokens("b", &["stock", "bond", "fund", "stock"]);
        }
        b.add_tokens("test-in-1", &["cat", "pet", "dog", "dog"]);
        b.add_tokens("test-in-2", &["bond", "stock", "fund", "bond"]);
        b.add_tokens("test-off-1", &["cat", "stock", "dog", "fund"]);
        b.add_tokens("test-off-2", &["bond", "pet", "fund", "cat"]);
        let all = b.build();
        let train = Corpus::from_parts(all.vocabulary().clone(), all.docs()[..20].to_vec());
        let test_in = Corpus::from_parts(all.vocabulary().clone(), all.docs()[20..22].to_vec());
        let test_off = Corpus::from_parts(all.vocabulary().clone(), all.docs()[22..24].to_vec());
        (train, test_in, test_off)
    }

    fn fit(train: &Corpus) -> FittedModel {
        Lda::builder()
            .topics(2)
            .alpha(0.5)
            .beta(0.1)
            .iterations(100)
            .seed(17)
            .build()
            .unwrap()
            .fit(train)
            .unwrap()
    }

    #[test]
    fn gibbs_perplexity_prefers_in_domain_text() {
        let (train, test_in, test_off) = corpora();
        let fitted = fit(&train);
        let p_in = gibbs_perplexity(&fitted, &test_in, 30, 1).unwrap();
        let p_off = gibbs_perplexity(&fitted, &test_off, 30, 1).unwrap();
        assert!(p_in > 1.0);
        assert!(
            p_in < p_off,
            "in-domain should be less perplexing: {p_in} vs {p_off}"
        );
    }

    #[test]
    fn importance_sampling_agrees_on_ordering() {
        let (train, test_in, test_off) = corpora();
        let fitted = fit(&train);
        let p_in = importance_sampling_perplexity(&fitted, &test_in, 64, 2).unwrap();
        let p_off = importance_sampling_perplexity(&fitted, &test_off, 64, 2).unwrap();
        assert!(p_in < p_off, "{p_in} vs {p_off}");
    }

    #[test]
    fn estimators_are_in_the_same_ballpark() {
        let (train, test_in, _) = corpora();
        let fitted = fit(&train);
        let g = gibbs_perplexity(&fitted, &test_in, 30, 3).unwrap();
        let i = importance_sampling_perplexity(&fitted, &test_in, 128, 3).unwrap();
        let ratio = g / i;
        assert!(
            (0.3..3.0).contains(&ratio),
            "estimators disagree wildly: gibbs {g}, is {i}"
        );
    }

    #[test]
    fn perplexity_bounded_by_vocabulary() {
        // A uniform model cannot beat perplexity V; any model on this corpus
        // must lie within [1, V].
        let (train, test_in, _) = corpora();
        let fitted = fit(&train);
        let v = train.vocab_size() as f64;
        let p = gibbs_perplexity(&fitted, &test_in, 20, 4).unwrap();
        assert!(p >= 1.0 && p <= v * 2.0, "implausible perplexity {p}");
    }

    #[test]
    fn empty_test_corpus_rejected() {
        let (train, _, _) = corpora();
        let fitted = fit(&train);
        let empty = Corpus::from_parts(train.vocabulary().clone(), vec![]);
        assert!(gibbs_perplexity(&fitted, &empty, 10, 1).is_err());
        assert!(importance_sampling_perplexity(&fitted, &empty, 10, 1).is_err());
    }

    #[test]
    fn underflowing_document_is_rescued_not_uniformized() {
        // Regression for the old `acc > 0.0` guard: a document whose every
        // per-topic weight product underflows to exactly 0.0 (word weight
        // ~1e-180, document factor ~1e-180 → true mass ~1e-360, below the
        // smallest subnormal) used to be routed to the *uniform* fallback,
        // erasing a 3:1 conditional. The rescue pass must recover the
        // ratio.
        let word_weights = [1e-180, 3e-180];
        let doc_factor = 1e-180;
        // The unrescued products really do vanish — the precondition of
        // the regression.
        assert_eq!(word_weights[0] * doc_factor, 0.0);
        assert_eq!(word_weights[1] * doc_factor, 0.0);
        let mut rng = rng_from_seed(11);
        let mut buf = vec![0.0; 2];
        let mut tallies = DrawTallies::default();
        let mut hits = [0u32; 2];
        for _ in 0..4000 {
            let t = draw_topic_rescued(&mut buf, &mut rng, &mut tallies, |t, scale| {
                (word_weights[t] * scale) * (doc_factor * scale)
            });
            hits[t] += 1;
        }
        let frac = hits[1] as f64 / 4000.0;
        assert!(
            (frac - 0.75).abs() < 0.05,
            "rescued draw must preserve the 3:1 ratio, got {frac}"
        );
        assert_eq!(tallies.rescued, 4000, "every draw took the rescue pass");
        assert_eq!(tallies.zero_mass, 0);

        // A subnormal (but non-zero) accumulator takes the rescue pass
        // too: precision is already gone at that magnitude.
        let tiny = [2e-320, 6e-320]; // subnormal weights, exact 3:1
        let mut hits = [0u32; 2];
        for _ in 0..4000 {
            let t = draw_topic_rescued(&mut buf, &mut rng, &mut tallies, |t, scale| {
                (tiny[t] * scale) * scale
            });
            hits[t] += 1;
        }
        let frac = hits[1] as f64 / 4000.0;
        assert!((frac - 0.75).abs() < 0.05, "subnormal rescue, got {frac}");
        assert_eq!(tallies.rescued, 8000);
    }

    #[test]
    fn structurally_zero_or_non_finite_mass_still_falls_back_to_uniform() {
        let mut rng = rng_from_seed(3);
        let mut buf = vec![0.0; 3];
        let mut tallies = DrawTallies::default();
        let mut hits = [0u32; 3];
        for _ in 0..3000 {
            let t = draw_topic_rescued(&mut buf, &mut rng, &mut tallies, |_, _| 0.0);
            hits[t] += 1;
        }
        for (t, &h) in hits.iter().enumerate() {
            assert!(
                (700..1300).contains(&h),
                "structural zeros must draw uniformly, topic {t} got {h}"
            );
        }
        assert_eq!(tallies.zero_mass, 3000, "every draw was a uniform fallback");
        assert_eq!(tallies.rescued, 0);
        // NaN weights: no panic, uniform fallback.
        let t = draw_topic_rescued(&mut buf, &mut rng, &mut tallies, |_, _| f64::NAN);
        assert!(t < 3);
        // Infinite mass: likewise.
        let t = draw_topic_rescued(&mut buf, &mut rng, &mut tallies, |_, _| f64::INFINITY);
        assert!(t < 3);
        assert_eq!(tallies.zero_mass, 3002);
    }

    #[test]
    fn deterministic_given_seed() {
        let (train, test_in, _) = corpora();
        let fitted = fit(&train);
        let a = gibbs_perplexity(&fitted, &test_in, 15, 7).unwrap();
        let b = gibbs_perplexity(&fitted, &test_in, 15, 7).unwrap();
        assert_eq!(a, b);
    }
}
