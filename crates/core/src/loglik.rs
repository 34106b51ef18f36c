//! Joint log-likelihood of the word assignments, `ln P(w | z)`.
//!
//! Figure 6 of the paper plots per-iteration log-likelihood traces for the
//! graphical experiment. We use the standard collapsed expression
//! (Griffiths & Steyvers):
//!
//! ```text
//! ln P(w|z) = Σ_t [ ln B(n_·t + δ_t) − ln B(δ_t) ]
//! ```
//!
//! where `B` is the multivariate beta function and `δ_t` the topic's
//! Dirichlet parameter vector. For λ-integrated topics we use the
//! quadrature-expected hyperparameters (a deterministic surrogate for the
//! intractable mixture normalizer); for frozen (EDA) topics the likelihood
//! term is multinomial: `Σ_w n_wt ln φ_wt`.

use crate::counts::CountMatrices;
use crate::prior::TopicPrior;
use srclda_math::special::ln_gamma;

/// Frozen-topic probabilities below this are clamped before `ln()` so the
/// total stays finite; every token hit by the clamp is **counted** (see
/// [`WordLogLikelihood::clamped_tokens`]) rather than silently absorbed.
const CLAMP_FLOOR: f64 = 1e-300;

/// The joint log-likelihood plus its numeric-health report: how many
/// tokens sat on (near-)zero-probability words and had their contribution
/// clamped to `ln(1e-300)`. A non-zero count means `value` is a *floor* on
/// the true `ln P(w|z) = −∞` degeneracy — callers that treat the trace as
/// exact (convergence detection, model comparison) should surface it, the
/// same way the eval pipeline reports NaN inputs instead of scoring them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WordLogLikelihood {
    /// `ln P(w | z)` with clamped frozen-topic terms.
    pub value: f64,
    /// Number of tokens (counted with multiplicity) whose word probability
    /// was below `CLAMP_FLOOR` under their assigned frozen topic.
    pub clamped_tokens: u64,
}

/// Compute `ln P(w | z)` from the current counts.
///
/// Thin wrapper over [`joint_word_log_likelihood_counted`] that discards
/// the clamp report — for callers that only plot the trace.
pub fn joint_word_log_likelihood(counts: &CountMatrices, priors: &[TopicPrior]) -> f64 {
    joint_word_log_likelihood_counted(counts, priors).value
}

/// Compute `ln P(w | z)` and report how many tokens were clamped (see
/// [`WordLogLikelihood`]).
pub fn joint_word_log_likelihood_counted(
    counts: &CountMatrices,
    priors: &[TopicPrior],
) -> WordLogLikelihood {
    let v = counts.vocab_size();
    let mut total = 0.0;
    let mut clamped = 0u64;
    for (t, prior) in priors.iter().enumerate() {
        match prior {
            TopicPrior::Frozen { phi } => {
                for (w, &p_w) in phi.iter().enumerate().take(v) {
                    let n = counts.nw(w, t);
                    if n > 0 {
                        if p_w < CLAMP_FLOOR {
                            // A token assigned to a frozen topic that puts
                            // (numerically) no mass on its word: the true
                            // term is −∞ (or near it); clamp but count.
                            clamped += n as u64;
                        }
                        total += n as f64 * p_w.max(CLAMP_FLOOR).ln();
                    }
                }
            }
            _ => {
                let mut delta_sum = 0.0;
                let mut lnb_prior = 0.0;
                let mut lnb_post = 0.0;
                for w in 0..v {
                    let delta = prior.effective_delta(w);
                    if delta <= 0.0 {
                        // Outside a concept's support both prior and
                        // posterior place no mass; the term contributes 0.
                        continue;
                    }
                    delta_sum += delta;
                    lnb_prior += ln_gamma(delta);
                    lnb_post += ln_gamma(delta + counts.nw(w, t) as f64);
                }
                if delta_sum <= 0.0 {
                    continue;
                }
                let nt = counts.nt(t) as f64;
                total += (lnb_post - ln_gamma(delta_sum + nt)) - (lnb_prior - ln_gamma(delta_sum));
            }
        }
    }
    WordLogLikelihood {
        value: total,
        clamped_tokens: clamped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_counts(assign: &[(usize, usize)], v: usize, t: usize) -> CountMatrices {
        let c = CountMatrices::new(v, t);
        for &(w, topic) in assign {
            c.increment(w, topic);
        }
        c
    }

    #[test]
    fn empty_counts_give_zero() {
        let counts = CountMatrices::new(3, 2);
        let priors = vec![
            TopicPrior::symmetric(0.5, 3).unwrap(),
            TopicPrior::symmetric(0.5, 3).unwrap(),
        ];
        assert!(joint_word_log_likelihood(&counts, &priors).abs() < 1e-12);
    }

    #[test]
    fn concentrated_assignments_beat_scattered() {
        // Topic 0 gets all of word 0; the alternative scatters words evenly.
        let priors = vec![
            TopicPrior::symmetric(0.1, 2).unwrap(),
            TopicPrior::symmetric(0.1, 2).unwrap(),
        ];
        let concentrated = make_counts(&[(0, 0), (0, 0), (1, 1), (1, 1)], 2, 2);
        let scattered = make_counts(&[(0, 0), (0, 1), (1, 0), (1, 1)], 2, 2);
        let lc = joint_word_log_likelihood(&concentrated, &priors);
        let ls = joint_word_log_likelihood(&scattered, &priors);
        assert!(lc > ls, "concentrated {lc} should beat scattered {ls}");
    }

    #[test]
    fn matching_the_source_prior_scores_higher() {
        // A fixed prior strongly favoring word 0 should prefer counts where
        // word 0 is assigned to it.
        let topic = srclda_knowledge::SourceTopic::new("T", vec![20.0, 1.0]);
        let priors = vec![
            TopicPrior::fixed_from_source(&topic, 0.01),
            TopicPrior::symmetric(0.1, 2).unwrap(),
        ];
        let aligned = make_counts(&[(0, 0), (0, 0), (1, 1)], 2, 2);
        let misaligned = make_counts(&[(1, 0), (1, 0), (0, 1)], 2, 2);
        let la = joint_word_log_likelihood(priors_counts(&aligned), &priors);
        let lm = joint_word_log_likelihood(priors_counts(&misaligned), &priors);
        assert!(la > lm, "{la} vs {lm}");
    }

    // Identity helper to keep the test body symmetrical.
    fn priors_counts(c: &CountMatrices) -> &CountMatrices {
        c
    }

    #[test]
    fn frozen_prior_uses_multinomial_term() {
        let topic = srclda_knowledge::SourceTopic::new("T", vec![9.0, 1.0]);
        let priors = vec![TopicPrior::frozen_from_source(&topic, 0.01)];
        let good = make_counts(&[(0, 0), (0, 0)], 2, 1);
        let bad = make_counts(&[(1, 0), (1, 0)], 2, 1);
        let lg = joint_word_log_likelihood(&good, &priors);
        let lb = joint_word_log_likelihood(&bad, &priors);
        assert!(lg > lb);
    }

    #[test]
    fn clamped_frozen_tokens_are_counted_not_silently_floored() {
        // A frozen topic with literally zero mass on word 1 (no smoothing:
        // frozen φ is the normalized raw counts), plus three tokens of
        // word 1 assigned to it anyway — the degenerate state the old code
        // hid behind a silent `max(1e-300)`.
        let topic = srclda_knowledge::SourceTopic::new("T", vec![5.0, 0.0]);
        let priors = vec![TopicPrior::frozen_from_source(&topic, 0.0)];
        let counts = make_counts(&[(0, 0), (1, 0), (1, 0), (1, 0)], 2, 1);
        let report = joint_word_log_likelihood_counted(&counts, &priors);
        assert!(report.value.is_finite(), "clamp must keep the value finite");
        assert_eq!(
            report.clamped_tokens, 3,
            "each zero-probability token counted with multiplicity"
        );
        // The wrapper still returns the clamped value.
        assert_eq!(report.value, joint_word_log_likelihood(&counts, &priors));

        // A healthy state reports zero clamped tokens.
        let healthy = make_counts(&[(0, 0), (0, 0)], 2, 1);
        let clean = joint_word_log_likelihood_counted(&healthy, &priors);
        assert_eq!(clean.clamped_tokens, 0);
    }
}
