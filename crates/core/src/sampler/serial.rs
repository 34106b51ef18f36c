//! The **dense reference** serial collapsed Gibbs sweep (the `Sample`
//! procedure of the paper's Algorithm 1): the
//! [`KernelKind::Dense`](crate::sampler::KernelKind::Dense) kernel, run
//! in place as `ShardedDocs { kernel: Dense, shards: 1, .. }` or per shard
//! at `S > 1`.
//!
//! Per token: decrement the counts for the current assignment, accumulate
//! the unnormalized topic probabilities `p_t` (Eq. 2 for symmetric/fixed
//! topics, Eq. 3 for λ-integrated topics) as a running inclusive prefix sum,
//! draw one uniform, binary-search the prefix, and re-increment. The
//! current document's `n_dt` lives in one `T`-long row, counted from its
//! assignments on entry and zeroed on exit.
//!
//! The document-length denominator `n_d + Kα` of the topic prior is constant
//! across topics for a fixed token and therefore dropped (it cancels in the
//! categorical normalization).
//!
//! This loop is the semantic baseline the optimized kernel
//! ([`crate::sampler::kernel`]) must match bit for bit; production serial
//! sampling routes through the kernel instead. Keep the two in lock-step
//! when touching either.

use super::{idx_u32, SweepContext};
use rand::Rng;
use srclda_math::categorical::binary_search_cumulative;
use srclda_math::SldaRng;
use std::sync::atomic::Ordering;

/// One full sweep over every token of every document.
pub(crate) fn sweep(ctx: &SweepContext<'_>, z: &mut [Vec<u32>], rng: &mut SldaRng) {
    let t_count = ctx.num_topics();
    let alpha = ctx.alpha;
    let nt = ctx.counts.nt_all();
    let mut buf = vec![0.0; t_count];
    let mut nd = vec![0u32; t_count];
    for (doc_tokens, z_doc) in ctx.tokens.iter().zip(z.iter_mut()) {
        for &t in z_doc.iter() {
            nd[t as usize] += 1;
        }
        for (&word, zt) in doc_tokens.iter().zip(z_doc.iter_mut()) {
            let w = word as usize;
            let old = *zt as usize;
            ctx.counts.decrement(w, old);
            nd[old] -= 1;
            let nw_row = ctx.counts.nw_row(w);
            let mut acc = 0.0;
            for t in 0..t_count {
                let weight = ctx.priors[t].word_weight(
                    w,
                    nw_row[t].load(Ordering::Relaxed) as f64,
                    nt[t].load(Ordering::Relaxed) as f64,
                ) * (nd[t] as f64 + alpha);
                acc += weight;
                buf[t] = acc;
            }
            let new = if acc > 0.0 && acc.is_finite() {
                let u = rng.gen::<f64>() * acc;
                binary_search_cumulative(&buf, u)
            } else {
                // Every topic has zero weight (possible under CTM when the
                // word is outside all concept bags): fall back to a uniform
                // topic so the chain stays well defined.
                rng.gen_range(0..t_count)
            };
            *zt = idx_u32(new);
            ctx.counts.increment(w, new);
            nd[new] += 1;
        }
        for &t in z_doc.iter() {
            nd[t as usize] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::CountMatrices;
    use crate::prior::TopicPrior;
    use srclda_math::rng_from_seed;

    /// Two documents over a 4-word vocabulary and two strongly-separated
    /// fixed priors.
    fn fixture() -> (Vec<Vec<u32>>, CountMatrices, Vec<TopicPrior>) {
        // vocab: 0 = pencil, 1 = ruler, 2 = baseball, 3 = umpire
        let tokens = vec![vec![0, 0, 3], vec![1, 1, 2]];
        let counts = CountMatrices::new(4, 2);
        let school = srclda_knowledge::SourceTopic::new("School", vec![10.0, 10.0, 0.0, 0.0]);
        let sports = srclda_knowledge::SourceTopic::new("Sports", vec![0.0, 0.0, 10.0, 10.0]);
        let priors = vec![
            TopicPrior::fixed_from_source(&school, 0.01),
            TopicPrior::fixed_from_source(&sports, 0.01),
        ];
        (tokens, counts, priors)
    }

    fn init_assignments(
        tokens: &[Vec<u32>],
        counts: &CountMatrices,
        rng: &mut srclda_math::SldaRng,
    ) -> Vec<Vec<u32>> {
        tokens
            .iter()
            .map(|doc| {
                doc.iter()
                    .map(|&w| {
                        let t = rng.gen_range(0..counts.num_topics()) as u32;
                        counts.increment(w as usize, t as usize);
                        t
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn sweep_preserves_count_invariants() {
        let (tokens, counts, priors) = fixture();
        let mut rng = rng_from_seed(5);
        let mut z = init_assignments(&tokens, &counts, &mut rng);
        let ctx = SweepContext {
            tokens: &tokens,
            counts: &counts,
            priors: &priors,
            alpha: 0.5,
        };
        for _ in 0..20 {
            sweep(&ctx, &mut z, &mut rng);
            assert!(counts.check_invariants());
        }
    }

    #[test]
    fn sweep_separates_topics_under_strong_priors() {
        let (tokens, counts, priors) = fixture();
        let mut rng = rng_from_seed(7);
        let mut z = init_assignments(&tokens, &counts, &mut rng);
        let ctx = SweepContext {
            tokens: &tokens,
            counts: &counts,
            priors: &priors,
            alpha: 0.1,
        };
        for _ in 0..100 {
            sweep(&ctx, &mut z, &mut rng);
        }
        // pencil/ruler tokens → topic 0; baseball/umpire → topic 1.
        assert_eq!(z[0][0], 0, "pencil should map to School");
        assert_eq!(z[0][1], 0);
        assert_eq!(z[1][0], 0, "ruler should map to School");
        assert_eq!(z[0][2], 1, "umpire should map to Sports");
        assert_eq!(z[1][2], 1, "baseball should map to Sports");
    }

    #[test]
    fn sweep_is_deterministic_in_seed() {
        let run = || {
            let (tokens, counts, priors) = fixture();
            let mut rng = rng_from_seed(11);
            let mut z = init_assignments(&tokens, &counts, &mut rng);
            let ctx = SweepContext {
                tokens: &tokens,
                counts: &counts,
                priors: &priors,
                alpha: 0.5,
            };
            for _ in 0..10 {
                sweep(&ctx, &mut z, &mut rng);
            }
            z
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn zero_weight_fallback_keeps_chain_alive() {
        // Concept priors covering neither word 0 nor 1 at all.
        let tokens = vec![vec![0, 1]];
        let counts = CountMatrices::new(2, 2);
        let priors = vec![
            TopicPrior::concept_set(&[], 0.5, 2).unwrap(),
            TopicPrior::concept_set(&[], 0.5, 2).unwrap(),
        ];
        let mut rng = rng_from_seed(13);
        let mut z = init_assignments(&tokens, &counts, &mut rng);
        let ctx = SweepContext {
            tokens: &tokens,
            counts: &counts,
            priors: &priors,
            alpha: 0.5,
        };
        for _ in 0..5 {
            sweep(&ctx, &mut z, &mut rng);
            assert!(counts.check_invariants());
        }
    }
}
