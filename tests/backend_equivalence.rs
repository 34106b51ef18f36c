//! The paper's exactness claim (§III.C.4): Algorithms 2 and 3 only
//! reorganize the prefix-sum arithmetic, so from the same seed they walk
//! the same chain as the serial sampler — verified here through the public
//! API on a model mixing every learnable prior kind.
//!
//! **Tolerance: exact (zero).** These are equality assertions on the raw
//! assignment vectors and on every φ/θ entry, not approximate comparisons.
//! Why zero is the right bound:
//!
//! * Every backend consumes exactly one uniform per token from the same
//!   leader-owned RNG and resolves it with the same
//!   first-prefix-exceeding-u rule, so the *chains* can only diverge if a
//!   draw flips across a topic boundary.
//! * The parallel backends reassociate the prefix-sum additions
//!   (chunk-local scans + chunk offsets vs one running accumulation), which
//!   can perturb individual prefix entries by an ulp or two — but a draw
//!   only flips if the uniform lands inside that ulp-wide sliver around a
//!   boundary. On these fixed seeds no draw does, and the test pins that:
//!   the full 25-iteration chain, hence the integer count matrices, hence
//!   every φ/θ entry, match exactly.
//! * φ/θ equality is asserted bit-level rather than with an epsilon so a
//!   regression cannot hide inside a tolerance chosen for convenience.
//!
//! If a future sampler optimization genuinely reassociates more
//! aggressively (e.g. SIMD tree reductions) and a pinned seed starts
//! landing on boundaries, the right fix is to re-pin seeds or assert
//! chain-equality probabilistically over several seeds — not to silently
//! loosen these equalities into approximate ones, which would discard the
//! exactness property the paper proves (§III.C.4) and this reproduction
//! advertises.
//!
//! One kernel is deliberately absent here: `KernelKind::Sparse`
//! resolves the same per-token uniform through bucket thresholds
//! (constant/doc/word masses) rather than a full prefix sum, so it walks
//! a *different* chain by construction and an exact assert is impossible
//! in principle, not merely fragile. Its contract is distribution-level
//! and lives in `tests/kernel_equivalence.rs` and the `sampler::sparse`
//! property tests.

use source_lda::core::generative::{DocLength, LambdaMode, SourceLdaGenerator};
use source_lda::prelude::*;
use source_lda::synth::random_source_topics;

fn fit_with(backend: Backend) -> FittedModel {
    let (vocab, knowledge) = random_source_topics(300, 24, 12, 150, 3);
    let generated = SourceLdaGenerator {
        alpha: 0.5,
        num_docs: 40,
        doc_len: DocLength::Fixed(30),
        lambda_mode: LambdaMode::None,
        seed: 31,
        ..SourceLdaGenerator::default()
    }
    .generate(&knowledge.select(&(0..8).collect::<Vec<_>>()), &vocab)
    .unwrap();
    SourceLda::builder()
        .knowledge_source(knowledge)
        .variant(Variant::Full)
        .unlabeled_topics(4)
        .approximation_steps(3)
        .smoothing(SmoothingMode::Identity)
        .alpha(0.5)
        .iterations(25)
        .backend(backend)
        .seed(77)
        .build()
        .unwrap()
        .fit(&generated.corpus)
        .unwrap()
}

#[test]
fn simple_parallel_matches_serial() {
    let serial = fit_with(Backend::Serial);
    // One thread is the in-place flat kernel; two and three run the pool.
    for threads in [1usize, 2, 3] {
        let par = fit_with(Backend::SimpleParallel { threads });
        assert_eq!(
            serial.assignments(),
            par.assignments(),
            "Algorithm 3 with {threads} threads diverged from the serial chain"
        );
        assert_eq!(serial.phi().as_slice(), par.phi().as_slice());
        assert_eq!(serial.theta().as_slice(), par.theta().as_slice());
    }
}

#[test]
fn prefix_sums_matches_serial() {
    let serial = fit_with(Backend::Serial);
    for threads in [1usize, 2] {
        let par = fit_with(Backend::PrefixSums { threads });
        assert_eq!(
            serial.assignments(),
            par.assignments(),
            "Algorithm 2 with {threads} threads diverged from the serial chain"
        );
    }
}

#[test]
fn different_seeds_give_different_chains() {
    // Sanity check that the equality above is non-trivial.
    let a = fit_with(Backend::Serial);
    let (vocab, knowledge) = random_source_topics(300, 24, 12, 150, 3);
    let generated = SourceLdaGenerator {
        alpha: 0.5,
        num_docs: 40,
        doc_len: DocLength::Fixed(30),
        lambda_mode: LambdaMode::None,
        seed: 31,
        ..SourceLdaGenerator::default()
    }
    .generate(&knowledge.select(&(0..8).collect::<Vec<_>>()), &vocab)
    .unwrap();
    let b = SourceLda::builder()
        .knowledge_source(knowledge)
        .variant(Variant::Full)
        .unlabeled_topics(4)
        .approximation_steps(3)
        .smoothing(SmoothingMode::Identity)
        .alpha(0.5)
        .iterations(25)
        .seed(78) // different seed
        .build()
        .unwrap()
        .fit(&generated.corpus)
        .unwrap();
    assert_ne!(a.assignments(), b.assignments());
}
