//! The optimized serial kernel (`Backend::Serial` — flat prior tables,
//! cached denominator reciprocals, sparse document-topic bookkeeping,
//! non-atomic counts) must walk the **identical** chain as the dense
//! reference sweep (`KernelKind::Dense` on one shard, `DENSE` below),
//! verified through the public API on models covering every prior kind.
//!
//! **Tolerance: exact (zero)** — same rationale as
//! `backend_equivalence.rs`, but here the bar is even stricter: the kernel
//! reproduces `TopicPrior::word_weight` bit for bit from cached
//! reciprocals (every cached value is recomputed `1.0 / (n_t + c)` at the
//! current counts, never derived incrementally), so no draw can move by
//! even an ulp. Assignments, φ, and θ must match bitwise on every seed,
//! not just pinned ones. Run this suite in a debug build to also arm the
//! kernel's `debug_assert` underflow checks (CI does).
//!
//! The sub-linear bucket kernel (`KernelKind::Sparse` on one shard,
//! `SPARSE` below) is held to a **distribution-level** contract instead:
//! it consumes the per-token uniform through bucket thresholds, so it
//! walks a *different* chain over the same conditional distributions. Its acceptance here is held-out
//! perplexity parity with `Backend::Serial` within a relative band, plus
//! full seed-determinism; the exact bucket-mass ≡ dense-mass property
//! tests live with the kernel (`sampler::sparse`).

use source_lda::core::generative::{DocLength, LambdaMode, SourceLdaGenerator};
use source_lda::core::prior::TopicPrior;
use source_lda::prelude::*;
use source_lda::synth::random_source_topics;

/// The single-thread dense reference: one shard sweeping in place.
const DENSE: Backend = Backend::ShardedDocs {
    kernel: KernelKind::Dense,
    shards: 1,
    threads: 1,
};

/// The single-thread sub-linear bucket kernel.
const SPARSE: Backend = Backend::ShardedDocs {
    kernel: KernelKind::Sparse,
    shards: 1,
    threads: 1,
};

/// Fit the 16-source-topic world over a `vocab_size`-word vocabulary.
/// Each source topic has a support of 10 words, so the share of words off
/// the support, which the kernel serves from its cached off-support `S2`,
/// grows with the vocabulary.
fn fit_source_lda(backend: Backend, variant: Variant, seed: u64, vocab_size: usize) -> FittedModel {
    let (vocab, knowledge) = random_source_topics(vocab_size, 16, 10, 120, 11);
    let generated = SourceLdaGenerator {
        alpha: 0.5,
        num_docs: 30,
        doc_len: DocLength::Fixed(25),
        lambda_mode: LambdaMode::None,
        seed: 13,
        ..SourceLdaGenerator::default()
    }
    .generate(&knowledge.select(&(0..6).collect::<Vec<_>>()), &vocab)
    .unwrap();
    SourceLda::builder()
        .knowledge_source(knowledge)
        .variant(variant)
        .unlabeled_topics(3)
        .approximation_steps(3)
        .smoothing(SmoothingMode::Identity)
        .alpha(0.5)
        .iterations(20)
        .backend(backend)
        .seed(seed)
        .build()
        .unwrap()
        .fit(&generated.corpus)
        .unwrap()
}

fn assert_identical(a: &FittedModel, b: &FittedModel, what: &str) {
    assert_eq!(a.assignments(), b.assignments(), "{what}: chains diverged");
    assert_eq!(a.phi().as_slice(), b.phi().as_slice(), "{what}: φ diverged");
    assert_eq!(
        a.theta().as_slice(),
        b.theta().as_slice(),
        "{what}: θ diverged"
    );
}

#[test]
fn kernel_matches_dense_on_lambda_integrated_model() {
    // A 10-word support covers 4% of V = 250 and 0.2% of V = 5000.
    // Several seeds, not one pinned seed: the equivalence is structural.
    for vocab_size in [250, 5000] {
        for seed in [7u64, 77, 770] {
            let dense = fit_source_lda(DENSE, Variant::Full, seed, vocab_size);
            let kernel = fit_source_lda(Backend::Serial, Variant::Full, seed, vocab_size);
            assert_identical(
                &kernel,
                &dense,
                &format!("full variant, V = {vocab_size}, seed {seed}"),
            );
            assert!(
                kernel.priors().iter().any(TopicPrior::is_integrated),
                "the full variant integrates λ"
            );
        }
    }
}

#[test]
fn kernel_matches_dense_on_fixed_prior_model() {
    let dense = fit_source_lda(DENSE, Variant::Mixture, 21, 250);
    let kernel = fit_source_lda(Backend::Serial, Variant::Mixture, 21, 250);
    assert_identical(&kernel, &dense, "mixture variant");
}

#[test]
fn kernel_matches_dense_with_adaptive_lambda() {
    // λ adaptation rebuilds the sweep tables between chunks; the chains
    // must still agree sweep for sweep.
    let fit = |backend: Backend| -> FittedModel {
        let (vocab, knowledge) = random_source_topics(200, 10, 8, 100, 5);
        let generated = SourceLdaGenerator {
            alpha: 0.5,
            num_docs: 20,
            doc_len: DocLength::Fixed(20),
            lambda_mode: LambdaMode::None,
            seed: 3,
            ..SourceLdaGenerator::default()
        }
        .generate(&knowledge.select(&(0..5).collect::<Vec<_>>()), &vocab)
        .unwrap();
        SourceLda::builder()
            .knowledge_source(knowledge)
            .variant(Variant::Full)
            .approximation_steps(3)
            .smoothing(SmoothingMode::Identity)
            .adaptive_lambda(5)
            .lambda_burn_in(5)
            .alpha(0.5)
            .iterations(18)
            .backend(backend)
            .seed(99)
            .build()
            .unwrap()
            .fit(&generated.corpus)
            .unwrap()
    };
    assert_identical(&fit(Backend::Serial), &fit(DENSE), "adaptive λ");
}

#[test]
fn kernel_matches_dense_with_mixed_quadrature_depths() {
    // λ-integrated priors with different quadrature depths have no
    // word-major combined table, so the flat kernel reads every prior's own
    // storage for the whole fit — across λ-adaptation chunks too. That
    // path must walk the dense reference's chain as well.
    use source_lda::knowledge::SmoothingFunction;
    use source_lda::math::DiscretizedGaussian;
    let v = 120;
    let (vocab, knowledge) = random_source_topics(v, 4, 8, 80, 5);
    let corpus = SourceLdaGenerator {
        alpha: 0.5,
        num_docs: 20,
        doc_len: DocLength::Fixed(20),
        lambda_mode: LambdaMode::None,
        seed: 23,
        ..SourceLdaGenerator::default()
    }
    .generate(&knowledge, &vocab)
    .unwrap()
    .corpus;
    let g = SmoothingFunction::identity();
    let quadrature = |levels| DiscretizedGaussian::unit_interval(0.6, 0.25, levels).unwrap();
    let priors = vec![
        TopicPrior::integrated(knowledge.topic(0), 0.01, &g, &quadrature(3)),
        TopicPrior::integrated(knowledge.topic(1), 0.01, &g, &quadrature(5)),
        TopicPrior::fixed_from_source(knowledge.topic(2), 0.01),
        TopicPrior::symmetric(0.1, v).unwrap(),
    ];
    // Guard: the case must not quietly fall back to one uniform depth.
    let depths: Vec<usize> = priors
        .iter()
        .filter_map(|p| match p {
            TopicPrior::Integrated(table) => Some(table.levels()),
            _ => None,
        })
        .collect();
    assert_eq!(depths, [3, 5], "expected two quadrature depths");
    let fit = |backend: Backend, seed: u64| {
        let config = ModelConfig {
            alpha: 0.5,
            iterations: 20,
            seed,
            backend,
            lambda_update_every: Some(5),
            lambda_burn_in: 5,
            ..ModelConfig::default()
        };
        GibbsModel::new(priors.clone(), vec![None; priors.len()], v, config)
            .unwrap()
            .fit(&corpus)
            .unwrap()
    };
    for seed in [3u64, 33, 333] {
        assert_identical(
            &fit(Backend::Serial, seed),
            &fit(DENSE, seed),
            &format!("mixed quadrature depths, seed {seed}"),
        );
    }
}

#[test]
fn kernel_matches_dense_on_plain_lda() {
    let fit = |backend: Backend| -> FittedModel {
        let mut b = source_lda::corpus::CorpusBuilder::new()
            .tokenizer(source_lda::corpus::Tokenizer::permissive());
        for i in 0..12 {
            b.add_tokens(
                format!("d{i}"),
                &["alpha", "beta", "gamma", "delta", "epsilon", "zeta"][i % 3..i % 3 + 3],
            );
        }
        let corpus = b.build();
        Lda::builder()
            .topics(4)
            .alpha(0.3)
            .beta(0.05)
            .iterations(60)
            .backend(backend)
            .seed(8)
            .build()
            .unwrap()
            .fit(&corpus)
            .unwrap()
    };
    assert_identical(&fit(Backend::Serial), &fit(DENSE), "LDA");
}

/// Generate a train/held-out pair from the same synthetic world (disjoint
/// generator seeds so the held-out documents are genuinely unseen).
fn train_and_heldout() -> (Corpus, Corpus, KnowledgeSource) {
    let (vocab, knowledge) = random_source_topics(250, 16, 10, 120, 11);
    let generate = |seed: u64, docs: usize| {
        SourceLdaGenerator {
            alpha: 0.5,
            num_docs: docs,
            doc_len: DocLength::Fixed(25),
            lambda_mode: LambdaMode::None,
            seed,
            ..SourceLdaGenerator::default()
        }
        .generate(&knowledge.select(&(0..6).collect::<Vec<_>>()), &vocab)
        .unwrap()
        .corpus
    };
    (generate(13, 30), generate(41, 10), knowledge)
}

fn fit_on(corpus: &Corpus, knowledge: &KnowledgeSource, backend: Backend) -> FittedModel {
    SourceLda::builder()
        .knowledge_source(knowledge.clone())
        .variant(Variant::Full)
        .unlabeled_topics(3)
        .approximation_steps(3)
        .smoothing(SmoothingMode::Identity)
        .alpha(0.5)
        .iterations(40)
        .backend(backend)
        .seed(7)
        .build()
        .unwrap()
        .fit(corpus)
        .unwrap()
}

/// The acceptance criterion for the sub-linear kernel: held-out perplexity
/// parity with `Backend::Serial` on the λ-integrated model, within a
/// relative band (same band the document shards are held to — two
/// legitimately different chains over the same posterior).
#[test]
fn sparse_kernel_perplexity_parity_with_serial() {
    let (train, heldout, knowledge) = train_and_heldout();
    let serial = fit_on(&train, &knowledge, Backend::Serial);
    let sparse = fit_on(&train, &knowledge, SPARSE);
    let serial_ppx = gibbs_perplexity(&serial, &heldout, 30, 99).unwrap();
    let sparse_ppx = gibbs_perplexity(&sparse, &heldout, 30, 99).unwrap();
    let rel = (sparse_ppx - serial_ppx).abs() / serial_ppx;
    assert!(
        rel < 0.15,
        "sparse perplexity {sparse_ppx} vs serial {serial_ppx} (rel {rel:.3})"
    );
}

/// The bucket kernel is a pure function of the seed through the public
/// API — two identical fits match bitwise, and different seeds actually
/// produce different chains (the determinism isn't vacuous).
#[test]
fn sparse_kernel_is_seed_deterministic() {
    for seed in [7u64, 77] {
        let a = fit_source_lda(SPARSE, Variant::Full, seed, 250);
        let b = fit_source_lda(SPARSE, Variant::Full, seed, 250);
        assert_identical(&a, &b, &format!("sparse replay, seed {seed}"));
    }
    let a = fit_source_lda(SPARSE, Variant::Full, 7, 250);
    let b = fit_source_lda(SPARSE, Variant::Full, 77, 250);
    assert_ne!(
        a.assignments(),
        b.assignments(),
        "different seeds must walk different chains"
    );
}

/// The sparse kernel handles every prior family end to end (mixture adds
/// fixed-δ topics; EDA is all-frozen; CTM is all-concept-set) and lands on
/// the same case-study structure the dense kernels find.
#[test]
fn sparse_kernel_runs_every_prior_family() {
    let mixture = fit_source_lda(SPARSE, Variant::Mixture, 21, 250);
    assert_eq!(
        mixture.assignments().len(),
        30,
        "mixture fit must cover the corpus"
    );

    let (vocab, knowledge) = random_source_topics(150, 8, 8, 80, 9);
    let generated = SourceLdaGenerator {
        alpha: 0.5,
        num_docs: 20,
        doc_len: DocLength::Fixed(20),
        lambda_mode: LambdaMode::None,
        seed: 17,
        ..SourceLdaGenerator::default()
    }
    .generate(&knowledge.select(&(0..8).collect::<Vec<_>>()), &vocab)
    .unwrap();
    let eda = Eda::builder()
        .knowledge_source(knowledge.clone())
        .alpha(0.4)
        .iterations(25)
        .backend(SPARSE)
        .seed(31)
        .build()
        .unwrap()
        .fit(&generated.corpus)
        .unwrap();
    assert_eq!(eda.num_topics(), 8);
    let ctm = Ctm::builder()
        .knowledge_source(knowledge)
        .beta(0.2)
        .alpha(0.4)
        .iterations(25)
        .backend(SPARSE)
        .seed(31)
        .build()
        .unwrap()
        .fit(&generated.corpus)
        .unwrap();
    assert_eq!(ctm.num_topics(), 8);
}

#[test]
fn kernel_matches_dense_on_frozen_and_concept_models() {
    let (vocab, knowledge) = random_source_topics(150, 8, 8, 80, 9);
    let generated = SourceLdaGenerator {
        alpha: 0.5,
        num_docs: 20,
        doc_len: DocLength::Fixed(20),
        lambda_mode: LambdaMode::None,
        seed: 17,
        ..SourceLdaGenerator::default()
    }
    .generate(&knowledge.select(&(0..8).collect::<Vec<_>>()), &vocab)
    .unwrap();

    let eda = |backend: Backend| {
        Eda::builder()
            .knowledge_source(knowledge.clone())
            .alpha(0.4)
            .iterations(25)
            .backend(backend)
            .seed(31)
            .build()
            .unwrap()
            .fit(&generated.corpus)
            .unwrap()
    };
    assert_identical(&eda(Backend::Serial), &eda(DENSE), "EDA");

    let ctm = |backend: Backend| {
        Ctm::builder()
            .knowledge_source(knowledge.clone())
            .beta(0.2)
            .alpha(0.4)
            .iterations(25)
            .backend(backend)
            .seed(31)
            .build()
            .unwrap()
            .fit(&generated.corpus)
            .unwrap()
    };
    assert_identical(&ctm(Backend::Serial), &ctm(DENSE), "CTM");
}
