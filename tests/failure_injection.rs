//! Failure injection: degenerate knowledge sources, pathological corpora,
//! and hostile configurations must produce errors or graceful degradation —
//! never panics or poisoned state.

use source_lda::core::CountCells;
use source_lda::knowledge::{KnowledgeSource, KnowledgeSourceBuilder, SourceTopic};
use source_lda::prelude::*;

/// Whether the fitted counts are the histogram of the final assignments
/// over `c`'s tokens.
fn counts_match_assignments(c: &Corpus, fitted: &FittedModel) -> bool {
    let t_count = fitted.num_topics();
    let mut nw = vec![0u32; c.vocab_size() * t_count];
    for (doc, zs) in c.docs().iter().zip(fitted.assignments()) {
        for (w, &t) in doc.tokens().iter().zip(zs) {
            nw[w.index() * t_count + t as usize] += 1;
        }
    }
    fitted.counts() == &CountCells::from_dense(c.vocab_size(), t_count, nw)
}

fn tiny_corpus() -> Corpus {
    let mut b = CorpusBuilder::new().tokenizer(Tokenizer::permissive());
    b.add_tokens("d1", &["alpha", "beta", "gamma", "alpha"]);
    b.add_tokens("d2", &["beta", "delta", "delta", "gamma"]);
    b.build()
}

#[test]
fn knowledge_source_with_no_corpus_overlap_still_fits() {
    let c = tiny_corpus();
    // Articles whose words never appear in the corpus: every topic's counts
    // collapse to ε-only priors, which is the flat-prior limit.
    let mut ks = KnowledgeSourceBuilder::new();
    ks.add_article("Off-topic A", "completely unrelated prose about sailing");
    ks.add_article("Off-topic B", "another unrelated article about cooking");
    let knowledge = ks.build(c.vocabulary());
    let fitted = SourceLda::builder()
        .knowledge_source(knowledge)
        .variant(Variant::Bijective)
        .iterations(20)
        .seed(1)
        .build()
        .unwrap()
        .fit(&c)
        .unwrap();
    assert!(counts_match_assignments(&c, &fitted));
    for t in 0..2 {
        let sum: f64 = fitted.phi_row(t).iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }
}

#[test]
fn empty_article_behaves_as_flat_topic() {
    let c = tiny_corpus();
    let mut ks = KnowledgeSourceBuilder::new();
    ks.add_article("Empty", "");
    ks.add_counts("Real", vec![("alpha".into(), 50.0), ("beta".into(), 30.0)]);
    let knowledge = ks.build(c.vocabulary());
    let fitted = SourceLda::builder()
        .knowledge_source(knowledge)
        .variant(Variant::Full)
        .approximation_steps(3)
        .smoothing(SmoothingMode::Identity)
        .iterations(30)
        .seed(2)
        .build()
        .unwrap()
        .fit(&c)
        .unwrap();
    assert!(counts_match_assignments(&c, &fitted));
}

#[test]
fn single_token_documents_are_fine() {
    let mut b = CorpusBuilder::new().tokenizer(Tokenizer::permissive());
    for i in 0..10 {
        b.add_tokens(format!("d{i}"), &["solo"]);
    }
    let c = b.build();
    let fitted = Lda::builder()
        .topics(3)
        .iterations(15)
        .seed(3)
        .build()
        .unwrap()
        .fit(&c)
        .unwrap();
    assert!(counts_match_assignments(&c, &fitted));
}

#[test]
fn more_topics_than_tokens_is_legal() {
    let c = tiny_corpus(); // 8 tokens
    let fitted = Lda::builder()
        .topics(50)
        .iterations(10)
        .seed(4)
        .build()
        .unwrap()
        .fit(&c)
        .unwrap();
    assert!(counts_match_assignments(&c, &fitted));
    // Most topics end up empty; their φ rows are still distributions.
    let phi = fitted.phi();
    for t in 0..50 {
        let sum: f64 = phi.row(t).iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }
}

#[test]
fn ctm_with_fully_disjoint_bags_falls_back_gracefully() {
    let c = tiny_corpus();
    // Concepts whose bags cover no corpus word at all.
    let knowledge = KnowledgeSource::new(vec![
        SourceTopic::new("Void 1", vec![0.0; c.vocab_size()]),
        SourceTopic::new("Void 2", vec![0.0; c.vocab_size()]),
    ]);
    let fitted = Ctm::builder()
        .knowledge_source(knowledge)
        .unconstrained_topics(0)
        .iterations(10)
        .seed(5)
        .build()
        .unwrap()
        .fit(&c)
        .unwrap();
    // Every token hit the uniform fallback; counts stay consistent.
    assert!(counts_match_assignments(&c, &fitted));
}

#[test]
fn builder_misconfigurations_error_cleanly() {
    let c = tiny_corpus();
    let mut ks = KnowledgeSourceBuilder::new();
    ks.add_article("A", "alpha beta");
    let knowledge = ks.build(c.vocabulary());

    assert!(SourceLda::builder().build().is_err(), "no knowledge source");
    assert!(SourceLda::builder()
        .knowledge_source(knowledge.clone())
        .alpha(-1.0)
        .build()
        .is_err());
    assert!(SourceLda::builder()
        .knowledge_source(knowledge.clone())
        .iterations(0)
        .build()
        .is_err());
    assert!(SourceLda::builder()
        .knowledge_source(knowledge.clone())
        .approximation_steps(0)
        .build()
        .is_err());
    assert!(SourceLda::builder()
        .knowledge_source(knowledge)
        .fixed_lambda(2.0)
        .build()
        .is_err());
    assert!(Lda::builder().topics(0).build().is_err());
}

#[test]
fn mismatched_vocabulary_is_an_error_not_a_crash() {
    let c = tiny_corpus();
    let other = {
        let mut b = CorpusBuilder::new().tokenizer(Tokenizer::permissive());
        b.add_tokens("x", &["one", "two"]);
        b.build()
    };
    let mut ks = KnowledgeSourceBuilder::new();
    ks.add_article("A", "alpha beta");
    let knowledge = ks.build(c.vocabulary());
    let model = SourceLda::builder()
        .knowledge_source(knowledge)
        .iterations(5)
        .build()
        .unwrap();
    let err = model.fit(&other).unwrap_err();
    assert!(err.to_string().contains("vocabulary"));
}
