//! End-to-end pipeline test: synthesize a knowledge base and corpus, fit
//! every model family, and check the paper's headline ordering (knowledge-
//! grounded models recover the planted topics; Source-LDA leads).

use source_lda::core::generative::{DocLength, LambdaMode, SourceLdaGenerator};
use source_lda::eval::{token_accuracy, TopicMapping};
use source_lda::prelude::*;
use source_lda::synth::{SyntheticWikipedia, WikipediaConfig};

struct World {
    generated: source_lda::core::generative::GeneratedCorpus,
    knowledge: source_lda::knowledge::KnowledgeSource,
}

fn world() -> World {
    let labels: Vec<String> = (0..10).map(|i| format!("topic-{i}")).collect();
    let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
    let wiki = SyntheticWikipedia::generate(
        &refs,
        &WikipediaConfig {
            core_words_per_topic: 20,
            shared_vocab: 80,
            article_len: 400,
            seed: 5,
            ..WikipediaConfig::default()
        },
    );
    let generated = SourceLdaGenerator {
        alpha: 0.4,
        num_docs: 150,
        doc_len: DocLength::Fixed(60),
        lambda_mode: LambdaMode::None,
        seed: 55,
        ..SourceLdaGenerator::default()
    }
    .generate(&wiki.knowledge, &wiki.vocab)
    .expect("generation succeeds");
    World {
        generated,
        knowledge: wiki.knowledge,
    }
}

fn accuracy_of(fitted: &FittedModel, w: &World, by_phi: bool) -> f64 {
    let mapping = if by_phi {
        TopicMapping::by_phi_js(&fitted.phi(), &w.generated.truth.phi)
            .expect("generated phi matrices are finite")
    } else {
        TopicMapping::by_label(fitted.labels(), &w.generated.truth.labels)
    };
    token_accuracy(
        &w.generated.truth.assignments,
        fitted.assignments(),
        &mapping,
    )
    .fraction()
}

#[test]
fn knowledge_grounded_models_recover_planted_topics() {
    let w = world();
    let corpus = &w.generated.corpus;

    let src = SourceLda::builder()
        .knowledge_source(w.knowledge.clone())
        .variant(Variant::Bijective)
        .alpha(0.4)
        .iterations(120)
        .seed(1)
        .build()
        .unwrap()
        .fit(corpus)
        .unwrap();
    let src_acc = accuracy_of(&src, &w, false);
    assert!(src_acc > 0.6, "Source-LDA accuracy too low: {src_acc:.3}");

    let eda = Eda::builder()
        .knowledge_source(w.knowledge.clone())
        .alpha(0.4)
        .iterations(60)
        .seed(1)
        .build()
        .unwrap()
        .fit(corpus)
        .unwrap();
    let eda_acc = accuracy_of(&eda, &w, false);
    assert!(eda_acc > 0.5, "EDA accuracy too low: {eda_acc:.3}");

    // Bijective generation (λ = 1): SRC must at least match EDA.
    assert!(
        src_acc >= eda_acc - 0.02,
        "SRC {src_acc:.3} should not trail EDA {eda_acc:.3}"
    );

    let lda = Lda::builder()
        .topics(10)
        .alpha(0.4)
        .beta(0.05)
        .iterations(120)
        .seed(1)
        .build()
        .unwrap()
        .fit(corpus)
        .unwrap();
    let lda_acc = accuracy_of(&lda, &w, true);
    assert!(
        src_acc > lda_acc,
        "knowledge should help: SRC {src_acc:.3} vs LDA {lda_acc:.3}"
    );
}

#[test]
fn fitted_outputs_are_valid_distributions() {
    let w = world();
    let fitted = SourceLda::builder()
        .knowledge_source(w.knowledge.clone())
        .variant(Variant::Mixture)
        .unlabeled_topics(2)
        .alpha(0.4)
        .iterations(40)
        .seed(2)
        .build()
        .unwrap()
        .fit(&w.generated.corpus)
        .unwrap();
    assert_eq!(fitted.num_topics(), 12);
    let phi = fitted.phi();
    for t in 0..fitted.num_topics() {
        let row = phi.row(t);
        let sum: f64 = row.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "phi row {t} sums to {sum}");
        assert!(row.iter().all(|&p| p >= 0.0));
    }
    for d in 0..w.generated.corpus.num_docs() {
        let sum: f64 = fitted.theta_row(d).iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "theta row {d} sums to {sum}");
    }
    // Labels: 2 unlabeled then the ten source labels in order.
    assert_eq!(fitted.labels()[0], None);
    assert_eq!(fitted.labels()[2].as_deref(), Some("topic-0"));
}

#[test]
fn full_variant_with_superset_discovers_active_subset() {
    use source_lda::core::reduction::{reduce, ReductionPolicy};
    let labels: Vec<String> = (0..20).map(|i| format!("cand-{i}")).collect();
    let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
    let wiki = SyntheticWikipedia::generate(
        &refs,
        &WikipediaConfig {
            core_words_per_topic: 15,
            shared_vocab: 60,
            article_len: 300,
            seed: 9,
            ..WikipediaConfig::default()
        },
    );
    let active: Vec<usize> = vec![1, 4, 7, 10, 13];
    let generated = SourceLdaGenerator {
        alpha: 0.4,
        num_docs: 120,
        doc_len: DocLength::Fixed(50),
        lambda_mode: LambdaMode::None,
        seed: 91,
        ..SourceLdaGenerator::default()
    }
    .generate(&wiki.knowledge.select(&active), &wiki.vocab)
    .unwrap();
    let fitted = SourceLda::builder()
        .knowledge_source(wiki.knowledge.clone())
        .variant(Variant::Full)
        .unlabeled_topics(2)
        .approximation_steps(4)
        .smoothing(SmoothingMode::Identity)
        .alpha(0.4)
        .iterations(100)
        .seed(3)
        .build()
        .unwrap()
        .fit(&generated.corpus)
        .unwrap();
    let reduced = reduce(
        &fitted,
        ReductionPolicy::DocFrequency {
            min_docs: 15,
            min_tokens: 5,
        },
    )
    .unwrap();
    let discovered: Vec<&str> = reduced
        .labels
        .iter()
        .flatten()
        .map(String::as_str)
        .collect();
    let truth: Vec<String> = active.iter().map(|&i| format!("cand-{i}")).collect();
    let hits = discovered
        .iter()
        .filter(|d| truth.iter().any(|t| t == *d))
        .count();
    assert!(
        hits >= 4,
        "should rediscover most active topics; got {discovered:?}"
    );
    let false_pos = discovered.len() - hits;
    assert!(
        false_pos <= 3,
        "too many false discoveries: {discovered:?} (truth {truth:?})"
    );
}
