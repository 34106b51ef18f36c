//! Cross-crate contracts each model family must honor (§III / §IV of the
//! paper): EDA never moves φ, CTM never leaks outside concept bags, the
//! bijective model conforms φ to heavy source priors, and held-out
//! perplexity behaves.

use source_lda::core::perplexity::{gibbs_perplexity, importance_sampling_perplexity};
use source_lda::corpus::train_test_split;
use source_lda::knowledge::KnowledgeSourceBuilder;
use source_lda::prelude::*;

fn corpus() -> Corpus {
    let mut b = CorpusBuilder::new().tokenizer(Tokenizer::permissive());
    for i in 0..30 {
        if i % 2 == 0 {
            b.add_tokens(
                format!("g{i}"),
                &["gas", "pipeline", "gas", "energy", "rig"],
            );
        } else {
            b.add_tokens(
                format!("s{i}"),
                &["stock", "market", "fund", "stock", "bond"],
            );
        }
    }
    b.build()
}

fn knowledge(c: &Corpus) -> source_lda::knowledge::KnowledgeSource {
    let mut ks = KnowledgeSourceBuilder::new();
    ks.add_counts(
        "Natural Gas",
        vec![
            ("gas".into(), 300.0),
            ("pipeline".into(), 150.0),
            ("energy".into(), 100.0),
            ("rig".into(), 50.0),
        ],
    );
    ks.add_counts(
        "Stock Market",
        vec![
            ("stock".into(), 300.0),
            ("market".into(), 150.0),
            ("fund".into(), 100.0),
            ("bond".into(), 50.0),
        ],
    );
    ks.build(c.vocabulary())
}

#[test]
fn eda_phi_is_immutable() {
    let c = corpus();
    let ks = knowledge(&c);
    let expected: Vec<Vec<f64>> = ks
        .topics()
        .iter()
        .map(|t| {
            let h = t.hyperparameters(0.01);
            let s: f64 = h.iter().sum();
            h.into_iter().map(|x| x / s).collect()
        })
        .collect();
    let fitted = Eda::builder()
        .knowledge_source(ks)
        .epsilon(0.01)
        .iterations(50)
        .seed(4)
        .build()
        .unwrap()
        .fit(&c)
        .unwrap();
    let phi = fitted.phi();
    for (t, want) in expected.iter().enumerate() {
        for (a, b) in phi.row(t).iter().zip(want) {
            assert!((a - b).abs() < 1e-9, "EDA φ moved: {a} vs {b}");
        }
    }
}

#[test]
fn ctm_respects_concept_support() {
    let c = corpus();
    let ks = knowledge(&c);
    let fitted = Ctm::builder()
        .knowledge_source(ks)
        .unconstrained_topics(1)
        .alpha(0.5)
        .beta(0.1)
        .iterations(60)
        .seed(4)
        .build()
        .unwrap()
        .fit(&c)
        .unwrap();
    // φ of the Natural Gas concept (topic 1) is zero on finance words.
    let phi = fitted.phi();
    for w in ["stock", "market", "fund", "bond"] {
        let id = c.vocabulary().get(w).unwrap().index();
        assert_eq!(phi[(1, id)], 0.0, "{w} leaked into Natural Gas");
    }
    // And vice versa.
    for w in ["gas", "pipeline", "energy", "rig"] {
        let id = c.vocabulary().get(w).unwrap().index();
        assert_eq!(phi[(2, id)], 0.0, "{w} leaked into Stock Market");
    }
}

#[test]
fn bijective_phi_conforms_to_heavy_priors() {
    let c = corpus();
    let ks = knowledge(&c);
    let source_dists: Vec<Vec<f64>> = ks.topics().iter().map(|t| t.distribution()).collect();
    let fitted = SourceLda::builder()
        .knowledge_source(ks)
        .variant(Variant::Bijective)
        .alpha(0.5)
        .iterations(100)
        .seed(4)
        .build()
        .unwrap()
        .fit(&c)
        .unwrap();
    let phi = fitted.phi();
    for (t, src) in source_dists.iter().enumerate() {
        let js = source_lda::math::js_divergence(phi.row(t), src).unwrap();
        assert!(
            js < 0.08,
            "bijective φ should hug the source distribution; topic {t} JS = {js:.4}"
        );
    }
}

#[test]
fn perplexity_estimators_behave_on_holdout() {
    let c = corpus();
    let ks = knowledge(&c);
    let (train, test) = train_test_split(&c, 0.2, 8);
    let fitted = SourceLda::builder()
        .knowledge_source(ks)
        .variant(Variant::Bijective)
        .alpha(0.5)
        .iterations(80)
        .seed(4)
        .build()
        .unwrap()
        .fit(&train)
        .unwrap();
    let g = gibbs_perplexity(&fitted, &test, 25, 1).unwrap();
    let i = importance_sampling_perplexity(&fitted, &test, 64, 1).unwrap();
    let v = c.vocab_size() as f64;
    assert!(g >= 1.0 && g < v, "gibbs perplexity out of range: {g}");
    assert!(i >= 1.0 && i < v, "IS perplexity out of range: {i}");
    // Structured documents over a 10-word vocabulary with two clean themes:
    // a fitted model should beat the uniform bound substantially.
    assert!(g < v * 0.8, "model barely beats uniform: {g} vs V = {v}");
}

#[test]
fn case_study_table_shape_holds() {
    // The experiment harness is exercised end-to-end in smoke mode.
    let report = srclda_bench::experiments::table0::run(srclda_bench::Scale::Smoke);
    assert!(report.contains("JS Divergence"));
    assert!(report.contains("Source-LDA (bijective) token assignments"));
}
