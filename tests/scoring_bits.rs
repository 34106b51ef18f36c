//! Absolute bit pins for everything that reads a fixed φ: fold-in
//! ([`Inference::fold_in`] and its dense oracle
//! [`Inference::fold_in_dense`]), the two held-out perplexity estimators,
//! and the φ a checkpoint generation serves.
//!
//! The other scoring tests compare two code paths (served vs in-process,
//! memory vs disk). A change to φ's layout or to the scoring loop that
//! moved both sides the same way would pass them. The perplexity bits and
//! the dense oracle's fold-in bits were computed once, with the
//! topic-major scorer, and must never move. The served fold-in draws from
//! the engine's buckets of per-topic baselines and per-word exceptions,
//! which sample the same conditional in a different order, so it has a pin
//! of its own, computed when that kernel replaced the dense loop; its
//! distribution is checked against the exact posterior in
//! `tests/exact_posterior.rs`.

use source_lda::prelude::*;
use source_lda::serve::codec::fnv1a64;

/// Three knowledge-source themes plus noise words.
const THEMES: [[&str; 5]; 3] = [
    ["pencil", "ruler", "eraser", "notebook", "glue"],
    ["baseball", "umpire", "pitcher", "inning", "glove"],
    ["stock", "bond", "fund", "market", "broker"],
];
const NOISE: [&str; 4] = ["today", "people", "report", "city"];

/// A training corpus, a held-out corpus on the same vocabulary, and the
/// knowledge source. Documents mix one theme with noise.
fn corpora() -> (Corpus, Corpus, KnowledgeSource) {
    let mut b = CorpusBuilder::new().tokenizer(Tokenizer::permissive());
    let docs = 30;
    for d in 0..docs + 3 {
        let theme = &THEMES[d % 3];
        let words: Vec<&str> = (0..8)
            .map(|j| match (d * 7 + j * 3) % 5 {
                0 => NOISE[(d + j) % NOISE.len()],
                k => theme[(k + j) % theme.len()],
            })
            .collect();
        b.add_tokens(format!("d{d}"), &words);
    }
    let all = b.build();
    let train = Corpus::from_parts(all.vocabulary().clone(), all.docs()[..docs].to_vec());
    let test = Corpus::from_parts(all.vocabulary().clone(), all.docs()[docs..].to_vec());
    let mut ks = KnowledgeSourceBuilder::new();
    for (label, theme) in ["School Supplies", "Baseball", "Finance"]
        .iter()
        .zip(&THEMES)
    {
        ks.add_article(*label, format!("{} ", theme.join(" ")).repeat(20));
    }
    let knowledge = ks.build(train.vocabulary());
    (train, test, knowledge)
}

/// λ-integrated Source-LDA with three source and four unlabeled topics:
/// T = 7, so fold-in's 4-topic blocks and its tail both run.
fn fitted(train: &Corpus, knowledge: KnowledgeSource) -> FittedModel {
    SourceLda::builder()
        .knowledge_source(knowledge)
        .variant(Variant::Full)
        .unlabeled_topics(4)
        .alpha(0.3)
        .iterations(40)
        .seed(11)
        .build()
        .unwrap()
        .fit(train)
        .unwrap()
}

fn f64_bytes(xs: impl IntoIterator<Item = f64>) -> Vec<u8> {
    xs.into_iter()
        .flat_map(|x| x.to_bits().to_le_bytes())
        .collect()
}

/// [`Inference::fold_in`] or [`Inference::fold_in_dense`].
type FoldIn = fn(&Inference, &[u32], &FoldInConfig) -> source_lda::core::Result<InferredDocument>;

#[test]
fn fold_in_bits_are_pinned() {
    let (train, _, knowledge) = corpora();
    let fitted = fitted(&train, knowledge);
    assert_eq!(fitted.num_topics(), 7);
    let inference = Inference::from_fitted(&fitted);
    let vocab = train.vocabulary();
    let bits = |fold_in: FoldIn| {
        let mut bytes = Vec::new();
        for (seed, text) in [
            "pencil ruler eraser pencil glue",
            "umpire stock pitcher bond today",
            "fund market broker city people report stock",
        ]
        .into_iter()
        .enumerate()
        {
            let ids: Vec<u32> = text.split(' ').map(|w| vocab.get(w).unwrap().0).collect();
            let config = FoldInConfig {
                iterations: 25,
                seed: seed as u64,
            };
            let doc = fold_in(&inference, &ids, &config).unwrap();
            bytes.extend(f64_bytes(doc.theta().iter().copied()));
            bytes.extend(f64_bytes([doc.log_likelihood()]));
            for &t in doc.assignments() {
                bytes.extend(t.to_le_bytes());
            }
        }
        fnv1a64(&bytes)
    };
    assert_eq!(bits(Inference::fold_in_dense), 13642884300135160171);
    assert_eq!(bits(Inference::fold_in), 11824405148925746799);
}

#[test]
fn perplexity_bits_are_pinned() {
    let (train, test, knowledge) = corpora();
    let fitted = fitted(&train, knowledge);
    let gibbs = gibbs_perplexity(&fitted, &test, 20, 5).unwrap();
    let importance = importance_sampling_perplexity(&fitted, &test, 30, 5).unwrap();
    assert_eq!(gibbs.to_bits(), 4621022488061368277, "{gibbs}");
    assert_eq!(importance.to_bits(), 4623905664812667504, "{importance}");
}

/// The scoring corpus with filler words appended until the vocabulary
/// passes 4096 words, and its knowledge source: a λ-integrated prior over
/// it writes the sparse raw layout, where the scoring corpus's writes the
/// dense one.
fn wide_corpus() -> (Corpus, KnowledgeSource) {
    let (train, _, _) = corpora();
    let mut b = CorpusBuilder::new().tokenizer(Tokenizer::permissive());
    for (d, doc) in train.docs().iter().enumerate() {
        let mut words: Vec<String> = doc
            .tokens()
            .iter()
            .map(|&w| train.vocabulary().word(w).to_string())
            .collect();
        words.extend((0..140).map(|j| format!("filler{}", d * 140 + j)));
        b.add_tokens(format!("d{d}"), &words);
    }
    let wide = b.build();
    let mut ks = KnowledgeSourceBuilder::new();
    for (label, theme) in ["School Supplies", "Baseball", "Finance"]
        .iter()
        .zip(&THEMES)
    {
        ks.add_article(*label, format!("{} ", theme.join(" ")).repeat(20));
    }
    let knowledge = ks.build(wide.vocabulary());
    (wide, knowledge)
}

/// Whether every λ-integrated prior of `artifact` wrote the sparse raw
/// layout (`Some(true)`), every one the dense (`Some(false)`), or it has
/// none.
fn integrated_layout_is_sparse(artifact: &ModelArtifact) -> Option<bool> {
    use source_lda::core::persist::{RawIntegrationLayout, RawPrior};
    let sparse: Vec<bool> = artifact
        .priors()
        .iter()
        .filter_map(|p| match p {
            RawPrior::Integrated(t) => {
                Some(matches!(t.layout, RawIntegrationLayout::Sparse { .. }))
            }
            _ => None,
        })
        .collect();
    let first = *sparse.first()?;
    assert!(sparse.iter().all(|&s| s == first));
    Some(first)
}

/// θ, assignment and log-likelihood bits of folding the first documents
/// of `corpus` into `inference`.
fn fold_in_bytes(inference: &Inference, corpus: &Corpus) -> Vec<u8> {
    let mut bytes = Vec::new();
    for (seed, doc) in corpus.docs().iter().take(4).enumerate() {
        let ids: Vec<u32> = doc.tokens().iter().map(|w| w.0).collect();
        let config = FoldInConfig {
            iterations: 10,
            seed: seed as u64,
        };
        let doc = inference.fold_in(&ids, &config).unwrap();
        bytes.extend(f64_bytes(doc.theta().iter().copied()));
        bytes.extend(f64_bytes([doc.log_likelihood()]));
        for &t in doc.assignments() {
            bytes.extend(t.to_le_bytes());
        }
    }
    bytes
}

/// A checkpoint taken at the final sweep serves exactly the φ the fit
/// reports: no λ-adaptation runs at that boundary, so the counts and
/// priors are the final ones, and both φ's come from one expression. A
/// final model of every prior family, stored as its counts and priors,
/// serves it too: the φ derived at load straight into the engine's table
/// of baselines and exceptions is the fitted φ, bit for bit.
#[test]
fn final_checkpoint_serves_the_fitted_phi() {
    let (train, _, knowledge) = corpora();
    for variant in [Variant::Full, Variant::Mixture] {
        let model = SourceLda::builder()
            .knowledge_source(knowledge.clone())
            .variant(variant)
            .unlabeled_topics(4)
            .adaptive_lambda(6)
            .iterations(24)
            .seed(3)
            .build()
            .unwrap()
            .assemble(train.vocab_size())
            .unwrap();
        let mut last = None;
        let fitted = model
            .fit_resumable(&train, None, Some(12), |cp| {
                last = Some(cp.clone());
                Ok(())
            })
            .unwrap();
        let checkpoint = last.unwrap();
        assert_eq!(checkpoint.sweep, 24);
        let generation = ModelArtifact::from_checkpoint(
            &checkpoint,
            fitted.labels().to_vec(),
            train.vocabulary(),
            &Tokenizer::permissive(),
        )
        .unwrap();
        // A generation stores no φ; it derives from the counts.
        let artifact = ModelArtifact::from_bytes(&generation.to_bytes()).unwrap();
        let served = f64_bytes(artifact.phi().unwrap().as_slice().iter().copied());
        assert_eq!(
            served,
            f64_bytes(checkpoint.phi().unwrap().as_slice().iter().copied()),
            "{variant:?}"
        );
        assert_eq!(
            served,
            f64_bytes(fitted.phi().as_slice().iter().copied()),
            "{variant:?}"
        );
    }

    let (wide, wide_knowledge) = wide_corpus();
    assert!(wide.vocab_size() > 4096);
    let full = |corpus: &Corpus, knowledge: KnowledgeSource| {
        SourceLda::builder()
            .knowledge_source(knowledge)
            .variant(Variant::Full)
            .unlabeled_topics(2)
            .adaptive_lambda(4)
            .iterations(8)
            .seed(5)
            .build()
            .unwrap()
            .fit(corpus)
            .unwrap()
    };
    let families: [(&str, FittedModel, &Corpus, Option<bool>); 6] = [
        (
            "LDA (symmetric)",
            Lda::builder()
                .topics(3)
                .alpha(0.3)
                .beta(0.1)
                .iterations(16)
                .seed(5)
                .build()
                .unwrap()
                .fit(&train)
                .unwrap(),
            &train,
            None,
        ),
        (
            "Bijective (fixed δ)",
            SourceLda::builder()
                .knowledge_source(knowledge.clone())
                .variant(Variant::Bijective)
                .iterations(16)
                .seed(5)
                .build()
                .unwrap()
                .fit(&train)
                .unwrap(),
            &train,
            None,
        ),
        (
            "Full, V ≤ 4096",
            full(&train, knowledge.clone()),
            &train,
            Some(false),
        ),
        (
            "Full, V > 4096",
            full(&wide, wide_knowledge),
            &wide,
            Some(true),
        ),
        (
            "EDA (frozen)",
            Eda::builder()
                .knowledge_source(knowledge.clone())
                .iterations(16)
                .seed(5)
                .build()
                .unwrap()
                .fit(&train)
                .unwrap(),
            &train,
            None,
        ),
        (
            "CTM (concept set)",
            Ctm::builder()
                .knowledge_source(knowledge.clone())
                .unconstrained_topics(2)
                .iterations(16)
                .seed(5)
                .build()
                .unwrap()
                .fit(&train)
                .unwrap(),
            &train,
            None,
        ),
    ];
    for (what, fitted, corpus, sparse) in families {
        let bytes =
            ModelArtifact::from_fitted(&fitted, corpus.vocabulary(), &Tokenizer::permissive())
                .unwrap()
                .to_bytes();
        let names: Vec<&str> = source_lda::serve::list_sections(&bytes)
            .unwrap()
            .iter()
            .map(|s| s.name())
            .collect();
        assert_eq!(
            names,
            ["model", "labels", "priors", "vocab", "tokenizer", "counts"],
            "{what}"
        );
        let artifact = ModelArtifact::from_bytes(&bytes).unwrap();
        assert_eq!(integrated_layout_is_sparse(&artifact), sparse, "{what}");
        assert_eq!(
            f64_bytes(artifact.phi().unwrap().as_slice().iter().copied()),
            f64_bytes(fitted.phi().as_slice().iter().copied()),
            "{what}"
        );
        assert_eq!(
            fold_in_bytes(&artifact.inference().unwrap(), corpus),
            fold_in_bytes(&Inference::from_fitted(&fitted), corpus),
            "{what}"
        );
    }
}
