//! Property-based tests across the generative/inference stack.

use proptest::prelude::*;
use source_lda::core::generative::{DocLength, LambdaMode, SourceLdaGenerator};
use source_lda::core::CountCells;
use source_lda::corpus::Vocabulary;
use source_lda::knowledge::{KnowledgeSource, SourceTopic};
use source_lda::prelude::*;

fn small_knowledge(v: usize, topics: usize, seed: u64) -> (Vocabulary, KnowledgeSource) {
    let vocab = Vocabulary::from_words((0..v).map(|i| format!("w{i}")));
    let mut rng = rng_from_seed(seed);
    use rand::Rng;
    let source = KnowledgeSource::new(
        (0..topics)
            .map(|t| {
                let counts: Vec<f64> = (0..v)
                    .map(|_| {
                        if rng.gen::<f64>() < 0.4 {
                            rng.gen_range(1..30) as f64
                        } else {
                            0.0
                        }
                    })
                    .collect();
                // Ensure non-empty support.
                let mut counts = counts;
                counts[t % v] += 10.0;
                SourceTopic::new(format!("t{t}"), counts)
            })
            .collect(),
    );
    (vocab, source)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn generated_corpora_are_internally_consistent(
        v in 6usize..30,
        topics in 2usize..6,
        docs in 1usize..12,
        len in 3usize..25,
        seed in any::<u64>(),
    ) {
        let (vocab, ks) = small_knowledge(v, topics, seed);
        let generated = SourceLdaGenerator {
            alpha: 0.5,
            num_docs: docs,
            doc_len: DocLength::Fixed(len),
            lambda_mode: LambdaMode::None,
            seed,
            ..SourceLdaGenerator::default()
        }
        .generate(&ks, &vocab)
        .unwrap();
        prop_assert_eq!(generated.corpus.num_docs(), docs);
        prop_assert_eq!(generated.corpus.num_tokens(), docs * len);
        // Ground truth shapes agree with the corpus.
        prop_assert_eq!(generated.truth.assignments.len(), docs);
        for (doc, zs) in generated.corpus.docs().iter().zip(&generated.truth.assignments) {
            prop_assert_eq!(doc.len(), zs.len());
            for &z in zs {
                prop_assert!((z as usize) < topics);
            }
        }
        // θ rows are distributions.
        for d in 0..docs {
            let sum: f64 = generated.truth.theta.row(d).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn fitting_preserves_count_invariants_for_any_seed(
        seed in any::<u64>(),
        k in 2usize..5,
    ) {
        let (vocab, ks) = small_knowledge(12, 3, 99);
        let generated = SourceLdaGenerator {
            alpha: 0.5,
            num_docs: 8,
            doc_len: DocLength::Fixed(10),
            lambda_mode: LambdaMode::None,
            seed: 1,
            ..SourceLdaGenerator::default()
        }
        .generate(&ks, &vocab)
        .unwrap();
        let fitted = SourceLda::builder()
            .knowledge_source(ks)
            .variant(Variant::Mixture)
            .unlabeled_topics(k)
            .alpha(0.5)
            .iterations(5)
            .seed(seed)
            .build()
            .unwrap()
            .fit(&generated.corpus)
            .unwrap();
        // The counts are the histogram of the final assignments.
        let t_count = fitted.num_topics();
        let mut nw = vec![0u32; generated.corpus.vocab_size() * t_count];
        for (doc, zs) in generated.corpus.docs().iter().zip(fitted.assignments()) {
            for (w, &t) in doc.tokens().iter().zip(zs) {
                nw[w.index() * t_count + t as usize] += 1;
            }
        }
        let histogram = CountCells::from_dense(generated.corpus.vocab_size(), t_count, nw);
        prop_assert_eq!(fitted.counts(), &histogram);
        // Every assignment indexes a real topic.
        for doc in fitted.assignments() {
            for &z in doc {
                prop_assert!((z as usize) < fitted.num_topics());
            }
        }
    }

    #[test]
    fn vocabulary_round_trip(words in prop::collection::hash_set("[a-z]{2,8}", 1..40)) {
        let words: Vec<String> = words.into_iter().collect();
        let vocab = Vocabulary::from_words(words.iter());
        prop_assert_eq!(vocab.len(), words.len());
        for w in &words {
            let id = vocab.get(w).unwrap();
            prop_assert_eq!(vocab.word(id), w.as_str());
        }
    }
}
