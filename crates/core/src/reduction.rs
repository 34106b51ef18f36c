//! Superset topic reduction (§III.C.3).
//!
//! Source-LDA deliberately accepts a *superset* of candidate source topics;
//! after sampling, topics that the corpus never used are eliminated, and the
//! survivors can be clustered down to a target count `K`:
//!
//! > "During the inference we eliminate topics which are not assigned to
//! > any documents. At the end of the sampling phase we then can use a
//! > clustering algorithm (such as k-means, JS divergence) to further
//! > reduce the modeled topics … topics not appearing in a frequent enough
//! > of documents were eliminated."

use crate::error::CoreError;
use crate::model::FittedModel;
use srclda_math::{rng_from_seed, DenseMatrix, KMeans};

/// How to reduce the fitted topic set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReductionPolicy {
    /// Keep topics assigned (with ≥ `min_tokens` tokens) in at least
    /// `min_docs` documents.
    DocFrequency {
        /// Minimum number of documents.
        min_docs: usize,
        /// Minimum tokens within a document to count it.
        min_tokens: u32,
    },
    /// Apply the document-frequency filter, then k-means-cluster (JS
    /// divergence) the surviving φ rows down to at most `k` topics.
    ClusterToK {
        /// Target topic count `K`.
        k: usize,
        /// Minimum number of documents (pre-filter).
        min_docs: usize,
        /// Minimum tokens within a document to count it.
        min_tokens: u32,
        /// Clustering seed.
        seed: u64,
    },
}

/// The reduced topic set.
#[derive(Debug, Clone)]
pub struct ReducedModel {
    /// Original topic indices that survived the document-frequency filter.
    pub kept: Vec<usize>,
    /// Reduced topic–word matrix (one row per kept topic, or per cluster
    /// centroid when clustering).
    pub phi: DenseMatrix<f64>,
    /// Label per reduced topic (for clusters: the label of the member with
    /// the most assigned tokens).
    pub labels: Vec<Option<String>>,
    /// For clustering: each kept topic's cluster index (aligned with
    /// `kept`); identity mapping for plain filtering.
    pub cluster_of: Vec<usize>,
}

impl ReducedModel {
    /// Number of reduced topics.
    pub fn num_topics(&self) -> usize {
        self.phi.rows()
    }
}

/// Reduce a fitted model's topics.
///
/// # Errors
/// Fails if the filter eliminates every topic.
pub fn reduce(fitted: &FittedModel, policy: ReductionPolicy) -> crate::Result<ReducedModel> {
    let (min_docs, min_tokens) = match policy {
        ReductionPolicy::DocFrequency {
            min_docs,
            min_tokens,
        }
        | ReductionPolicy::ClusterToK {
            min_docs,
            min_tokens,
            ..
        } => (min_docs, min_tokens),
    };
    let doc_freq = fitted.topic_doc_frequencies(min_tokens);
    let kept: Vec<usize> = (0..fitted.num_topics())
        .filter(|&t| doc_freq[t] >= min_docs.max(1))
        .collect();
    if kept.is_empty() {
        return Err(CoreError::InvalidConfig(
            "topic reduction eliminated every topic; lower min_docs".into(),
        ));
    }

    match policy {
        ReductionPolicy::DocFrequency { .. } => {
            let full = fitted.phi();
            let mut phi = DenseMatrix::zeros(kept.len(), full.cols());
            let mut labels = Vec::with_capacity(kept.len());
            for (i, &t) in kept.iter().enumerate() {
                phi.row_mut(i).copy_from_slice(full.row(t));
                labels.push(fitted.label(t).map(String::from));
            }
            let cluster_of = (0..kept.len()).collect();
            Ok(ReducedModel {
                kept,
                phi,
                labels,
                cluster_of,
            })
        }
        ReductionPolicy::ClusterToK { k, seed, .. } => {
            let k = k.max(1);
            if kept.len() <= k {
                // Nothing to merge — fall through to plain filtering.
                return reduce(
                    fitted,
                    ReductionPolicy::DocFrequency {
                        min_docs,
                        min_tokens,
                    },
                );
            }
            let full = fitted.phi();
            let rows: Vec<Vec<f64>> = kept.iter().map(|&t| full.row(t).to_vec()).collect();
            let mut rng = rng_from_seed(seed);
            let result = KMeans::new(k).fit(&rows, &mut rng)?;
            let v = fitted.vocab_size();
            let mut phi = DenseMatrix::zeros(k, v);
            for (c, centroid) in result.centroids.iter().enumerate() {
                phi.row_mut(c).copy_from_slice(centroid);
            }
            // Cluster label = label of the member with the most tokens.
            let mut labels: Vec<Option<String>> = vec![None; k];
            let mut best_mass = vec![0u64; k];
            for (i, &t) in kept.iter().enumerate() {
                let c = result.assignments[i];
                let mass = u64::from(fitted.counts().nt()[t]);
                if mass >= best_mass[c] {
                    best_mass[c] = mass;
                    if let Some(l) = fitted.label(t) {
                        labels[c] = Some(l.to_string());
                    }
                }
            }
            Ok(ReducedModel {
                kept,
                phi,
                labels,
                cluster_of: result.assignments,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source_lda::{SourceLda, Variant};
    use srclda_corpus::{Corpus, CorpusBuilder, Tokenizer};
    use srclda_knowledge::{KnowledgeSource, KnowledgeSourceBuilder};

    /// Corpus drawn from two topics, knowledge source a superset of four.
    fn setup() -> (Corpus, KnowledgeSource) {
        let mut b = CorpusBuilder::new().tokenizer(Tokenizer::permissive());
        for _ in 0..10 {
            b.add_tokens("d-gas", &["gas", "pipeline", "gas", "energy"]);
            b.add_tokens("d-stock", &["stock", "market", "fund", "stock"]);
        }
        let c = b.build();
        let mut ks = KnowledgeSourceBuilder::new();
        ks.add_article("Natural Gas", "gas gas pipeline pipeline energy energy");
        ks.add_article("Stock Market", "stock stock market market fund fund");
        ks.add_article("Cricket", "wicket bowler batsman innings");
        ks.add_article("Opera", "soprano aria libretto tenor");
        let source = ks.build(c.vocabulary());
        (c, source)
    }

    fn fitted() -> (Corpus, crate::model::FittedModel) {
        let (c, ks) = setup();
        let model = SourceLda::builder()
            .knowledge_source(ks)
            .variant(Variant::Mixture)
            .unlabeled_topics(1)
            .alpha(0.2)
            .iterations(80)
            .seed(21)
            .build()
            .unwrap();
        let f = model.fit(&c).unwrap();
        (c, f)
    }

    #[test]
    fn unused_superset_topics_are_eliminated() {
        let (_, f) = fitted();
        let reduced = reduce(
            &f,
            ReductionPolicy::DocFrequency {
                min_docs: 3,
                min_tokens: 2,
            },
        )
        .unwrap();
        let labels: Vec<&str> = reduced.labels.iter().filter_map(|l| l.as_deref()).collect();
        assert!(labels.contains(&"Natural Gas"), "labels: {labels:?}");
        assert!(labels.contains(&"Stock Market"));
        // Cricket/Opera have no corpus support (their articles share no
        // vocabulary with the corpus) and must be gone.
        assert!(!labels.contains(&"Cricket"));
        assert!(!labels.contains(&"Opera"));
    }

    #[test]
    fn reduced_phi_rows_match_kept_topics() {
        let (_, f) = fitted();
        let reduced = reduce(
            &f,
            ReductionPolicy::DocFrequency {
                min_docs: 1,
                min_tokens: 1,
            },
        )
        .unwrap();
        for (i, &t) in reduced.kept.iter().enumerate() {
            assert_eq!(reduced.phi.row(i), f.phi_row(t));
        }
        assert_eq!(
            reduced.cluster_of,
            (0..reduced.kept.len()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn clustering_reduces_to_k() {
        let (_, f) = fitted();
        let reduced = reduce(
            &f,
            ReductionPolicy::ClusterToK {
                k: 2,
                min_docs: 1,
                min_tokens: 1,
                seed: 1,
            },
        )
        .unwrap();
        assert_eq!(reduced.num_topics(), 2);
        assert_eq!(reduced.cluster_of.len(), reduced.kept.len());
        // Every centroid row is a distribution.
        for t in 0..2 {
            let sum: f64 = reduced.phi.row(t).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6, "row {t} sums to {sum}");
        }
    }

    #[test]
    fn over_aggressive_filter_errors() {
        let (_, f) = fitted();
        let result = reduce(
            &f,
            ReductionPolicy::DocFrequency {
                min_docs: 10_000,
                min_tokens: 1,
            },
        );
        assert!(result.is_err());
    }

    #[test]
    fn cluster_to_k_with_few_topics_degrades_to_filter() {
        let (_, f) = fitted();
        let reduced = reduce(
            &f,
            ReductionPolicy::ClusterToK {
                k: 50,
                min_docs: 1,
                min_tokens: 1,
                seed: 1,
            },
        )
        .unwrap();
        assert!(reduced.num_topics() <= f.num_topics());
    }
}
