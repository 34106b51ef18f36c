//! Newswire topic labeling: Source-LDA vs post-hoc IR-LDA on a
//! Reuters-21578-like corpus (the paper's §IV.C scenario, scaled down).
//!
//! Run with: `cargo run --release --example newswire_labeling`

use source_lda::core::generative::DocLength;
use source_lda::labeling::{IrLda, JsDivergenceLabeler, LabelingContext, TopicLabeler};
use source_lda::prelude::*;
use source_lda::synth::wikipedia::WikipediaConfig;
use source_lda::synth::{ReutersConfig, ReutersLikeDataset};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data = ReutersLikeDataset::generate(&ReutersConfig {
        num_docs: 300,
        doc_len: DocLength::Fixed(50),
        superset: 30,
        active_topics: 15,
        wikipedia: WikipediaConfig {
            core_words_per_topic: 20,
            shared_vocab: 120,
            article_len: 400,
            seed: 23,
            ..WikipediaConfig::default()
        },
        ..ReutersConfig::default()
    });
    let corpus = &data.generated.corpus;
    println!(
        "newswire: {} articles over a {}-category superset ({} active)",
        corpus.num_docs(),
        data.knowledge.len(),
        data.active.len()
    );

    // Source-LDA with the superset.
    let src = SourceLda::builder()
        .knowledge_source(data.knowledge.clone())
        .variant(Variant::Full)
        .unlabeled_topics(5)
        .lambda_prior(0.7, 0.3)
        .approximation_steps(6)
        .alpha(0.4)
        .iterations(200)
        .seed(29)
        .build()?
        .fit(corpus)?;

    // IR-LDA: plain LDA + TF-IDF/cosine labels.
    let ir = IrLda::new(
        Lda::builder()
            .topics(15)
            .alpha(0.4)
            .beta(0.05)
            .iterations(200)
            .seed(29)
            .build()?,
    )
    .run(corpus, &data.knowledge)?;

    // Compare a few category word lists.
    let active_labels: Vec<&str> = data
        .active
        .iter()
        .take(4)
        .map(|&i| data.knowledge.topic(i).label())
        .collect();
    println!("\ntop-5 words per category:");
    let (src_phi, ir_phi) = (src.phi(), ir.fitted.phi());
    for label in &active_labels {
        let src_tops = src
            .labels()
            .iter()
            .position(|l| l.as_deref() == Some(*label))
            .map(|t| top5(corpus, src_phi.row(t)))
            .unwrap_or_default();
        let ir_tops = ir
            .labels
            .iter()
            .find(|a| a.label == *label)
            .map(|a| top5(corpus, ir_phi.row(a.topic)))
            .unwrap_or_else(|| "(no LDA topic mapped here)".into());
        println!("  {label}\n    SRC-LDA: {src_tops}\n    IR-LDA : {ir_tops}");
    }

    // How much do the labelings agree with the generative truth?
    let ctx = LabelingContext::new(&data.knowledge, corpus);
    let js_labels = JsDivergenceLabeler.label(&src_phi.to_rows(), &ctx);
    let consistent = src
        .labels()
        .iter()
        .enumerate()
        .filter(|(t, l)| l.is_some() && js_labels[*t].label == *l.as_deref().unwrap())
        .count();
    println!(
        "\nSource-LDA labels confirmed by independent JS mapping: {consistent}/{}",
        src.labels().iter().flatten().count()
    );
    Ok(())
}

fn top5(corpus: &Corpus, row: &[f64]) -> String {
    source_lda::math::simplex::top_n_indices(row, 5)
        .into_iter()
        .map(|w| corpus.vocabulary().word(WordId::new(w)).to_string())
        .collect::<Vec<_>>()
        .join(", ")
}
