//! Quickstart: the paper's §I case study, end to end.
//!
//! Two three-word documents mix "School Supplies" and "Baseball" tokens.
//! Plain LDA can split them arbitrarily; Source-LDA, given two knowledge
//! source articles, assigns every token to the right labeled topic. The
//! final act persists the trained model to a `.slda` artifact and reloads
//! it to label raw text online — the serving workflow.
//!
//! Run with: `cargo run --release --example quickstart`

use source_lda::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build the corpus.
    let mut builder = CorpusBuilder::new().tokenizer(Tokenizer::permissive());
    builder.add_tokens("d1", &["pencil", "pencil", "umpire"]);
    builder.add_tokens("d2", &["ruler", "ruler", "baseball"]);
    let corpus = builder.build();
    println!(
        "corpus: {} documents, {} tokens, vocabulary {}",
        corpus.num_docs(),
        corpus.num_tokens(),
        corpus.vocab_size()
    );

    // 2. Build the knowledge source ("Wikipedia articles" for the labels).
    let mut ks = KnowledgeSourceBuilder::new();
    ks.add_article(
        "School Supplies",
        "pencil ruler eraser notebook pencil ruler pencil ".repeat(40),
    );
    ks.add_article(
        "Baseball",
        "baseball umpire pitcher inning baseball umpire baseball ".repeat(40),
    );
    let knowledge = ks.build(corpus.vocabulary());
    println!(
        "knowledge source: {} labeled topics over the corpus vocabulary",
        knowledge.len()
    );

    // 3. Fit bijective Source-LDA (each topic = one knowledge article).
    let model = SourceLda::builder()
        .knowledge_source(knowledge)
        .variant(Variant::Bijective)
        .alpha(0.5)
        .iterations(300)
        .seed(7)
        .build()?;
    let fitted = model.fit(&corpus)?;

    // 4. Inspect the labeled token assignments.
    println!("\ntoken assignments:");
    for (d, doc) in corpus.iter() {
        print!("  {}:", doc.name().unwrap_or("?"));
        for (j, &w) in doc.tokens().iter().enumerate() {
            let z = fitted.assignments()[d.index()][j] as usize;
            print!(
                " {}→{}",
                corpus.vocabulary().word(w),
                fitted.label(z).unwrap_or("?")
            );
        }
        println!();
    }

    // 5. Topic-word distributions conform to the articles.
    println!("\nper-topic top words:");
    let phi = fitted.phi();
    for t in 0..fitted.num_topics() {
        let tops: Vec<&str> = source_lda::math::simplex::top_n_indices(phi.row(t), 3)
            .into_iter()
            .map(|w| corpus.vocabulary().word(WordId::new(w)))
            .collect();
        println!(
            "  {:<16} {:?}",
            fitted.label(t).unwrap_or("(unlabeled)"),
            tops
        );
    }

    // 6. Document-topic mixtures.
    println!("\ndocument-topic mixtures (θ):");
    for (d, doc) in corpus.iter() {
        println!(
            "  {}: {:?}",
            doc.name().unwrap_or("?"),
            fitted
                .theta_row(d.index())
                .iter()
                .map(|p| format!("{p:.2}"))
                .collect::<Vec<_>>()
        );
    }

    // 7. Persist the trained model to a versioned, checksummed artifact…
    let artifact =
        ModelArtifact::from_fitted(&fitted, corpus.vocabulary(), &Tokenizer::permissive())?;
    let path = std::env::temp_dir().join("quickstart-model.slda");
    artifact.save(&path)?;
    println!(
        "\nsaved model to {} ({} bytes)",
        path.display(),
        std::fs::metadata(&path)?.len()
    );

    // 8. …reload it (as a serving process would) and label raw text online.
    let engine =
        InferenceEngine::from_artifact(&ModelArtifact::load(&path)?, EngineOptions::default())?;
    for text in ["pencil ruler pencil", "the umpire saw a baseball"] {
        let score = engine.infer(text)?;
        let top = score.top_topics(1)[0];
        println!(
            "  \"{text}\" → {} (θ {:.2}, perplexity {:.2})",
            engine.label(top).unwrap_or("?"),
            score.theta()[top],
            score.perplexity()
        );
    }
    std::fs::remove_file(&path).ok();
    Ok(())
}
