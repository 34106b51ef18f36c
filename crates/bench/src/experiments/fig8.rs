//! Figure 8 (a–e): the Wikipedia-corpus evaluation (§IV.D).
//!
//! A corpus is generated from `K` topics chosen out of a `B`-topic
//! knowledge base (MedlinePlus-style labels, synthetic articles). Models
//! are compared in two rounds:
//!
//! * **Unk (mixed)** — models receive the full `B`-topic superset;
//! * **Exact (bijective)** — models receive exactly the `K` used topics.
//!
//! Metrics: correct token assignments (a/b), summed θ JS divergence (d/e),
//! and PMI topic coherence over a `K` sweep (c).

use crate::cli::{banner, Scale};
use rand::seq::SliceRandom;
use srclda_core::generative::{DocLength, GeneratedCorpus, LambdaMode, SourceLdaGenerator};
use srclda_core::{Ctm, Eda, Lda, SmoothingMode, SourceLda, Variant};
use srclda_eval::report::bar_chart;
use srclda_eval::{mean_topic_pmi, theta_js_total, token_accuracy, Series, TopicMapping};
use srclda_knowledge::{KnowledgeSource, SmoothingConfig};
use srclda_math::rng_from_seed;
use srclda_synth::{medline_topic_names, SyntheticWikipedia, WikipediaConfig};

struct Setup {
    generated: GeneratedCorpus,
    superset: KnowledgeSource,
    exact: KnowledgeSource,
}

/// Build the §IV.D world: `b` candidate topics, corpus generated from a
/// random `k`-subset.
fn build(scale: Scale, b: usize, k: usize, seed: u64) -> Setup {
    let names = medline_topic_names();
    let labels: Vec<&str> = names.iter().take(b).map(String::as_str).collect();
    let wiki = SyntheticWikipedia::generate(
        &labels,
        &WikipediaConfig {
            core_words_per_topic: scale.pick(12, 30, 60),
            shared_vocab: scale.pick(80, 250, 400),
            article_len: scale.pick(250, 700, 1200),
            seed,
            ..WikipediaConfig::default()
        },
    );
    let mut indices: Vec<usize> = (0..b).collect();
    let mut rng = rng_from_seed(seed ^ 0x8d);
    indices.shuffle(&mut rng);
    let mut active = indices[..k].to_vec();
    active.sort_unstable();
    let exact = wiki.knowledge.select(&active);
    let generated = SourceLdaGenerator {
        alpha: 0.5,
        // §IV.D: µ = 5.0, σ = 2.0 for generation (bounded to [0,1], so λ
        // concentrates near 1: topics track their articles closely).
        mu: 5.0,
        sigma: 2.0,
        lambda_mode: LambdaMode::Raw,
        num_docs: scale.pick(60, 300, 2000),
        doc_len: DocLength::Fixed(scale.pick(40, 100, 500)),
        seed: seed ^ 0x77,
        ..SourceLdaGenerator::default()
    }
    .generate(&exact, &wiki.vocab)
    .expect("generation succeeds");
    Setup {
        generated,
        superset: wiki.knowledge,
        exact,
    }
}

struct Outcome {
    name: &'static str,
    correct: usize,
    theta_js: f64,
}

fn score(
    name: &'static str,
    fitted: &srclda_core::FittedModel,
    setup: &Setup,
    by_phi: bool,
) -> Outcome {
    let mapping = if by_phi {
        // Generated φ/θ are finite by construction, so the NaN-input
        // errors cannot fire here; surface them loudly if that ever
        // changes rather than scoring garbage.
        TopicMapping::by_phi_js(&fitted.phi(), &setup.generated.truth.phi)
            .expect("generated phi matrices are finite")
    } else {
        TopicMapping::by_label(fitted.labels(), &setup.generated.truth.labels)
    };
    let acc = token_accuracy(
        &setup.generated.truth.assignments,
        fitted.assignments(),
        &mapping,
    );
    let js = theta_js_total(&fitted.theta(), &setup.generated.truth.theta, &mapping)
        .expect("generated theta matrices are finite");
    Outcome {
        name,
        correct: acc.correct,
        theta_js: js,
    }
}

fn smoothing(scale: Scale) -> SmoothingMode {
    match scale {
        // At reduced data density (30k tokens instead of the paper's 1M)
        // the g-linearized prior is too flat to anchor topic identities;
        // integrating over raw λ keeps the prior strength in the same
        // prior-to-data regime as the paper's setup.
        Scale::Smoke | Scale::Default => SmoothingMode::Identity,
        Scale::Full => SmoothingMode::Shared(SmoothingConfig {
            grid_points: 8,
            samples_per_point: 60,
        }),
    }
}

/// One evaluation round (Unk or Exact).
fn round(
    setup: &Setup,
    knowledge: &KnowledgeSource,
    tag: &str,
    scale: Scale,
) -> (String, Vec<Outcome>) {
    let iterations = scale.pick(50, 150, 1000);
    let t_total = knowledge.len();
    let alpha = 50.0 / t_total as f64;
    let corpus = &setup.generated.corpus;
    let beta = 200.0 / corpus.vocab_size() as f64;

    let src = SourceLda::builder()
        .knowledge_source(knowledge.clone())
        .variant(Variant::Full)
        .lambda_prior(0.7, 0.3)
        .approximation_steps(scale.pick(4, 6, 8))
        .smoothing(smoothing(scale))
        .adaptive_lambda(10)
        .alpha(alpha)
        .beta(beta)
        .iterations(iterations)
        .seed(8)
        .build()
        .expect("valid model")
        .fit(corpus)
        .expect("fit succeeds");
    let eda = Eda::builder()
        .knowledge_source(knowledge.clone())
        .alpha(alpha)
        .iterations(scale.pick(30, 80, 300))
        .seed(8)
        .build()
        .expect("valid model")
        .fit(corpus)
        .expect("fit succeeds");
    let ctm = Ctm::builder()
        .knowledge_source(knowledge.clone())
        .alpha(alpha)
        .beta(beta)
        .iterations(iterations)
        .seed(8)
        .build()
        .expect("valid model")
        .fit(corpus)
        .expect("fit succeeds");
    let lda = Lda::builder()
        .topics(setup.exact.len())
        .alpha(50.0 / setup.exact.len() as f64)
        .beta(beta)
        .iterations(iterations)
        .seed(8)
        .build()
        .expect("valid model")
        .fit(corpus)
        .expect("fit succeeds");

    let outcomes = vec![
        score("SRC", &src, setup, false),
        score("EDA", &eda, setup, false),
        score("CTM", &ctm, setup, false),
        score("LDA", &lda, setup, true),
    ];
    let mut text = String::new();
    text.push_str(&format!("\ncorrect token assignments ({tag}):\n"));
    let acc_entries: Vec<(String, f64)> = outcomes
        .iter()
        .map(|o| (format!("{}-{tag}", o.name), o.correct as f64))
        .collect();
    text.push_str(&bar_chart(&acc_entries, 40));
    text.push_str(&format!(
        "\nsummed θ JS divergence ({tag}, lower is better):\n"
    ));
    let js_entries: Vec<(String, f64)> = outcomes
        .iter()
        .map(|o| (format!("{}-{tag}", o.name), o.theta_js))
        .collect();
    text.push_str(&bar_chart(&js_entries, 40));
    (text, outcomes)
}

/// Figure 8 a/b/d/e: the two accuracy/θ rounds.
pub fn run_assignments(scale: Scale) -> String {
    let mut out = banner(
        "F8abde",
        "Wikipedia-corpus accuracy & θ divergence (Fig. 8 a/b/d/e)",
        scale,
    );
    let b = scale.pick(30, 120, 578);
    let k = scale.pick(10, 40, 100);
    let setup = build(scale, b, k, 81);
    out.push_str(&format!(
        "B = {b} candidate topics, K = {k} active, D = {} docs, {} tokens\n",
        setup.generated.corpus.num_docs(),
        setup.generated.corpus.num_tokens()
    ));
    let (unk_text, unk) = round(&setup, &setup.superset, "Unk", scale);
    out.push_str(&unk_text);
    let (exact_text, exact) = round(&setup, &setup.exact, "Exact", scale);
    out.push_str(&exact_text);
    let src_unk = unk.iter().find(|o| o.name == "SRC").expect("SRC present");
    let best_other_unk = unk
        .iter()
        .filter(|o| o.name != "SRC")
        .map(|o| o.correct)
        .max()
        .unwrap_or(0);
    out.push_str(&format!(
        "\nSRC-Unk correct = {} vs best baseline {} (paper: SRC highest in both rounds)\n",
        src_unk.correct, best_other_unk
    ));
    let src_exact = exact.iter().find(|o| o.name == "SRC").expect("SRC present");
    out.push_str(&format!("SRC-Exact correct = {}\n", src_exact.correct));
    out
}

/// Figure 8 c: PMI coherence over a K sweep.
pub fn run_pmi(scale: Scale) -> String {
    let mut out = banner("F8c", "PMI topic coherence sweep (Fig. 8 c)", scale);
    let ks: Vec<usize> = match scale {
        Scale::Smoke => vec![8, 12],
        Scale::Default => vec![20, 30, 40, 50, 60],
        Scale::Full => vec![100, 125, 150, 175, 200],
    };
    let extra = scale.pick(8, 30, 100); // superset margin over K
    let window = 10;
    let top_n = 10;
    let iterations = scale.pick(50, 150, 1000);
    let mut series = Series::new("topics", ks.iter().map(|&k| k as f64).collect());
    let mut src_exact_col = Vec::new();
    let mut src_unk_col = Vec::new();
    let mut lda_col = Vec::new();
    for (i, &k) in ks.iter().enumerate() {
        let setup = build(scale, k + extra, k, 820 + i as u64);
        let corpus = &setup.generated.corpus;
        let beta = 200.0 / corpus.vocab_size() as f64;
        let fit_src = |knowledge: &KnowledgeSource| {
            SourceLda::builder()
                .knowledge_source(knowledge.clone())
                .variant(Variant::Full)
                .lambda_prior(0.7, 0.3)
                .approximation_steps(4)
                .smoothing(smoothing(scale))
                .alpha(50.0 / knowledge.len() as f64)
                .beta(beta)
                .iterations(iterations)
                .seed(9)
                .build()
                .expect("valid model")
                .fit(corpus)
                .expect("fit succeeds")
        };
        let pmi_of = |fitted: &srclda_core::FittedModel| {
            let tops: Vec<Vec<srclda_corpus::WordId>> = (0..fitted.num_topics())
                .map(|t| {
                    fitted
                        .top_words(t, top_n)
                        .into_iter()
                        .map(srclda_corpus::WordId::new)
                        .collect()
                })
                .collect();
            mean_topic_pmi(corpus, &tops, window).unwrap_or(f64::NAN)
        };
        let src_exact = fit_src(&setup.exact);
        let src_unk = fit_src(&setup.superset);
        let lda = Lda::builder()
            .topics(k)
            .alpha(50.0 / k as f64)
            .beta(beta)
            .iterations(iterations)
            .seed(9)
            .build()
            .expect("valid model")
            .fit(corpus)
            .expect("fit succeeds");
        src_exact_col.push(pmi_of(&src_exact));
        src_unk_col.push(pmi_of(&src_unk));
        lda_col.push(pmi_of(&lda));
    }
    series.push_column("SRC-Exact", src_exact_col.clone());
    series.push_column("SRC-Unk", src_unk_col.clone());
    series.push_column("LDA", lda_col.clone());
    out.push_str(&series.render());
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    out.push_str(&format!(
        "\nmean PMI — SRC-Exact {:.3}, SRC-Unk {:.3}, LDA {:.3} (paper: SRC above LDA at every K)\n",
        mean(&src_exact_col),
        mean(&src_unk_col),
        mean(&lda_col)
    ));
    out
}

/// Both parts.
pub fn run(scale: Scale) -> String {
    let mut out = run_assignments(scale);
    out.push('\n');
    out.push_str(&run_pmi(scale));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn src_beats_baselines_on_exact_round() {
        // Mid-size corpus: the λ-integrated prior needs enough tokens to
        // dominate EDA's frozen distributions (the paper uses 1M tokens).
        let setup = build(Scale::Default, 16, 8, 4242);
        let (_, outcomes) = round(&setup, &setup.exact, "Exact", Scale::Default);
        let get = |n: &str| outcomes.iter().find(|o| o.name == n).unwrap();
        let src = get("SRC");
        let eda = get("EDA");
        let ctm = get("CTM");
        assert!(
            src.correct >= eda.correct && src.correct >= ctm.correct,
            "SRC {} vs EDA {} vs CTM {}",
            src.correct,
            eda.correct,
            ctm.correct
        );
        let total: usize = setup.generated.truth.assignments.iter().map(Vec::len).sum();
        assert!(
            src.correct * 2 > total,
            "SRC should classify most tokens: {}/{total}",
            src.correct
        );
    }

    #[test]
    fn theta_divergence_ranks_src_first_or_close() {
        let setup = build(Scale::Smoke, 16, 8, 77);
        let (_, outcomes) = round(&setup, &setup.exact, "Exact", Scale::Smoke);
        let src = outcomes.iter().find(|o| o.name == "SRC").unwrap().theta_js;
        let ctm = outcomes.iter().find(|o| o.name == "CTM").unwrap().theta_js;
        assert!(src <= ctm * 1.5, "SRC θ JS {src:.2} vs CTM {ctm:.2}");
    }
}
