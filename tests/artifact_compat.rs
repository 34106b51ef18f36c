//! Format-compatibility guard: the committed golden artifacts under
//! `tests/fixtures/` pin the on-disk format across versions.
//!
//! * `model_v1.slda` was written by a **format-v1** build (sections 1–6,
//!   version field 1). The current build must keep loading it forever —
//!   v1 is read-compat only now (the encoder writes v2), so this file can
//!   no longer be regenerated; treat it as an immutable archive of the v1
//!   layout.
//! * `model_v2.slda` is the same pinned model written by the current
//!   **format-v2** encoder (identical sections; only the version field
//!   differs for a checkpoint-free model). It guards encoder drift the
//!   way the v1 fixture did before the bump, and is regenerable with
//!
//! ```sh
//! cargo test --test artifact_compat -- --ignored regenerate_golden_fixture
//! ```
//!
//! The regenerator is fully deterministic (fixed corpus, fixed seed), so a
//! regenerated fixture diffs empty unless the format — or the pinned
//! model's *values* — really changed.
//!
//! Distinguish two failure modes: if `golden_v1_artifact_still_loads`
//! fails, **backward read compatibility** broke — that is a regression to
//! fix, not a fixture to regenerate. If only
//! `golden_fixture_is_reproducible_from_the_pinned_model` fails while both
//! fixtures still load, the encoded **values** drifted — e.g. an
//! intentional change to the sampler's canonical floating-point arithmetic
//! shifted φ by ulps. That needs no version bump: regenerate the v2
//! fixture and call the change out in the PR. A change to the **byte
//! layout** of existing sections needs a version bump to v3 plus decode
//! paths for v1 and v2.

use source_lda::prelude::*;
use std::path::PathBuf;

fn fixture_path_for(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join(name)
}

fn fixture_path() -> PathBuf {
    fixture_path_for("model_v1.slda")
}

fn fixture_v2_path() -> PathBuf {
    fixture_path_for("model_v2.slda")
}

/// The exact model the fixture was generated from (quickstart's §I case
/// study, pinned seeds). Must never change without a format-version bump.
fn golden_model() -> (Corpus, source_lda::core::FittedModel, Tokenizer) {
    let tokenizer = Tokenizer::permissive();
    let mut builder = CorpusBuilder::new().tokenizer(tokenizer.clone());
    builder.add_tokens("d1", &["pencil", "pencil", "umpire"]);
    builder.add_tokens("d2", &["ruler", "ruler", "baseball"]);
    let corpus = builder.build();
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
    let fitted = SourceLda::builder()
        .knowledge_source(knowledge)
        .variant(Variant::Bijective)
        .alpha(0.5)
        .iterations(300)
        .seed(7)
        .build()
        .unwrap()
        .fit(&corpus)
        .unwrap();
    (corpus, fitted, tokenizer)
}

#[test]
fn golden_artifact_still_loads() {
    let artifact = ModelArtifact::load(fixture_path()).expect(
        "the committed v1 fixture failed to load — backward read \
         compatibility broke; see the module docs",
    );
    // A v1 artifact predates the checkpoint section.
    assert!(artifact.checkpoint().is_none());
    assert_eq!(artifact.num_topics(), 2);
    assert_eq!(artifact.vocab_size(), 4);
    assert_eq!(artifact.alpha(), 0.5);
    assert_eq!(artifact.labels()[0].as_deref(), Some("School Supplies"));
    assert_eq!(artifact.labels()[1].as_deref(), Some("Baseball"));
    assert_eq!(
        artifact.vocabulary().words(),
        ["pencil", "umpire", "ruler", "baseball"]
    );
    // The artifact still *serves*: raw text routes to the right label.
    let engine = InferenceEngine::from_artifact(&artifact, EngineOptions::default()).unwrap();
    let school = engine.infer("pencil ruler pencil").unwrap();
    assert_eq!(
        engine.label(school.top_topics(1)[0]),
        Some("School Supplies")
    );
    let sports = engine.infer("umpire baseball umpire").unwrap();
    assert_eq!(engine.label(sports.top_topics(1)[0]), Some("Baseball"));
}

/// Absolute pin of what the v1 fixture serves: FNV-1a over the θ bits and
/// log-likelihood bits of three engine requests, computed with the
/// topic-major scorer. The other tests compare two decode paths, which a
/// change to the engine's φ layout that moved both sides would pass.
#[test]
fn golden_artifact_serves_pinned_bits() {
    let artifact = ModelArtifact::load(fixture_path()).unwrap();
    let engine = InferenceEngine::from_artifact(&artifact, EngineOptions::default()).unwrap();
    let mut bytes = Vec::new();
    for text in [
        "pencil ruler pencil",
        "umpire baseball umpire",
        "pencil umpire eraser ruler baseball baseball",
    ] {
        let score = engine.infer(text).unwrap();
        for x in score.theta().iter().chain([&score.log_likelihood()]) {
            bytes.extend(x.to_bits().to_le_bytes());
        }
    }
    assert_eq!(
        source_lda::serve::codec::fnv1a64(&bytes),
        2472627282661521440
    );
}

#[test]
fn golden_fixture_is_reproducible_from_the_pinned_model() {
    // The committed v2 bytes must equal a fresh encode of the pinned
    // model — i.e. the encoder has not silently drifted within format
    // version 2.
    let (corpus, fitted, tokenizer) = golden_model();
    let artifact = ModelArtifact::from_fitted(&fitted, corpus.vocabulary(), &tokenizer).unwrap();
    let committed = std::fs::read(fixture_v2_path()).expect("v2 fixture file present");
    assert_eq!(
        artifact.to_bytes(),
        committed,
        "encoder output drifted from the committed v2 fixture — if this is \
         intentional, regenerate it and call the drift out (see module docs)"
    );
}

#[test]
fn v1_and_v2_fixtures_decode_to_the_same_model() {
    // Same pinned model, two format versions: decoded contents must agree
    // bit for bit, and only the version field (plus checksum) may differ.
    let v1 = ModelArtifact::load(fixture_path()).unwrap();
    let v2 = ModelArtifact::load(fixture_v2_path()).unwrap();
    assert_eq!(v1.phi().as_slice(), v2.phi().as_slice());
    assert_eq!(v1.alpha(), v2.alpha());
    assert_eq!(v1.labels(), v2.labels());
    assert_eq!(v1.priors(), v2.priors());
    assert_eq!(v1.vocabulary().words(), v2.vocabulary().words());
    assert_eq!(v1.tokenizer().to_parts(), v2.tokenizer().to_parts());
    let v1_bytes = std::fs::read(fixture_path()).unwrap();
    let v2_bytes = std::fs::read(fixture_v2_path()).unwrap();
    assert_eq!(v1_bytes.len(), v2_bytes.len());
    // Bytes 8..12 hold the version; the final 8 hold the checksum.
    assert_eq!(v1_bytes[8..12], 1u32.to_le_bytes());
    assert_eq!(v2_bytes[8..12], 2u32.to_le_bytes());
    assert_eq!(
        v1_bytes[12..v1_bytes.len() - 8],
        v2_bytes[12..v2_bytes.len() - 8]
    );
}

/// Regenerates the **v2** fixture (the v1 fixture is an immutable archive
/// of the old layout). Run explicitly (`--ignored`); see module docs.
#[test]
#[ignore]
fn regenerate_golden_fixture() {
    let (corpus, fitted, tokenizer) = golden_model();
    let artifact = ModelArtifact::from_fitted(&fitted, corpus.vocabulary(), &tokenizer).unwrap();
    std::fs::create_dir_all(fixture_v2_path().parent().unwrap()).unwrap();
    // `save` is atomic (staged sibling + rename), so an interrupted
    // regeneration can never leave a torn fixture for `git diff` to
    // mistake for format drift.
    artifact.save(fixture_v2_path()).unwrap();
    println!(
        "wrote {} ({} bytes)",
        fixture_v2_path().display(),
        std::fs::metadata(fixture_v2_path()).unwrap().len()
    );
}
