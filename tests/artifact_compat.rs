//! Format-compatibility guard: the committed golden artifacts under
//! `tests/fixtures/` pin the on-disk format across versions.
//!
//! * `model_v1.slda` was written by a **format-v1** build (sections 1–6,
//!   version field 1) and `model_v2.slda` by a **format-v2** build (the
//!   same sections; only the version field differs). Both are immutable
//!   read-compat archives now: the current build must keep loading them
//!   forever and can no longer regenerate them.
//! * `generation_v2.slda` is a **format-v2** checkpoint generation (a φ
//!   section plus the v2 checkpoint section), written by
//!   `train_driver --sweeps 24 --shards 2 --checkpoint-every 6
//!   --stop-after 12` before the bump. It must keep loading, serving and
//!   resuming to the uninterrupted run's digest
//!   (`crates/bench/tests/train_driver_cli.rs`), and its stored φ is what
//!   a v3 decode derives from the same state.
//! * `model_v3.slda` is the pinned model written by the current
//!   **format-v3** encoder, and `generation_v3.slda` a small v3
//!   generation of the same corpus (no φ section; sampler state with
//!   `nw` as non-zero cells). They guard encoder drift and are
//!   regenerable with
//!
//! ```sh
//! cargo test --test artifact_compat -- --ignored regenerate_golden_fixture
//! cargo test --test artifact_compat -- --ignored regenerate_generation_fixture
//! ```
//!
//! The regenerators are fully deterministic (fixed corpus, fixed seeds),
//! so a regenerated fixture diffs empty unless the format — or the pinned
//! model's *values* — really changed.
//!
//! Distinguish two failure modes: if a test that loads an archive fails,
//! **backward read compatibility** broke — that is a regression to fix,
//! not a fixture to regenerate. If only a `…_is_reproducible_…` test
//! fails while every fixture still loads, the encoded **values** drifted
//! — e.g. an intentional change to the sampler's canonical floating-point
//! arithmetic shifted φ by ulps. That needs no version bump: regenerate
//! the v3 fixtures and call the change out in the PR. A change to the
//! **byte layout** of existing sections needs a version bump to v4 plus
//! decode paths for v1–v3.

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

fn fixture_v3_path() -> PathBuf {
    fixture_path_for("model_v3.slda")
}

fn generation_v3_path() -> PathBuf {
    fixture_path_for("generation_v3.slda")
}

/// The corpus and knowledge source of the pinned fixtures (quickstart's
/// §I case study).
fn golden_world() -> (Corpus, KnowledgeSource, Tokenizer) {
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
    (corpus, knowledge, tokenizer)
}

/// The exact model the fixture was generated from (pinned seeds). Must
/// never change without a format-version bump.
fn golden_model() -> (Corpus, source_lda::core::FittedModel, Tokenizer) {
    let (corpus, knowledge, tokenizer) = golden_world();
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

/// A v2 checkpoint generation (φ section plus the v2 checkpoint section),
/// written by `train_driver --sweeps 24 --shards 2 --checkpoint-every 6
/// --stop-after 12` before the format moved to v3. It must keep loading,
/// keep its sampler state and keep serving.
#[test]
fn v2_generation_archive_still_loads_and_serves() {
    let artifact = ModelArtifact::load(fixture_path_for("generation_v2.slda")).expect(
        "the committed v2 generation failed to load — backward read \
         compatibility broke; see the module docs",
    );
    let cp = artifact
        .checkpoint()
        .expect("a generation carries a checkpoint");
    assert_eq!(cp.sweep, 12);
    assert_eq!(cp.shard_count(), 2);
    let engine = InferenceEngine::from_artifact(&artifact, EngineOptions::default()).unwrap();
    let school = engine.infer("pencil ruler pencil").unwrap();
    assert_eq!(
        engine.label(school.top_topics(1)[0]),
        Some("School Supplies")
    );
}

/// The pinned generation: the sweep-8 checkpoint of a 12-sweep,
/// λ-integrated, adaptive, 2-shard sparse-kernel run on the golden
/// corpus, so the v3 fixture pins integrated priors, shard RNG states
/// and the kernel tag.
fn golden_generation() -> ModelArtifact {
    let (corpus, knowledge, tokenizer) = golden_world();
    let model = SourceLda::builder()
        .knowledge_source(knowledge)
        .variant(Variant::Full)
        .adaptive_lambda(4)
        .alpha(0.5)
        .iterations(12)
        .seed(7)
        .backend(Backend::ShardedDocs {
            kernel: KernelKind::Sparse,
            shards: 2,
            threads: 1,
        })
        .build()
        .and_then(|m| m.assemble(corpus.vocab_size()))
        .unwrap();
    let mut at_8 = None;
    model
        .fit_resumable(&corpus, None, Some(4), |cp| {
            if cp.sweep == 8 {
                at_8 = Some(cp.clone());
            }
            Ok(())
        })
        .unwrap();
    let labels = model.labels().to_vec();
    ModelArtifact::from_checkpoint(&at_8.unwrap(), labels, corpus.vocabulary(), &tokenizer).unwrap()
}

#[test]
fn golden_fixture_is_reproducible_from_the_pinned_model() {
    // The committed v3 bytes must equal a fresh encode of the pinned
    // model — i.e. the encoder has not silently drifted within format
    // version 3.
    let (corpus, fitted, tokenizer) = golden_model();
    let artifact = ModelArtifact::from_fitted(&fitted, corpus.vocabulary(), &tokenizer).unwrap();
    let committed = std::fs::read(fixture_v3_path()).expect("v3 fixture file present");
    assert_eq!(
        artifact.to_bytes(),
        committed,
        "encoder output drifted from the committed v3 fixture — if this is \
         intentional, regenerate it and call the drift out (see module docs)"
    );
}

#[test]
fn generation_fixture_is_reproducible_and_serves_its_checkpoint_phi() {
    let generation = golden_generation();
    let committed = std::fs::read(generation_v3_path()).expect("v3 generation present");
    assert_eq!(
        generation.to_bytes(),
        committed,
        "generation encoder output drifted from the committed v3 fixture — \
         if this is intentional, regenerate it and call the drift out"
    );
    let names: Vec<&str> = source_lda::serve::list_sections(&committed)
        .unwrap()
        .iter()
        .map(|s| s.name())
        .collect();
    assert_eq!(
        names,
        [
            "model",
            "labels",
            "priors",
            "vocab",
            "tokenizer",
            "checkpoint"
        ]
    );
    let loaded = ModelArtifact::from_bytes(&committed).unwrap();
    let cp = loaded.checkpoint().unwrap();
    assert_eq!(Some(cp), generation.checkpoint());
    assert_eq!(loaded.priors(), cp.priors.as_slice());
    assert!(loaded.priors().iter().all(|p| p.kind() == "integrated"));
    assert_eq!(
        loaded.phi().unwrap().as_slice(),
        cp.phi().unwrap().as_slice(),
        "a loaded generation serves its checkpoint's phi"
    );
    let engine = InferenceEngine::from_artifact(&loaded, EngineOptions::default()).unwrap();
    let school = engine.infer("pencil ruler pencil").unwrap();
    assert_eq!(
        engine.label(school.top_topics(1)[0]),
        Some("School Supplies")
    );
}

/// Re-encoding the v2 generation archive writes a v3 generation that
/// decodes to the same sampler state and derives, bit for bit, the φ the
/// v2 file stored.
#[test]
fn v2_generation_transcodes_to_v3_without_drift() {
    let v2_bytes = std::fs::read(fixture_path_for("generation_v2.slda")).unwrap();
    let v2 = ModelArtifact::from_bytes(&v2_bytes).unwrap();
    let v3_bytes = v2.to_bytes();
    assert_eq!(v3_bytes[8..12], 3u32.to_le_bytes());
    assert!(v3_bytes.len() < v2_bytes.len(), "v3 stores no phi");
    let v3 = ModelArtifact::from_bytes(&v3_bytes).unwrap();
    assert_eq!(v3.checkpoint(), v2.checkpoint());
    assert_eq!(v3.priors(), v2.priors());
    assert_eq!(v3.labels(), v2.labels());
    let bits = |a: &ModelArtifact| -> Vec<u64> {
        a.phi()
            .unwrap()
            .as_slice()
            .iter()
            .map(|x| x.to_bits())
            .collect()
    };
    assert_eq!(bits(&v3), bits(&v2));
}

#[test]
fn v1_and_v2_fixtures_decode_to_the_same_model() {
    // Same pinned model, two format versions: decoded contents must agree
    // bit for bit, and only the version field (plus checksum) may differ.
    let v1 = ModelArtifact::load(fixture_path()).unwrap();
    let v2 = ModelArtifact::load(fixture_v2_path()).unwrap();
    assert_eq!(v1.phi().unwrap().as_slice(), v2.phi().unwrap().as_slice());
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

#[test]
fn v3_fixture_decodes_to_the_v2_model() {
    // A final model's sections did not change in v3: only the version
    // field (plus checksum) differs from the v2 archive.
    let v2 = ModelArtifact::load(fixture_v2_path()).unwrap();
    let v3 = ModelArtifact::load(fixture_v3_path()).unwrap();
    assert_eq!(v2.phi().unwrap().as_slice(), v3.phi().unwrap().as_slice());
    assert_eq!(v2.alpha(), v3.alpha());
    assert_eq!(v2.labels(), v3.labels());
    assert_eq!(v2.priors(), v3.priors());
    assert_eq!(v2.vocabulary().words(), v3.vocabulary().words());
    assert_eq!(v2.tokenizer().to_parts(), v3.tokenizer().to_parts());
    let v2_bytes = std::fs::read(fixture_v2_path()).unwrap();
    let v3_bytes = std::fs::read(fixture_v3_path()).unwrap();
    assert_eq!(v2_bytes.len(), v3_bytes.len());
    assert_eq!(v3_bytes[8..12], 3u32.to_le_bytes());
    assert_eq!(
        v2_bytes[12..v2_bytes.len() - 8],
        v3_bytes[12..v3_bytes.len() - 8]
    );
}

/// `save` is atomic (staged sibling + rename), so an interrupted
/// regeneration can never leave a torn fixture for `git diff` to mistake
/// for format drift.
fn write_fixture(artifact: &ModelArtifact, path: PathBuf) {
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    artifact.save(&path).unwrap();
    println!(
        "wrote {} ({} bytes)",
        path.display(),
        std::fs::metadata(&path).unwrap().len()
    );
}

/// Regenerates the **v3** model fixture (the v1 and v2 fixtures are
/// immutable archives of older layouts). Run explicitly (`--ignored`);
/// see module docs.
#[test]
#[ignore]
fn regenerate_golden_fixture() {
    let (corpus, fitted, tokenizer) = golden_model();
    let artifact = ModelArtifact::from_fitted(&fitted, corpus.vocabulary(), &tokenizer).unwrap();
    write_fixture(&artifact, fixture_v3_path());
}

/// Regenerates the **v3** generation fixture (the v2 generation is an
/// immutable archive). Run explicitly (`--ignored`); see module docs.
#[test]
#[ignore]
fn regenerate_generation_fixture() {
    write_fixture(&golden_generation(), generation_v3_path());
}
