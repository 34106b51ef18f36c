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
//!   decode derives from the same state.
//! * `model_v3.slda` and `generation_v3.slda` were written by the
//!   **format-v3** encoder: the pinned model as sections 1–6 (φ stored),
//!   and a small generation of the same corpus (no φ section; sampler
//!   state with `nw` as non-zero cells). They are immutable read-compat
//!   archives too.
//! * `model_v4.slda` is the pinned model written by the current
//!   **format-v4** encoder (the counts section in φ's place), and
//!   `generation_v4.slda` the v3 generation re-encoded: the same sampler
//!   state, its λ-integration tables written as their support rows plus
//!   the shared row where the v3 archive holds every word's row (both are
//!   encodings the v4 priors section has always had). They guard encoder
//!   drift and are regenerable with
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
//! arithmetic shifted the counts. That needs no version bump: regenerate
//! the v4 fixtures and call the change out in the PR. The same holds when
//! the encoder picks another of a section's existing encodings (such as a
//! λ-integration table's layout tag), which every v4 reader already
//! decodes. A change to the **byte layout** of existing sections needs a
//! version bump to v5 plus decode paths for v1–v4.

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

fn fixture_v4_path() -> PathBuf {
    fixture_path_for("model_v4.slda")
}

fn generation_v4_path() -> PathBuf {
    fixture_path_for("generation_v4.slda")
}

/// Section names in table order.
fn section_names(bytes: &[u8]) -> Vec<&'static str> {
    source_lda::serve::list_sections(bytes)
        .unwrap()
        .iter()
        .map(|s| s.name())
        .collect()
}

/// The θ and log-likelihood bits `artifact` serves for a fixed set of
/// requests.
fn served_bits(artifact: &ModelArtifact) -> Vec<u64> {
    let engine = InferenceEngine::from_artifact(artifact, EngineOptions::default()).unwrap();
    let mut bits = Vec::new();
    for text in [
        "pencil ruler pencil",
        "umpire baseball umpire",
        "pencil umpire eraser ruler baseball baseball",
    ] {
        let score = engine.infer(text).unwrap();
        bits.extend(score.theta().iter().map(|x| x.to_bits()));
        bits.push(score.log_likelihood().to_bits());
    }
    bits
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

/// Absolute pins of what the v1 fixture serves: FNV-1a over the θ bits and
/// log-likelihood bits of three engine requests. The other tests compare
/// two decode paths, which a change to the engine's φ layout that moved
/// both sides would pass.
///
/// The first pin was computed with the topic-major scorer and is now held
/// by the dense fold-in oracle, run on the engine's tokens with the seeds
/// the engine derives (the configured seed XOR the FNV-1a of the ids'
/// little-endian bytes). The second pins the bucket kernel the engine
/// serves. They are equal: on this two-topic model each of these texts
/// ends its sweeps on the same topic counts under either kernel.
#[test]
fn golden_artifact_serves_pinned_bits() {
    use source_lda::serve::codec::fnv1a64;
    let artifact = ModelArtifact::load(fixture_path()).unwrap();
    let options = EngineOptions::default();
    let engine = InferenceEngine::from_artifact(&artifact, options).unwrap();
    let (mut served, mut oracle) = (Vec::new(), Vec::new());
    for text in [
        "pencil ruler pencil",
        "umpire baseball umpire",
        "pencil umpire eraser ruler baseball baseball",
    ] {
        let score = engine.infer(text).unwrap();
        for x in score.theta().iter().chain([&score.log_likelihood()]) {
            served.extend(x.to_bits().to_le_bytes());
        }
        let (ids, _) = engine.tokenize(text);
        let id_bytes: Vec<u8> = ids.iter().flat_map(|id| id.to_le_bytes()).collect();
        let config = FoldInConfig {
            iterations: options.fold_in.iterations,
            seed: options.fold_in.seed ^ fnv1a64(&id_bytes),
        };
        let doc = engine.inference().fold_in_dense(&ids, &config).unwrap();
        for x in doc.theta().iter().chain([&doc.log_likelihood()]) {
            oracle.extend(x.to_bits().to_le_bytes());
        }
    }
    assert_eq!(fnv1a64(&oracle), 2472627282661521440);
    assert_eq!(fnv1a64(&served), 2472627282661521440);
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
/// corpus, so the generation fixtures pin integrated priors, shard RNG
/// states and the kernel tag.
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
    // The committed v4 bytes must equal a fresh encode of the pinned
    // model — i.e. the encoder has not silently drifted within format
    // version 4.
    let (corpus, fitted, tokenizer) = golden_model();
    let artifact = ModelArtifact::from_fitted(&fitted, corpus.vocabulary(), &tokenizer).unwrap();
    let committed = std::fs::read(fixture_v4_path()).expect("v4 fixture file present");
    assert_eq!(
        artifact.to_bytes(),
        committed,
        "encoder output drifted from the committed v4 fixture — if this is \
         intentional, regenerate it and call the drift out (see module docs)"
    );
}

/// A v4 final model is sampler state: the counts section in φ's place.
/// Loaded, it serves the pinned model bit for bit as the v1 archive does.
#[test]
fn v4_fixture_stores_counts_and_serves_the_v1_bits() {
    let committed = std::fs::read(fixture_v4_path()).unwrap();
    assert_eq!(committed[8..12], 4u32.to_le_bytes());
    assert_eq!(
        section_names(&committed),
        ["model", "labels", "priors", "vocab", "tokenizer", "counts"],
        "a v4 final model stores no phi"
    );
    let v1 = ModelArtifact::load(fixture_path()).unwrap();
    let v4 = ModelArtifact::from_bytes(&committed).unwrap();
    assert!(v4.checkpoint().is_none());
    assert_eq!(served_bits(&v4), served_bits(&v1));
    assert_eq!(v4.phi().unwrap(), v1.phi().unwrap());
    assert_eq!(v4.priors(), v1.priors());
    assert_eq!(v4.labels(), v1.labels());
    assert_eq!(v4.vocabulary().words(), v1.vocabulary().words());
}

/// A model that holds a φ and no counts — the v1 archive — re-encodes with
/// its φ section: only the version field and checksum change, and it
/// serves the same bits.
#[test]
fn v1_model_reencodes_with_its_phi_section() {
    let v1_bytes = std::fs::read(fixture_path()).unwrap();
    let v1 = ModelArtifact::from_bytes(&v1_bytes).unwrap();
    let v4_bytes = v1.to_bytes();
    assert_eq!(v4_bytes[8..12], 4u32.to_le_bytes());
    assert_eq!(
        section_names(&v4_bytes),
        ["model", "phi", "labels", "priors", "vocab", "tokenizer"]
    );
    assert_eq!(
        v1_bytes[12..v1_bytes.len() - 8],
        v4_bytes[12..v4_bytes.len() - 8]
    );
    let v4 = ModelArtifact::from_bytes(&v4_bytes).unwrap();
    assert_eq!(served_bits(&v4), served_bits(&v1));
}

#[test]
fn generation_fixture_is_reproducible_and_serves_its_checkpoint_phi() {
    let generation = golden_generation();
    let committed = std::fs::read(generation_v4_path()).expect("v4 generation present");
    assert_eq!(
        generation.to_bytes(),
        committed,
        "generation encoder output drifted from the committed v4 fixture — \
         if this is intentional, regenerate it and call the drift out"
    );
    assert_eq!(
        section_names(&committed),
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
    assert_eq!(Some(&cp), generation.checkpoint().as_ref());
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

/// The v3 generation archive: the same sampler state as the v4 fixture.
/// Its λ-integration tables hold every word's δ row, which decode reads
/// into the support form the v4 fixture stores, so it decodes to the v4
/// fixture's checkpoint, re-encodes to its bytes, and serves its bits.
#[test]
fn v3_generation_archive_still_loads_and_serves() {
    let v3_bytes = std::fs::read(fixture_path_for("generation_v3.slda")).unwrap();
    let v4_bytes = std::fs::read(generation_v4_path()).unwrap();
    assert_eq!(v3_bytes[8..12], 3u32.to_le_bytes());
    let v3 = ModelArtifact::from_bytes(&v3_bytes).unwrap();
    let v4 = ModelArtifact::from_bytes(&v4_bytes).unwrap();
    assert_eq!(v3.checkpoint(), v4.checkpoint());
    assert_eq!(v3.to_bytes(), v4_bytes);
    assert_eq!(served_bits(&v3), served_bits(&v4));
}

/// Re-encoding the v2 generation archive writes a v4 generation that
/// decodes to the same sampler state and derives, bit for bit, the φ the
/// v2 file stored.
#[test]
fn v2_generation_transcodes_to_v4_without_drift() {
    let v2_bytes = std::fs::read(fixture_path_for("generation_v2.slda")).unwrap();
    let v2 = ModelArtifact::from_bytes(&v2_bytes).unwrap();
    let v4_bytes = v2.to_bytes();
    assert_eq!(v4_bytes[8..12], 4u32.to_le_bytes());
    assert!(v4_bytes.len() < v2_bytes.len(), "v4 stores no phi");
    let v4 = ModelArtifact::from_bytes(&v4_bytes).unwrap();
    assert_eq!(v4.checkpoint(), v2.checkpoint());
    assert_eq!(v4.priors(), v2.priors());
    assert_eq!(v4.labels(), v2.labels());
    let phi = source_lda::serve::list_sections(&v2_bytes)
        .unwrap()
        .into_iter()
        .find(|s| s.name() == "phi")
        .unwrap();
    let stored: Vec<u64> = v2_bytes[phi.offset as usize..(phi.offset + phi.length) as usize]
        .chunks_exact(8)
        .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
        .collect();
    let derived: Vec<u64> = v4
        .phi()
        .unwrap()
        .as_slice()
        .iter()
        .map(|x| x.to_bits())
        .collect();
    assert_eq!(derived, stored);
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

/// Regenerates the **v4** model fixture (the v1–v3 fixtures are
/// immutable archives of older layouts). Run explicitly (`--ignored`);
/// see module docs.
#[test]
#[ignore]
fn regenerate_golden_fixture() {
    let (corpus, fitted, tokenizer) = golden_model();
    let artifact = ModelArtifact::from_fitted(&fitted, corpus.vocabulary(), &tokenizer).unwrap();
    write_fixture(&artifact, fixture_v4_path());
}

/// Regenerates the **v4** generation fixture (the v2 and v3 generations
/// are immutable archives). Run explicitly (`--ignored`); see module docs.
#[test]
#[ignore]
fn regenerate_generation_fixture() {
    write_fixture(&golden_generation(), generation_v4_path());
}
