//! Crash-safety of the checkpoint persistence layer, proven by
//! deterministic fault injection: killing a checkpoint write at *any*
//! byte offset, flipping bits, or truncating files must never lose more
//! than one checkpoint interval, and resuming from whatever survives
//! must continue the chain bit-identically.

use proptest::prelude::*;
use srclda_core::{Backend, GibbsModel, KernelKind, SourceLda, TrainCheckpoint, Variant};
use srclda_corpus::{Corpus, CorpusBuilder, Tokenizer};
use srclda_knowledge::KnowledgeSourceBuilder;
use srclda_serve::{CheckpointStore, FaultKind, FaultPlan, ModelArtifact};
use std::path::PathBuf;
use std::sync::OnceLock;

/// A small two-source world with genuinely stochastic tokens ("bag"
/// carries equal weight in both articles), so a broken resume cannot hide
/// behind prior-determined convergence.
fn world() -> (Corpus, Tokenizer, srclda_knowledge::KnowledgeSource) {
    let tokenizer = Tokenizer::permissive();
    let mut builder = CorpusBuilder::new().tokenizer(tokenizer.clone());
    for i in 0..8 {
        builder.add_tokens(
            format!("school-{i}"),
            &["pencil", "pencil", "ruler", "eraser"],
        );
        builder.add_tokens(
            format!("sports-{i}"),
            &["baseball", "umpire", "baseball", "glove"],
        );
        builder.add_tokens(format!("mixed-{i}"), &["pencil", "baseball", "bag", "bag"]);
    }
    let corpus = builder.build();
    let mut ks = KnowledgeSourceBuilder::new();
    ks.add_article("School Supplies", "pencil ruler eraser bag ".repeat(10));
    ks.add_article("Baseball", "baseball umpire glove bag ".repeat(10));
    let knowledge = ks.build(corpus.vocabulary());
    (corpus, tokenizer, knowledge)
}

fn model(
    corpus: &Corpus,
    knowledge: srclda_knowledge::KnowledgeSource,
    sweeps: usize,
) -> GibbsModel {
    SourceLda::builder()
        .knowledge_source(knowledge)
        .variant(Variant::Bijective)
        .alpha(0.5)
        .iterations(sweeps)
        .seed(11)
        .backend(Backend::ShardedDocs {
            kernel: KernelKind::Flat,
            shards: 2,
            threads: 2,
        })
        .build()
        .and_then(|m| m.assemble(corpus.vocab_size()))
        .expect("model assembles")
}

/// The uninterrupted run's outputs: encoded checkpoint generations as
/// `(sweep, bytes)`, final assignments, final φ values.
type Reference = (Vec<(u64, Vec<u8>)>, Vec<Vec<u32>>, Vec<f64>);

/// Run a full 12-sweep fit, capturing the checkpoints at sweeps 4/8/12
/// as encoded artifacts and the final model state.
fn reference_run() -> Reference {
    let (corpus, tokenizer, knowledge) = world();
    let m = model(&corpus, knowledge, 12);
    let labels = m.labels().to_vec();
    let mut generations: Vec<(u64, Vec<u8>)> = Vec::new();
    let fitted = m
        .fit_resumable(&corpus, None, Some(4), |cp| {
            let artifact =
                ModelArtifact::from_checkpoint(cp, labels.clone(), corpus.vocabulary(), &tokenizer)
                    .expect("checkpoint artifact builds");
            generations.push((cp.sweep, artifact.to_bytes()));
            Ok(())
        })
        .expect("uninterrupted fit");
    (
        generations,
        fitted.assignments().to_vec(),
        fitted.phi().as_slice().to_vec(),
    )
}

fn reference() -> &'static Reference {
    static REFERENCE: OnceLock<Reference> = OnceLock::new();
    REFERENCE.get_or_init(reference_run)
}

fn temp_store(tag: &str, keep: usize) -> (PathBuf, CheckpointStore) {
    let dir = std::env::temp_dir().join(format!("srclda-durability-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let store = CheckpointStore::new(dir.join("ck.slda"), keep);
    (dir, store)
}

/// Resume from `cp` and run to sweep 12; the final model must be
/// bit-identical to the uninterrupted reference run.
fn assert_resumed_chain_matches_reference(cp: &TrainCheckpoint) {
    let (_, ref_assignments, ref_phi) = reference();
    let (corpus, _, knowledge) = world();
    let fitted = model(&corpus, knowledge, 12)
        .fit_resumable(&corpus, Some(cp), Some(4), |_| Ok(()))
        .expect("resumed fit");
    assert_eq!(
        fitted.assignments(),
        ref_assignments.as_slice(),
        "resumed assignments diverged from the uninterrupted run"
    );
    assert_eq!(
        fitted.phi().as_slice(),
        ref_phi.as_slice(),
        "resumed phi diverged from the uninterrupted run"
    );
}

proptest! {
    // Each case writes two small files; keep the case count moderate so
    // the suite stays fast while still sweeping offsets across the whole
    // artifact, both fault flavors, and the EINTR path.
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole property: kill the sweep-8 checkpoint write at an
    /// arbitrary byte offset (clean write failure, torn partial write, or
    /// ENOSPC). Recovery must land on the intact sweep-4 generation,
    /// bit-identical — at most one checkpoint interval is lost.
    #[test]
    fn killing_a_checkpoint_write_at_any_offset_loses_at_most_one_interval(
        raw_offset in any::<u64>(),
        kind_sel in 0usize..3,
    ) {
        let (generations, _, _) = reference();
        let gen4 = &generations[0];
        let gen8 = &generations[1];
        prop_assert_eq!(gen4.0, 4);
        let offset = raw_offset % gen8.1.len() as u64;
        let kind = [FaultKind::FailWrite, FaultKind::TornWrite, FaultKind::DiskFull][kind_sel];
        let plan = match kind {
            FaultKind::FailWrite => FaultPlan::fail_write_at(offset),
            FaultKind::TornWrite => FaultPlan::torn_write_at(offset),
            _ => FaultPlan::disk_full_at(offset),
        };

        let (dir, store) = temp_store(&format!("kill-{offset}-{kind_sel}"), 3);
        let gen4_artifact = ModelArtifact::from_bytes(&gen4.1).expect("reference bytes decode");
        store.save_generation(4, &gen4_artifact).unwrap();
        let gen8_artifact = ModelArtifact::from_bytes(&gen8.1).expect("reference bytes decode");
        let err = store
            .save_generation_with_plan(8, &gen8_artifact, &plan)
            .expect_err("the injected fault must surface");
        prop_assert!(plan.triggered() > 0, "fault never fired: {err}");

        let recovery = store.resume_auto().unwrap();
        let recovered = recovery.recovered.expect("generation 4 must survive");
        prop_assert_eq!(recovered.generation, 4);
        prop_assert!(
            recovered.artifact.to_bytes() == gen4.1,
            "recovered generation must be bit-identical to what was written"
        );
        // A torn write may leave a staging file; it must never decode as
        // a generation, only be cleaned.
        prop_assert_eq!(recovery.corrupt, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Torn write, bit flip, and truncation over the newest (v2,
/// checkpoint-bearing) generation: `resume_auto` must skip every corrupt
/// file, land on the newest valid one, and the chain continued from it
/// must finish bit-identical to the uninterrupted run.
#[test]
fn corruption_falls_back_to_newest_valid_generation_and_chain_stays_bit_identical() {
    let (generations, _, _) = reference();
    let (dir, store) = temp_store("fallback", 4);
    for (sweep, bytes) in generations {
        let artifact = ModelArtifact::from_bytes(bytes).unwrap();
        store.save_generation(*sweep, &artifact).unwrap();
    }
    // Truncate generation 12 and bit-flip generation 8 inside the
    // checkpoint section (the file tail, past the φ matrix).
    let g12 = store.generation_path(12);
    let bytes = std::fs::read(&g12).unwrap();
    std::fs::write(&g12, &bytes[..bytes.len() / 3]).unwrap();
    let g8 = store.generation_path(8);
    let mut bytes = std::fs::read(&g8).unwrap();
    let at = bytes.len() - bytes.len() / 8;
    bytes[at] ^= 0x10;
    std::fs::write(&g8, &bytes).unwrap();

    let recovery = store.resume_auto().unwrap();
    assert_eq!(recovery.scanned, 3);
    assert_eq!(recovery.corrupt, 2);
    let recovered = recovery.recovered.expect("generation 4 is intact");
    assert_eq!(recovered.generation, 4);

    let cp = recovered
        .artifact
        .checkpoint()
        .expect("generation carries its checkpoint");
    // The digest round-trips through encode → corrupt-sibling scan →
    // decode unchanged.
    let original = ModelArtifact::from_bytes(&reference().0[0].1)
        .unwrap()
        .checkpoint()
        .unwrap()
        .digest();
    assert_eq!(cp.digest(), original);
    assert_resumed_chain_matches_reference(cp);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash *after* the rename commits the bytes: recovery must find the
/// new generation, not fall back — and resuming from it still converges
/// to the reference bits.
#[test]
fn crash_after_rename_recovers_the_committed_generation() {
    let (generations, _, _) = reference();
    let (dir, store) = temp_store("crash-after", 3);
    let gen4 = ModelArtifact::from_bytes(&generations[0].1).unwrap();
    let gen8 = ModelArtifact::from_bytes(&generations[1].1).unwrap();
    store.save_generation(4, &gen4).unwrap();
    let plan = FaultPlan::crash_after_rename();
    store
        .save_generation_with_plan(8, &gen8, &plan)
        .expect_err("the simulated crash must surface");
    assert_eq!(plan.triggered(), 1);

    let recovery = store.resume_auto().unwrap();
    let recovered = recovery.recovered.expect("the rename committed");
    assert_eq!(recovered.generation, 8);
    assert_eq!(recovered.artifact.to_bytes(), generations[1].1);
    let cp = recovered.artifact.checkpoint().unwrap();
    assert_resumed_chain_matches_reference(cp);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Stale staging files from prior crashes are swept on recovery, counted,
/// and reported through metrics as a valid Prometheus exposition.
#[test]
fn stale_staging_files_are_cleaned_and_recovery_metrics_expose() {
    let (generations, _, _) = reference();
    let (dir, store) = temp_store("stale-tmp", 3);
    let gen4 = ModelArtifact::from_bytes(&generations[0].1).unwrap();
    store.save_generation(4, &gen4).unwrap();
    std::fs::write(dir.join("ck.g000008.slda.tmp"), b"half a checkpoint").unwrap();
    std::fs::write(dir.join("ck.g000012.slda.tmp"), b"").unwrap();

    let recovery = store.resume_auto().unwrap();
    assert_eq!(recovery.cleaned_tmp, 2);
    assert_eq!(recovery.recovered.as_ref().map(|r| r.generation), Some(4));
    assert!(
        !dir.join("ck.g000008.slda.tmp").exists(),
        "stale tmp files must be removed"
    );

    let registry = srclda_obs::Registry::new();
    recovery.record_metrics(&registry);
    let text = registry.render();
    srclda_obs::validate_exposition(&text).expect("valid exposition");
    assert!(
        text.contains("srclda_persist_recovered_generation 4\n"),
        "{text}"
    );
    assert!(
        text.contains("srclda_persist_stale_tmp_cleaned_total 2\n"),
        "{text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
