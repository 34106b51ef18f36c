//! The in-process half of a run: ingest → knowledge → priors (set-up),
//! fit with checkpoints → final save (train), and evaluation — all
//! through the library's public API.

use crate::gen::World;
use crate::trace::{EventLog, Tracer};
use crate::workload::{Model, Workload};
use srclda_core::prelude::gibbs_perplexity;
use srclda_core::{
    CoreError, FittedModel, GibbsModel, SmoothingMode, SourceLda, TrainCheckpoint, Variant,
};
use srclda_corpus::{Corpus, CorpusBuilder, Tokenizer};
use srclda_eval::{token_accuracy, TopicMapping};
use srclda_knowledge::KnowledgeSourceBuilder;
use srclda_serve::{CheckpointStore, DurableFile, ModelArtifact};
use std::path::{Path, PathBuf};

pub struct Setup {
    pub corpus: Corpus,
    pub model: GibbsModel,
    pub tokenizer: Tokenizer,
    pub ingest_s: f64,
    pub knowledge_s: f64,
    pub assemble_s: f64,
}

impl Setup {
    pub fn secs(&self) -> f64 {
        self.ingest_s + self.knowledge_s + self.assemble_s
    }
}

pub fn setup(
    world: &World,
    wl: &Workload,
    seed: u64,
    tr: &mut Tracer,
    tag: &str,
) -> Result<Setup, String> {
    let tokenizer = Tokenizer::default();
    let articles = world.articles.clone();
    let (corpus, ingest_s) = tr.time("corpus.ingest", tag, || {
        let mut b = CorpusBuilder::new().tokenizer(tokenizer.clone());
        for (i, d) in world.train.iter().enumerate() {
            b.add_text(format!("d{i}"), &d.text);
        }
        b.build()
    });
    let (knowledge, knowledge_s) = tr.time("knowledge.build", tag, || {
        let mut kb = KnowledgeSourceBuilder::new().tokenizer(tokenizer.clone());
        for (label, text) in articles {
            kb.add_article(label, text);
        }
        kb.build(corpus.vocabulary())
    });
    let (model, assemble_s) = tr.time("prior.assemble", tag, || {
        let b = SourceLda::builder()
            .knowledge_source(knowledge)
            .alpha(0.5)
            .iterations(wl.sweeps)
            .backend(wl.backend)
            .seed(seed);
        let b = match wl.model {
            Model::Full {
                adapt_every,
                burn_in,
            } => b
                .variant(Variant::Full)
                .approximation_steps(8)
                .smoothing(SmoothingMode::Identity)
                .adaptive_lambda(adapt_every)
                .lambda_burn_in(burn_in),
            Model::Mixture { unlabeled } => b.variant(Variant::Mixture).unlabeled_topics(unlabeled),
        };
        b.build().and_then(|m| m.assemble(corpus.vocab_size()))
    });
    Ok(Setup {
        model: model.map_err(|e| format!("assemble: {e}"))?,
        corpus,
        tokenizer,
        ingest_s,
        knowledge_s,
        assemble_s,
    })
}

/// Re-tokenizing the raw text must reproduce the generated words, so the
/// generator's topic assignments line up with the corpus tokens.
pub fn check_tokens(corpus: &Corpus, world: &World) -> Result<(), String> {
    if corpus.num_docs() != world.train.len() {
        return Err("ingest produced a different document count".into());
    }
    let vocab = corpus.vocabulary();
    for (doc, gen) in corpus.docs().iter().zip(&world.train) {
        let same = doc.tokens().len() == gen.words.len()
            && doc
                .tokens()
                .iter()
                .zip(&gen.words)
                .all(|(&id, &w)| vocab.word(id) == world.words[w]);
        if !same {
            return Err("re-tokenized text differs from the generated words".into());
        }
    }
    Ok(())
}

/// Timings of one checkpoint generation.
pub struct Checkpoint {
    /// `ModelArtifact::from_checkpoint` (+ `to_bytes` when traced).
    pub encode_s: f64,
    /// `CheckpointStore::save_generation` (encode, write, fsync, rename,
    /// directory fsync, rotation); when traced, `DurableFile::write_atomic`
    /// of the already-encoded bytes to the same generation path.
    pub write_s: f64,
    /// Encoded size (traced runs only).
    pub bytes: usize,
}

pub struct Trained {
    pub fitted: FittedModel,
    /// Whole train phase: fit with checkpoints, then the final save.
    pub secs: f64,
    pub fit_s: f64,
    pub save_s: f64,
    pub artifact_bytes: u64,
    pub checkpoints: Vec<Checkpoint>,
    pub digest: u64,
    pub events: Option<EventLog>,
}

pub fn artifact_path(dir: &Path) -> PathBuf {
    dir.join("model.slda")
}

/// One train phase. With `observe`, the fit runs with an event log
/// attached and checkpoint encoding is timed separately.
pub fn train(
    s: &Setup,
    wl: &Workload,
    dir: &Path,
    tr: &mut Tracer,
    tag: &str,
    observe: bool,
) -> Result<Trained, String> {
    let ckpt_dir = dir.join("checkpoints");
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    std::fs::create_dir_all(&ckpt_dir).map_err(|e| e.to_string())?;
    let store = CheckpointStore::new(ckpt_dir.join("ckpt.slda"), 3);
    let labels = s.model.labels().to_vec();
    let vocab = s.corpus.vocabulary();
    let mut checkpoints = Vec::new();
    let mut events = observe.then(|| EventLog::new(tr));

    let phase = tr.begin("train", tag);
    let fit_open = tr.begin("train.fit", tag);
    // Traced phases split the store's save into its encode and its durable
    // write. Each phase starts from an empty directory and writes fewer
    // generations than the store keeps, so rotation has nothing to remove.
    let on_checkpoint = |cp: &TrainCheckpoint| -> Result<(), CoreError> {
        let fail = |e: String| CoreError::InvalidConfig(format!("checkpoint: {e}"));
        let open = tr.begin("checkpoint.encode", tag);
        let artifact = ModelArtifact::from_checkpoint(cp, labels.clone(), vocab, &s.tokenizer)
            .map_err(|e| fail(e.to_string()))?;
        let bytes = observe.then(|| artifact.to_bytes());
        let encode_s = tr.end(open);
        let open = tr.begin("checkpoint.write", tag);
        match &bytes {
            Some(b) => DurableFile::write_atomic(store.generation_path(cp.sweep), b)
                .map_err(|e| fail(e.to_string()))?,
            None => {
                store
                    .save_generation(cp.sweep, &artifact)
                    .map_err(|e| fail(e.to_string()))?;
            }
        }
        let write_s = tr.end(open);
        checkpoints.push(Checkpoint {
            encode_s,
            write_s,
            bytes: bytes.map_or(0, |b| b.len()),
        });
        Ok(())
    };
    let fitted = match events.as_mut() {
        Some(log) => s
            .model
            .fit_observed(&s.corpus, None, wl.checkpoint_every, on_checkpoint, log),
        None => s
            .model
            .fit_resumable(&s.corpus, None, wl.checkpoint_every, on_checkpoint),
    }
    .map_err(|e| format!("fit: {e}"))?;
    if let Some(log) = &events {
        log.fold_into(tr, tag);
    }
    let fit_s = tr.end(fit_open);
    let (artifact, _) = tr.time("artifact.from_fitted", tag, || {
        ModelArtifact::from_fitted(&fitted, vocab, &s.tokenizer)
    });
    let artifact = artifact.map_err(|e| format!("artifact: {e}"))?;
    let path = artifact_path(dir);
    let (saved, save_s) = tr.time("artifact.save", tag, || artifact.save(&path));
    saved.map_err(|e| format!("save: {e}"))?;
    let secs = tr.end(phase);
    let artifact_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    let digest = digest(&fitted);
    Ok(Trained {
        fitted,
        secs,
        fit_s,
        save_s,
        artifact_bytes,
        checkpoints,
        digest,
        events,
    })
}

/// FNV-1a over the assignments and the bits of φ.
pub fn digest(fitted: &FittedModel) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for doc in fitted.assignments() {
        mix(doc.len() as u64);
        for &z in doc {
            mix(u64::from(z));
        }
    }
    let phi = fitted.phi();
    for t in 0..phi.rows() {
        for &p in phi.row(t) {
            mix(p.to_bits());
        }
    }
    h
}

/// Token accuracy against the generator's truth (Fig. 8a/b).
pub fn label_accuracy(fitted: &FittedModel, world: &World) -> f64 {
    let truth: Vec<Vec<u32>> = world.train.iter().map(|d| d.topics.clone()).collect();
    let mapping = TopicMapping::by_label(fitted.labels(), &world.truth_labels);
    token_accuracy(&truth, fitted.assignments(), &mapping).fraction()
}

/// Held-out perplexity over text from the same world, scored against
/// the training vocabulary.
pub fn heldout_perplexity(
    fitted: &FittedModel,
    s: &Setup,
    world: &World,
    iters: usize,
    seed: u64,
) -> Result<f64, String> {
    let mut b = CorpusBuilder::new()
        .tokenizer(s.tokenizer.clone())
        .with_vocabulary(s.corpus.vocabulary().clone());
    for (i, d) in world.heldout.iter().enumerate() {
        b.add_text(format!("h{i}"), &d.text);
    }
    let test = b.build();
    if test.vocab_size() != s.corpus.vocab_size() {
        return Err("held-out text introduced words unseen in training".into());
    }
    gibbs_perplexity(fitted, &test, iters, seed ^ 0x00e7_a100)
        .map_err(|e| format!("perplexity: {e}"))
}
