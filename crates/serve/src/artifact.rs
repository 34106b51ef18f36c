//! The versioned, checksummed binary model-artifact format.
//!
//! A `.slda` artifact is everything needed to serve a trained model against
//! *raw text* with no access to the training process: the posterior φ, the
//! document–topic prior α, per-topic labels and priors, the vocabulary the
//! word ids index into, and the tokenizer configuration that produced that
//! vocabulary. Layout (all integers little-endian, floats IEEE-754 LE):
//!
//! ```text
//! offset 0   magic            8 bytes  b"SLDAMODL"
//!        8   format version   u32      currently 2 (1 still readable)
//!       12   section count    u32      N
//!       16   section table    N × { id: u32, offset: u64, length: u64 }
//!        …   section payloads (absolute offsets, non-overlapping)
//!  len − 8   checksum         u64      FNV-1a 64 of bytes [0, len − 8)
//! ```
//!
//! | id | section    | contents                                            |
//! |----|------------|-----------------------------------------------------|
//! | 1  | model      | α (f64), topic count `T` (u64), vocab size `V` (u64)|
//! | 2  | phi        | `T·V` f64, row-major by topic                       |
//! | 3  | labels     | `T` × (present: u8, then UTF-8 string)              |
//! | 4  | priors     | `T` × tagged [`RawPrior`]                           |
//! | 5  | vocab      | count (u64), then UTF-8 strings in word-id order    |
//! | 6  | tokenizer  | lowercase u8, min_len u64, stopwords u8, numbers u8 |
//! | 7  | checkpoint | *(optional, v2)* sampler state ([`TrainCheckpoint`])|
//!
//! Version history: **v1** is sections 1–6; **v2** (this build) adds the
//! *optional* checkpoint section carrying mid-training sampler state
//! (sweep index, assignments, counts, RNG streams, shard layout, current
//! priors) so a long Gibbs run can stop and resume bit-identically. A v2
//! reader still loads v1 artifacts unchanged — the committed
//! `tests/fixtures/model_v1.slda` golden file pins that forever — and a v2
//! artifact without a checkpoint differs from v1 only in the version
//! field.
//!
//! Readers ignore unknown section ids (room for additive growth within a
//! version); any change to an *existing* section's meaning requires
//! bumping the format version, which is enforced in CI by the committed
//! golden artifacts that the current code must keep loading.

use crate::codec::{fnv1a64, Reader, Writer};
use crate::error::ServeError;
use srclda_core::persist::{RawIntegrationLayout, RawIntegrationTable, RawPrior, TrainCheckpoint};
use srclda_core::prior::TopicPrior;
use srclda_core::{FittedModel, Inference};
use srclda_corpus::{Tokenizer, Vocabulary};
use srclda_math::DenseMatrix;

/// First eight bytes of every artifact.
pub const MAGIC: [u8; 8] = *b"SLDAMODL";
/// Format version this build writes. Every version from 1 through this
/// one is readable.
pub const FORMAT_VERSION: u32 = 2;

const SEC_MODEL: u32 = 1;
const SEC_PHI: u32 = 2;
const SEC_LABELS: u32 = 3;
const SEC_PRIORS: u32 = 4;
const SEC_VOCAB: u32 = 5;
const SEC_TOKENIZER: u32 = 6;
const SEC_CHECKPOINT: u32 = 7;

/// Section-table caps: a sane artifact has 6 sections; allow headroom for
/// additive growth but reject tables a corrupt count field could inflate.
const MAX_SECTIONS: u32 = 64;

/// One section-table entry (exposed for `inspect`-style tooling).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionInfo {
    /// Section id (see the module docs table).
    pub id: u32,
    /// Absolute byte offset of the payload.
    pub offset: u64,
    /// Payload length in bytes.
    pub length: u64,
}

impl SectionInfo {
    /// Human-readable name for known ids.
    pub fn name(&self) -> &'static str {
        match self.id {
            SEC_MODEL => "model",
            SEC_PHI => "phi",
            SEC_LABELS => "labels",
            SEC_PRIORS => "priors",
            SEC_VOCAB => "vocab",
            SEC_TOKENIZER => "tokenizer",
            SEC_CHECKPOINT => "checkpoint",
            _ => "unknown",
        }
    }
}

/// A self-contained, serializable trained model — optionally carrying a
/// mid-training [`TrainCheckpoint`] so the run can be resumed.
#[derive(Debug, Clone)]
pub struct ModelArtifact {
    alpha: f64,
    phi: DenseMatrix<f64>,
    labels: Vec<Option<String>>,
    priors: Vec<RawPrior>,
    vocab: Vocabulary,
    tokenizer: Tokenizer,
    checkpoint: Option<TrainCheckpoint>,
}

impl ModelArtifact {
    /// Assemble from parts, validating consistency.
    ///
    /// # Errors
    /// Fails if dimensions disagree, α is not positive and finite, φ has
    /// non-finite or negative entries, or any prior fails revalidation.
    pub fn new(
        alpha: f64,
        phi: DenseMatrix<f64>,
        labels: Vec<Option<String>>,
        priors: Vec<RawPrior>,
        vocab: Vocabulary,
        tokenizer: Tokenizer,
    ) -> Result<Self, ServeError> {
        let artifact = Self {
            alpha,
            phi,
            labels,
            priors,
            vocab,
            tokenizer,
            checkpoint: None,
        };
        artifact.validate()?;
        Ok(artifact)
    }

    /// Attach a training checkpoint (validated against the model's
    /// dimensions). The artifact then encodes the optional checkpoint
    /// section and remains fully servable — φ/labels/priors describe the
    /// state at the checkpointed sweep.
    ///
    /// # Errors
    /// Fails if the checkpoint's dimensions or internal consistency
    /// disagree with this model.
    pub fn with_checkpoint(mut self, checkpoint: TrainCheckpoint) -> Result<Self, ServeError> {
        self.checkpoint = Some(checkpoint);
        self.validate()?;
        Ok(self)
    }

    /// The training checkpoint, if this artifact carries one.
    pub fn checkpoint(&self) -> Option<&TrainCheckpoint> {
        self.checkpoint.as_ref()
    }

    /// Build a *servable* artifact directly from a mid-training
    /// checkpoint: φ is computed at the checkpoint's counts
    /// ([`TrainCheckpoint::phi`]), α and the priors are the checkpoint's
    /// own (possibly λ-adapted) training values, and the checkpoint itself
    /// rides along so training can resume from the same file.
    ///
    /// # Errors
    /// Fails if the checkpoint is internally inconsistent or disagrees
    /// with `vocab`/`labels`.
    pub fn from_checkpoint(
        checkpoint: &TrainCheckpoint,
        labels: Vec<Option<String>>,
        vocab: &Vocabulary,
        tokenizer: &Tokenizer,
    ) -> Result<Self, ServeError> {
        let phi = checkpoint.phi()?;
        Self::new(
            checkpoint.alpha,
            phi,
            labels,
            checkpoint.priors.clone(),
            vocab.clone(),
            tokenizer.clone(),
        )?
        .with_checkpoint(checkpoint.clone())
    }

    /// Snapshot a fitted model for persistence. `vocab` and `tokenizer`
    /// must be the ones the training corpus was built with — they are what
    /// lets the serving side preprocess raw text identically.
    ///
    /// # Errors
    /// Fails if `vocab` does not match the model's vocabulary size.
    pub fn from_fitted(
        fitted: &FittedModel,
        vocab: &Vocabulary,
        tokenizer: &Tokenizer,
    ) -> Result<Self, ServeError> {
        Self::new(
            fitted.alpha(),
            fitted.phi().clone(),
            fitted.labels().to_vec(),
            fitted.priors().iter().map(TopicPrior::to_raw).collect(),
            vocab.clone(),
            tokenizer.clone(),
        )
    }

    fn validate(&self) -> Result<(), ServeError> {
        let t = self.phi.rows();
        let v = self.phi.cols();
        if t == 0 || v == 0 {
            return Err(ServeError::Corrupt(format!("empty model: T={t}, V={v}")));
        }
        if !(self.alpha > 0.0 && self.alpha.is_finite()) {
            return Err(ServeError::Corrupt(format!(
                "alpha must be positive and finite, got {}",
                self.alpha
            )));
        }
        if self.labels.len() != t {
            return Err(ServeError::Corrupt(format!(
                "{} labels for {t} topics",
                self.labels.len()
            )));
        }
        if self.priors.len() != t {
            return Err(ServeError::Corrupt(format!(
                "{} priors for {t} topics",
                self.priors.len()
            )));
        }
        if self.vocab.len() != v {
            return Err(ServeError::Corrupt(format!(
                "vocabulary has {} words for V={v}",
                self.vocab.len()
            )));
        }
        if !self
            .phi
            .as_slice()
            .iter()
            .all(|&x| x.is_finite() && x >= 0.0)
        {
            return Err(ServeError::Corrupt(
                "phi has negative or non-finite entries".into(),
            ));
        }
        // Priors must survive semantic revalidation against this vocabulary.
        for (i, raw) in self.priors.iter().enumerate() {
            TopicPrior::from_raw(raw.clone(), v).map_err(|e| {
                ServeError::Corrupt(format!("prior {i} ({}) invalid: {e}", raw.kind()))
            })?;
        }
        if let Some(cp) = &self.checkpoint {
            if cp.num_topics() != t || cp.vocab_size() != v {
                return Err(ServeError::Corrupt(format!(
                    "checkpoint is {}×{} for a {t}×{v} model",
                    cp.num_topics(),
                    cp.vocab_size()
                )));
            }
            if cp.alpha.to_bits() != self.alpha.to_bits() {
                return Err(ServeError::Corrupt(format!(
                    "checkpoint alpha {} disagrees with the model's alpha {}",
                    cp.alpha, self.alpha
                )));
            }
            // The checkpoint's own document lengths are the reference here
            // (the artifact carries no corpus); cross-corpus validation
            // happens again at resume time in `fit_resumable`.
            let doc_lens: Vec<u32> =
                cp.z.iter()
                    .map(|d| {
                        u32::try_from(d.len()).map_err(|_| {
                            ServeError::Corrupt(
                                "checkpoint document longer than u32::MAX tokens".into(),
                            )
                        })
                    })
                    .collect::<Result<_, _>>()?;
            cp.validate(&doc_lens, v, t)
                .map_err(|e| ServeError::Corrupt(format!("checkpoint invalid: {e}")))?;
        }
        Ok(())
    }

    /// The document–topic prior α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The topic–word matrix φ (`T × V`).
    pub fn phi(&self) -> &DenseMatrix<f64> {
        &self.phi
    }

    /// Topic count `T`.
    pub fn num_topics(&self) -> usize {
        self.phi.rows()
    }

    /// Vocabulary size `V`.
    pub fn vocab_size(&self) -> usize {
        self.phi.cols()
    }

    /// Per-topic labels.
    pub fn labels(&self) -> &[Option<String>] {
        &self.labels
    }

    /// Per-topic prior mirrors.
    pub fn priors(&self) -> &[RawPrior] {
        &self.priors
    }

    /// The vocabulary raw text is interned against.
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocab
    }

    /// The tokenizer configuration used at training time.
    pub fn tokenizer(&self) -> &Tokenizer {
        &self.tokenizer
    }

    /// Reconstruct the live priors (for workloads that resume training or
    /// need Eq. 3 weights rather than the point estimate φ).
    ///
    /// # Errors
    /// Fails if a prior mirror is inconsistent with the vocabulary.
    pub fn live_priors(&self) -> Result<Vec<TopicPrior>, ServeError> {
        self.priors
            .iter()
            .map(|raw| TopicPrior::from_raw(raw.clone(), self.vocab_size()).map_err(Into::into))
            .collect()
    }

    /// Build the fold-in scoring engine from this artifact.
    ///
    /// # Errors
    /// Propagates `srclda_core` validation failures.
    pub fn inference(&self) -> Result<Inference, ServeError> {
        Inference::from_parts(&self.phi, self.alpha, self.labels.clone()).map_err(Into::into)
    }

    /// The `n` most probable words of topic `t`, as vocabulary strings.
    pub fn top_words(&self, t: usize, n: usize) -> Vec<&str> {
        srclda_math::simplex::top_n_indices(self.phi.row(t), n)
            .into_iter()
            .map(|w| self.vocab.word(srclda_corpus::WordId::new(w)))
            .collect()
    }

    /// Serialize to the on-disk format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let t = self.num_topics();

        let mut model = Writer::new();
        model.f64(self.alpha);
        model.u64(t as u64);
        model.u64(self.vocab_size() as u64);

        let mut phi = Writer::new();
        for &x in self.phi.as_slice() {
            phi.f64(x);
        }

        let mut labels = Writer::new();
        for label in &self.labels {
            match label {
                Some(s) => {
                    labels.bool(true);
                    labels.str(s);
                }
                None => labels.bool(false),
            }
        }

        let mut priors = Writer::new();
        for raw in &self.priors {
            encode_prior(&mut priors, raw);
        }

        let mut vocab = Writer::new();
        vocab.u64(self.vocab.len() as u64);
        for word in self.vocab.words() {
            vocab.str(word);
        }

        let mut tokenizer = Writer::new();
        let (lowercase, min_len, remove_stopwords, keep_numbers) = self.tokenizer.to_parts();
        tokenizer.bool(lowercase);
        tokenizer.u64(min_len as u64);
        tokenizer.bool(remove_stopwords);
        tokenizer.bool(keep_numbers);

        let mut sections: Vec<(u32, Vec<u8>)> = vec![
            (SEC_MODEL, model.into_bytes()),
            (SEC_PHI, phi.into_bytes()),
            (SEC_LABELS, labels.into_bytes()),
            (SEC_PRIORS, priors.into_bytes()),
            (SEC_VOCAB, vocab.into_bytes()),
            (SEC_TOKENIZER, tokenizer.into_bytes()),
        ];
        if let Some(cp) = &self.checkpoint {
            let mut w = Writer::new();
            encode_checkpoint(&mut w, cp);
            sections.push((SEC_CHECKPOINT, w.into_bytes()));
        }

        let table_len = 16 + sections.len() * 20;
        let mut out = Writer::new();
        out.bytes(&MAGIC);
        out.u32(FORMAT_VERSION);
        debug_assert!(sections.len() <= MAX_SECTIONS as usize);
        out.u32(sections.len() as u32); // lint:allow(narrowing-cast): at most MAX_SECTIONS entries, built right above
        let mut offset = table_len as u64;
        for (id, payload) in &sections {
            out.u32(*id);
            out.u64(offset);
            out.u64(payload.len() as u64);
            offset += payload.len() as u64;
        }
        for (_, payload) in &sections {
            out.bytes(payload);
        }
        let mut bytes = out.into_bytes();
        let checksum = fnv1a64(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        bytes
    }

    /// Deserialize and fully validate an artifact.
    ///
    /// # Errors
    /// Every way a file can be wrong maps to a distinct [`ServeError`]:
    /// bad magic, unsupported version, checksum mismatch, truncation,
    /// missing sections, or structurally/semantically corrupt content.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ServeError> {
        let sections = list_sections(bytes)?;
        let payload = |id: u32, name: &'static str| -> Result<&[u8], ServeError> {
            let info = sections
                .iter()
                .find(|s| s.id == id)
                .ok_or(ServeError::MissingSection { name })?;
            section_bytes(bytes, info)
        };

        let mut model = Reader::new(payload(SEC_MODEL, "model")?, "model section");
        let alpha = model.f64()?;
        let t = model.u64()? as usize;
        let v = model.u64()? as usize;
        model.expect_empty()?;
        if t == 0 || v == 0 {
            return Err(ServeError::Corrupt(format!("empty model: T={t}, V={v}")));
        }

        let phi_bytes = payload(SEC_PHI, "phi")?;
        let expected = t
            .checked_mul(v)
            .and_then(|n| n.checked_mul(8))
            .ok_or_else(|| ServeError::Corrupt(format!("phi dimensions overflow: {t}×{v}")))?;
        if phi_bytes.len() != expected {
            return Err(ServeError::Corrupt(format!(
                "phi section is {} bytes, expected {expected} for T={t}, V={v}",
                phi_bytes.len()
            )));
        }
        let mut phi_reader = Reader::new(phi_bytes, "phi section");
        let mut phi_data = Vec::with_capacity(t * v);
        for _ in 0..t * v {
            phi_data.push(phi_reader.f64()?);
        }
        let phi = DenseMatrix::from_vec(t, v, phi_data);

        let mut labels_reader = Reader::new(payload(SEC_LABELS, "labels")?, "labels section");
        let labels: Vec<Option<String>> = (0..t)
            .map(|_| {
                Ok(if labels_reader.bool()? {
                    Some(labels_reader.str()?)
                } else {
                    None
                })
            })
            .collect::<Result<_, ServeError>>()?;
        labels_reader.expect_empty()?;

        let mut priors_reader = Reader::new(payload(SEC_PRIORS, "priors")?, "priors section");
        let priors: Vec<RawPrior> = (0..t)
            .map(|_| decode_prior(&mut priors_reader))
            .collect::<Result<_, ServeError>>()?;
        priors_reader.expect_empty()?;

        let mut vocab_reader = Reader::new(payload(SEC_VOCAB, "vocab")?, "vocab section");
        let word_count = vocab_reader.len(1)?;
        if word_count != v {
            return Err(ServeError::Corrupt(format!(
                "vocab section has {word_count} words for V={v}"
            )));
        }
        let mut vocab = Vocabulary::new();
        for _ in 0..word_count {
            vocab.intern(&vocab_reader.str()?);
        }
        vocab_reader.expect_empty()?;
        if vocab.len() != v {
            return Err(ServeError::Corrupt(
                "vocab section contains duplicate words".into(),
            ));
        }

        let mut tok_reader = Reader::new(payload(SEC_TOKENIZER, "tokenizer")?, "tokenizer section");
        let tokenizer = Tokenizer::from_parts(
            tok_reader.bool()?,
            tok_reader.u64()? as usize,
            tok_reader.bool()?,
            tok_reader.bool()?,
        );
        tok_reader.expect_empty()?;

        let artifact = Self::new(alpha, phi, labels, priors, vocab, tokenizer)?;
        // The checkpoint section is optional (v2); absent in every v1
        // artifact and in v2 artifacts of finished runs.
        if let Some(info) = sections.iter().find(|s| s.id == SEC_CHECKPOINT) {
            let mut cp_reader = Reader::new(section_bytes(bytes, info)?, "checkpoint section");
            let cp = decode_checkpoint(&mut cp_reader)?;
            cp_reader.expect_empty()?;
            return artifact.with_checkpoint(cp);
        }
        Ok(artifact)
    }

    /// Write the artifact to `path` **atomically and durably**: the
    /// bytes are staged in a sibling `<name>.tmp` file, fsynced, renamed
    /// over `path`, and the parent directory is fsynced — so a crash at
    /// any byte offset of the write leaves either the complete old file
    /// or the complete new file, never a torn mixture. Callers that
    /// previously assumed in-place-overwrite semantics (and e.g. relied
    /// on a partially written file being observable) get the strictly
    /// stronger guarantee instead; the only visible difference is the
    /// transient `.tmp` sibling, which
    /// [`crate::durable::DurableFile::cleanup_stale_tmp`] reclaims after
    /// a crash.
    ///
    /// # Errors
    /// Propagates filesystem failures.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), ServeError> {
        crate::durable::DurableFile::write_atomic(path, &self.to_bytes()).map_err(Into::into)
    }

    /// [`ModelArtifact::save`] with an injected
    /// [`crate::durable::FaultPlan`] — the fault-injection seam the
    /// durability tests drive.
    ///
    /// # Errors
    /// Filesystem failures plus whatever the plan injects.
    pub fn save_with_plan(
        &self,
        path: impl AsRef<std::path::Path>,
        plan: &crate::durable::FaultPlan,
    ) -> Result<(), ServeError> {
        crate::durable::DurableFile::write_atomic_with_plan(path.as_ref(), &self.to_bytes(), plan)
            .map_err(Into::into)
    }

    /// Read and validate an artifact from `path`.
    ///
    /// # Errors
    /// Propagates filesystem failures and every decode error.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, ServeError> {
        Self::from_bytes(&std::fs::read(path)?)
    }

    /// Multi-line human-readable summary (the `inspect` subcommand body).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{} topics × {} words · alpha {}\n",
            self.num_topics(),
            self.vocab_size(),
            self.alpha
        ));
        let (lc, ml, rs, kn) = self.tokenizer.to_parts();
        out.push_str(&format!(
            "tokenizer: lowercase={lc} min_len={ml} remove_stopwords={rs} keep_numbers={kn}\n"
        ));
        let labeled = self.labels.iter().filter(|l| l.is_some()).count();
        out.push_str(&format!(
            "labels: {labeled}/{} topics labeled\n",
            self.num_topics()
        ));
        let mut kinds: Vec<(&str, usize)> = Vec::new();
        for raw in &self.priors {
            let kind = raw.kind();
            match kinds.iter_mut().find(|(k, _)| *k == kind) {
                Some((_, n)) => *n += 1,
                None => kinds.push((kind, 1)),
            }
        }
        let kinds_str: Vec<String> = kinds.iter().map(|(k, n)| format!("{n}×{k}")).collect();
        out.push_str(&format!("priors: {}\n", kinds_str.join(", ")));
        if let Some(cp) = &self.checkpoint {
            out.push_str(&format!(
                "checkpoint: sweep {} · seed {} · {} · resumable\n",
                cp.sweep,
                cp.seed,
                match (cp.shard_count(), cp.kernel_kind()) {
                    (0, Ok(k)) => format!("serial ({k:?} kernel)"),
                    (s, Ok(k)) => format!("{s} shards ({k:?} kernel)"),
                    (0, Err(_)) => "serial (unknown kernel)".to_string(),
                    (s, Err(_)) => format!("{s} shards (unknown kernel)"),
                }
            ));
        }
        out
    }
}

/// Encode a [`TrainCheckpoint`] (the v2 optional section payload):
/// scalars, RNG states, assignments, counts, then the current priors.
fn encode_checkpoint(w: &mut Writer, cp: &TrainCheckpoint) {
    w.u64(cp.sweep);
    w.u64(cp.seed);
    w.f64(cp.alpha);
    w.u64(cp.shards);
    for &word in &cp.main_rng {
        w.u64(word);
    }
    w.u64(cp.shard_rngs.len() as u64);
    for state in &cp.shard_rngs {
        for &word in state {
            w.u64(word);
        }
    }
    w.u64(cp.z.len() as u64);
    for doc in &cp.z {
        w.u32_slice(doc);
    }
    w.u32_slice(&cp.nw);
    w.u32_slice(&cp.nt);
    w.u64(cp.priors.len() as u64);
    for raw in &cp.priors {
        encode_prior(w, raw);
    }
}

fn decode_checkpoint(r: &mut Reader<'_>) -> Result<TrainCheckpoint, ServeError> {
    let sweep = r.u64()?;
    let seed = r.u64()?;
    let alpha = r.f64()?;
    let shards = r.u64()?;
    let main_rng = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
    let shard_count = r.len(32)?;
    let mut shard_rngs = Vec::with_capacity(shard_count);
    for _ in 0..shard_count {
        shard_rngs.push([r.u64()?, r.u64()?, r.u64()?, r.u64()?]);
    }
    let doc_count = r.len(8)?;
    let mut z = Vec::with_capacity(doc_count);
    for _ in 0..doc_count {
        z.push(r.u32_vec()?);
    }
    let nw = r.u32_vec()?;
    let nt = r.u32_vec()?;
    let prior_count = r.len(1)?;
    let priors: Vec<RawPrior> = (0..prior_count)
        .map(|_| decode_prior(r))
        .collect::<Result<_, ServeError>>()?;
    Ok(TrainCheckpoint {
        sweep,
        seed,
        alpha,
        shards,
        z,
        nw,
        nt,
        main_rng,
        shard_rngs,
        priors,
    })
}

fn encode_prior(w: &mut Writer, raw: &RawPrior) {
    match raw {
        RawPrior::Symmetric { beta } => {
            w.u8(0);
            w.f64(*beta);
        }
        RawPrior::Fixed { delta } => {
            w.u8(1);
            w.f64_slice(delta);
        }
        RawPrior::Integrated(table) => {
            w.u8(2);
            w.f64_slice(&table.weights);
            w.f64_slice(&table.prior_log_weights);
            w.f64_slice(&table.sums);
            match &table.layout {
                RawIntegrationLayout::Dense { values } => {
                    w.u8(0);
                    w.f64_slice(values);
                }
                RawIntegrationLayout::Sparse {
                    support,
                    values,
                    zero_values,
                } => {
                    w.u8(1);
                    w.u32_slice(support);
                    w.f64_slice(values);
                    w.f64_slice(zero_values);
                }
            }
        }
        RawPrior::Frozen { phi } => {
            w.u8(3);
            w.f64_slice(phi);
        }
        RawPrior::ConceptSet { support, beta } => {
            w.u8(4);
            w.u32_slice(support);
            w.f64(*beta);
        }
    }
}

fn decode_prior(r: &mut Reader<'_>) -> Result<RawPrior, ServeError> {
    match r.u8()? {
        0 => Ok(RawPrior::Symmetric { beta: r.f64()? }),
        1 => Ok(RawPrior::Fixed {
            delta: r.f64_vec()?,
        }),
        2 => {
            let weights = r.f64_vec()?;
            let prior_log_weights = r.f64_vec()?;
            let sums = r.f64_vec()?;
            let layout = match r.u8()? {
                0 => RawIntegrationLayout::Dense {
                    values: r.f64_vec()?,
                },
                1 => RawIntegrationLayout::Sparse {
                    support: r.u32_vec()?,
                    values: r.f64_vec()?,
                    zero_values: r.f64_vec()?,
                },
                tag => {
                    return Err(ServeError::Corrupt(format!(
                        "unknown integration layout tag {tag}"
                    )))
                }
            };
            Ok(RawPrior::Integrated(RawIntegrationTable {
                weights,
                prior_log_weights,
                sums,
                layout,
            }))
        }
        3 => Ok(RawPrior::Frozen { phi: r.f64_vec()? }),
        4 => Ok(RawPrior::ConceptSet {
            support: r.u32_vec()?,
            beta: r.f64()?,
        }),
        tag => Err(ServeError::Corrupt(format!("unknown prior tag {tag}"))),
    }
}

/// The payload slice a section table entry points at. [`list_sections`]
/// already validated the bounds, but the decode path never indexes on
/// trust: a bad entry comes back as [`ServeError::Corrupt`], not a panic.
fn section_bytes<'a>(bytes: &'a [u8], info: &SectionInfo) -> Result<&'a [u8], ServeError> {
    let start = usize::try_from(info.offset).ok();
    let end = info
        .offset
        .checked_add(info.length)
        .and_then(|e| usize::try_from(e).ok());
    start
        .zip(end)
        .and_then(|(s, e)| bytes.get(s..e))
        .ok_or_else(|| {
            ServeError::Corrupt(format!(
                "section {} spans [{}, +{}) outside the artifact",
                info.id, info.offset, info.length
            ))
        })
}

/// Parse and verify the envelope (magic, version, checksum, section table)
/// without decoding payloads. This is what `inspect` prints and what
/// [`ModelArtifact::from_bytes`] builds on.
///
/// # Errors
/// Fails on a bad magic, unsupported version, checksum mismatch, or a
/// structurally invalid section table.
pub fn list_sections(bytes: &[u8]) -> Result<Vec<SectionInfo>, ServeError> {
    if bytes.get(..8) != Some(MAGIC.as_slice()) {
        return Err(ServeError::BadMagic {
            found: bytes.iter().copied().take(8).collect(),
        });
    }
    let mut header = Reader::new(bytes.get(8..).unwrap_or(&[]), "header");
    let version = header.u32()?;
    if version == 0 || version > FORMAT_VERSION {
        return Err(ServeError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    if bytes.len() < 24 {
        return Err(ServeError::Truncated { context: "trailer" });
    }
    // The trailer is the final 8 bytes; everything before it is the
    // checksummed body (split_at cannot be out of range: len >= 24).
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    let mut stored_bytes = [0u8; 8];
    stored_bytes.copy_from_slice(trailer);
    let stored = u64::from_le_bytes(stored_bytes);
    let computed = fnv1a64(body);
    if stored != computed {
        return Err(ServeError::ChecksumMismatch { computed, stored });
    }
    let body_len = body.len();
    let count = header.u32()?;
    if count > MAX_SECTIONS {
        return Err(ServeError::Corrupt(format!(
            "section count {count} exceeds the maximum of {MAX_SECTIONS}"
        )));
    }
    let table_end = 16 + count as u64 * 20;
    let mut sections = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let id = header.u32()?;
        let offset = header.u64()?;
        let length = header.u64()?;
        let end = offset
            .checked_add(length)
            .ok_or_else(|| ServeError::Corrupt("section bounds overflow".into()))?;
        if offset < table_end || end > body_len as u64 {
            return Err(ServeError::Corrupt(format!(
                "section {id} spans [{offset}, {end}) outside payload [{table_end}, {body_len})"
            )));
        }
        if sections.iter().any(|s: &SectionInfo| s.id == id) {
            return Err(ServeError::Corrupt(format!("duplicate section id {id}")));
        }
        sections.push(SectionInfo { id, offset, length });
    }
    Ok(sections)
}

#[cfg(test)]
mod tests {
    use super::*;
    use srclda_core::prelude::*;
    use srclda_corpus::CorpusBuilder;
    use srclda_knowledge::KnowledgeSourceBuilder;

    fn trained() -> (ModelArtifact, FittedModel) {
        let tokenizer = Tokenizer::permissive();
        let mut b = CorpusBuilder::new().tokenizer(tokenizer.clone());
        for _ in 0..6 {
            b.add_tokens("school", &["pencil", "pencil", "ruler", "eraser"]);
            b.add_tokens("sports", &["baseball", "umpire", "baseball", "glove"]);
        }
        let corpus = b.build();
        let mut ks = KnowledgeSourceBuilder::new();
        ks.add_article(
            "School Supplies",
            "pencil pencil ruler ruler eraser ".repeat(20),
        );
        ks.add_article("Baseball", "baseball baseball umpire glove ".repeat(20));
        let source = ks.build(corpus.vocabulary());
        let fitted = SourceLda::builder()
            .knowledge_source(source)
            .variant(Variant::Bijective)
            .alpha(0.5)
            .iterations(60)
            .seed(11)
            .build()
            .unwrap()
            .fit(&corpus)
            .unwrap();
        let artifact =
            ModelArtifact::from_fitted(&fitted, corpus.vocabulary(), &tokenizer).unwrap();
        (artifact, fitted)
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let (artifact, fitted) = trained();
        let bytes = artifact.to_bytes();
        let back = ModelArtifact::from_bytes(&bytes).unwrap();
        assert_eq!(back.phi().as_slice(), fitted.phi().as_slice());
        assert_eq!(back.alpha(), fitted.alpha());
        assert_eq!(back.labels(), fitted.labels());
        assert_eq!(back.priors(), artifact.priors());
        assert_eq!(back.vocabulary().words(), artifact.vocabulary().words());
        assert_eq!(back.tokenizer().to_parts(), artifact.tokenizer().to_parts());
        // Encoding is deterministic.
        assert_eq!(bytes, back.to_bytes());
    }

    #[test]
    fn section_table_is_well_formed() {
        let (artifact, _) = trained();
        let bytes = artifact.to_bytes();
        let sections = list_sections(&bytes).unwrap();
        assert_eq!(sections.len(), 6);
        let names: Vec<&str> = sections.iter().map(SectionInfo::name).collect();
        assert_eq!(
            names,
            vec!["model", "phi", "labels", "priors", "vocab", "tokenizer"]
        );
        // Sections tile the payload contiguously.
        for pair in sections.windows(2) {
            assert_eq!(pair[0].offset + pair[0].length, pair[1].offset);
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let (artifact, _) = trained();
        let mut bytes = artifact.to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            ModelArtifact::from_bytes(&bytes),
            Err(ServeError::BadMagic { .. })
        ));
        assert!(matches!(
            ModelArtifact::from_bytes(b"short"),
            Err(ServeError::BadMagic { .. })
        ));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let (artifact, _) = trained();
        let mut bytes = artifact.to_bytes();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            ModelArtifact::from_bytes(&bytes),
            Err(ServeError::UnsupportedVersion {
                found: 99,
                supported: FORMAT_VERSION
            })
        ));
    }

    #[test]
    fn flipped_payload_bit_fails_checksum() {
        let (artifact, _) = trained();
        let mut bytes = artifact.to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            ModelArtifact::from_bytes(&bytes),
            Err(ServeError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncation_is_rejected_at_every_length() {
        let (artifact, _) = trained();
        let bytes = artifact.to_bytes();
        // Any strict prefix must fail (checksum, truncation, or magic — but
        // never panic and never succeed).
        for len in [0, 7, 8, 12, 20, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                ModelArtifact::from_bytes(&bytes[..len]).is_err(),
                "prefix of {len} bytes decoded successfully"
            );
        }
    }

    #[test]
    fn inference_from_artifact_validates() {
        let (artifact, fitted) = trained();
        let inf = artifact.inference().unwrap();
        assert_eq!(inf.num_topics(), fitted.num_topics());
        assert_eq!(inf.vocab_size(), fitted.vocab_size());
        // A one-hot θ scores one word at exactly φ_tw: the engine's φ is
        // the fitted one, cell for cell.
        for t in 0..inf.num_topics() {
            let mut theta = vec![0.0; inf.num_topics()];
            theta[t] = 1.0;
            for w in 0..inf.vocab_size() {
                let want = fitted.phi()[(t, w)].max(1e-300).ln();
                let got = inf.token_log_likelihood(&theta, &[w as u32]);
                assert_eq!(got.to_bits(), want.to_bits(), "φ[{t}][{w}]");
            }
        }
    }

    #[test]
    fn live_priors_reconstruct() {
        let (artifact, fitted) = trained();
        let priors = artifact.live_priors().unwrap();
        assert_eq!(priors.len(), fitted.num_topics());
        for (a, b) in priors.iter().zip(fitted.priors()) {
            assert_eq!(a.kind(), b.kind());
            assert_eq!(a.word_weight(0, 1.0, 4.0), b.word_weight(0, 1.0, 4.0));
        }
    }

    #[test]
    fn top_words_reflect_the_source_articles() {
        let (artifact, _) = trained();
        let school = artifact
            .labels()
            .iter()
            .position(|l| l.as_deref() == Some("School Supplies"))
            .unwrap();
        let tops = artifact.top_words(school, 2);
        assert!(
            tops.contains(&"pencil") || tops.contains(&"ruler"),
            "{tops:?}"
        );
    }

    fn toy_checkpoint(t: usize, v: usize) -> TrainCheckpoint {
        // One doc per topic, one token each, token w = d % v, topic = d.
        let z: Vec<Vec<u32>> = (0..t).map(|d| vec![d as u32]).collect();
        let mut nw = vec![0u32; v * t];
        let mut nt = vec![0u32; t];
        for (d, doc) in z.iter().enumerate() {
            for &topic in doc {
                nw[(d % v) * t + topic as usize] += 1;
                nt[topic as usize] += 1;
            }
        }
        TrainCheckpoint {
            sweep: 17,
            seed: 42,
            alpha: 0.5,
            shards: 2,
            z,
            nw,
            nt,
            main_rng: [9, 8, 7, 6],
            shard_rngs: vec![[1, 2, 3, 4], [5, 6, 7, 8]],
            priors: (0..t).map(|_| RawPrior::Symmetric { beta: 0.25 }).collect(),
        }
    }

    #[test]
    fn checkpoint_section_round_trips() {
        let (artifact, _) = trained();
        let t = artifact.num_topics();
        let v = artifact.vocab_size();
        let with_cp = artifact
            .clone()
            .with_checkpoint(toy_checkpoint(t, v))
            .unwrap();
        let bytes = with_cp.to_bytes();
        let back = ModelArtifact::from_bytes(&bytes).unwrap();
        assert_eq!(back.checkpoint(), with_cp.checkpoint());
        assert_eq!(back.to_bytes(), bytes, "re-encoding is stable");
        let names: Vec<&str> = list_sections(&bytes)
            .unwrap()
            .iter()
            .map(SectionInfo::name)
            .collect();
        assert!(names.contains(&"checkpoint"), "{names:?}");
        assert!(with_cp.summary().contains("checkpoint: sweep 17"));
        assert!(
            with_cp.summary().contains("2 shards (Flat kernel)"),
            "{}",
            with_cp.summary()
        );
        // The kernel tag rides the packed shards word through the codec.
        let mut sparse_cp = toy_checkpoint(t, v);
        sparse_cp.shards = 1 << 56 | 2; // sparse kernel, 2 shards
        let with_sparse = artifact.clone().with_checkpoint(sparse_cp).unwrap();
        let back = ModelArtifact::from_bytes(&with_sparse.to_bytes()).unwrap();
        assert_eq!(back.checkpoint(), with_sparse.checkpoint());
        assert!(
            back.summary().contains("2 shards (Sparse kernel)"),
            "{}",
            back.summary()
        );
        // The plain artifact still encodes without the section.
        assert!(artifact.checkpoint().is_none());
        assert!(!artifact.summary().contains("checkpoint:"));
    }

    #[test]
    fn inconsistent_checkpoint_is_rejected() {
        let (artifact, _) = trained();
        let t = artifact.num_topics();
        let v = artifact.vocab_size();
        // Wrong dimensions.
        assert!(artifact
            .clone()
            .with_checkpoint(toy_checkpoint(t + 1, v))
            .is_err());
        // Shard/RNG disagreement.
        let mut cp = toy_checkpoint(t, v);
        cp.shards = 5;
        assert!(artifact.clone().with_checkpoint(cp).is_err());
        // Counts inconsistent with assignments.
        let mut cp = toy_checkpoint(t, v);
        cp.nt[0] += 1;
        assert!(artifact.clone().with_checkpoint(cp).is_err());
    }

    #[test]
    fn artifact_from_checkpoint_is_servable_and_resumable() {
        let (artifact, _) = trained();
        let cp = toy_checkpoint(artifact.num_topics(), artifact.vocab_size());
        let snapshot = ModelArtifact::from_checkpoint(
            &cp,
            artifact.labels().to_vec(),
            artifact.vocabulary(),
            artifact.tokenizer(),
        )
        .unwrap();
        assert_eq!(
            snapshot.alpha(),
            cp.alpha,
            "alpha comes from the checkpoint"
        );
        assert_eq!(snapshot.checkpoint(), Some(&cp));
        // φ rows are normalized distributions (servable).
        for t in 0..snapshot.num_topics() {
            let sum: f64 = snapshot.phi().row(t).iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "row {t} sums to {sum}");
        }
        // And it round-trips through bytes.
        let back = ModelArtifact::from_bytes(&snapshot.to_bytes()).unwrap();
        assert_eq!(back.checkpoint(), Some(&cp));
        assert!(back.inference().is_ok());
    }

    #[test]
    fn save_load_round_trip_via_filesystem() {
        let (artifact, _) = trained();
        let dir = std::env::temp_dir().join("srclda_serve_test_artifact");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.slda");
        artifact.save(&path).unwrap();
        let back = ModelArtifact::load(&path).unwrap();
        assert_eq!(back.to_bytes(), artifact.to_bytes());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn summary_mentions_the_essentials() {
        let (artifact, _) = trained();
        let s = artifact.summary();
        assert!(s.contains("2 topics"));
        assert!(s.contains("fixed"), "{s}");
        assert!(s.contains("tokenizer"));
    }

    #[test]
    fn mismatched_vocab_rejected_at_construction() {
        let (artifact, fitted) = trained();
        let tiny = Vocabulary::from_words(["just", "two"]);
        assert!(matches!(
            ModelArtifact::from_fitted(&fitted, &tiny, artifact.tokenizer()),
            Err(ServeError::Corrupt(_))
        ));
    }
}
