//! The versioned, checksummed binary model-artifact format.
//!
//! A `.slda` artifact is everything needed to serve a trained model against
//! *raw text* with no access to the training process: the word–topic
//! counts and per-topic priors that φ derives from, the document–topic
//! prior α, per-topic labels, the vocabulary the word ids index into, and
//! the tokenizer configuration that produced that vocabulary. A checkpoint
//! *generation* adds the rest of an unfinished run's sampler state, so the
//! run can be resumed. Layout (all integers little-endian, floats
//! IEEE-754 LE):
//!
//! ```text
//! offset 0   magic            8 bytes  b"SLDAMODL"
//!        8   format version   u32      currently 4 (1–3 still readable)
//!       12   section count    u32      N
//!       16   section table    N × { id: u32, offset: u64, length: u64 }
//!        …   section payloads (absolute offsets, non-overlapping)
//!  len − 8   checksum         u64      FNV-1a 64 of bytes [0, len − 8)
//! ```
//!
//! | id | section    | contents                                              |
//! |----|------------|-------------------------------------------------------|
//! | 1  | model      | α (f64), topic count `T` (u64), vocab size `V` (u64)  |
//! | 2  | phi        | `T·V` f64, row-major by topic (models built from a φ) |
//! | 3  | labels     | `T` × (present: u8, then UTF-8 string)                |
//! | 4  | priors     | `T` × tagged [`RawPrior`]                             |
//! | 5  | vocab      | count (u64), then UTF-8 strings in word-id order      |
//! | 6  | tokenizer  | lowercase u8, min_len u64, stopwords u8, numbers u8   |
//! | 7  | checkpoint | chain state, then `nw` cells (generations only)       |
//! | 8  | counts     | `nw` cells (final models)                             |
//!
//! The `nw` cells are the counts' non-zero cells ([`CountCells`]): a u64
//! count, then `(w·T + t: u64, n_wt: u32)` pairs strictly increasing by
//! index, at most `V·T` of them.
//!
//! A λ-integrated prior ([`RawIntegrationTable`]) is written with layout
//! tag 1: its support's word ids and δ rows, then the row every other word
//! shares. Decode reads tag 0, every word's row, which older writers used
//! up to 4096 words, into that form; nothing past decode knows it.
//!
//! A final model ([`ModelArtifact::from_fitted`]) is sections 1, 3–6 and
//! 8, and stores no φ: [`ModelArtifact::inference`] derives it from the
//! counts and priors straight into the engine's table of per-topic
//! baselines and per-word exceptions ([`Inference::from_counts`]),
//! bit-equal to the fitted φ. A generation
//! ([`ModelArtifact::from_checkpoint`]) is sections 1 and 3–7 and holds
//! its [`TrainCheckpoint`]: the model section holds its α, the priors
//! section its current, possibly λ-adapted, priors as it stores them, and
//! the checkpoint section its sweep, seed, packed shards/kernel word, RNG
//! states and z, then its cells. A model built from a φ
//! ([`ModelArtifact::new`]) is sections 1–6. Decode rejects cells that
//! are past `V·T`, out of order, repeated or zero, or whose topic totals
//! overflow u32 or, in a generation, disagree with z. Nothing builds a
//! dense `nw` but the decode of a v2 generation, which stored one.
//!
//! Version history: **v1** is sections 1–6. **v2** added the optional
//! checkpoint section: a v2 generation is a whole servable artifact plus
//! sampler state that also carries α, the dense `nw`, `nt` and a second
//! copy of the priors. **v3** wrote generations as above and final models
//! as sections 1–6. **v4** (this build) writes final models as sampler
//! state, the counts section in φ's place; its generations keep the v3
//! sections. Files of every earlier version, generations included, still
//! load; the committed fixtures under `tests/fixtures/` pin that.
//!
//! Readers ignore unknown section ids (room for additive growth within a
//! version); any change to an *existing* section's meaning requires
//! bumping the format version, which is enforced in CI by the committed
//! golden artifacts that the current code must keep loading.

use crate::codec::{fnv1a64, Reader, Writer};
use crate::error::ServeError;
use srclda_core::persist::{CountCells, RawIntegrationTable, RawPrior, TrainCheckpoint};
use srclda_core::prior::TopicPrior;
use srclda_core::{FittedModel, Inference};
use srclda_corpus::{Tokenizer, Vocabulary};
use srclda_math::DenseMatrix;
use std::borrow::Cow;

/// First eight bytes of every artifact.
pub const MAGIC: [u8; 8] = *b"SLDAMODL";
/// Format version this build writes. Every version from 1 through this
/// one is readable.
pub const FORMAT_VERSION: u32 = 4;

const SEC_MODEL: u32 = 1;
const SEC_PHI: u32 = 2;
const SEC_LABELS: u32 = 3;
const SEC_PRIORS: u32 = 4;
const SEC_VOCAB: u32 = 5;
const SEC_TOKENIZER: u32 = 6;
const SEC_CHECKPOINT: u32 = 7;
const SEC_COUNTS: u32 = 8;

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
            SEC_COUNTS => "counts",
            _ => "unknown",
        }
    }
}

/// What an artifact's φ comes from.
#[derive(Debug, Clone)]
enum Body {
    /// φ itself (`T × V`): a model built by [`ModelArtifact::new`] or a
    /// v1–v3 final model.
    Phi(DenseMatrix<f64>),
    /// A v4 final model's sampler state: `nw`'s non-zero cells.
    Counts(CountCells),
    /// A generation: the whole checkpoint, its priors as the file stores
    /// them.
    Generation(TrainCheckpoint),
}

/// A self-contained, serializable trained model, or a checkpoint
/// generation: a mid-training sampler state with the labels, vocabulary
/// and tokenizer it serves with, so the run can be resumed.
#[derive(Debug, Clone)]
pub struct ModelArtifact {
    alpha: f64,
    labels: Vec<Option<String>>,
    /// The live priors, built once; the priors section stores their
    /// mirrors ([`TopicPrior::to_raw`]), or a generation's own.
    priors: Vec<TopicPrior>,
    vocab: Vocabulary,
    tokenizer: Tokenizer,
    body: Body,
}

/// The live priors of `priors` over a `v`-word vocabulary, each revalidated.
fn live(priors: Vec<RawPrior>, v: usize) -> Result<Vec<TopicPrior>, ServeError> {
    priors
        .into_iter()
        .enumerate()
        .map(|(i, raw)| {
            let kind = raw.kind();
            TopicPrior::from_raw(raw, v)
                .map_err(|e| ServeError::Corrupt(format!("prior {i} ({kind}) invalid: {e}")))
        })
        .collect()
}

impl ModelArtifact {
    /// Assemble a model from a φ and its parts, validating consistency.
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
            labels,
            priors: live(priors, vocab.len())?,
            vocab,
            tokenizer,
            body: Body::Phi(phi),
        };
        artifact.validate()?;
        Ok(artifact)
    }

    /// The training checkpoint a generation holds (`None` for a final
    /// model).
    pub fn checkpoint(&self) -> Option<&TrainCheckpoint> {
        match &self.body {
            Body::Generation(cp) => Some(cp),
            _ => None,
        }
    }

    /// Build a checkpoint generation: a copy of the checkpoint, whose α
    /// and (possibly λ-adapted) priors the generation serves with. It
    /// derives no φ.
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
        let artifact = Self {
            alpha: checkpoint.alpha,
            labels,
            priors: live(checkpoint.priors.clone(), vocab.len())?,
            vocab: vocab.clone(),
            tokenizer: tokenizer.clone(),
            body: Body::Generation(checkpoint.clone()),
        };
        artifact.validate()?;
        Ok(artifact)
    }

    /// Snapshot a fitted model for persistence: its counts' non-zero cells
    /// and its priors. `vocab` and `tokenizer` must be the ones the
    /// training corpus was built with — they are what lets the serving
    /// side preprocess raw text identically.
    ///
    /// # Errors
    /// Fails if `vocab` does not match the model's vocabulary size.
    pub fn from_fitted(
        fitted: &FittedModel,
        vocab: &Vocabulary,
        tokenizer: &Tokenizer,
    ) -> Result<Self, ServeError> {
        let artifact = Self {
            alpha: fitted.alpha(),
            labels: fitted.labels().to_vec(),
            priors: fitted.priors().to_vec(),
            vocab: vocab.clone(),
            tokenizer: tokenizer.clone(),
            body: Body::Counts(fitted.counts().clone()),
        };
        artifact.validate()?;
        Ok(artifact)
    }

    /// `T` is the label count and `V` the vocabulary size; φ or the
    /// counts and the priors must agree with both, and a generation's
    /// chain with its counts.
    fn validate(&self) -> Result<(), ServeError> {
        let t = self.num_topics();
        let v = self.vocab_size();
        if t == 0 || v == 0 {
            return Err(ServeError::Corrupt(format!("empty model: T={t}, V={v}")));
        }
        if !(self.alpha > 0.0 && self.alpha.is_finite()) {
            return Err(ServeError::Corrupt(format!(
                "alpha must be positive and finite, got {}",
                self.alpha
            )));
        }
        if self.priors.len() != t {
            return Err(ServeError::Corrupt(format!(
                "{} priors for {t} topics",
                self.priors.len()
            )));
        }
        match &self.body {
            Body::Phi(phi) => {
                if phi.rows() != t || phi.cols() != v {
                    return Err(ServeError::Corrupt(format!(
                        "phi is {}×{} for {t} labels and a {v}-word vocabulary",
                        phi.rows(),
                        phi.cols()
                    )));
                }
                if !phi.as_slice().iter().all(|&x| x.is_finite() && x >= 0.0) {
                    return Err(ServeError::Corrupt(
                        "phi has negative or non-finite entries".into(),
                    ));
                }
            }
            Body::Counts(counts) | Body::Generation(TrainCheckpoint { counts, .. }) => {
                if counts.num_topics() != t || counts.vocab_size() != v {
                    return Err(ServeError::Corrupt(format!(
                        "counts are {}×{} for {t} labels and a {v}-word vocabulary",
                        counts.num_topics(),
                        counts.vocab_size()
                    )));
                }
            }
        }
        if let Some(cp) = self.checkpoint() {
            cp.check_chain()
                .map_err(|e| ServeError::Corrupt(format!("checkpoint invalid: {e}")))?;
        }
        Ok(())
    }

    /// The document–topic prior α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The topic–word matrix φ (`T × V`): the stored one, or for a model
    /// stored as sampler state the one [`Self::inference`] serves, derived
    /// and transposed. For tooling and tests; serving never builds it.
    ///
    /// # Errors
    /// Propagates `srclda_core` validation failures (none for an artifact
    /// that validated).
    pub fn phi(&self) -> Result<DenseMatrix<f64>, ServeError> {
        match &self.body {
            Body::Phi(phi) => Ok(phi.clone()),
            Body::Counts(counts) | Body::Generation(TrainCheckpoint { counts, .. }) => {
                counts.phi(&self.priors).map_err(Into::into)
            }
        }
    }

    /// Topic count `T`.
    pub fn num_topics(&self) -> usize {
        self.labels.len()
    }

    /// Vocabulary size `V`.
    pub fn vocab_size(&self) -> usize {
        self.vocab.len()
    }

    /// Per-topic labels.
    pub fn labels(&self) -> &[Option<String>] {
        &self.labels
    }

    /// Per-topic prior mirrors, as the priors section stores them.
    pub fn priors(&self) -> Vec<RawPrior> {
        self.raw_priors().into_owned()
    }

    /// What the priors section stores: a generation's own priors, verbatim,
    /// or the mirrors of the live ones.
    fn raw_priors(&self) -> Cow<'_, [RawPrior]> {
        match &self.body {
            Body::Generation(cp) => Cow::Borrowed(&cp.priors),
            _ => Cow::Owned(self.priors.iter().map(TopicPrior::to_raw).collect()),
        }
    }

    /// The live priors (for workloads that resume training or need Eq. 3
    /// weights rather than the point estimate φ), built once at
    /// construction.
    pub fn live_priors(&self) -> &[TopicPrior] {
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

    /// Build the fold-in scoring engine from this artifact: from its φ, or
    /// from its counts and priors with φ derived straight into the
    /// engine's table of baselines and exceptions.
    ///
    /// # Errors
    /// `srclda_core` validation failures.
    pub fn inference(&self) -> Result<Inference, ServeError> {
        let labels = self.labels.clone();
        match &self.body {
            Body::Phi(phi) => Inference::from_parts(phi, self.alpha, labels),
            Body::Counts(counts) | Body::Generation(TrainCheckpoint { counts, .. }) => {
                Inference::from_counts(&self.priors, counts, self.alpha, labels)
            }
        }
        .map_err(Into::into)
    }

    /// The `n` most probable words of topic `t`, as vocabulary strings
    /// (none for a topic the model does not have). A model stored as
    /// sampler state derives that one topic's φ row.
    pub fn top_words(&self, t: usize, n: usize) -> Vec<&str> {
        let Some(prior) = self.priors.get(t) else {
            return Vec::new();
        };
        let row = match &self.body {
            Body::Phi(phi) => phi.row(t).to_vec(),
            Body::Counts(counts) | Body::Generation(TrainCheckpoint { counts, .. }) => {
                counts.phi_row(t, prior)
            }
        };
        srclda_math::simplex::top_n_indices(&row, n)
            .into_iter()
            .map(|w| self.vocab.word(srclda_corpus::WordId::new(w)))
            .collect()
    }

    /// Serialize to the on-disk format: a generation as sections 1 and
    /// 3–7, a final model as sections 1, 3–6 and 8, a model built from a
    /// φ as sections 1–6. The header goes first with a placeholder section
    /// table; each payload is appended to the same buffer, sized up front,
    /// and its table entry filled in once it has landed.
    pub fn to_bytes(&self) -> Vec<u8> {
        let (model, labels, priors, vocab, tokenizer) =
            (SEC_MODEL, SEC_LABELS, SEC_PRIORS, SEC_VOCAB, SEC_TOKENIZER);
        let ids = match &self.body {
            Body::Phi(_) => [model, SEC_PHI, labels, priors, vocab, tokenizer],
            Body::Counts(_) => [model, labels, priors, vocab, tokenizer, SEC_COUNTS],
            Body::Generation(_) => [model, labels, priors, vocab, tokenizer, SEC_CHECKPOINT],
        };
        let raw_priors = self.raw_priors();
        let bound = self.encoded_len_bound(&raw_priors);
        let mut out = Writer::with_capacity(bound);
        out.bytes(&MAGIC);
        out.u32(FORMAT_VERSION);
        out.u32(ids.len() as u32); // lint:allow(narrowing-cast): six sections, listed right above
        let table = out.len();
        for &id in &ids {
            out.u32(id);
            out.u64(0); // offset and length, patched below
            out.u64(0);
        }
        for (i, &id) in ids.iter().enumerate() {
            let start = out.len();
            self.encode_section(id, &raw_priors, &mut out);
            let entry = table + 20 * i + 4;
            out.patch_u64(entry, start as u64);
            out.patch_u64(entry + 8, (out.len() - start) as u64);
        }
        let mut bytes = out.into_bytes();
        let checksum = fnv1a64(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        debug_assert!(
            bytes.len() <= bound,
            "{} bytes over a bound of {bound}",
            bytes.len()
        );
        bytes
    }

    /// Append the payload of section `id` to `w`; the priors section
    /// holds `raw_priors`.
    fn encode_section(&self, id: u32, raw_priors: &[RawPrior], w: &mut Writer) {
        match (id, &self.body) {
            (SEC_MODEL, _) => {
                w.f64(self.alpha);
                w.u64(self.num_topics() as u64);
                w.u64(self.vocab_size() as u64);
            }
            (SEC_PHI, Body::Phi(phi)) => {
                for &x in phi.as_slice() {
                    w.f64(x);
                }
            }
            (SEC_LABELS, _) => {
                for label in &self.labels {
                    w.bool(label.is_some());
                    if let Some(s) = label {
                        w.str(s);
                    }
                }
            }
            (SEC_PRIORS, _) => {
                for raw in raw_priors {
                    encode_prior(w, raw);
                }
            }
            (SEC_VOCAB, _) => {
                w.u64(self.vocab.len() as u64);
                for word in self.vocab.words() {
                    w.str(word);
                }
            }
            (SEC_TOKENIZER, _) => {
                let (lowercase, min_len, remove_stopwords, keep_numbers) =
                    self.tokenizer.to_parts();
                w.bool(lowercase);
                w.u64(min_len as u64);
                w.bool(remove_stopwords);
                w.bool(keep_numbers);
            }
            (SEC_CHECKPOINT, Body::Generation(cp)) => encode_checkpoint(w, cp),
            (SEC_COUNTS, Body::Counts(counts)) => encode_cells(w, counts),
            _ => {}
        }
    }

    /// An upper bound on the length of [`Self::to_bytes`], so the encoder
    /// fills one buffer without growing it: the exact framing and strings,
    /// every prior's values plus its tags and length prefixes, and φ or
    /// the cells and a generation's chain.
    fn encoded_len_bound(&self, raw_priors: &[RawPrior]) -> usize {
        let labels: usize = self
            .labels
            .iter()
            .map(|l| 9 + l.as_ref().map_or(0, String::len))
            .sum();
        let vocab: usize = self.vocab.words().iter().map(|w| 8 + w.len()).sum();
        let priors: u64 = raw_priors.iter().map(|p| p.payload_bytes() + 64).sum();
        let body = match &self.body {
            Body::Phi(_) => 8 * self.num_topics() * self.vocab_size(),
            Body::Counts(counts) => 8 + 12 * counts.cells().len(),
            Body::Generation(cp) => {
                // Ten u64 words of scalars, RNG state and counts, then per
                // shard one RNG state, per document a length and its
                // assignments, and the cells.
                let tokens: usize = cp.z.iter().map(Vec::len).sum();
                let cells = cp.counts.cells().len();
                8 * (10 + 4 * cp.shard_rngs.len() + cp.z.len()) + 4 * tokens + 12 * cells
            }
        };
        // Header, table, model, vocab count, tokenizer, trailer.
        16 + 20 * 6 + 24 + 8 + 11 + 8 + labels + vocab + priors as usize + body
    }

    /// Deserialize and fully validate an artifact. A v4 final model and a
    /// generation decode to sampler state and build no φ; v1–v3 final
    /// models decode their φ. A v3 or v4 generation's checkpoint is built
    /// from its model, priors and checkpoint sections; a v2 generation's
    /// from its checkpoint section, its dense `nw` turned into cells.
    ///
    /// # Errors
    /// Every way a file can be wrong maps to a distinct [`ServeError`]:
    /// bad magic, unsupported version, checksum mismatch, truncation,
    /// missing sections, or structurally/semantically corrupt content.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ServeError> {
        let (version, sections) = envelope(bytes)?;
        let section = |id: u32| -> Result<Option<&[u8]>, ServeError> {
            sections
                .iter()
                .find(|s| s.id == id)
                .map(|info| section_bytes(bytes, info))
                .transpose()
        };
        let payload = |id: u32, name: &'static str| -> Result<&[u8], ServeError> {
            section(id)?.ok_or(ServeError::MissingSection { name })
        };

        let mut model = Reader::new(payload(SEC_MODEL, "model")?, "model section");
        let alpha = model.f64()?;
        let t = model.u64()? as usize;
        let v = model.u64()? as usize;
        model.expect_empty()?;
        if t == 0 || v == 0 {
            return Err(ServeError::Corrupt(format!("empty model: T={t}, V={v}")));
        }

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
            .map(|_| decode_prior(&mut priors_reader, v))
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

        // The labels and vocab sections have confirmed T and V; only now
        // is anything V·T-sized built.
        let body = match (section(SEC_CHECKPOINT)?, version) {
            (Some(bytes), 1 | 2) => {
                let mut r = Reader::new(bytes, "checkpoint section");
                let cp = decode_checkpoint_v2(&mut r, t, v)?;
                r.expect_empty()?;
                // A v2 generation stored α and the priors twice.
                if cp.alpha.to_bits() != alpha.to_bits() || cp.priors != priors {
                    return Err(ServeError::Corrupt(
                        "checkpoint alpha or priors disagree with the model's".into(),
                    ));
                }
                Body::Generation(cp)
            }
            (Some(bytes), _) => {
                let mut r = Reader::new(bytes, "checkpoint section");
                let cp = decode_checkpoint(&mut r, alpha, t, v, priors.clone())?;
                r.expect_empty()?;
                Body::Generation(cp)
            }
            (None, 4..) if section(SEC_COUNTS)?.is_some() => {
                let mut r = Reader::new(payload(SEC_COUNTS, "counts")?, "counts section");
                let counts = decode_cells(&mut r, t, v)?;
                r.expect_empty()?;
                Body::Counts(counts)
            }
            (None, _) => {
                let name = if version < 4 { "phi" } else { "counts" };
                Body::Phi(decode_phi(payload(SEC_PHI, name)?, t, v)?)
            }
        };
        let artifact = Self {
            alpha,
            labels,
            priors: live(priors, v)?,
            vocab,
            tokenizer,
            body,
        };
        artifact.validate()?;
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
        for prior in &self.priors {
            let kind = prior.kind();
            match kinds.iter_mut().find(|(k, _)| *k == kind) {
                Some((_, n)) => *n += 1,
                None => kinds.push((kind, 1)),
            }
        }
        let kinds_str: Vec<String> = kinds.iter().map(|(k, n)| format!("{n}×{k}")).collect();
        out.push_str(&format!("priors: {}\n", kinds_str.join(", ")));
        if let Some(cp) = self.checkpoint() {
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

/// Encode a generation's checkpoint section: the sweep, the seed, the
/// packed shards/kernel word, the RNG states, the assignments and the
/// cells. α and the priors live in the model and priors sections.
fn encode_checkpoint(w: &mut Writer, cp: &TrainCheckpoint) {
    w.u64(cp.sweep);
    w.u64(cp.seed);
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
    encode_cells(w, &cp.counts);
}

/// Encode `nw` as its non-zero cells: a u64 count, then `(w·T + t: u64,
/// n_wt: u32)` pairs in index order.
fn encode_cells(w: &mut Writer, counts: &CountCells) {
    w.u64(counts.cells().len() as u64);
    for &(index, n) in counts.cells() {
        w.u64(index);
        w.u32(n);
    }
}

/// Decode a v3 or v4 generation's checkpoint section into the
/// checkpoint of a `t × v` model with the model section's `alpha` and
/// the priors section's `priors`.
fn decode_checkpoint(
    r: &mut Reader<'_>,
    alpha: f64,
    t: usize,
    v: usize,
    priors: Vec<RawPrior>,
) -> Result<TrainCheckpoint, ServeError> {
    let sweep = r.u64()?;
    let seed = r.u64()?;
    let shards = r.u64()?;
    let (main_rng, shard_rngs, z) = decode_rngs_and_z(r)?;
    Ok(TrainCheckpoint {
        sweep,
        seed,
        alpha,
        shards,
        z,
        counts: decode_cells(r, t, v)?,
        main_rng,
        shard_rngs,
        priors,
    })
}

/// Decode the non-zero cells of a `t × v` model's `nw`. The count is
/// bounded by the bytes left, so the cell buffer is backed by the file,
/// and no dense `nw` is built. A cell past `V·T`, not after its
/// predecessor (out of order or repeated) or zero, or a topic total that
/// overflows u32, is corrupt.
fn decode_cells(r: &mut Reader<'_>, t: usize, v: usize) -> Result<CountCells, ServeError> {
    let count = r.len(12)?;
    let mut cells = Vec::with_capacity(count);
    for _ in 0..count {
        cells.push((r.u64()?, r.u32()?));
    }
    CountCells::new(v, t, cells).map_err(|e| ServeError::Corrupt(e.to_string()))
}

/// The main RNG state, the per-shard RNG states and the assignments.
type RngsAndZ = ([u64; 4], Vec<[u64; 4]>, Vec<Vec<u32>>);

/// The RNG states and assignments, which every version's checkpoint
/// section stores alike.
fn decode_rngs_and_z(r: &mut Reader<'_>) -> Result<RngsAndZ, ServeError> {
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
    Ok((main_rng, shard_rngs, z))
}

/// Decode a v2 checkpoint section of a `t × v` model (read-only: this
/// build writes v4): scalars, RNG states, assignments, the dense counts,
/// which become cells once their totals are checked, then the priors.
fn decode_checkpoint_v2(
    r: &mut Reader<'_>,
    t: usize,
    v: usize,
) -> Result<TrainCheckpoint, ServeError> {
    let sweep = r.u64()?;
    let seed = r.u64()?;
    let alpha = r.f64()?;
    let shards = r.u64()?;
    let (main_rng, shard_rngs, z) = decode_rngs_and_z(r)?;
    let nw = r.u32_vec()?;
    let nt = r.u32_vec()?;
    if nt.len() != t || Some(nw.len()) != v.checked_mul(t) {
        return Err(ServeError::Corrupt(format!(
            "checkpoint counts are {} values and {} totals for a {t}×{v} model",
            nw.len(),
            nt.len()
        )));
    }
    let counts = CountCells::from_dense(v, t, nw);
    if counts.nt() != nt {
        return Err(ServeError::Corrupt(
            "checkpoint topic totals disagree with its nw".into(),
        ));
    }
    let prior_count = r.len(1)?;
    let priors: Vec<RawPrior> = (0..prior_count)
        .map(|_| decode_prior(r, v))
        .collect::<Result<_, ServeError>>()?;
    Ok(TrainCheckpoint {
        sweep,
        seed,
        alpha,
        shards,
        z,
        counts,
        main_rng,
        shard_rngs,
        priors,
    })
}

/// Decode a φ section of a `t × v` model: exactly `t·v` f64, row-major
/// by topic.
fn decode_phi(bytes: &[u8], t: usize, v: usize) -> Result<DenseMatrix<f64>, ServeError> {
    let expected = t
        .checked_mul(v)
        .and_then(|n| n.checked_mul(8))
        .ok_or_else(|| ServeError::Corrupt(format!("phi dimensions overflow: {t}×{v}")))?;
    if bytes.len() != expected {
        return Err(ServeError::Corrupt(format!(
            "phi section is {} bytes, expected {expected} for T={t}, V={v}",
            bytes.len()
        )));
    }
    let mut r = Reader::new(bytes, "phi section");
    let mut data = Vec::with_capacity(t * v);
    for _ in 0..t * v {
        data.push(r.f64()?);
    }
    Ok(DenseMatrix::from_vec(t, v, data))
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
            w.u8(1); // the support layout (0 is the legacy dense one)
            w.u32_slice(&table.support);
            w.f64_slice(&table.values);
            w.f64_slice(&table.zero_values);
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

/// Decode one prior of a `v`-word model.
fn decode_prior(r: &mut Reader<'_>, v: usize) -> Result<RawPrior, ServeError> {
    match r.u8()? {
        0 => Ok(RawPrior::Symmetric { beta: r.f64()? }),
        1 => Ok(RawPrior::Fixed {
            delta: r.f64_vec()?,
        }),
        2 => {
            let weights = r.f64_vec()?;
            let prior_log_weights = r.f64_vec()?;
            let sums = r.f64_vec()?;
            let (support, values, zero_values) = match r.u8()? {
                0 => support_form(&r.f64_vec()?, weights.len(), v)?,
                1 => (r.u32_vec()?, r.f64_vec()?, r.f64_vec()?),
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
                support,
                values,
                zero_values,
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

/// A λ-integration table's support, its δ rows and the shared row.
type SupportRows = (Vec<u32>, Vec<f64>, Vec<f64>);

/// A legacy dense δ payload (`v·a` values, every word's row in word order,
/// as older writers stored tables over at most 4096 words) in the support
/// form. The shared row is the element-wise minimum of the rows,
/// `ε^{g(λₐ)}` for every table a source builds (`g` is clamped into
/// [0, 1] and every support count is positive), and the support is the
/// words whose row differs from it in any bit: every word, in a file where
/// no row is that minimum.
fn support_form(dense: &[f64], a: usize, v: usize) -> Result<SupportRows, ServeError> {
    let sized = a > 0 && Some(dense.len()) == v.checked_mul(a);
    let Some(words) = u32::try_from(v).ok().filter(|_| sized) else {
        return Err(ServeError::Corrupt(format!(
            "dense integration table has {} values for V={v}, A={a}",
            dense.len()
        )));
    };
    let mut floor = vec![f64::INFINITY; a];
    for row in dense.chunks_exact(a) {
        floor.iter_mut().zip(row).for_each(|(f, &x)| *f = f.min(x));
    }
    let off_floor = |row: &[f64]| {
        row.iter()
            .zip(&floor)
            .any(|(x, f)| x.to_bits() != f.to_bits())
    };
    let (support, rows): (Vec<u32>, Vec<&[f64]>) = (0..words)
        .zip(dense.chunks_exact(a))
        .filter(|(_, row)| off_floor(row))
        .unzip();
    Ok((support, rows.concat(), floor))
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
/// without decoding payloads. This is what `inspect` prints.
///
/// # Errors
/// Fails on a bad magic, unsupported version, checksum mismatch, or a
/// structurally invalid section table.
pub fn list_sections(bytes: &[u8]) -> Result<Vec<SectionInfo>, ServeError> {
    envelope(bytes).map(|(_, sections)| sections)
}

/// [`list_sections`] with the format version, which
/// [`ModelArtifact::from_bytes`] needs to pick the checkpoint decoder.
fn envelope(bytes: &[u8]) -> Result<(u32, Vec<SectionInfo>), ServeError> {
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
    Ok((version, sections))
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
        assert_eq!(back.phi().unwrap().as_slice(), fitted.phi().as_slice());
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
            vec!["model", "labels", "priors", "vocab", "tokenizer", "counts"],
            "a final model stores its counts, not phi"
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
        let priors = artifact.live_priors();
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
        for (d, doc) in z.iter().enumerate() {
            for &topic in doc {
                nw[(d % v) * t + topic as usize] += 1;
            }
        }
        TrainCheckpoint {
            sweep: 17,
            seed: 42,
            alpha: 0.5,
            shards: 2,
            z,
            counts: CountCells::from_dense(v, t, nw),
            main_rng: [9, 8, 7, 6],
            shard_rngs: vec![[1, 2, 3, 4], [5, 6, 7, 8]],
            priors: (0..t).map(|_| RawPrior::Symmetric { beta: 0.25 }).collect(),
        }
    }

    /// A generation of `cp` that serves with `artifact`'s labels,
    /// vocabulary and tokenizer.
    fn generation(
        artifact: &ModelArtifact,
        cp: &TrainCheckpoint,
    ) -> Result<ModelArtifact, ServeError> {
        ModelArtifact::from_checkpoint(
            cp,
            artifact.labels().to_vec(),
            artifact.vocabulary(),
            artifact.tokenizer(),
        )
    }

    #[test]
    fn checkpoint_section_round_trips() {
        let (artifact, _) = trained();
        let t = artifact.num_topics();
        let v = artifact.vocab_size();
        let with_cp = generation(&artifact, &toy_checkpoint(t, v)).unwrap();
        let bytes = with_cp.to_bytes();
        let back = ModelArtifact::from_bytes(&bytes).unwrap();
        assert_eq!(back.checkpoint(), with_cp.checkpoint());
        assert_eq!(back.to_bytes(), bytes, "re-encoding is stable");
        let names: Vec<&str> = list_sections(&bytes)
            .unwrap()
            .iter()
            .map(SectionInfo::name)
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
            ],
            "a generation stores no phi"
        );
        assert!(with_cp.summary().contains("checkpoint: sweep 17"));
        assert!(
            with_cp.summary().contains("2 shards (Flat kernel)"),
            "{}",
            with_cp.summary()
        );
        // The kernel tag rides the packed shards word through the codec.
        let mut sparse_cp = toy_checkpoint(t, v);
        sparse_cp.shards = 1 << 56 | 2; // sparse kernel, 2 shards
        let with_sparse = generation(&artifact, &sparse_cp).unwrap();
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
        assert!(generation(&artifact, &toy_checkpoint(t + 1, v)).is_err());
        assert!(generation(&artifact, &toy_checkpoint(t, v + 1)).is_err());
        // Shard/RNG disagreement.
        let mut cp = toy_checkpoint(t, v);
        cp.shards = 5;
        assert!(generation(&artifact, &cp).is_err());
        // Counts whose totals disagree with the assignments.
        let mut cp = toy_checkpoint(t, v);
        let mut nw = cp.counts.to_dense();
        nw[0] += 1;
        cp.counts = CountCells::from_dense(v, t, nw);
        assert!(generation(&artifact, &cp).is_err());
    }

    #[test]
    fn v2_checkpoint_counts_are_checked_as_they_become_cells() {
        // The v2 checkpoint section of a 2-topic, 2-word model: one
        // document, z = [0, 1], no priors.
        let section = |nw: &[u32], nt: &[u32]| {
            let mut w = Writer::new();
            // Sweep, seed, α, shards, the main RNG, no shard RNGs, 1 doc.
            for word in [12, 7, 0.5f64.to_bits(), 0, 1, 2, 3, 4, 0, 1] {
                w.u64(word);
            }
            w.u32_slice(&[0, 1]);
            w.u32_slice(nw);
            w.u32_slice(nt);
            w.u64(0); // priors
            w.into_bytes()
        };
        let decode = |bytes: &[u8]| {
            decode_checkpoint_v2(&mut Reader::new(bytes, "checkpoint section"), 2, 2)
        };
        let cp = decode(&section(&[1, 0, 0, 1], &[1, 1])).unwrap();
        assert_eq!(cp.counts.cells(), [(0, 1), (3, 1)]);
        assert_eq!(cp.counts.nt(), [1, 1]);
        for (what, nw, nt) in [
            (
                "totals that disagree with nw",
                &[1, 0, 0, 1][..],
                &[2, 0][..],
            ),
            ("nw of another shape", &[1, 0, 0, 1, 0, 0][..], &[1, 1][..]),
            ("totals of another shape", &[1, 0, 0, 1][..], &[1, 1, 0][..]),
        ] {
            assert!(
                matches!(decode(&section(nw, nt)), Err(ServeError::Corrupt(_))),
                "{what}"
            );
        }
    }

    #[test]
    fn artifact_from_checkpoint_is_servable_and_resumable() {
        let (artifact, _) = trained();
        let cp = toy_checkpoint(artifact.num_topics(), artifact.vocab_size());
        let snapshot = generation(&artifact, &cp).unwrap();
        assert_eq!(
            snapshot.alpha(),
            cp.alpha,
            "alpha comes from the checkpoint"
        );
        assert_eq!(snapshot.checkpoint(), Some(&cp));
        // In memory and loaded, it serves the checkpoint's own φ:
        // normalized rows.
        assert!(snapshot.inference().is_ok());
        assert_eq!(snapshot.phi().unwrap(), cp.phi().unwrap());
        let back = ModelArtifact::from_bytes(&snapshot.to_bytes()).unwrap();
        assert_eq!(back.checkpoint(), Some(&cp));
        let phi = back.phi().unwrap();
        assert_eq!(phi.as_slice(), cp.phi().unwrap().as_slice());
        for t in 0..back.num_topics() {
            let sum: f64 = phi.row(t).iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "row {t} sums to {sum}");
        }
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

    /// A priors-section entry holding `raw`'s levels and `dense` as a
    /// legacy dense δ payload (layout tag 0).
    fn dense_payload(raw: &RawIntegrationTable, dense: &[f64]) -> Vec<u8> {
        let mut w = Writer::new();
        w.u8(2);
        w.f64_slice(&raw.weights);
        w.f64_slice(&raw.prior_log_weights);
        w.f64_slice(&raw.sums);
        w.u8(0);
        w.f64_slice(dense);
        w.into_bytes()
    }

    /// Every word's δ row of `raw` over `v` words, in word order.
    fn dense_rows(raw: &RawIntegrationTable, v: usize) -> Vec<f64> {
        let a = raw.zero_values.len();
        (0..v as u32)
            .flat_map(|w| match raw.support.binary_search(&w) {
                Ok(i) => raw.values[i * a..(i + 1) * a].to_vec(),
                Err(_) => raw.zero_values.clone(),
            })
            .collect()
    }

    /// Decode one priors-section entry of a `v`-word model and revalidate
    /// it, as [`ModelArtifact::from_bytes`] does.
    fn decode_live(bytes: &[u8], v: usize) -> Result<(RawPrior, TopicPrior), ServeError> {
        let mut r = Reader::new(bytes, "priors section");
        let raw = decode_prior(&mut r, v)?;
        r.expect_empty()?;
        let live = live(vec![raw.clone()], v)?.pop().unwrap();
        Ok((raw, live))
    }

    /// A λ-integrated prior over `v` words whose source counts `words`
    /// words, `stride` apart.
    fn integrated(v: usize, stride: usize, words: usize) -> TopicPrior {
        let mut counts = vec![0.0; v];
        for i in 0..words {
            counts[i * stride] = (1 + i % 7) as f64;
        }
        let q = srclda_math::DiscretizedGaussian::unit_interval(0.7, 0.3, 5).unwrap();
        let g = srclda_knowledge::SmoothingFunction::identity();
        let topic = srclda_knowledge::SourceTopic::new("T", counts);
        TopicPrior::integrated(&topic, 0.01, &g, &q)
    }

    /// A legacy dense payload of a table a source built decodes to exactly
    /// the mirror the table writes, at V ≤ 4096 (where older writers
    /// stored that payload) and above; a table whose support is every word
    /// decodes to one that gives every word the same weight.
    #[test]
    fn legacy_dense_payloads_decode_to_the_support_form() {
        let mut adapted = integrated(300, 7, 30);
        adapted.adapt_lambda(vec![(0usize, 5u32), (7, 2)], 7);
        for (v, prior) in [(300, adapted), (5000, integrated(5000, 250, 20))] {
            let RawPrior::Integrated(raw) = prior.to_raw() else {
                panic!("an integrated prior writes an integrated mirror");
            };
            let bytes = dense_payload(&raw, &dense_rows(&raw, v));
            let (decoded, _) = decode_live(&bytes, v).unwrap();
            assert_eq!(decoded, RawPrior::Integrated(raw), "V = {v}");
        }
        let v = 40;
        let every_word = integrated(v, 1, v);
        let RawPrior::Integrated(raw) = every_word.to_raw() else {
            panic!("an integrated prior writes an integrated mirror");
        };
        assert_eq!(raw.support.len(), v);
        let (_, decoded) = decode_live(&dense_payload(&raw, &dense_rows(&raw, v)), v).unwrap();
        for w in 0..v {
            for (nw, nt) in [(0.0, 0.0), (3.0, 40.0)] {
                assert_eq!(
                    decoded.word_weight(w, nw, nt).to_bits(),
                    every_word.word_weight(w, nw, nt).to_bits(),
                    "w = {w}"
                );
            }
        }
    }

    /// Crafted legacy dense payloads are corrupt, never a panic: no levels,
    /// a length that is not V·A, mismatched level counts, and a NaN or
    /// zero row.
    #[test]
    fn crafted_dense_payloads_are_rejected() {
        let (v, a) = (4, 2);
        let raw = |levels: usize, log_levels: usize| RawIntegrationTable {
            weights: vec![0.5; levels],
            prior_log_weights: vec![-0.7; log_levels],
            sums: vec![4.0; levels],
            support: vec![],
            values: vec![],
            zero_values: vec![],
        };
        let spoiled = |i: usize, x: f64| {
            let mut dense = vec![1.0; v * a];
            dense[i] = x;
            dense
        };
        assert!(decode_live(&dense_payload(&raw(a, a), &spoiled(0, 2.0)), v).is_ok());
        let cases = [
            ("no levels", raw(0, 0), vec![]),
            ("short payload", raw(a, a), vec![1.0; v * a - 1]),
            ("long payload", raw(a, a), vec![1.0; v * a + 1]),
            ("level counts", raw(a, 1), vec![1.0; v * a]),
            ("NaN δ", raw(a, a), spoiled(3, f64::NAN)),
            ("NaN level", raw(a, a), {
                let mut dense = vec![1.0; v * a];
                dense.iter_mut().step_by(a).for_each(|x| *x = f64::NAN);
                dense
            }),
            ("zero row", raw(a, a), {
                let mut dense = vec![1.0; v * a];
                dense[2..4].fill(0.0);
                dense
            }),
        ];
        for (what, table, dense) in cases {
            assert!(
                matches!(
                    decode_live(&dense_payload(&table, &dense), v),
                    Err(ServeError::Corrupt(_))
                ),
                "{what}"
            );
        }
    }

    #[test]
    fn mismatched_vocab_rejected_at_construction() {
        let (artifact, fitted) = trained();
        let tiny = Vocabulary::from_words(["just", "two"]);
        assert!(matches!(
            ModelArtifact::from_fitted(&fitted, &tiny, artifact.tokenizer()),
            Err(ServeError::Corrupt(_))
        ));
        // A λ-integrated prior holding a NaN δ: a final model's priors never
        // reach φ, so only prior validation keeps it out.
        let with_delta = |delta: f64| {
            let v = artifact.vocab_size();
            let mut priors = artifact.priors();
            priors[0] = RawPrior::Integrated(RawIntegrationTable {
                weights: vec![0.5, 0.5],
                prior_log_weights: vec![0.5f64.ln(); 2],
                sums: vec![v as f64; 2],
                support: vec![0],
                values: vec![1.0, delta],
                zero_values: vec![1.0; 2],
            });
            ModelArtifact::new(
                artifact.alpha(),
                artifact.phi().unwrap(),
                artifact.labels().to_vec(),
                priors,
                artifact.vocabulary().clone(),
                artifact.tokenizer().clone(),
            )
        };
        assert!(with_delta(1.0).is_ok());
        assert!(matches!(with_delta(f64::NAN), Err(ServeError::Corrupt(_))));
    }
}
