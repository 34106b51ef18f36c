//! The versioned, checksummed binary model-artifact format.
//!
//! A `.slda` artifact is everything needed to serve a trained model against
//! *raw text* with no access to the training process: the posterior φ, the
//! document–topic prior α, per-topic labels and priors, the vocabulary the
//! word ids index into, and the tokenizer configuration that produced that
//! vocabulary. A checkpoint *generation* holds the sampler state of an
//! unfinished run in φ's place, and loading it derives φ from that state.
//! Layout (all integers little-endian, floats IEEE-754 LE):
//!
//! ```text
//! offset 0   magic            8 bytes  b"SLDAMODL"
//!        8   format version   u32      currently 3 (1 and 2 still readable)
//!       12   section count    u32      N
//!       16   section table    N × { id: u32, offset: u64, length: u64 }
//!        …   section payloads (absolute offsets, non-overlapping)
//!  len − 8   checksum         u64      FNV-1a 64 of bytes [0, len − 8)
//! ```
//!
//! | id | section    | contents                                              |
//! |----|------------|-------------------------------------------------------|
//! | 1  | model      | α (f64), topic count `T` (u64), vocab size `V` (u64)  |
//! | 2  | phi        | `T·V` f64, row-major by topic (final models only)     |
//! | 3  | labels     | `T` × (present: u8, then UTF-8 string)                |
//! | 4  | priors     | `T` × tagged [`RawPrior`]                             |
//! | 5  | vocab      | count (u64), then UTF-8 strings in word-id order      |
//! | 6  | tokenizer  | lowercase u8, min_len u64, stopwords u8, numbers u8   |
//! | 7  | checkpoint | sampler state ([`TrainCheckpoint`], generations only) |
//!
//! A final model ([`ModelArtifact::from_fitted`]) is sections 1–6. A
//! generation ([`ModelArtifact::from_checkpoint`]) is sections 1 and 3–7:
//! its priors section holds the checkpoint's current, possibly
//! λ-adapted, priors, and its checkpoint section holds the sweep, the
//! seed, the packed shards/kernel word, the RNG states, z, and `nw` as
//! its non-zero cells — a u64 count, then `(w·T + t: u64, n_wt: u32)`
//! pairs strictly increasing by index, at most `min(N, V·T)` of them.
//! Decode rebuilds the dense `nw` and `nt` only after the labels, priors
//! and vocab sections have confirmed `T` and `V` (the one buffer no file
//! bytes back), rejects cells that are out of range, out of order,
//! repeated or zero, or whose topic totals disagree with z, and then
//! derives φ through [`TrainCheckpoint::phi`] — bit-equal to the φ a v2
//! generation stored.
//!
//! Version history: **v1** is sections 1–6. **v2** added the optional
//! checkpoint section: a v2 generation is a whole servable artifact plus
//! sampler state that also carries α, the dense `nw`, `nt` and a second
//! copy of the priors. **v3** (this build) writes generations as above;
//! its final models differ from v1 and v2 ones only in the version field.
//! v1 and v2 files, v2 generations included, still load; the committed
//! fixtures under `tests/fixtures/` pin that.
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
pub const FORMAT_VERSION: u32 = 3;

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

/// A self-contained, serializable trained model, or a checkpoint
/// generation: a mid-training [`TrainCheckpoint`] with the labels,
/// vocabulary and tokenizer it serves with, so the run can be resumed.
#[derive(Debug, Clone)]
pub struct ModelArtifact {
    alpha: f64,
    /// `None` only for a generation built by
    /// [`ModelArtifact::from_checkpoint`]: its file stores no φ, and
    /// decode derives one.
    phi: Option<DenseMatrix<f64>>,
    labels: Vec<Option<String>>,
    priors: Vec<RawPrior>,
    vocab: Vocabulary,
    tokenizer: Tokenizer,
    checkpoint: Option<TrainCheckpoint>,
}

impl ModelArtifact {
    /// Assemble a final model from parts, validating consistency.
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
            phi: Some(phi),
            labels,
            priors,
            vocab,
            tokenizer,
            checkpoint: None,
        };
        artifact.validate()?;
        Ok(artifact)
    }

    /// The training checkpoint, if this artifact carries one.
    pub fn checkpoint(&self) -> Option<&TrainCheckpoint> {
        self.checkpoint.as_ref()
    }

    /// Build a checkpoint generation: the checkpoint's sampler state, with
    /// α and the priors its own (possibly λ-adapted) training values.
    /// Nothing is derived — no φ — so a generation costs one copy of the
    /// state and one validation. [`Self::from_bytes`] derives φ when the
    /// generation is loaded, so every loaded generation serves.
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
            phi: None,
            labels,
            priors: checkpoint.priors.clone(),
            vocab: vocab.clone(),
            tokenizer: tokenizer.clone(),
            checkpoint: Some(checkpoint.clone()),
        };
        artifact.validate()?;
        Ok(artifact)
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

    /// `T` is the label count and `V` the vocabulary size; φ, the priors
    /// and the checkpoint must agree with both.
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
        match &self.phi {
            Some(phi) => {
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
            None if self.checkpoint.is_none() => {
                return Err(ServeError::MissingSection { name: "phi" })
            }
            None => {}
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

    /// The topic–word matrix φ (`T × V`). Every artifact that
    /// [`Self::from_bytes`] returns has one; a generation built in memory
    /// by [`Self::from_checkpoint`] has none.
    pub fn phi(&self) -> Option<&DenseMatrix<f64>> {
        self.phi.as_ref()
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
    /// [`ServeError::MissingSection`] for a generation built in memory,
    /// which has no φ until it is encoded and loaded, and `srclda_core`
    /// validation failures.
    pub fn inference(&self) -> Result<Inference, ServeError> {
        let phi = self
            .phi
            .as_ref()
            .ok_or(ServeError::MissingSection { name: "phi" })?;
        Inference::from_parts(phi, self.alpha, self.labels.clone()).map_err(Into::into)
    }

    /// The `n` most probable words of topic `t`, as vocabulary strings
    /// (none for a generation built in memory, which has no φ).
    pub fn top_words(&self, t: usize, n: usize) -> Vec<&str> {
        let Some(phi) = &self.phi else {
            return Vec::new();
        };
        srclda_math::simplex::top_n_indices(phi.row(t), n)
            .into_iter()
            .map(|w| self.vocab.word(srclda_corpus::WordId::new(w)))
            .collect()
    }

    /// Serialize to the on-disk format: a generation (an artifact that
    /// carries a checkpoint) as sections 1 and 3–7, a final model as
    /// sections 1–6. The header goes first with a placeholder section
    /// table; each payload is appended to the same buffer, sized up
    /// front, and its table entry filled in once it has landed.
    pub fn to_bytes(&self) -> Vec<u8> {
        let generation = self.checkpoint.is_some();
        let mut ids = vec![SEC_MODEL];
        ids.extend((!generation).then_some(SEC_PHI));
        ids.extend([SEC_LABELS, SEC_PRIORS, SEC_VOCAB, SEC_TOKENIZER]);
        ids.extend(generation.then_some(SEC_CHECKPOINT));
        let bound = self.encoded_len_bound();
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
            self.encode_section(id, &mut out);
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

    /// Append the payload of section `id` to `w`.
    fn encode_section(&self, id: u32, w: &mut Writer) {
        match id {
            SEC_MODEL => {
                w.f64(self.alpha);
                w.u64(self.num_topics() as u64);
                w.u64(self.vocab_size() as u64);
            }
            SEC_PHI => {
                for &x in self.phi.iter().flat_map(DenseMatrix::as_slice) {
                    w.f64(x);
                }
            }
            SEC_LABELS => {
                for label in &self.labels {
                    w.bool(label.is_some());
                    if let Some(s) = label {
                        w.str(s);
                    }
                }
            }
            SEC_PRIORS => {
                for raw in self.encoded_priors() {
                    encode_prior(w, raw);
                }
            }
            SEC_VOCAB => {
                w.u64(self.vocab.len() as u64);
                for word in self.vocab.words() {
                    w.str(word);
                }
            }
            SEC_TOKENIZER => {
                let (lowercase, min_len, remove_stopwords, keep_numbers) =
                    self.tokenizer.to_parts();
                w.bool(lowercase);
                w.u64(min_len as u64);
                w.bool(remove_stopwords);
                w.bool(keep_numbers);
            }
            SEC_CHECKPOINT => {
                if let Some(cp) = &self.checkpoint {
                    encode_checkpoint(w, cp);
                }
            }
            _ => {}
        }
    }

    /// The priors the priors section holds: a generation's are its
    /// checkpoint's, the sampler state a resume continues from.
    fn encoded_priors(&self) -> &[RawPrior] {
        self.checkpoint
            .as_ref()
            .map_or(&self.priors, |cp| &cp.priors)
    }

    /// An upper bound on the length of [`Self::to_bytes`], so the encoder
    /// fills one buffer without growing it: the exact framing and strings,
    /// every prior's values plus its tags and length prefixes, and either
    /// φ or the checkpoint with one cell per token.
    fn encoded_len_bound(&self) -> usize {
        let labels: usize = self
            .labels
            .iter()
            .map(|l| 9 + l.as_ref().map_or(0, String::len))
            .sum();
        let vocab: usize = self.vocab.words().iter().map(|w| 8 + w.len()).sum();
        let priors: u64 = self
            .encoded_priors()
            .iter()
            .map(|p| p.payload_bytes() + 64)
            .sum();
        let body = match &self.checkpoint {
            Some(cp) => {
                // Ten u64 words of scalars, RNG state and counts, then per
                // shard one RNG state, per document a length and its
                // assignments, and at most one 12-byte cell per token.
                let tokens: usize = cp.z.iter().map(Vec::len).sum();
                8 * (10 + 4 * cp.shard_rngs.len() + cp.z.len())
                    + 4 * tokens
                    + 12 * tokens.min(cp.nw.len())
            }
            None => 8 * self.num_topics() * self.vocab_size(),
        };
        // Header, table, model, vocab count, tokenizer, trailer.
        16 + 20 * 6 + 24 + 8 + 11 + 8 + labels + vocab + priors as usize + body
    }

    /// Deserialize and fully validate an artifact. A generation with no φ
    /// section (v3) gets its φ derived from the checkpoint, once.
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

        // The labels and vocab sections have confirmed T and V; only now
        // is anything V·T-sized built.
        let phi = section(SEC_PHI)?
            .map(|bytes| decode_phi(bytes, t, v))
            .transpose()?;
        if phi.is_none() && version < 3 {
            return Err(ServeError::MissingSection { name: "phi" });
        }
        // The checkpoint section is optional: absent in v1 artifacts and
        // in final models.
        let checkpoint = match section(SEC_CHECKPOINT)? {
            Some(bytes) => {
                let mut r = Reader::new(bytes, "checkpoint section");
                let cp = if version < 3 {
                    decode_checkpoint_v2(&mut r)?
                } else {
                    decode_checkpoint(&mut r, alpha, &priors, t, v)?
                };
                r.expect_empty()?;
                Some(cp)
            }
            None => None,
        };
        let mut artifact = Self {
            alpha,
            phi,
            labels,
            priors,
            vocab,
            tokenizer,
            checkpoint,
        };
        artifact.validate()?;
        if artifact.phi.is_none() {
            artifact.phi = artifact
                .checkpoint
                .as_ref()
                .map(TrainCheckpoint::phi)
                .transpose()
                .map_err(|e| ServeError::Corrupt(format!("deriving phi: {e}")))?;
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

/// Encode a [`TrainCheckpoint`] as a v3 generation's checkpoint section:
/// the scalars, RNG states and assignments, then `nw` as its non-zero
/// cells. α and the priors live in the model and priors sections, and
/// decode rebuilds `nt`.
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
    let count_at = w.len();
    w.u64(0); // the cell count, patched once the cells are written
    let mut cells = 0u64;
    for (index, n) in cp.nw_cells() {
        w.u64(index);
        w.u32(n);
        cells += 1;
    }
    w.patch_u64(count_at, cells);
}

/// Decode a v3 checkpoint section for a `t × v` model whose α and priors
/// the model and priors sections carried.
fn decode_checkpoint(
    r: &mut Reader<'_>,
    alpha: f64,
    priors: &[RawPrior],
    t: usize,
    v: usize,
) -> Result<TrainCheckpoint, ServeError> {
    let sweep = r.u64()?;
    let seed = r.u64()?;
    let shards = r.u64()?;
    let (main_rng, shard_rngs, z) = decode_rngs_and_z(r)?;
    let (nw, nt) = decode_cells(r, t, v)?;
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
        priors: priors.to_vec(),
    })
}

/// Rebuild the dense `nw` (`V·T`, row-major by word) and the topic totals
/// `nt` from a generation's non-zero cells. A cell that is past `V·T`,
/// not after its predecessor (out of order or repeated) or zero is
/// corrupt; totals that disagree with z fail [`TrainCheckpoint::validate`].
/// `nw` is the one buffer no file bytes back, so the caller confirms `t`
/// and `v` against the labels and vocab sections first, and a size the
/// allocator refuses is an error rather than an abort.
fn decode_cells(
    r: &mut Reader<'_>,
    t: usize,
    v: usize,
) -> Result<(Vec<u32>, Vec<u32>), ServeError> {
    let count = r.len(12)?;
    let size = v
        .checked_mul(t)
        .ok_or_else(|| ServeError::Corrupt(format!("nw dimensions overflow: {v}×{t}")))?;
    let mut nw = Vec::new();
    nw.try_reserve_exact(size)
        .map_err(|e| ServeError::Corrupt(format!("nw of {v}×{t} cells: {e}")))?;
    nw.resize(size, 0u32);
    let mut nt = vec![0u32; t];
    let mut next = 0u64;
    for _ in 0..count {
        let index = r.u64()?;
        let n = r.u32()?;
        if n == 0 {
            return Err(ServeError::Corrupt(format!("nw cell {index} is zero")));
        }
        if index < next {
            return Err(ServeError::Corrupt(format!(
                "nw cell {index} is out of order or repeated"
            )));
        }
        let i = usize::try_from(index)
            .ok()
            .filter(|&i| i < size)
            .ok_or_else(|| ServeError::Corrupt(format!("nw cell {index} is past V·T = {size}")))?;
        // i < V·T, so T > 0 and both lookups hit.
        if let (Some(cell), Some(total)) = (nw.get_mut(i), nt.get_mut(i % t)) {
            *cell = n;
            *total = total
                .checked_add(n)
                .ok_or_else(|| ServeError::Corrupt("a topic total overflows u32".into()))?;
        }
        next = index + 1;
    }
    Ok((nw, nt))
}

/// The main RNG state, the per-shard RNG states and the assignments.
type RngsAndZ = ([u64; 4], Vec<[u64; 4]>, Vec<Vec<u32>>);

/// The RNG states and assignments, which the v2 and v3 checkpoint
/// sections share.
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

/// Decode a v2 checkpoint section (read-only: this build writes v3):
/// scalars, RNG states, assignments, the dense counts, then the priors.
fn decode_checkpoint_v2(r: &mut Reader<'_>) -> Result<TrainCheckpoint, ServeError> {
    let sweep = r.u64()?;
    let seed = r.u64()?;
    let alpha = r.f64()?;
    let shards = r.u64()?;
    let (main_rng, shard_rngs, z) = decode_rngs_and_z(r)?;
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
        // Shard/RNG disagreement.
        let mut cp = toy_checkpoint(t, v);
        cp.shards = 5;
        assert!(generation(&artifact, &cp).is_err());
        // Counts inconsistent with assignments.
        let mut cp = toy_checkpoint(t, v);
        cp.nt[0] += 1;
        assert!(generation(&artifact, &cp).is_err());
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
        // Building a generation derives nothing: no φ until it is loaded.
        assert!(snapshot.phi().is_none());
        assert!(matches!(
            snapshot.inference(),
            Err(ServeError::MissingSection { name: "phi" })
        ));
        // Loaded, it carries the checkpoint's own φ: normalized rows that
        // serve.
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
            let mut values = vec![1.0; v * 2];
            values[1] = delta;
            let mut priors = artifact.priors().to_vec();
            priors[0] = RawPrior::Integrated(RawIntegrationTable {
                weights: vec![0.5, 0.5],
                prior_log_weights: vec![0.5f64.ln(); 2],
                sums: vec![v as f64; 2],
                layout: RawIntegrationLayout::Dense { values },
            });
            ModelArtifact::new(
                artifact.alpha(),
                artifact.phi().unwrap().clone(),
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
