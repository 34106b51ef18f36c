//! Plain-old-data mirrors of model internals for serialization.
//!
//! The live types ([`TopicPrior`], its λ-integration table) carry derived
//! state (precomputed sums, membership masks) and privacy that make them
//! poor wire formats. This module defines value-only mirrors — every field
//! public, nothing derived — plus lossless conversions in both directions.
//! Serializers (e.g. the `srclda_serve` artifact codec) encode the raw
//! types; `from_raw` revalidates on the way back in, so a decoded model is
//! exactly as trustworthy as a freshly built one.
//!
//! Round-trip guarantee: `from_raw(to_raw(p), v)` reconstructs a prior whose
//! [`TopicPrior::word_weight`] is bit-identical to the original's for every
//! `(w, nw, nt)` — the f64 payloads are copied, never recomputed.
//!
//! [`TrainCheckpoint`] extends the same philosophy to *whole training
//! runs*: everything a collapsed Gibbs chain needs to continue from a
//! sweep boundary — assignments, counts, RNG streams, shard layout, the
//! (possibly λ-adapted) priors — as plain values. Capture and resume go
//! through [`crate::GibbsModel::fit_resumable`]; the byte encoding lives
//! with the artifact codec in `srclda_serve`. The counts are held the way
//! a `.slda` file stores them, as `nw`'s non-zero cells ([`CountCells`]),
//! so one checkpoint value goes from capture to disk to resume. Serving
//! derives φ from the cells and priors ([`crate::Inference::from_counts`]);
//! [`TrainCheckpoint::phi`] is the topic-major oracle that derivation is
//! tested against.

use crate::error::CoreError;
use crate::prior::{IntegrationTable, TopicPrior};
use crate::sampler::KernelKind;
use srclda_math::DenseMatrix;

/// Bit position of the kernel tag inside [`TrainCheckpoint::shards`].
///
/// The low 56 bits carry the shard count; the high byte records which
/// sweep kernel produced the chain (0 = flat, 1 = sparse, 2 = dense).
/// Tag 0 was chosen for the flat kernel so every checkpoint written
/// before kernels were recorded — whose high byte is naturally zero —
/// decodes as the flat kernel it was in fact trained with, and so that
/// re-encoding such a checkpoint reproduces its original bytes and
/// digest.
const KERNEL_TAG_SHIFT: u32 = 56;

/// Mask selecting the shard-count bits of [`TrainCheckpoint::shards`].
const SHARD_COUNT_MASK: u64 = (1 << KERNEL_TAG_SHIFT) - 1;

/// Encode a kernel kind + shard count into the packed `shards` word.
pub(crate) fn pack_shards(kernel: KernelKind, shards: u64) -> u64 {
    debug_assert_eq!(shards & !SHARD_COUNT_MASK, 0, "shard count overflow");
    let tag: u64 = match kernel {
        KernelKind::Flat => 0,
        KernelKind::Sparse => 1,
        KernelKind::Dense => 2,
    };
    (tag << KERNEL_TAG_SHIFT) | shards
}

/// Value-only mirror of a λ-integration table's δ rows, in one of two
/// raw layouts; [`IntegrationTable::to_raw`] picks which.
#[derive(Debug, Clone, PartialEq)]
pub enum RawIntegrationLayout {
    /// Dense per-word table: `values[w*A + a]`, length `V·A`. It does not
    /// record the support, so it decodes with every word on it.
    Dense {
        /// The `δ^{g(λₐ)}` grid, row-major by word.
        values: Vec<f64>,
    },
    /// Sparse table: only support words stored.
    Sparse {
        /// Sorted word ids with non-zero source counts.
        support: Vec<u32>,
        /// The `δ^{g(λₐ)}` grid, row-major by support index.
        values: Vec<f64>,
        /// Shared row for zero-count words (length `A`).
        zero_values: Vec<f64>,
    },
}

/// Value-only mirror of [`IntegrationTable`].
#[derive(Debug, Clone, PartialEq)]
pub struct RawIntegrationTable {
    /// Current quadrature weights `wₐ` (length `A`).
    pub weights: Vec<f64>,
    /// Log prior quadrature weights (length `A`).
    pub prior_log_weights: Vec<f64>,
    /// `Σ_w δ_w^{g(λₐ)}` per level (length `A`).
    pub sums: Vec<f64>,
    /// The δ rows.
    pub layout: RawIntegrationLayout,
}

/// Value-only mirror of [`TopicPrior`].
#[derive(Debug, Clone, PartialEq)]
pub enum RawPrior {
    /// Symmetric Dirichlet `Dir(β)`.
    Symmetric {
        /// The concentration β.
        beta: f64,
    },
    /// Fixed asymmetric Dirichlet `Dir(δ)`.
    Fixed {
        /// Per-word hyperparameters (length `V`).
        delta: Vec<f64>,
    },
    /// λ-integrated source prior.
    Integrated(RawIntegrationTable),
    /// Frozen word distribution (EDA).
    Frozen {
        /// The fixed distribution (length `V`).
        phi: Vec<f64>,
    },
    /// Concept word set (CTM).
    ConceptSet {
        /// Word ids in the concept bag.
        support: Vec<u32>,
        /// The concentration β.
        beta: f64,
    },
}

impl RawPrior {
    /// Short kind name (diagnostics; matches [`TopicPrior::kind`]).
    pub fn kind(&self) -> &'static str {
        match self {
            RawPrior::Symmetric { .. } => "symmetric",
            RawPrior::Fixed { .. } => "fixed",
            RawPrior::Integrated(_) => "integrated",
            RawPrior::Frozen { .. } => "frozen",
            RawPrior::ConceptSet { .. } => "concept-set",
        }
    }

    /// The prior's value payload in bytes: every numeric field at its
    /// in-memory width, without tags or length prefixes.
    pub fn payload_bytes(&self) -> u64 {
        match self {
            RawPrior::Symmetric { .. } => 8,
            RawPrior::Fixed { delta } => 8 * delta.len() as u64,
            RawPrior::Integrated(t) => {
                let layout = match &t.layout {
                    RawIntegrationLayout::Dense { values } => 8 * values.len() as u64,
                    RawIntegrationLayout::Sparse {
                        support,
                        values,
                        zero_values,
                    } => 4 * support.len() as u64 + 8 * (values.len() + zero_values.len()) as u64,
                };
                8 * (t.weights.len() + t.prior_log_weights.len() + t.sums.len()) as u64 + layout
            }
            RawPrior::Frozen { phi } => 8 * phi.len() as u64,
            RawPrior::ConceptSet { support, .. } => 8 + 4 * support.len() as u64,
        }
    }
}

impl TopicPrior {
    /// Convert to the serializable mirror. Derived fields (sums, masks) are
    /// dropped where recomputable and kept where they are bit-exact state.
    pub fn to_raw(&self) -> RawPrior {
        match self {
            TopicPrior::Symmetric { beta, .. } => RawPrior::Symmetric { beta: *beta },
            TopicPrior::Fixed { delta, .. } => RawPrior::Fixed {
                delta: delta.clone(),
            },
            TopicPrior::Integrated(table) => RawPrior::Integrated(table.to_raw()),
            TopicPrior::Frozen { phi } => RawPrior::Frozen { phi: phi.clone() },
            TopicPrior::ConceptSet { in_set, beta, .. } => RawPrior::ConceptSet {
                support: in_set
                    .iter()
                    .enumerate()
                    .filter_map(|(w, &m)| m.then_some(w as u32))
                    .collect(),
                beta: *beta,
            },
        }
    }

    /// Rebuild from the mirror against a `vocab_size`-word vocabulary.
    ///
    /// # Errors
    /// Fails if any vector length, word id, or parameter is inconsistent
    /// with `vocab_size` (a corrupt or mismatched artifact).
    pub fn from_raw(raw: RawPrior, vocab_size: usize) -> crate::Result<Self> {
        let check_len = |len: usize, what: &str| {
            if len == vocab_size {
                Ok(())
            } else {
                Err(CoreError::InvalidConfig(format!(
                    "{what} has {len} entries for a {vocab_size}-word vocabulary"
                )))
            }
        };
        match raw {
            RawPrior::Symmetric { beta } => TopicPrior::symmetric(beta, vocab_size),
            RawPrior::Fixed { delta } => {
                check_len(delta.len(), "fixed prior delta")?;
                let sum: f64 = delta.iter().sum();
                if !(sum > 0.0 && sum.is_finite()) {
                    return Err(CoreError::InvalidConfig(format!(
                        "fixed prior delta sums to {sum}"
                    )));
                }
                Ok(TopicPrior::Fixed { delta, sum })
            }
            RawPrior::Integrated(table) => Ok(TopicPrior::Integrated(Box::new(
                IntegrationTable::from_raw(table, vocab_size)?,
            ))),
            RawPrior::Frozen { phi } => {
                check_len(phi.len(), "frozen prior phi")?;
                if !phi.iter().all(|&p| p.is_finite() && p >= 0.0) {
                    return Err(CoreError::InvalidConfig(
                        "frozen prior phi has negative or non-finite entries".into(),
                    ));
                }
                Ok(TopicPrior::Frozen { phi })
            }
            RawPrior::ConceptSet { support, beta } => {
                if let Some(&w) = support.iter().find(|&&w| w as usize >= vocab_size) {
                    return Err(CoreError::InvalidConfig(format!(
                        "concept-set word id {w} outside vocabulary of size {vocab_size}"
                    )));
                }
                TopicPrior::concept_set(&support, beta, vocab_size)
            }
        }
    }
}

/// A full sampler snapshot at a sweep boundary: resuming a run from a
/// checkpoint replays the remaining sweeps **bit-identically** to the
/// uninterrupted run of the same backend (pinned by
/// `tests/shard_equivalence.rs`).
///
/// The counts are kept even though they are derivable from `z` and the
/// corpus: on resume the counts are rebuilt from the assignments and
/// compared against the kept ones, so a checkpoint whose pieces drifted
/// apart (truncated, hand-edited, mismatched corpus) is rejected instead
/// of silently continuing a corrupt chain. They are held as `nw`'s
/// non-zero cells, the form a generation file stores.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainCheckpoint {
    /// Completed sweeps (resume continues at `sweep + 1`).
    pub sweep: u64,
    /// The run seed. Resume rejects a configured seed that differs —
    /// the chain would continue from these RNG states regardless, so the
    /// run would be silently mislabeled.
    pub seed: u64,
    /// The document–topic prior α the run was trained with. Like `seed`,
    /// α feeds the per-token arithmetic directly (`n_dt + α`), so resume
    /// rejects a configured α whose bits differ. The rest of the
    /// configuration either rides in the checkpoint itself (the priors,
    /// including λ-adaptation state) or only shapes *future* boundaries
    /// (adaptation schedule) that an operator may legitimately change.
    pub alpha: f64,
    /// Packed shard layout and kernel tag. The low 56 bits are the shard
    /// count `S` of [`crate::Backend::ShardedDocs`] (0 for non-sharded
    /// backends, whose sampler state is the single run RNG); the high
    /// byte tags the sweep kernel that produced the chain (0 = flat,
    /// 1 = sparse, 2 = dense). Decode via [`Self::shard_count`] and
    /// [`Self::kernel_kind`] — the raw word exists so the wire encoding
    /// and digest of pre-kernel checkpoints (tag 0 = flat) are unchanged.
    pub shards: u64,
    /// Per-token topic assignments, indexed `[doc][position]`.
    pub z: Vec<Vec<u32>>,
    /// Word–topic counts `n_wt` as their non-zero cells, with the topic
    /// totals `n_t`. They fix `V` and `T`.
    pub counts: CountCells,
    /// The run RNG state at the boundary.
    pub main_rng: [u64; 4],
    /// Per-shard RNG states (`S` entries; empty for non-sharded backends).
    pub shard_rngs: Vec<[u64; 4]>,
    /// The current priors — including any λ-adaptation applied so far,
    /// which is sampler state a resume must not replay from scratch.
    pub priors: Vec<RawPrior>,
}

impl TrainCheckpoint {
    /// Topic count `T` of the checkpoint's counts.
    pub fn num_topics(&self) -> usize {
        self.counts.num_topics()
    }

    /// Vocabulary size `V` of the checkpoint's counts.
    pub fn vocab_size(&self) -> usize {
        self.counts.vocab_size()
    }

    /// Shard count `S` (the low 56 bits of the packed `shards` word), or
    /// 0 for non-sharded backends.
    pub fn shard_count(&self) -> u64 {
        self.shards & SHARD_COUNT_MASK
    }

    /// The sweep kernel that produced the chain, decoded from the high
    /// byte of the packed `shards` word.
    ///
    /// # Errors
    /// Returns an error for an unknown kernel tag (a checkpoint written
    /// by a newer codec, or corruption in the high byte).
    pub fn kernel_kind(&self) -> crate::Result<KernelKind> {
        match self.shards >> KERNEL_TAG_SHIFT {
            0 => Ok(KernelKind::Flat),
            1 => Ok(KernelKind::Sparse),
            2 => Ok(KernelKind::Dense),
            tag => Err(CoreError::InvalidConfig(format!(
                "checkpoint: unknown kernel tag {tag}"
            ))),
        }
    }

    /// The value payload a generation stores, in bytes: every numeric
    /// field at its in-memory width, `nw` as its non-zero cells (a u64
    /// index and a u32 count each) and no `nt`, excluding container
    /// overhead and encoding framing. This is the quantity telemetry
    /// reports per checkpoint — a stable measure of checkpoint *size*
    /// independent of which codec eventually writes it.
    pub fn payload_bytes(&self) -> u64 {
        let fixed = 8u64 * 4 // sweep, seed, alpha, shards
            + 8 * 4 // main_rng
            + 8 * 4 * self.shard_rngs.len() as u64;
        let z: u64 = self.z.iter().map(|doc| 4 * doc.len() as u64).sum();
        let cells = 12 * self.counts.cells().len() as u64;
        let priors: u64 = self.priors.iter().map(RawPrior::payload_bytes).sum();
        fixed + z + cells + priors
    }

    /// FNV-1a-64 digest over the checkpoint's entire sampler state —
    /// assignments, counts, RNG streams, seed/α/shard layout, and the
    /// prior kinds with their f64 payload bits. Two checkpoints digest
    /// equal iff continuing them produces the same chain, so recovery
    /// tests can assert "resumed == uninterrupted" with one number
    /// instead of a field-by-field diff.
    pub fn digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        fn eat(h: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *h = (*h ^ u64::from(b)).wrapping_mul(PRIME);
            }
        }
        fn eat_u64(h: &mut u64, v: u64) {
            eat(h, &v.to_le_bytes());
        }
        let mut h = OFFSET;
        eat_u64(&mut h, self.sweep);
        eat_u64(&mut h, self.seed);
        eat_u64(&mut h, self.alpha.to_bits());
        eat_u64(&mut h, self.shards);
        for doc in &self.z {
            eat_u64(&mut h, doc.len() as u64);
            for &t in doc {
                eat_u64(&mut h, u64::from(t));
            }
        }
        // All V·T counts in index order, 0 between the cells.
        let mut next = 0u64;
        for &(index, n) in self.counts.cells() {
            for _ in next..index {
                eat_u64(&mut h, 0);
            }
            eat_u64(&mut h, u64::from(n));
            next = index + 1;
        }
        for _ in next..(self.vocab_size() * self.num_topics()) as u64 {
            eat_u64(&mut h, 0);
        }
        for &n in self.counts.nt() {
            eat_u64(&mut h, u64::from(n));
        }
        for &word in &self.main_rng {
            eat_u64(&mut h, word);
        }
        for rng in &self.shard_rngs {
            for &word in rng {
                eat_u64(&mut h, word);
            }
        }
        for prior in &self.priors {
            eat(&mut h, prior.kind().as_bytes());
            match prior {
                RawPrior::Symmetric { beta } => eat_u64(&mut h, beta.to_bits()),
                RawPrior::Fixed { delta } => {
                    for &d in delta {
                        eat_u64(&mut h, d.to_bits());
                    }
                }
                RawPrior::Integrated(t) => {
                    for list in [&t.weights, &t.prior_log_weights, &t.sums] {
                        for &v in list {
                            eat_u64(&mut h, v.to_bits());
                        }
                    }
                    match &t.layout {
                        RawIntegrationLayout::Dense { values } => {
                            for &v in values {
                                eat_u64(&mut h, v.to_bits());
                            }
                        }
                        RawIntegrationLayout::Sparse {
                            support,
                            values,
                            zero_values,
                        } => {
                            for &w in support {
                                eat_u64(&mut h, u64::from(w));
                            }
                            for &v in values {
                                eat_u64(&mut h, v.to_bits());
                            }
                            for &v in zero_values {
                                eat_u64(&mut h, v.to_bits());
                            }
                        }
                    }
                }
                RawPrior::Frozen { phi } => {
                    for &p in phi {
                        eat_u64(&mut h, p.to_bits());
                    }
                }
                RawPrior::ConceptSet { support, beta } => {
                    for &w in support {
                        eat_u64(&mut h, u64::from(w));
                    }
                    eat_u64(&mut h, beta.to_bits());
                }
            }
        }
        h
    }

    /// The topic–word matrix φ at the checkpoint's counts, by the code
    /// that computes [`crate::FittedModel::phi`] at the end of a run: the
    /// oracle for the φ a generation serves.
    ///
    /// # Errors
    /// Fails if there is not one prior per topic or a stored prior is
    /// inconsistent with the checkpoint's vocabulary size.
    pub fn phi(&self) -> crate::Result<DenseMatrix<f64>> {
        let (v, t_count) = (self.vocab_size(), self.num_topics());
        if self.priors.len() != t_count {
            return Err(CoreError::InvalidConfig(format!(
                "checkpoint: {} priors for {t_count} topics",
                self.priors.len()
            )));
        }
        let priors = self
            .priors
            .iter()
            .map(|raw| TopicPrior::from_raw(raw.clone(), v))
            .collect::<crate::Result<Vec<_>>>()?;
        let nw = self.counts.to_dense();
        let nw = |w: usize, t: usize| nw[w * t_count + t];
        Ok(crate::model::compute_phi(v, &priors, nw, self.counts.nt()))
    }

    /// Structural validation against a corpus of `doc_lens` tokens per
    /// document, a `vocab_size`-word vocabulary and `t_count` topics:
    /// the dimensions agree, then [`Self::check_chain`].
    ///
    /// # Errors
    /// Returns the first inconsistency found (a corrupt or mismatched
    /// checkpoint).
    pub fn validate(
        &self,
        doc_lens: &[u32],
        vocab_size: usize,
        t_count: usize,
    ) -> crate::Result<()> {
        let fail = |msg: String| Err(CoreError::InvalidConfig(format!("checkpoint: {msg}")));
        if (self.vocab_size(), self.num_topics()) != (vocab_size, t_count) {
            return fail(format!(
                "counts are {}×{} for V={vocab_size}, T={t_count}",
                self.vocab_size(),
                self.num_topics()
            ));
        }
        if self.priors.len() != t_count {
            return fail(format!("{} priors for {t_count} topics", self.priors.len()));
        }
        if self.z.len() != doc_lens.len() {
            return fail(format!(
                "{} documents in checkpoint, {} in corpus",
                self.z.len(),
                doc_lens.len()
            ));
        }
        for (d, (doc, &len)) in self.z.iter().zip(doc_lens).enumerate() {
            if doc.len() != len as usize {
                return fail(format!(
                    "document {d} has {} assignments for {len} tokens",
                    doc.len()
                ));
            }
        }
        self.check_chain()
    }

    /// The checks that need no corpus: every topic id in z is below `T`,
    /// the packed `shards` word has one RNG state per shard and a known
    /// kernel tag, and the topic totals are the ones z implies. The full
    /// `nw` check needs the token stream and happens at resume time
    /// (`GibbsModel::fit_resumable`), but the `n_t` cross-check alone
    /// already catches truncation and doc/count mixups cheaply.
    ///
    /// # Errors
    /// Returns the first inconsistency found.
    pub fn check_chain(&self) -> crate::Result<()> {
        let fail = |msg: String| Err(CoreError::InvalidConfig(format!("checkpoint: {msg}")));
        let t_count = self.num_topics();
        let mut implied_nt = vec![0u64; t_count];
        for (d, doc) in self.z.iter().enumerate() {
            for &t in doc {
                match implied_nt.get_mut(t as usize) {
                    Some(n) => *n += 1,
                    None => return fail(format!("document {d} assigns topic {t} of {t_count}")),
                }
            }
        }
        let shard_rngs = self.shard_rngs.len();
        if self.shard_count() != shard_rngs as u64 {
            return fail(format!(
                "{shard_rngs} shard RNG states for {} shards",
                self.shard_count()
            ));
        }
        self.kernel_kind()?;
        for (t, (&stored, &implied)) in self.counts.nt().iter().zip(&implied_nt).enumerate() {
            if u64::from(stored) != implied {
                return fail(format!(
                    "topic {t} total is {stored} but assignments imply {implied}"
                ));
            }
        }
        Ok(())
    }
}

/// The word–topic counts `nw` as their non-zero cells `(w·T + t, n_wt)`,
/// strictly increasing by index, with the topic totals `n_t` they sum
/// to. This is the form a `.slda` file stores; with the priors it
/// determines φ ([`crate::Inference::from_counts`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CountCells {
    vocab_size: usize,
    cells: Vec<(u64, u32)>,
    nt: Vec<u32>,
}

impl CountCells {
    /// Adopt `cells` as the counts of a `vocab_size`-word, `num_topics`-
    /// topic model.
    ///
    /// # Errors
    /// Fails on a zero count, a cell that is not after its predecessor
    /// (out of order or repeated), an index past `V·T`, or a topic total
    /// that overflows u32.
    pub fn new(
        vocab_size: usize,
        num_topics: usize,
        cells: Vec<(u64, u32)>,
    ) -> crate::Result<Self> {
        let fail = |msg: String| Err(CoreError::InvalidConfig(format!("nw cells: {msg}")));
        let Some(size) = vocab_size
            .checked_mul(num_topics)
            .and_then(|n| u64::try_from(n).ok())
        else {
            return fail(format!("{vocab_size}×{num_topics} overflows"));
        };
        let mut nt = vec![0u32; num_topics];
        let mut next = 0u64;
        for &(index, n) in &cells {
            if n == 0 {
                return fail(format!("cell {index} is zero"));
            }
            if index < next {
                return fail(format!("cell {index} is out of order or repeated"));
            }
            if index >= size {
                return fail(format!("cell {index} is past V·T = {size}"));
            }
            // index < V·T, so T > 0 and the topic is in range.
            if let Some(total) = nt.get_mut((index % num_topics as u64) as usize) {
                *total = match total.checked_add(n) {
                    Some(sum) => sum,
                    None => return fail("a topic total overflows u32".into()),
                };
            }
            next = index + 1;
        }
        Ok(Self {
            vocab_size,
            cells,
            nt,
        })
    }

    /// The non-zero cells of the dense `nw` of a `vocab_size`-word,
    /// `num_topics`-topic model, given as its `V·T` values row-major by
    /// word; values past the `V·T`-th are not read. A topic total past
    /// u32::MAX wraps, which no count z implies can match.
    pub fn from_dense(
        vocab_size: usize,
        num_topics: usize,
        nw: impl IntoIterator<Item = u32>,
    ) -> Self {
        let mut nt = vec![0u32; num_topics];
        let mut cells = Vec::new();
        let topics = num_topics as u64;
        let values = nw.into_iter().take(vocab_size.saturating_mul(num_topics));
        for (index, n) in (0u64..).zip(values).filter(|&(_, n)| n != 0) {
            cells.push((index, n));
            if let Some(total) = index
                .checked_rem(topics)
                .and_then(|t| nt.get_mut(t as usize))
            {
                *total = total.wrapping_add(n);
            }
        }
        Self {
            vocab_size,
            cells,
            nt,
        }
    }

    /// Vocabulary size `V`.
    pub fn vocab_size(&self) -> usize {
        self.vocab_size
    }

    /// Topic count `T`.
    pub fn num_topics(&self) -> usize {
        self.nt.len()
    }

    /// The non-zero cells `(w·T + t, n_wt)`, strictly increasing by index.
    pub fn cells(&self) -> &[(u64, u32)] {
        &self.cells
    }

    /// The topic totals `n_t`.
    pub fn nt(&self) -> &[u32] {
        &self.nt
    }

    /// The dense `nw` (`V·T`, row-major by word), for the topic-major
    /// oracle [`TrainCheckpoint::phi`].
    pub fn to_dense(&self) -> Vec<u32> {
        let mut nw = vec![0u32; self.vocab_size * self.num_topics()];
        for &(index, n) in &self.cells {
            nw[index as usize] = n;
        }
        nw
    }

    /// Fails unless `priors` are one prior per topic, each over these
    /// counts' vocabulary where it records one.
    pub(crate) fn check_priors(&self, priors: &[TopicPrior]) -> crate::Result<()> {
        let (t, v) = (self.num_topics(), self.vocab_size);
        if priors.len() != t {
            return Err(CoreError::InvalidConfig(format!(
                "{} priors for {t} topics",
                priors.len()
            )));
        }
        match priors
            .iter()
            .filter_map(TopicPrior::vocab_size)
            .find(|&n| n != v)
        {
            Some(n) => Err(CoreError::InvalidConfig(format!(
                "a prior over {n} words for a {v}-word vocabulary"
            ))),
            None => Ok(()),
        }
    }

    /// φ topic-major (`T × V`) at these counts under `priors`: the φ
    /// [`crate::Inference::from_counts`] serves, written out in full. For
    /// tooling and tests.
    ///
    /// # Errors
    /// Fails if `priors` do not fit the counts (see
    /// [`crate::Inference::from_counts`]).
    pub fn phi(&self, priors: &[TopicPrior]) -> crate::Result<DenseMatrix<f64>> {
        self.check_priors(priors)?;
        Ok(crate::inference::PhiTable::from_counts(priors, self).to_topic_major())
    }

    /// Row `t` of [`Self::phi`] under topic `t`'s `prior`, derived alone.
    ///
    /// # Panics
    /// Panics if `t` is not below `T`.
    pub fn phi_row(&self, t: usize, prior: &TopicPrior) -> Vec<f64> {
        let topics = self.num_topics() as u64;
        let mut nw = vec![0u32; self.vocab_size];
        for &(index, n) in self.cells.iter().filter(|c| c.0 % topics == t as u64) {
            nw[(index / topics) as usize] = n;
        }
        let phi =
            crate::model::compute_phi(self.vocab_size, [prior], |w, _| nw[w], &self.nt[t..=t]);
        phi.row(0).to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srclda_knowledge::{SmoothingFunction, SourceTopic};
    use srclda_math::DiscretizedGaussian;

    fn weight_grid(p: &TopicPrior, v: usize) -> Vec<f64> {
        let mut out = Vec::new();
        for w in 0..v {
            for &(nw, nt) in &[(0.0, 0.0), (2.0, 7.0), (15.0, 40.0)] {
                out.push(p.word_weight(w, nw, nt));
            }
        }
        out
    }

    fn assert_round_trip(p: &TopicPrior, v: usize) {
        let raw = p.to_raw();
        let back = TopicPrior::from_raw(raw.clone(), v).unwrap();
        assert_eq!(weight_grid(p, v), weight_grid(&back, v), "{}", p.kind());
        assert_eq!(raw, back.to_raw(), "second trip must be stable");
        assert_eq!(p.kind(), back.kind());
    }

    #[test]
    fn symmetric_round_trips() {
        assert_round_trip(&TopicPrior::symmetric(0.37, 6).unwrap(), 6);
    }

    #[test]
    fn fixed_round_trips() {
        let t = SourceTopic::new("T", vec![5.0, 0.0, 2.5, 1.0]);
        assert_round_trip(&TopicPrior::fixed_from_source(&t, 0.01), 4);
    }

    #[test]
    fn frozen_round_trips() {
        let t = SourceTopic::new("T", vec![5.0, 0.0, 2.5, 1.0]);
        assert_round_trip(&TopicPrior::frozen_from_source(&t, 0.01), 4);
    }

    #[test]
    fn concept_set_round_trips() {
        assert_round_trip(&TopicPrior::concept_set(&[0, 3], 0.5, 5).unwrap(), 5);
    }

    #[test]
    fn integrated_dense_round_trips() {
        let t = SourceTopic::new("T", vec![6.0, 3.0, 0.0, 1.0]);
        let q = DiscretizedGaussian::unit_interval(0.7, 0.3, 5).unwrap();
        let g = SmoothingFunction::identity();
        let mut p = TopicPrior::integrated(&t, 0.01, &g, &q);
        // Adapt once so the round trip must preserve *posterior* weights,
        // not just the prior discretization.
        p.adapt_lambda(vec![(0usize, 12u32), (1, 4)], 16);
        assert_round_trip(&p, 4);
    }

    #[test]
    fn integrated_sparse_round_trips() {
        let v = 9000;
        let mut counts = vec![0.0; v];
        counts[5] = 4.0;
        counts[7777] = 9.0;
        let t = SourceTopic::new("T", counts);
        let q = DiscretizedGaussian::unit_interval(0.7, 0.3, 4).unwrap();
        let g = SmoothingFunction::identity();
        let p = TopicPrior::integrated(&t, 0.01, &g, &q);
        let raw = p.to_raw();
        assert!(matches!(
            &raw,
            RawPrior::Integrated(RawIntegrationTable {
                layout: RawIntegrationLayout::Sparse { .. },
                ..
            })
        ));
        let back = TopicPrior::from_raw(raw, v).unwrap();
        for &w in &[5usize, 6, 7777, 0] {
            assert_eq!(p.word_weight(w, 1.0, 5.0), back.word_weight(w, 1.0, 5.0));
            assert_eq!(p.effective_delta(w), back.effective_delta(w));
        }
    }

    #[test]
    fn adaptation_still_works_after_round_trip() {
        let t = SourceTopic::new("T", vec![40.0, 12.0, 4.0, 1.0]);
        let q = DiscretizedGaussian::unit_interval(0.5, 10.0, 6).unwrap();
        let g = SmoothingFunction::identity();
        let p = TopicPrior::integrated(&t, 0.01, &g, &q);
        let mut a = p.clone();
        let mut b = TopicPrior::from_raw(p.to_raw(), 4).unwrap();
        let counts = vec![(0usize, 70u32), (1, 21), (2, 7), (3, 2)];
        a.adapt_lambda(counts.clone(), 100);
        b.adapt_lambda(counts, 100);
        for w in 0..4 {
            assert_eq!(a.word_weight(w, 1.0, 5.0), b.word_weight(w, 1.0, 5.0));
        }
    }

    #[test]
    fn rejects_inconsistent_mirrors() {
        // Wrong delta length.
        assert!(TopicPrior::from_raw(
            RawPrior::Fixed {
                delta: vec![1.0, 2.0]
            },
            3
        )
        .is_err());
        // Zero-mass delta.
        assert!(TopicPrior::from_raw(
            RawPrior::Fixed {
                delta: vec![0.0, 0.0]
            },
            2
        )
        .is_err());
        // Out-of-range concept word.
        assert!(TopicPrior::from_raw(
            RawPrior::ConceptSet {
                support: vec![9],
                beta: 0.5
            },
            3
        )
        .is_err());
        // Bad beta.
        assert!(TopicPrior::from_raw(RawPrior::Symmetric { beta: -1.0 }, 3).is_err());
        // Non-finite frozen phi.
        assert!(TopicPrior::from_raw(
            RawPrior::Frozen {
                phi: vec![0.5, f64::NAN]
            },
            2
        )
        .is_err());
        // Integrated: mismatched level counts.
        let bad = RawIntegrationTable {
            weights: vec![0.5, 0.5],
            prior_log_weights: vec![0.0],
            sums: vec![1.0, 1.0],
            layout: RawIntegrationLayout::Dense {
                values: vec![1.0; 8],
            },
        };
        assert!(TopicPrior::from_raw(RawPrior::Integrated(bad), 4).is_err());
        // Integrated sparse: unsorted support breaks binary search.
        let bad = RawIntegrationTable {
            weights: vec![1.0],
            prior_log_weights: vec![0.0],
            sums: vec![1.0],
            layout: RawIntegrationLayout::Sparse {
                support: vec![3, 1],
                values: vec![1.0, 1.0],
                zero_values: vec![0.1],
            },
        };
        assert!(TopicPrior::from_raw(RawPrior::Integrated(bad), 4).is_err());
        // Integrated: values outside the ranges the weights stay finite and
        // positive under, one case per check.
        let good = || RawIntegrationTable {
            weights: vec![0.5, 0.5],
            prior_log_weights: vec![-0.7, -0.7],
            sums: vec![3.5, 3.0],
            layout: RawIntegrationLayout::Sparse {
                support: vec![1],
                values: vec![2.0, 1.5],
                zero_values: vec![0.5, 0.5],
            },
        };
        assert!(TopicPrior::from_raw(RawPrior::Integrated(good()), 4).is_ok());
        type Spoil = fn(&mut RawIntegrationTable);
        let cases: [(&str, Spoil); 6] = [
            ("NaN dense δ", |t| {
                let mut values = vec![1.0; 8];
                values[3] = f64::NAN;
                t.layout = RawIntegrationLayout::Dense { values };
            }),
            ("negative sparse δ", |t| {
                if let RawIntegrationLayout::Sparse { values, .. } = &mut t.layout {
                    values[1] = -1.5;
                }
            }),
            ("zero off-support value", |t| {
                if let RawIntegrationLayout::Sparse { zero_values, .. } = &mut t.layout {
                    zero_values[0] = 0.0;
                }
            }),
            ("infinite level sum", |t| t.sums[1] = f64::INFINITY),
            ("negative quadrature weight", |t| t.weights[0] = -0.5),
            ("NaN prior log-weight", |t| {
                t.prior_log_weights[1] = f64::NAN
            }),
        ];
        for (what, spoil) in cases {
            let mut bad = good();
            spoil(&mut bad);
            assert!(
                TopicPrior::from_raw(RawPrior::Integrated(bad), 4).is_err(),
                "{what} accepted"
            );
        }
    }

    #[test]
    fn raw_layout_choice_is_pinned_at_its_edges() {
        let g = SmoothingFunction::identity();
        let q = DiscretizedGaussian::unit_interval(0.7, 0.3, 5).unwrap();
        let zero_row: Vec<u64> = q
            .points()
            .iter()
            .map(|&lam| 0.01f64.powf(g.eval(lam)).to_bits())
            .collect();
        let bits = |row: &[f64]| row.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (v, support, dense) in [(4096, 20, true), (4097, 20, false), (5000, 2500, true)] {
            let stride = v / support;
            let mut counts = vec![0.0; v];
            for i in 0..support {
                counts[i * stride] = (1 + i % 5) as f64;
            }
            let topic = SourceTopic::new("T", counts.clone());
            let p = TopicPrior::integrated(&topic, 0.01, &g, &q);
            let raw = p.to_raw();
            let RawPrior::Integrated(table) = &raw else {
                panic!("an integrated prior writes an integrated mirror");
            };
            match &table.layout {
                RawIntegrationLayout::Dense { values } => {
                    assert!(dense, "V = {v}: wrote the dense raw layout");
                    assert_eq!(values.len(), v * 5);
                    for (w, row) in values.chunks_exact(5).enumerate() {
                        if counts[w] == 0.0 {
                            assert_eq!(bits(row), zero_row, "V = {v}: off-support row {w}");
                        }
                    }
                }
                RawIntegrationLayout::Sparse {
                    support: words,
                    zero_values,
                    ..
                } => {
                    assert!(!dense, "V = {v}: wrote the sparse raw layout");
                    assert_eq!(words.len(), support);
                    assert_eq!(bits(zero_values), zero_row);
                }
            }
            let back = TopicPrior::from_raw(raw.clone(), v).unwrap();
            assert_eq!(
                back.to_raw(),
                raw,
                "V = {v}: re-encoding moved the raw table"
            );
            // Words 0 and `stride` are on the support, 1 and V − 1 off it.
            for w in [0, 1, stride, v - 1] {
                for (nw, nt) in [(0.0, 0.0), (3.0, 40.0)] {
                    assert_eq!(
                        p.word_weight(w, nw, nt).to_bits(),
                        back.word_weight(w, nw, nt).to_bits(),
                        "V = {v}, w = {w}"
                    );
                }
            }
        }
    }

    fn toy_checkpoint() -> TrainCheckpoint {
        // 2 docs × [2, 1] tokens, V=2, T=2; z = [[0,1],[1]].
        TrainCheckpoint {
            sweep: 5,
            seed: 9,
            alpha: 0.5,
            shards: 0,
            z: vec![vec![0, 1], vec![1]],
            counts: CountCells::from_dense(2, 2, [1, 0, 0, 2]),
            main_rng: [1, 2, 3, 4],
            shard_rngs: vec![],
            priors: vec![
                RawPrior::Symmetric { beta: 0.1 },
                RawPrior::Symmetric { beta: 0.1 },
            ],
        }
    }

    #[test]
    fn checkpoint_validates_consistent_state() {
        let cp = toy_checkpoint();
        assert_eq!(cp.num_topics(), 2);
        assert_eq!(cp.vocab_size(), 2);
        cp.validate(&[2, 1], 2, 2).unwrap();
    }

    #[test]
    fn payload_counts_nw_as_its_non_zero_cells() {
        let cp = toy_checkpoint();
        assert_eq!(cp.counts.cells(), [(0, 1), (3, 2)]);
        assert_eq!(cp.counts.nt(), [1, 2]);
        // Scalars and RNG 64, z 3 × 4, two 12-byte cells, two β's; no nt.
        assert_eq!(cp.payload_bytes(), 64 + 12 + 24 + 16);
    }

    #[test]
    fn checkpoint_digest_is_stable_and_sensitive() {
        let cp = toy_checkpoint();
        assert_eq!(cp.digest(), cp.clone().digest(), "digest is a pure value");
        // The bits of hashing the dense `nw` [1, 0, 0, 2], then `nt`.
        assert_eq!(cp.digest(), 0xd231_c6bc_31e6_1243);
        // Any single-field perturbation must change the digest — the
        // digest stands in for field-by-field equality in recovery tests.
        let mut other = cp.clone();
        other.sweep += 1;
        assert_ne!(cp.digest(), other.digest());
        let mut other = cp.clone();
        other.z[1][0] = 0;
        other.counts = CountCells::from_dense(2, 2, [2, 0, 0, 1]);
        assert_ne!(cp.digest(), other.digest());
        // The same cell values at other indices.
        let mut other = cp.clone();
        other.counts = CountCells::from_dense(2, 2, [0, 1, 0, 2]);
        assert_ne!(cp.digest(), other.digest());
        let mut other = cp.clone();
        other.main_rng[3] ^= 1;
        assert_ne!(cp.digest(), other.digest());
        let mut other = cp.clone();
        other.priors[1] = RawPrior::Symmetric { beta: 0.2 };
        assert_ne!(cp.digest(), other.digest());
    }

    #[test]
    fn checkpoint_phi_errors_on_malformed_state_instead_of_panicking() {
        let good = toy_checkpoint();
        assert!(good.phi().is_ok());
        // More priors than topic totals: must be an error, not an
        // out-of-bounds panic (phi() is reachable before validate()).
        let mut bad = good.clone();
        bad.priors.push(RawPrior::Symmetric { beta: 0.1 });
        assert!(bad.phi().is_err());
        // A prior over a vocabulary other than the counts'.
        let mut bad = good;
        bad.priors[1] = RawPrior::Fixed {
            delta: vec![1.0; 3],
        };
        assert!(bad.phi().is_err());
    }

    #[test]
    fn checkpoint_rejects_inconsistencies() {
        let base = toy_checkpoint();
        // Wrong doc count.
        assert!(base.validate(&[2], 2, 2).is_err());
        // Wrong doc length.
        assert!(base.validate(&[2, 2], 2, 2).is_err());
        // Wrong topic count.
        assert!(base.validate(&[2, 1], 2, 3).is_err());
        // A prior more than there are topics.
        let mut bad = base.clone();
        bad.priors.push(RawPrior::Symmetric { beta: 0.1 });
        assert!(bad.validate(&[2, 1], 2, 2).is_err());
        // Out-of-range topic assignment.
        let mut bad = base.clone();
        bad.z[0][0] = 7;
        assert!(bad.validate(&[2, 1], 2, 2).is_err());
        // Topic totals inconsistent with assignments.
        let mut bad = base.clone();
        bad.counts = CountCells::from_dense(2, 2, [2, 0, 0, 1]);
        assert!(bad.validate(&[2, 1], 2, 2).is_err());
        assert!(bad.check_chain().is_err());
        // Shard RNG count disagrees with shard count.
        let mut bad = base.clone();
        bad.shards = 2;
        assert!(bad.validate(&[2, 1], 2, 2).is_err());
        // Unknown kernel tag in the high byte.
        let mut bad = base.clone();
        bad.shards = 7 << 56;
        assert!(bad.validate(&[2, 1], 2, 2).is_err());
        assert!(bad.kernel_kind().is_err());
        // Counts sized for the wrong vocabulary.
        let mut bad = base;
        bad.counts = CountCells::from_dense(3, 2, [1, 0, 0, 2, 0, 0]);
        assert!(bad.validate(&[2, 1], 2, 2).is_err());
    }

    #[test]
    fn kernel_tag_packs_and_decodes() {
        use crate::sampler::KernelKind;
        let mut cp = toy_checkpoint();
        // Pre-kernel checkpoints (high byte zero) decode as flat.
        assert_eq!(cp.kernel_kind().unwrap(), KernelKind::Flat);
        assert_eq!(cp.shard_count(), 0);
        for (kernel, shards) in [
            (KernelKind::Flat, 0),
            (KernelKind::Flat, 4),
            (KernelKind::Sparse, 2),
            (KernelKind::Dense, 3),
        ] {
            cp.shards = pack_shards(kernel, shards);
            assert_eq!(cp.kernel_kind().unwrap(), kernel);
            assert_eq!(cp.shard_count(), shards);
        }
        // Flat tags pack to the raw shard count — old bytes and digests
        // are reproduced exactly.
        assert_eq!(pack_shards(KernelKind::Flat, 4), 4);
    }

    #[test]
    fn kinds_match() {
        let t = SourceTopic::new("T", vec![1.0, 2.0]);
        for p in [
            TopicPrior::symmetric(0.1, 2).unwrap(),
            TopicPrior::fixed_from_source(&t, 0.01),
            TopicPrior::frozen_from_source(&t, 0.01),
            TopicPrior::concept_set(&[0], 0.1, 2).unwrap(),
        ] {
            assert_eq!(p.kind(), p.to_raw().kind());
        }
    }
}
