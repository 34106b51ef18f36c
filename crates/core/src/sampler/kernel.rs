//! The optimized serial Gibbs hot path ([`KernelKind::Flat`]): flat prior
//! tables, cached denominator reciprocals, direct λ-row loads, sparse
//! document-topic bookkeeping, and non-atomic count updates. One `Kernel`
//! sweeps either the global counts in place (`Backend::Serial`, any
//! `S = 1`) or one shard's local copy; its `Combined` table is built once
//! per fit, shared by every shard of a run, and lent to each sweep.
//!
//! [`KernelKind::Flat`]: super::KernelKind::Flat
//!
//! The dense reference sweep ([`super::serial::sweep`],
//! [`KernelKind::Dense`](super::KernelKind::Dense)) evaluates
//! `TopicPrior::word_weight(w, n_wt, n_t) · (n_dt + α)` per (token, topic):
//! an enum match into heap-scattered prior payloads, a fresh reciprocal per
//! topic (one per quadrature level for λ-integrated topics), and two atomic
//! count loads. This module precomputes everything that is constant across
//! a sweep into struct-of-arrays form and maintains the count-dependent
//! factors incrementally, while producing **bit-identical** weights — the
//! kernel walks the exact same chain from the same seed.
//!
//! ## The flat sweep tables
//!
//! [`SweepTables`] flattens `&[TopicPrior]` into parallel per-topic arrays:
//! a one-byte kind tag, the numerator addend (β), the denominator addend
//! (`Vβ` / `Σδ` / `|W_c|β`), a per-word row slice (δ for `Fixed`, φ for
//! `Frozen`), a concept mask, and a view of each λ-integration table. The
//! per-(token, topic) enum dispatch becomes a tag branch over flat arrays,
//! and λ-integrated topics read their δ row through the table's per-word
//! row pointer (a direct load; the sparse layout's binary search is gone).
//!
//! ## The reciprocal-cache invariant
//!
//! [`RecipCache`] holds, for every topic `t`, exactly
//! `recip[t] = 1.0 / (n_t + denom_add[t])` evaluated at the **current**
//! topic total `n_t` — and for every λ-integrated topic the per-level
//! products `qr[a] = w_a · (1.0 / (n_t + Σδ_a))`. Because a token move
//! changes `n_t` for at most two topics (the decremented old topic and the
//! incremented new one), the cache is refreshed by recomputing just those
//! two entries from the live counts:
//!
//! * after the decrement, **before** the weight pass (`old`'s `n_t` changed);
//! * after the increment, at the end of the token (`new`'s `n_t` changed).
//!
//! Every refresh recomputes `1.0 / (n_t + c)` from scratch — never by
//! incremental algebra — so a cached reciprocal is always bit-equal to the
//! one `TopicPrior::word_weight` would derive, and the inner loop's
//! divisions become multiplies without perturbing the chain.
//!
//! ## Sparse document-topic iteration
//!
//! The document factor `(n_dt + α)` is kept in a dense per-topic `fact`
//! array that holds exactly `α` for every topic absent from the current
//! document (bit-equal to `0.0 + α`) and `n_dt as f64 + α` for the few
//! present ones. Entering a document initializes only its own topics (an
//! `O(n_d)` walk of its assignments — the α-only tail is one bulk reset,
//! not `T` per-topic recomputations); each token move patches the two
//! affected entries; leaving resets the touched entries. The weight pass
//! therefore multiplies by a plain `f64` load instead of an atomic `n_dt`
//! load plus convert-and-add per topic.
//!
//! ## Non-atomic fast path
//!
//! The serial kernel owns the counts exclusively, so it uses
//! [`CountMatrices::increment_serial`]/[`decrement_serial`]
//! (relaxed load + store, plain `mov`s) instead of the `lock`-prefixed
//! read-modify-writes the parallel barrier path requires.
//!
//! [`decrement_serial`]: CountMatrices::decrement_serial

use super::{idx_u32, SweepContext};
use crate::counts::CountMatrices;
use crate::prior::{dot_mod4, IntegrationTable, TopicPrior};
use rand::Rng;
use srclda_math::categorical::binary_search_cumulative;
use srclda_math::SldaRng;
use std::sync::atomic::Ordering;

/// Per-topic prior kind tag (the flat replacement for the `TopicPrior`
/// enum dispatch). Each carries the topic's ordinal within its channel:
/// `Fixed`/`Frozen` index the per-word f64 channel, `ConceptSet` the mask
/// channel, `Integrated` the [`SweepTables::ints`] views (and the λ-row
/// channel of the combined table).
#[derive(Debug, Clone, Copy)]
pub(super) enum Kind {
    Symmetric,
    Fixed(u32),
    Integrated(u32),
    Frozen(u32),
    ConceptSet(u32),
}

/// Byte budget for the word-major combined table (see [`Combined`]). The
/// combined table duplicates every per-word prior value, so a `B = 10000`
/// scaling run would double a multi-hundred-MB footprint; past this budget
/// the kernel falls back to reading each prior's own storage (still
/// bit-identical, just without the contiguous-read win).
const MAX_COMBINED_BYTES: usize = 512 << 20;

/// Flat view of one λ-integration table plus the offset of its cached
/// `qr` row inside [`RecipCache::qr`].
pub(super) struct IntFlat<'a> {
    pub(super) table: &'a IntegrationTable,
    pub(super) qr_base: usize,
    pub(super) levels: usize,
}

/// Struct-of-arrays sweep tables: everything about the priors that is
/// constant across a sweep, flattened for the per-(token, topic) loop.
/// Built with each [`Kernel`] (priors only change *between* sweep
/// chunks, via λ adaptation).
pub(crate) struct SweepTables<'a> {
    pub(super) kinds: Vec<Kind>,
    /// Numerator addend: β for `Symmetric`/`ConceptSet`, 0 otherwise.
    pub(super) add: Vec<f64>,
    /// Denominator addend: `Vβ` / `Σδ` / `|W_c|β`; 0 for `Frozen` and
    /// λ-integrated topics (whose denominators live per level).
    pub(super) denom_add: Vec<f64>,
    /// Word-indexed row: δ for `Fixed`, φ for `Frozen`, empty otherwise.
    pub(super) rows: Vec<&'a [f64]>,
    /// Concept membership masks (`ConceptSet` only, empty otherwise).
    pub(super) masks: Vec<&'a [bool]>,
    /// Flat λ-integration views, one per integrated topic.
    pub(super) ints: Vec<IntFlat<'a>>,
}

impl<'a> SweepTables<'a> {
    /// Flatten the priors.
    pub(crate) fn new(priors: &'a [TopicPrior]) -> Self {
        let t_count = priors.len();
        let mut tables = Self {
            kinds: Vec::with_capacity(t_count),
            add: vec![0.0; t_count],
            denom_add: vec![0.0; t_count],
            rows: vec![&[][..]; t_count],
            masks: vec![&[][..]; t_count],
            ints: Vec::new(),
        };
        let mut qr_base = 0usize;
        let mut n_f64 = 0u32;
        let mut n_mask = 0u32;
        for (t, prior) in priors.iter().enumerate() {
            let kind = match prior {
                TopicPrior::Symmetric { beta, denom_add } => {
                    tables.add[t] = *beta;
                    tables.denom_add[t] = *denom_add;
                    Kind::Symmetric
                }
                TopicPrior::Fixed { delta, sum } => {
                    tables.rows[t] = delta;
                    tables.denom_add[t] = *sum;
                    n_f64 += 1;
                    Kind::Fixed(n_f64 - 1)
                }
                TopicPrior::Integrated(table) => {
                    let idx = idx_u32(tables.ints.len());
                    tables.ints.push(IntFlat {
                        table,
                        qr_base,
                        levels: table.levels(),
                    });
                    qr_base += table.levels();
                    Kind::Integrated(idx)
                }
                TopicPrior::Frozen { phi } => {
                    tables.rows[t] = phi;
                    n_f64 += 1;
                    Kind::Frozen(n_f64 - 1)
                }
                TopicPrior::ConceptSet {
                    in_set,
                    beta,
                    denom_add,
                } => {
                    tables.add[t] = *beta;
                    tables.masks[t] = in_set;
                    tables.denom_add[t] = *denom_add;
                    n_mask += 1;
                    Kind::ConceptSet(n_mask - 1)
                }
            };
            tables.kinds.push(kind);
        }
        tables
    }

    /// Total topic count `T`.
    pub(crate) fn num_topics(&self) -> usize {
        self.kinds.len()
    }
}

/// The incrementally-maintained reciprocal cache (see the module docs for
/// the invariant). Shared with the sparse bucket kernel
/// ([`super::sparse`]), which derives its per-topic baseline masses from
/// the same cached values.
#[derive(Clone)]
pub(super) struct RecipCache {
    /// `1.0 / (n_t + denom_add[t])` per topic (1.0 for kinds without a
    /// count-dependent denominator).
    pub(super) recip: Vec<f64>,
    /// Per λ-integrated topic × level: `w_a * (1.0 / (n_t + Σδ_a))`,
    /// concatenated in `SweepTables::ints` order.
    pub(super) qr: Vec<f64>,
    /// Per λ-integrated topic: `S1 = Σ_a w_a * (1.0 / (n_t + Σδ_a))` (the
    /// `nw` coefficient of the factored Eq. 3 evaluation).
    pub(super) int_s1: Vec<f64>,
    /// Per λ-integrated topic: `S2` evaluated against the topic's shared
    /// off-support δ row (`dot_mod4(zero_row, qr)`), so off-support words
    /// — the vast majority at realistic V — cost O(1) instead of O(A).
    /// 0.0 (unused) when the topic's support is unknown.
    pub(super) int_s2_zero: Vec<f64>,
}

impl RecipCache {
    pub(super) fn new(tables: &SweepTables<'_>, counts: &CountMatrices) -> Self {
        let qr_len = tables.ints.iter().map(|f| f.levels).sum();
        let mut cache = Self {
            recip: vec![1.0; tables.num_topics()],
            qr: vec![0.0; qr_len],
            int_s1: vec![0.0; tables.ints.len()],
            int_s2_zero: vec![0.0; tables.ints.len()],
        };
        for t in 0..tables.num_topics() {
            cache.refresh(tables, t, counts.nt(t));
        }
        cache
    }

    /// Recompute topic `t`'s cached reciprocals from its current total
    /// `nt`. Always a from-scratch `1.0 / (nt + c)` — never incremental
    /// algebra — so cached values stay bit-equal to fresh ones.
    #[inline]
    pub(super) fn refresh(&mut self, tables: &SweepTables<'_>, t: usize, nt: u32) {
        let ntf = nt as f64;
        match tables.kinds[t] {
            Kind::Symmetric | Kind::Fixed(_) | Kind::ConceptSet(_) => {
                self.recip[t] = 1.0 / (ntf + tables.denom_add[t]);
            }
            Kind::Integrated(i) => {
                let f = &tables.ints[i as usize];
                let qr = &mut self.qr[f.qr_base..f.qr_base + f.levels];
                let mut s1 = 0.0;
                for ((slot, &q), &sum) in qr.iter_mut().zip(f.table.weights()).zip(f.table.sums()) {
                    let v = q * (1.0 / (ntf + sum));
                    *slot = v;
                    s1 += v;
                }
                self.int_s1[i as usize] = s1;
                if let Some(zero) = f.table.zero_row() {
                    self.int_s2_zero[i as usize] = dot_mod4(zero, qr);
                }
            }
            Kind::Frozen(_) => {}
        }
    }
}

/// Word-major combined channels: every per-word prior value re-laid-out so
/// one token's weight pass reads **contiguous** memory instead of one row
/// from each topic's own allocation (T scattered cache lines per token —
/// the dominant cost of the dense sweep at realistic T).
///
/// * `f64s[w*n_f64 + j]` — δ_w of the `j`-th `Fixed` topic / φ_w of the
///   `j`-th `Frozen` topic (one shared channel, ordinals assigned in topic
///   order);
/// * `masks[w*n_mask + j]` — concept membership of the `j`-th `ConceptSet`
///   topic;
/// * `ints[(w*n_int + j)*a .. +a]` — the δ row of the `j`-th λ-integrated
///   topic (uniform level count `a`), adjacent to topic `j+1`'s row.
///
/// Built once per fit from the priors (values copied verbatim, so
/// weights stay bit-identical) and shared by `Arc` between the shards of
/// a run. Every channel copies values that λ adaptation never touches —
/// δ rows, φ rows, masks, support membership (adapt re-weights the
/// quadrature only) — so the table stays valid for the whole fit. Skipped
/// — `None` in [`Kernel`] — when the integrated level counts are not
/// uniform or the copy would exceed [`MAX_COMBINED_BYTES`].
pub(crate) struct Combined {
    f64s: Vec<f64>,
    n_f64: usize,
    masks: Vec<bool>,
    n_mask: usize,
    ints: Vec<f64>,
    n_int: usize,
    a: usize,
    /// `int_off[w*n_int + j]`: word `w` is off-support for the `j`-th
    /// λ-integrated topic, i.e. its δ row equals the topic's zero row and
    /// the cached `S2_zero` applies (all `false` when support is unknown).
    int_off: Vec<bool>,
}

impl Combined {
    pub(crate) fn build(tables: &SweepTables<'_>, vocab_size: usize) -> Option<Self> {
        let n_int = tables.ints.len();
        let a = tables.ints.first().map_or(0, |f| f.levels);
        if tables.ints.iter().any(|f| f.levels != a) {
            return None; // mixed quadrature depths: keep per-table reads
        }
        let n_f64 = tables
            .kinds
            .iter()
            .filter(|k| matches!(k, Kind::Fixed(_) | Kind::Frozen(_)))
            .count();
        let n_mask = tables
            .kinds
            .iter()
            .filter(|k| matches!(k, Kind::ConceptSet(_)))
            .count();
        // Checked arithmetic throughout: at extreme V·T·A the naive product
        // wraps around and a table far past the budget would be "estimated"
        // small — overflow means the real size is astronomically over
        // budget, so it takes the same fallback as a too-big table.
        let bytes = n_f64
            .checked_mul(8)
            .and_then(|b| b.checked_add(n_mask))
            .and_then(|b| {
                let int_bytes = a.checked_mul(8)?.checked_add(1)?.checked_mul(n_int)?;
                b.checked_add(int_bytes)
            })
            .and_then(|per_word| per_word.checked_mul(vocab_size));
        match bytes {
            Some(b) if b <= MAX_COMBINED_BYTES => {}
            _ => return None,
        }
        let mut combined = Self {
            f64s: vec![0.0; vocab_size * n_f64],
            n_f64,
            masks: vec![false; vocab_size * n_mask],
            n_mask,
            ints: vec![0.0; vocab_size * n_int * a],
            n_int,
            a,
            int_off: vec![false; vocab_size * n_int],
        };
        for (t, kind) in tables.kinds.iter().enumerate() {
            match *kind {
                Kind::Symmetric => {}
                Kind::Fixed(j) | Kind::Frozen(j) => {
                    let row = tables.rows[t];
                    for (w, &value) in row.iter().enumerate().take(vocab_size) {
                        combined.f64s[w * n_f64 + j as usize] = value;
                    }
                }
                Kind::ConceptSet(j) => {
                    let mask = tables.masks[t];
                    for (w, &in_set) in mask.iter().enumerate().take(vocab_size) {
                        combined.masks[w * n_mask + j as usize] = in_set;
                    }
                }
                Kind::Integrated(j) => {
                    let table = tables.ints[j as usize].table;
                    let has_zero = table.zero_row().is_some();
                    for w in 0..vocab_size {
                        let dst = (w * n_int + j as usize) * a;
                        combined.ints[dst..dst + a].copy_from_slice(table.delta_row(w));
                        combined.int_off[w * n_int + j as usize] =
                            has_zero && table.is_off_support(w);
                    }
                }
            }
        }
        Some(combined)
    }
}

/// The flat kernel for one sweep: flat tables, the reciprocal cache, the
/// per-document factor array, and the prefix-sum buffer. Built per sweep
/// by [`KernelState::sweep`](super::KernelState::sweep), which lends it
/// the fit's [`Combined`] table.
pub(crate) struct Kernel<'a> {
    tables: SweepTables<'a>,
    /// Word-major combined prior channels (`None` on the fallback path —
    /// see [`Combined`]).
    combined: Option<&'a Combined>,
    recip: RecipCache,
    /// `n_dt as f64 + α` for the current document's topics; exactly `α`
    /// everywhere else.
    fact: Vec<f64>,
    /// The current document's `n_dt` mirror (kept in lock-step with the
    /// count matrices; avoids atomic loads in the weight pass).
    nd_doc: Vec<u32>,
    /// Topics of the current document (indices into `fact`/`nd_doc` to
    /// reset on document exit; may hold duplicates after mid-document
    /// zero crossings — the reset is idempotent).
    active: Vec<u32>,
    /// Inclusive prefix sums of the per-topic weights.
    buf: Vec<f64>,
    alpha: f64,
}

impl<'a> Kernel<'a> {
    /// Build the kernel for the given sweep context over the fit's
    /// `combined` table, deriving the reciprocal cache from the current
    /// counts and priors.
    pub(crate) fn new(ctx: &SweepContext<'a>, combined: Option<&'a Combined>) -> Self {
        let tables = SweepTables::new(ctx.priors);
        let recip = RecipCache::new(&tables, ctx.counts);
        let t_count = tables.num_topics();
        Self {
            tables,
            combined,
            recip,
            fact: vec![ctx.alpha; t_count],
            nd_doc: vec![0; t_count],
            active: Vec::new(),
            buf: vec![0.0; t_count],
            alpha: ctx.alpha,
        }
    }

    /// One full sweep over every token of every document. Draws exactly one
    /// uniform per token from `rng` (or one `gen_range` on the zero-weight
    /// fallback), matching the dense reference sweep's RNG stream.
    pub(crate) fn sweep(&mut self, ctx: &SweepContext<'_>, z: &mut [Vec<u32>], rng: &mut SldaRng) {
        let t_count = self.tables.num_topics();
        let counts = ctx.counts;
        let nt = counts.nt_all();
        for (d, doc_tokens) in ctx.tokens.iter().enumerate() {
            self.enter_doc(&z[d]);
            for (j, &word) in doc_tokens.iter().enumerate() {
                let w = word as usize;
                let old = z[d][j] as usize;
                counts.decrement_serial(w, d, old);
                self.nd_doc[old] -= 1;
                self.fact[old] = self.nd_doc[old] as f64 + self.alpha;
                self.recip
                    .refresh(&self.tables, old, nt[old].load(Ordering::Relaxed));

                let nw_row = counts.nw_row(w);
                let acc = match self.combined {
                    Some(comb) => weights_combined(
                        comb,
                        &self.tables,
                        &self.recip,
                        &self.fact,
                        &mut self.buf,
                        nw_row,
                        w,
                    ),
                    None => weights_scattered(
                        &self.tables,
                        &self.recip,
                        &self.fact,
                        &mut self.buf,
                        nw_row,
                        w,
                    ),
                };

                let new = if acc > 0.0 && acc.is_finite() {
                    let u = rng.gen::<f64>() * acc;
                    binary_search_cumulative(&self.buf, u)
                } else {
                    // Every topic has zero weight (possible under CTM when
                    // the word is outside all concept bags): fall back to a
                    // uniform topic so the chain stays well defined.
                    rng.gen_range(0..t_count)
                };
                z[d][j] = idx_u32(new);
                counts.increment_serial(w, d, new);
                if self.nd_doc[new] == 0 {
                    self.active.push(idx_u32(new));
                }
                self.nd_doc[new] += 1;
                self.fact[new] = self.nd_doc[new] as f64 + self.alpha;
                self.recip
                    .refresh(&self.tables, new, nt[new].load(Ordering::Relaxed));
            }
            self.leave_doc();
        }
    }

    /// Initialize `fact`/`nd_doc`/`active` for a document from its current
    /// assignments (`O(n_d)`, not `O(T)`).
    fn enter_doc(&mut self, z_doc: &[u32]) {
        for &t32 in z_doc {
            let t = t32 as usize;
            if self.nd_doc[t] == 0 {
                self.active.push(t32);
            }
            self.nd_doc[t] += 1;
        }
        for i in 0..self.active.len() {
            let t = self.active[i] as usize;
            self.fact[t] = self.nd_doc[t] as f64 + self.alpha;
        }
    }

    /// Reset the entries touched by the current document (idempotent over
    /// duplicate `active` entries).
    fn leave_doc(&mut self) {
        for i in 0..self.active.len() {
            let t = self.active[i] as usize;
            self.nd_doc[t] = 0;
            self.fact[t] = self.alpha;
        }
        self.active.clear();
    }
}

/// The weight pass over all topics for one token, reading per-word prior
/// values from the word-major [`Combined`] channels (contiguous loads).
/// Fills `buf` with inclusive prefix sums and returns the total.
#[inline]
fn weights_combined(
    comb: &Combined,
    tables: &SweepTables<'_>,
    recip: &RecipCache,
    fact: &[f64],
    buf: &mut [f64],
    nw_row: &[std::sync::atomic::AtomicU32],
    w: usize,
) -> f64 {
    let f_base = w * comb.n_f64;
    let m_base = w * comb.n_mask;
    let int_base = w * comb.n_int * comb.a;
    let a = comb.a;
    let t_count = tables.kinds.len();
    // One up-front shape check lets the compiler elide the per-topic bounds
    // checks inside the hot loop.
    assert!(
        tables.add.len() == t_count
            && recip.recip.len() == t_count
            && fact.len() == t_count
            && buf.len() == t_count
            && nw_row.len() == t_count
    );
    let int_rows = &comb.ints[int_base..int_base + comb.n_int * a];
    let qr_all = &recip.qr[..comb.n_int * a];
    // All-integrated fast path (the full Source-LDA model with no
    // unlabeled topics): walk the word's λ-row block and the qr cache as
    // aligned chunk iterators — no per-topic kind dispatch, no slice
    // bounds checks.
    let off_row = &comb.int_off[w * comb.n_int..(w + 1) * comb.n_int];
    if comb.n_int == t_count && a > 0 {
        assert!(recip.int_s1.len() == t_count && recip.int_s2_zero.len() == t_count);
        let mut acc = 0.0;
        for (t, (row, qr)) in int_rows
            .chunks_exact(a)
            .zip(qr_all.chunks_exact(a))
            .enumerate()
        {
            let nw = nw_row[t].load(Ordering::Relaxed) as f64;
            // Off-support rows equal the topic's zero row, whose S2 is
            // cached — the common case needs no per-level work at all.
            let s2 = if off_row[t] {
                recip.int_s2_zero[t]
            } else {
                dot_mod4(row, qr)
            };
            let weight = (nw * recip.int_s1[t] + s2) * fact[t];
            acc += weight;
            buf[t] = acc;
        }
        return acc;
    }
    let mut acc = 0.0;
    for (t, &kind) in tables.kinds.iter().enumerate() {
        let nw = nw_row[t].load(Ordering::Relaxed) as f64;
        let weight = match kind {
            Kind::Symmetric => (nw + tables.add[t]) * recip.recip[t],
            Kind::Fixed(j) => (nw + comb.f64s[f_base + j as usize]) * recip.recip[t],
            Kind::Integrated(j) => {
                // Uniform level count in combined mode: topic `j`'s qr row
                // sits at `j*a` (`IntFlat::qr_base` degenerates to that).
                let j = j as usize;
                let s2 = if off_row[j] {
                    recip.int_s2_zero[j]
                } else {
                    let row = &int_rows[j * a..(j + 1) * a];
                    let qr = &qr_all[j * a..(j + 1) * a];
                    dot_mod4(row, qr)
                };
                nw * recip.int_s1[j] + s2
            }
            Kind::Frozen(j) => comb.f64s[f_base + j as usize],
            Kind::ConceptSet(j) => {
                if comb.masks[m_base + j as usize] {
                    (nw + tables.add[t]) * recip.recip[t]
                } else {
                    0.0
                }
            }
        } * fact[t];
        acc += weight;
        buf[t] = acc;
    }
    acc
}

/// The same weight pass reading each prior's own storage — the fallback
/// when the combined table is unavailable (mixed quadrature depths or the
/// [`MAX_COMBINED_BYTES`] budget). Arithmetic is identical to
/// [`weights_combined`]; only the memory layout differs.
#[inline]
fn weights_scattered(
    tables: &SweepTables<'_>,
    recip: &RecipCache,
    fact: &[f64],
    buf: &mut [f64],
    nw_row: &[std::sync::atomic::AtomicU32],
    w: usize,
) -> f64 {
    let mut acc = 0.0;
    for (t, slot) in buf.iter_mut().enumerate() {
        let nw = nw_row[t].load(Ordering::Relaxed) as f64;
        acc += cached_weight(tables, recip, t, w, nw) * fact[t];
        *slot = acc;
    }
    acc
}

/// Topic `t`'s prior weight of word `w` at count `nw`, from the flat
/// tables and the reciprocal cache — bit-identical to
/// `TopicPrior::word_weight` at the cached topic total.
#[inline]
fn cached_weight(tables: &SweepTables<'_>, recip: &RecipCache, t: usize, w: usize, nw: f64) -> f64 {
    match tables.kinds[t] {
        Kind::Symmetric => (nw + tables.add[t]) * recip.recip[t],
        Kind::Fixed(_) => (nw + tables.rows[t][w]) * recip.recip[t],
        Kind::Integrated(j) => {
            let f = &tables.ints[j as usize];
            let s2 = if f.table.zero_row().is_some() && f.table.is_off_support(w) {
                recip.int_s2_zero[j as usize]
            } else {
                let row = f.table.delta_row(w);
                let qr = &recip.qr[f.qr_base..f.qr_base + f.levels];
                dot_mod4(row, qr)
            };
            nw * recip.int_s1[j as usize] + s2
        }
        Kind::Frozen(_) => tables.rows[t][w],
        Kind::ConceptSet(_) => {
            if tables.masks[t][w] {
                (nw + tables.add[t]) * recip.recip[t]
            } else {
                0.0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::CountMatrices;
    use proptest::prelude::*;
    use srclda_knowledge::{SmoothingFunction, SourceTopic};
    use srclda_math::{rng_from_seed, DiscretizedGaussian};

    /// One prior of every kind over a shared vocabulary.
    fn mixed_priors(v: usize, counts: &[f64], bag: &[u32], levels: usize) -> Vec<TopicPrior> {
        let topic = SourceTopic::new("T", counts.to_vec());
        let quad = DiscretizedGaussian::unit_interval(0.6, 0.25, levels).unwrap();
        let g = SmoothingFunction::identity();
        vec![
            TopicPrior::symmetric(0.37, v).unwrap(),
            TopicPrior::fixed_from_source(&topic, 0.01),
            TopicPrior::integrated(&topic, 0.01, &g, &quad),
            TopicPrior::frozen_from_source(&topic, 0.01),
            TopicPrior::concept_set(bag, 0.5, v).unwrap(),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The word-major combined channels and the scattered per-prior
        /// reads produce bit-identical prefix sums for every word.
        #[test]
        fn combined_weight_pass_matches_scattered(
            raw_counts in prop::collection::vec(0u32..200, 6..20),
            bag in prop::collection::vec(0u32..6, 1..6),
            levels in 2usize..6,
            nw_fills in prop::collection::vec(0u32..25, 5..6),
        ) {
            let counts: Vec<f64> = raw_counts.iter().map(|&c| c as f64).collect();
            let v = counts.len();
            let bag: Vec<u32> = bag.into_iter().filter(|&b| (b as usize) < v).collect();
            let priors = mixed_priors(v, &counts, &bag, levels);
            let tables = SweepTables::new(&priors);
            let comb = Combined::build(&tables, v).expect("within budget");
            let matrices = CountMatrices::new(v, priors.len(), &[32]);
            for (t, &n) in nw_fills.iter().enumerate() {
                for _ in 0..n {
                    matrices.increment_serial(t % v, 0, t);
                }
            }
            let cache = RecipCache::new(&tables, &matrices);
            let fact = vec![0.7; priors.len()];
            let mut buf_a = vec![0.0; priors.len()];
            let mut buf_b = vec![0.0; priors.len()];
            for w in 0..v {
                let nw_row = matrices.nw_row(w);
                let a = weights_combined(&comb, &tables, &cache, &fact, &mut buf_a, nw_row, w);
                let b = weights_scattered(&tables, &cache, &fact, &mut buf_b, nw_row, w);
                prop_assert_eq!(a.to_bits(), b.to_bits());
                for (x, y) in buf_a.iter().zip(&buf_b) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }

        /// The kernel's cached weight — flat tables plus a reciprocal
        /// cache refreshed from the live counts — equals
        /// `TopicPrior::word_weight` **bit for bit** at every word, across
        /// all five prior kinds and random counts, off-bag concept words
        /// and off-support λ-integrated words included: the contract that
        /// lets the kernel walk the dense sweep's exact chain.
        #[test]
        fn cached_reciprocals_match_fresh_evaluation(
            raw_counts in prop::collection::vec(0u32..200, 6..16),
            bag in prop::collection::vec(0u32..16, 0..8),
            levels in 2usize..6,
            move_words in prop::collection::vec(0usize..16, 1..8),
            move_sizes in prop::collection::vec(0u32..40, 1..8),
        ) {
            let counts: Vec<f64> = raw_counts.iter().map(|&c| c as f64).collect();
            let v = counts.len();
            let bag: Vec<u32> = bag.into_iter().filter(|&b| (b as usize) < v).collect();
            let priors = mixed_priors(v, &counts, &bag, levels);
            let tables = SweepTables::new(&priors);
            let matrices = CountMatrices::new(v, priors.len(), &[0]);
            let mut cache = RecipCache::new(&tables, &matrices);
            for (step, (&w_pick, &n)) in move_words.iter().zip(&move_sizes).enumerate() {
                // Assign `n` more tokens of one word to one topic, then
                // refresh that topic's cached reciprocals.
                let t = step % priors.len();
                for _ in 0..n {
                    matrices.increment_serial(w_pick % v, 0, t);
                }
                cache.refresh(&tables, t, matrices.nt(t));
                for w in 0..v {
                    for (t, prior) in priors.iter().enumerate() {
                        let nw = matrices.nw(w, t) as f64;
                        let cached = cached_weight(&tables, &cache, t, w, nw);
                        let fresh = prior.word_weight(w, nw, matrices.nt(t) as f64);
                        prop_assert!(
                            cached.to_bits() == fresh.to_bits(),
                            "word {} topic {}: cached {} vs fresh {}", w, t, cached, fresh
                        );
                    }
                }
            }
        }
    }

    /// The combined-table byte estimate must fall back (`None`) both just
    /// past the budget and — the regression this pins — when `V ·
    /// bytes_per_word` overflows `usize` entirely. Before the checked
    /// arithmetic, `(1 << 61) + 1` words × 8 bytes wrapped around to 8,
    /// sailed under the 512MB budget, and the build attempted an
    /// exbibyte-scale allocation.
    #[test]
    fn combined_budget_check_survives_byte_overflow() {
        let topic = SourceTopic::new("T", vec![4.0, 2.0, 1.0, 0.0]);
        let priors = vec![TopicPrior::fixed_from_source(&topic, 0.01)];
        let tables = SweepTables::new(&priors);
        // One Fixed topic → 8 bytes per word. In-budget builds are covered
        // by the proptests above at small V; building a 512MB table here
        // just to probe the boundary from below isn't worth the allocation.
        assert!(Combined::build(&tables, MAX_COMBINED_BYTES / 8 + 1).is_none());
        // 8 * ((1 << 61) + 1) ≡ 8 (mod 2^64): the unchecked estimate wraps
        // below the budget.
        assert!(Combined::build(&tables, (1usize << 61) + 1).is_none());
        assert!(Combined::build(&tables, usize::MAX).is_none());
    }

    /// Mixed-prior fixture shared with the chain-equivalence test.
    fn fixture() -> (Vec<Vec<u32>>, Vec<TopicPrior>) {
        let tokens = vec![
            vec![0, 1, 2, 0, 3, 4],
            vec![4, 5, 4, 1],
            vec![2, 2, 3, 5, 0, 1, 5],
        ];
        let t0 = SourceTopic::new("A", vec![5.0, 3.0, 0.0, 0.0, 1.0, 0.0]);
        let t1 = SourceTopic::new("B", vec![0.0, 0.0, 4.0, 4.0, 0.0, 2.0]);
        let quad = DiscretizedGaussian::unit_interval(0.7, 0.3, 4).unwrap();
        let g = SmoothingFunction::identity();
        let priors = vec![
            TopicPrior::symmetric(0.1, 6).unwrap(),
            TopicPrior::fixed_from_source(&t0, 0.01),
            TopicPrior::integrated(&t1, 0.01, &g, &quad),
            TopicPrior::frozen_from_source(&t0, 0.01),
            TopicPrior::concept_set(&[0, 1, 2, 3], 0.5, 6).unwrap(),
        ];
        (tokens, priors)
    }

    /// Same seed → the kernel sweep and the dense reference sweep walk the
    /// identical `z` trajectory over a fixture mixing all five prior kinds,
    /// with the word-major combined table and without it.
    #[test]
    fn kernel_chain_matches_dense_reference() {
        let (tokens, priors) = fixture();
        let combined = Combined::build(&SweepTables::new(&priors), 6).expect("within budget");
        // `None` sweeps the dense reference, `Some(table)` the kernel.
        let run = |kernel: Option<Option<&Combined>>| -> Vec<Vec<u32>> {
            let doc_lens: Vec<u32> = tokens.iter().map(|d| d.len() as u32).collect();
            let counts = CountMatrices::new(6, priors.len(), &doc_lens);
            let mut rng = rng_from_seed(2024);
            let mut z: Vec<Vec<u32>> = tokens
                .iter()
                .enumerate()
                .map(|(d, doc)| {
                    doc.iter()
                        .map(|&w| {
                            let t = rng.gen_range(0..priors.len());
                            counts.increment(w as usize, d, t);
                            t as u32
                        })
                        .collect()
                })
                .collect();
            let ctx = SweepContext {
                tokens: &tokens,
                counts: &counts,
                priors: &priors,
                alpha: 0.4,
            };
            if let Some(table) = kernel {
                let mut k = Kernel::new(&ctx, table);
                for _ in 0..40 {
                    k.sweep(&ctx, &mut z, &mut rng);
                    assert!(counts.check_invariants());
                }
            } else {
                let mut buf = vec![0.0; priors.len()];
                for _ in 0..40 {
                    super::super::serial::sweep(&ctx, &mut z, &mut rng, &mut buf);
                }
            }
            z
        };
        let dense = run(None);
        assert_eq!(
            run(Some(Some(&combined))),
            dense,
            "combined-table kernel diverged"
        );
        assert_eq!(run(Some(None)), dense, "scattered-read kernel diverged");
    }

    /// The zero-weight fallback (all-concept priors covering no word) stays
    /// on the dense sweep's RNG stream.
    #[test]
    fn zero_weight_fallback_matches_dense_reference() {
        let run = |kernel: bool| -> Vec<Vec<u32>> {
            let tokens = vec![vec![0, 1, 0]];
            let priors = vec![
                TopicPrior::concept_set(&[], 0.5, 2).unwrap(),
                TopicPrior::concept_set(&[], 0.5, 2).unwrap(),
            ];
            let counts = CountMatrices::new(2, 2, &[3]);
            let mut rng = rng_from_seed(5);
            let mut z: Vec<Vec<u32>> = vec![tokens[0]
                .iter()
                .map(|&w| {
                    let t = rng.gen_range(0..2);
                    counts.increment(w as usize, 0, t);
                    t as u32
                })
                .collect()];
            let ctx = SweepContext {
                tokens: &tokens,
                counts: &counts,
                priors: &priors,
                alpha: 0.5,
            };
            if kernel {
                let mut k = Kernel::new(&ctx, None);
                for _ in 0..6 {
                    k.sweep(&ctx, &mut z, &mut rng);
                }
            } else {
                let mut buf = vec![0.0; 2];
                for _ in 0..6 {
                    super::super::serial::sweep(&ctx, &mut z, &mut rng, &mut buf);
                }
            }
            z
        };
        assert_eq!(run(true), run(false));
    }
}
