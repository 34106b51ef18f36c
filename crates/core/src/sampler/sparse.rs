//! The sub-linear **bucket** Gibbs kernel
//! ([`KernelKind::Sparse`](crate::sampler::KernelKind::Sparse), in place
//! as `ShardedDocs { kernel: Sparse, shards: 1, .. }` or per shard):
//! a SparseLDA-style (Yao, Mimno & McCallum, KDD'09) decomposition of the
//! per-token sampling weight, generalized to every prior kind of the
//! Source-LDA family.
//!
//! ## The decomposition
//!
//! The serial kernel evaluates, per (token, topic),
//! `weight(t) = word_weight(w, n_wt, n_t) · (n_dt + α)` — O(T) per token.
//! Every prior kind factors its word weight as
//!
//! ```text
//! word_weight(w, nw, nt) = base0(t) + dev_w(t) + nw · coef_w(t)
//! ```
//!
//! where `base0(t)` is a **word-independent baseline** (the weight of a
//! generic zero-count word), `dev_w(t)` is non-zero only for the few words
//! that deviate from the baseline (a source topic's support), and the `nw`
//! term is non-zero only where the word is currently assigned. Distributing
//! the document factor `(n_dt + α) = α + n_dt` splits the total mass into
//! three buckets:
//!
//! ```text
//! s = α · Σ_t base0(t)                   smoothing bucket — cached scalar
//! r = Σ_{t: n_dt>0} n_dt · base0(t)      doc bucket — cached scalar
//! q = Σ_t (dev_w(t) + nw·coef_w(t)) · (n_dt + α)   word bucket — computed
//! ```
//!
//! `s` and `r` are patched for only the (at most two) topics whose counts a
//! token move changes; `q` walks the word's **deviation list** (support
//! membership, built once per model) and its **non-zero assignment list**
//! (maintained incrementally, sorted by topic). Per-token cost is
//! O(k_w + k_d) instead of O(T).
//!
//! Per kind, the baseline is chosen so every `dev_w` is **non-negative**
//! (the q-bucket cumulative stays monotone):
//!
//! | kind       | `base0(t)`          | deviating words  | `coef_w(t)`       |
//! |------------|---------------------|------------------|-------------------|
//! | Symmetric  | `β·r_t`             | none             | `r_t`             |
//! | Fixed      | `δ_min·r_t`         | `δ_w ≠ δ_min`    | `r_t`             |
//! | Integrated | `S2(floor_t)`       | `δ-row ≠ floor`  | `S1(t)`           |
//! | Frozen     | `φ_min`             | `φ_w ≠ φ_min`    | 0                 |
//! | ConceptSet | 0                   | concept bag      | `r_t` in-set, else 0 |
//!
//! (`r_t` and `S1` are the serial kernel's cached reciprocals —
//! `RecipCache` is shared verbatim; `floor_t` is the per-level
//! element-wise minimum over every word's δ row, so in the normal regime
//! it *is* the shared off-support row and the deviating words are exactly
//! the source support.) Baselines are **min-valued by construction**, so
//! `dev_w ≥ 0` always. They are derived from row values, never from which
//! words a table stores on its support, so two tables that give every word
//! the same δ row build the same floors, deviating words and demotions. A
//! λ-integrated topic where most words deviate from the floor
//! (pathological δ structure) is demoted to a **dense topic**: its full
//! weight is evaluated in the q bucket for every token — correct, just not
//! sub-linear for that topic.
//!
//! ## Equivalence contract: distribution-level, not bit-level
//!
//! The bucket walk re-associates the same per-topic masses in a different
//! order than the dense prefix sum, and routes the single per-token uniform
//! through bucket thresholds, so the chain is **not** bit-equal to
//! `Backend::Serial` — it is a different, equally valid sampler of the same
//! conditional distribution. The contract is therefore:
//!
//! * per-token bucket mass ≡ dense total mass (property-tested per prior
//!   kind to 1e-9 relative, below);
//! * held-out perplexity parity with `Backend::Serial` within a relative
//!   band (`tests/kernel_equivalence.rs`);
//! * full determinism: the chain is a pure function of the seed, and chunk
//!   boundaries (λ-adaptation, checkpoints) never perturb it — `r` is
//!   rebuilt per document; the reciprocals, the baselines and `s` per
//!   sweep, each refresh recomputed from scratch so a derived value is
//!   bit-identical to a maintained one; and the non-zero lists are kept
//!   sorted so an incrementally-maintained list is bit-identical to one
//!   rebuilt from the counts.

use super::kernel::{Kind, RecipCache, SweepTables};
use super::{idx_u32, SweepContext};
use crate::counts::CountMatrices;
use crate::prior::dot_mod4;
use rand::Rng;
use srclda_math::categorical::binary_search_cumulative;
use srclda_math::SldaRng;
use std::cell::Cell;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// The sparse kernel's count-free bucket structure: the per-word
/// deviation lists, the baselines' parameters and floors, and the dense
/// demotions. These are functions of the priors alone, and λ-adaptation
/// leaves them untouched (it re-weights the quadrature, not the δ rows).
/// [`SparseState::build`] builds it once per fit, and every shard's
/// [`SparseState`] shares it by `Arc`.
pub(crate) struct SparseShape {
    /// Per-word `(topic, row)` lists of the topics whose baseline the
    /// word deviates from, sorted by topic. `row` indexes a λ-integrated
    /// topic's δ rows ([`IntegrationTable::row`]) and is 0 for the other
    /// kinds, which index by word.
    ///
    /// [`IntegrationTable::row`]: crate::prior::IntegrationTable::row
    exc: Vec<Vec<(u32, u32)>>,
    /// Topics whose full weight must be evaluated per token (λ-integrated
    /// topics without a usable off-support baseline). Sorted.
    dense_topics: Vec<u32>,
    /// O(1) membership mirror of `dense_topics`.
    dense_flag: Vec<bool>,
    /// Per-topic baseline parameter: `δ_min` (Fixed), `φ_min` (Frozen),
    /// 0.0 otherwise.
    base_param: Vec<f64>,
    /// Per *integrated* topic (indexed like `SweepTables::ints`): the
    /// per-level element-wise floor of every word's δ row — the baseline
    /// the bucket decomposition subtracts. Empty for dense-demoted topics.
    int_floor: Vec<Vec<f64>>,
}

impl SparseShape {
    /// Build from the flattened priors over a vocabulary of `v` words.
    pub(crate) fn build(tables: &SweepTables<'_>, v: usize) -> Self {
        let t_count = tables.num_topics();
        let mut shape = Self {
            exc: vec![Vec::new(); v],
            dense_topics: Vec::new(),
            dense_flag: vec![false; t_count],
            base_param: vec![0.0; t_count],
            int_floor: vec![Vec::new(); tables.ints.len()],
        };
        for t in 0..t_count {
            match tables.kinds[t] {
                Kind::Symmetric => {}
                Kind::Fixed(_) | Kind::Frozen(_) => {
                    let row = &tables.rows[t][..v];
                    let min = row.iter().cloned().fold(f64::INFINITY, f64::min);
                    shape.base_param[t] = if min.is_finite() { min } else { 0.0 };
                    for (w, &x) in row.iter().enumerate() {
                        if x != shape.base_param[t] {
                            shape.exc[w].push((idx_u32(t), 0));
                        }
                    }
                }
                Kind::ConceptSet(_) => {
                    for (w, &in_set) in tables.masks[t].iter().enumerate().take(v) {
                        if in_set {
                            shape.exc[w].push((idx_u32(t), 0));
                        }
                    }
                }
                Kind::Integrated(i) => {
                    // Baseline: the per-level element-wise floor of every
                    // word's δ row — the support's rows, and the shared
                    // off-support row when some word reads it. The floor
                    // guarantees every `dev_w = S2_w − S2_floor ≥ 0`,
                    // keeping the q-bucket cumulative monotone.
                    let table = tables.ints[i as usize].table;
                    let off = table.support().len();
                    let mut rows = (0..off).chain((off < v).then_some(off));
                    let Some(first) = rows.next() else {
                        continue; // an empty vocabulary
                    };
                    let mut floor = table.row(first).to_vec();
                    for r in rows {
                        for (f, &x) in floor.iter_mut().zip(table.row(r)) {
                            if x < *f {
                                *f = x;
                            }
                        }
                    }
                    let deviates =
                        |r: usize| table.row(r).iter().zip(&floor).any(|(&x, &f)| x != f);
                    // The support words that deviate, then the off-support
                    // words counted in one step: they all read row `off`.
                    let mut deviating: Vec<(usize, usize)> = (0..off)
                        .filter(|&r| deviates(r))
                        .map(|r| (table.support()[r] as usize, r))
                        .collect();
                    let off_words = if deviates(off) { v - off } else { 0 };
                    // In the healthy regime the floor is the shared
                    // off-support row and only the support deviates. If
                    // most words deviate (pathological δ structure), the
                    // exc walk would cost O(V) per token — demote the
                    // topic to per-token dense evaluation instead.
                    if (deviating.len() + off_words) * 2 > v {
                        shape.dense_topics.push(idx_u32(t));
                        shape.dense_flag[t] = true;
                    } else {
                        if off_words > 0 {
                            // A deviating shared row with at most V/2
                            // readers: the support covers ≥ V/2 words, so
                            // walking every word stays support-sized.
                            deviating = table
                                .row_indices()
                                .enumerate()
                                .filter(|&(_, r)| deviates(r))
                                .collect();
                        }
                        for &(w, r) in &deviating {
                            shape.exc[w].push((idx_u32(t), idx_u32(r)));
                        }
                        shape.int_floor[i as usize] = floor;
                    }
                }
            }
        }
        shape
    }
}

/// The sparse kernel's state that outlives one sweep: the shared
/// count-free [`SparseShape`] and the per-word sorted non-zero assignment
/// lists, the one count-dependent structure whose O(V·T) rebuild a sweep
/// should not pay. [`KernelState`](super::KernelState) builds it once per
/// fit from the counts and lends it to each sweep's [`SparseKernel`],
/// which keeps the lists in lock-step with the counts it moves. At
/// `S > 1` a shard's merge refresh keeps them in step with the cells other
/// shards moved ([`Self::track`]). A clone shares the shape and copies the
/// lists.
#[derive(Clone)]
pub(crate) struct SparseState {
    shape: Arc<SparseShape>,
    /// Per-word sorted topic lists where `n_wt > 0` (incrementally
    /// maintained; rebuild from counts is bit-identical by sortedness).
    nz: Vec<Vec<u32>>,
}

impl SparseState {
    /// Build the shape from `ctx`'s priors and the non-zero lists from its
    /// counts.
    pub(crate) fn build(ctx: &SweepContext<'_>) -> Self {
        Self {
            shape: Arc::new(SparseShape::build(
                &SweepTables::new(ctx.priors),
                ctx.counts.vocab_size(),
            )),
            nz: nonzero_lists(ctx.counts),
        }
    }

    /// Whether the non-zero lists equal a rebuild from `counts`.
    pub(crate) fn lists_match(&self, counts: &CountMatrices) -> bool {
        self.nz == nonzero_lists(counts)
    }

    /// Keep word `w`'s list in step with its `n_wt` cell, which went from
    /// `before` to `after`.
    #[inline]
    pub(crate) fn track(&mut self, w: usize, t: usize, before: u32, after: u32) {
        match (before, after) {
            (0, 1..) => self.nz_insert(w, t),
            (1.., 0) => self.nz_remove(w, t),
            _ => {}
        }
    }

    #[inline]
    fn nz_insert(&mut self, w: usize, t: usize) {
        let list = &mut self.nz[w];
        let pos = list.partition_point(|&x| (x as usize) < t);
        list.insert(pos, idx_u32(t));
    }

    #[inline]
    fn nz_remove(&mut self, w: usize, t: usize) {
        let list = &mut self.nz[w];
        let pos = list.partition_point(|&x| (x as usize) < t);
        debug_assert!(pos < list.len() && list[pos] as usize == t);
        list.remove(pos);
    }
}

/// Per word, the sorted topics whose `n_wt` is non-zero.
fn nonzero_lists(counts: &CountMatrices) -> Vec<Vec<u32>> {
    (0..counts.vocab_size())
        .map(|w| {
            let row = counts.nw_row(w).iter().map(|c| c.load(Ordering::Relaxed));
            row.enumerate()
                .filter(|&(_, n)| n > 0)
                .map(|(t, _)| idx_u32(t))
                .collect()
        })
        .collect()
}

/// The bucket kernel for one sweep. Mirrors the flat
/// [`Kernel`](super::kernel::Kernel) lifecycle: built per sweep by
/// [`KernelState::sweep`](super::KernelState::sweep), which lends it the
/// fit's [`SparseState`]. The reciprocal cache and the baselines are
/// derived at sweep start from the counts and the current priors, so a
/// λ-adaptation between sweeps leaves nothing stale.
pub(crate) struct SparseKernel<'a> {
    tables: SweepTables<'a>,
    /// The fit's deviation and non-zero lists (see [`SparseState`]).
    state: &'a mut SparseState,
    /// The flat kernel's reciprocal cache (denominator reciprocals and,
    /// for λ-integrated topics, the per-level quadrature products) at the
    /// current counts, refreshed per token.
    recip: RecipCache,
    /// `base0(t)` — the per-topic minimum word weight the bucket
    /// decomposition subtracts — at the current counts and quadrature
    /// weights. Refreshed in lock-step with `recip`.
    base0: Vec<f64>,
    /// Cached smoothing-bucket mass `α · Σ_t base0(t)`; patched per token,
    /// rebuilt at every sweep start to cap float drift (sweeps are the
    /// chunking unit, so the rebuild schedule is chunk-invariant).
    s: f64,
    /// Cached doc-bucket mass `Σ_{active} n_dt · base0(t)`; patched per
    /// token, rebuilt on document entry.
    r: f64,
    /// `n_dt as f64 + α` per topic (α everywhere outside the current doc).
    fact: Vec<f64>,
    /// The current document's `n_dt`: counted from its assignments on
    /// entry, moved with each token, zeroed on exit.
    nd_doc: Vec<u32>,
    /// Unique topics of the current document (uniqueness via `in_active`,
    /// so the doc-bucket walk never double-counts).
    active: Vec<u32>,
    in_active: Vec<bool>,
    /// Scratch: q-bucket term topics and inclusive cumulative masses.
    term_topic: Vec<u32>,
    term_cum: Vec<f64>,
    alpha: f64,
    /// Bucket-routing tallies for the sweep in progress — telemetry only,
    /// snapshotted by [`Self::take_bucket_counts`]. `Cell` because
    /// [`Self::select`] routes draws through `&self`.
    tally_q: Cell<u64>,
    tally_r: Cell<u64>,
    tally_s: Cell<u64>,
    tally_fallback: Cell<u64>,
}

impl<'a> SparseKernel<'a> {
    /// Build the kernel over the fit's `state`, deriving the reciprocal
    /// cache and the baselines from `ctx`'s counts and priors. The
    /// non-zero lists are taken as lent: the previous sweep kept them in
    /// lock-step with the counts, or a shard's merge refresh did (the
    /// sweep driver debug-asserts both at every sweep boundary).
    pub(crate) fn new(ctx: &SweepContext<'a>, state: &'a mut SparseState) -> Self {
        let tables = SweepTables::new(ctx.priors);
        let recip = RecipCache::new(&tables, ctx.counts);
        let t_count = tables.num_topics();
        let mut kernel = Self {
            tables,
            state,
            recip,
            base0: Vec::new(),
            s: 0.0,
            r: 0.0,
            fact: vec![ctx.alpha; t_count],
            nd_doc: vec![0; t_count],
            active: Vec::new(),
            in_active: vec![false; t_count],
            term_topic: Vec::new(),
            term_cum: Vec::new(),
            alpha: ctx.alpha,
            tally_q: Cell::new(0),
            tally_r: Cell::new(0),
            tally_s: Cell::new(0),
            tally_fallback: Cell::new(0),
        };
        kernel.base0 = (0..t_count).map(|t| kernel.compute_base0(t)).collect();
        kernel
    }

    /// `base0(t)` from the current reciprocal cache (see the kind table in
    /// the module docs).
    #[inline]
    fn compute_base0(&self, t: usize) -> f64 {
        let shape = &self.state.shape;
        match self.tables.kinds[t] {
            Kind::Symmetric => self.tables.add[t] * self.recip.recip[t],
            Kind::Fixed(_) => shape.base_param[t] * self.recip.recip[t],
            Kind::Integrated(i) => {
                if shape.dense_flag[t] {
                    0.0
                } else {
                    // S2 at the floor row, under the current quadrature
                    // weights (A is a handful of levels — recomputing the
                    // dot at each refresh is cheaper than caching it).
                    let f = &self.tables.ints[i as usize];
                    let qr = &self.recip.qr[f.qr_base..f.qr_base + f.levels];
                    dot_mod4(&shape.int_floor[i as usize], qr)
                }
            }
            Kind::Frozen(_) => shape.base_param[t],
            Kind::ConceptSet(_) => 0.0,
        }
    }

    /// Refresh topic `t`'s reciprocal row for the given topic total, then
    /// re-derive its baseline.
    #[inline]
    fn refresh_topic(&mut self, t: usize, nt: u32) {
        self.recip.refresh(&self.tables, t, nt);
        self.base0[t] = self.compute_base0(t);
    }

    /// Snapshot and reset the bucket-routing tallies accumulated since the
    /// last call (one sweep's worth).
    pub(crate) fn take_bucket_counts(&mut self) -> srclda_obs::SparseBucketCounts {
        srclda_obs::SparseBucketCounts {
            q_hits: self.tally_q.take(),
            r_hits: self.tally_r.take(),
            s_hits: self.tally_s.take(),
            dense_fallbacks: self.tally_fallback.take(),
        }
    }

    /// `dev_w(t)` for a topic on word `w`'s deviation list, whose entry
    /// carries the δ row index `row` of a λ-integrated topic. Non-negative
    /// by baseline construction; the integrated case clamps the last-ulp
    /// cancellation residue.
    #[inline]
    fn dev_at(&self, t: usize, w: usize, row: usize) -> f64 {
        match self.tables.kinds[t] {
            Kind::Symmetric => 0.0,
            Kind::Fixed(_) => {
                (self.tables.rows[t][w] - self.state.shape.base_param[t]) * self.recip.recip[t]
            }
            Kind::Integrated(i) => {
                let f = &self.tables.ints[i as usize];
                let qr = &self.recip.qr[f.qr_base..f.qr_base + f.levels];
                // `base0[t]` holds S2 at the floor row for the current
                // quadrature; each term of the dot dominates its floor
                // counterpart, so the difference is non-negative up to
                // last-ulp cancellation (clamped).
                (dot_mod4(f.table.row(row), qr) - self.base0[t]).max(0.0)
            }
            Kind::Frozen(_) => self.tables.rows[t][w] - self.state.shape.base_param[t],
            Kind::ConceptSet(_) => self.tables.add[t] * self.recip.recip[t],
        }
    }

    /// Rebuild the smoothing-bucket mass from scratch.
    fn rebuild_s(&mut self) {
        self.s = self.base0.iter().map(|&b| self.alpha * b).sum();
    }

    /// Remove topic `t`'s contribution from the cached bucket masses (call
    /// before its counts/cache change), using the same values that were
    /// added.
    #[inline]
    fn unplug(&mut self, t: usize) {
        self.s -= self.alpha * self.base0[t];
        self.r -= self.nd_doc[t] as f64 * self.base0[t];
    }

    /// Re-add topic `t`'s contribution after its counts/cache changed.
    #[inline]
    fn replug(&mut self, t: usize) {
        self.s += self.alpha * self.base0[t];
        self.r += self.nd_doc[t] as f64 * self.base0[t];
    }

    /// Assemble the q bucket for word `w`: deviation terms, dense-topic
    /// terms, then non-zero count terms, each as (topic, inclusive
    /// cumulative mass) in `term_topic`/`term_cum`. Returns the bucket
    /// total.
    #[inline]
    fn word_bucket(&mut self, counts: &CountMatrices, w: usize) -> f64 {
        self.term_topic.clear();
        self.term_cum.clear();
        let mut q = 0.0;
        for &(t32, row) in &self.state.shape.exc[w] {
            let t = t32 as usize;
            let nw = counts.nw(w, t) as f64;
            let mass = (self.dev_at(t, w, row as usize)
                + if nw > 0.0 {
                    // Fold the nw term in here so the nz walk below can
                    // skip deviating topics entirely (no double count).
                    nw * self.coef_at(t, w)
                } else {
                    0.0
                })
                * self.fact[t];
            if mass > 0.0 {
                q += mass;
                self.term_topic.push(t32);
                self.term_cum.push(q);
            }
        }
        for &t32 in &self.state.shape.dense_topics {
            let t = t32 as usize;
            let Kind::Integrated(i) = self.tables.kinds[t] else {
                continue;
            };
            let f = &self.tables.ints[i as usize];
            let qr = &self.recip.qr[f.qr_base..f.qr_base + f.levels];
            let nw = counts.nw(w, t) as f64;
            let mass = (nw * self.recip.int_s1[i as usize] + dot_mod4(f.table.delta_row(w), qr))
                * self.fact[t];
            if mass > 0.0 {
                q += mass;
                self.term_topic.push(t32);
                self.term_cum.push(q);
            }
        }
        // Safe to index `exc[w]` by sorted merge instead of a contains()
        // scan: both lists are sorted ascending.
        let exc = &self.state.shape.exc[w];
        let mut e = 0usize;
        for &t32 in &self.state.nz[w] {
            while e < exc.len() && exc[e].0 < t32 {
                e += 1;
            }
            if e < exc.len() && exc[e].0 == t32 {
                continue; // already counted in the deviation walk
            }
            let t = t32 as usize;
            if self.state.shape.dense_flag[t] {
                continue; // full weight already in the dense walk
            }
            let coef = self.coef_at(t, w);
            if coef <= 0.0 {
                continue;
            }
            let mass = counts.nw(w, t) as f64 * coef * self.fact[t];
            if mass > 0.0 {
                q += mass;
                self.term_topic.push(t32);
                self.term_cum.push(q);
            }
        }
        q
    }

    /// The `nw` coefficient of topic `t` on word `w` (see the kind table).
    #[inline]
    fn coef_at(&self, t: usize, w: usize) -> f64 {
        match self.tables.kinds[t] {
            Kind::Symmetric | Kind::Fixed(_) => self.recip.recip[t],
            Kind::Integrated(i) => self.recip.int_s1[i as usize],
            Kind::Frozen(_) => 0.0,
            Kind::ConceptSet(_) => {
                if self.tables.masks[t][w] {
                    self.recip.recip[t]
                } else {
                    0.0
                }
            }
        }
    }

    /// One full sweep. Draws exactly one uniform per token (or one
    /// `gen_range` on the zero-mass fallback) — the same *count* as the
    /// dense kernels, though the values route through bucket thresholds,
    /// so the chain is distribution-equivalent rather than bit-equal.
    pub(crate) fn sweep(&mut self, ctx: &SweepContext<'_>, z: &mut [Vec<u32>], rng: &mut SldaRng) {
        let t_count = self.tables.num_topics();
        let counts = ctx.counts;
        let nt = counts.nt_all();
        self.rebuild_s();
        for (d, doc_tokens) in ctx.tokens.iter().enumerate() {
            self.enter_doc(&z[d]);
            for (j, &word) in doc_tokens.iter().enumerate() {
                let w = word as usize;
                let old = z[d][j] as usize;
                self.unplug(old);
                counts.decrement(w, old);
                self.nd_doc[old] -= 1;
                self.fact[old] = self.nd_doc[old] as f64 + self.alpha;
                if counts.nw(w, old) == 0 {
                    self.state.nz_remove(w, old);
                }
                self.refresh_topic(old, nt[old].load(Ordering::Relaxed));
                self.replug(old);

                let q = self.word_bucket(counts, w);
                // Patched scalars can drift a few ulps negative; clamp at
                // the draw, never in the cache (the patches must stay
                // symmetric with what was added).
                let r = self.r.max(0.0);
                let s = self.s.max(0.0);
                let total = q + r + s;
                let new = if total > 0.0 && total.is_finite() {
                    let u = rng.gen::<f64>() * total;
                    self.select(u, q, r)
                } else {
                    // All-zero mass (e.g. CTM with the word outside every
                    // concept bag and no assignments anywhere): uniform,
                    // like the dense kernels.
                    self.tally_fallback.set(self.tally_fallback.get() + 1);
                    rng.gen_range(0..t_count)
                };
                z[d][j] = idx_u32(new);

                self.unplug(new);
                counts.increment(w, new);
                if counts.nw(w, new) == 1 {
                    self.state.nz_insert(w, new);
                }
                if !self.in_active[new] {
                    self.in_active[new] = true;
                    self.active.push(idx_u32(new));
                }
                self.nd_doc[new] += 1;
                self.fact[new] = self.nd_doc[new] as f64 + self.alpha;
                self.refresh_topic(new, nt[new].load(Ordering::Relaxed));
                self.replug(new);
            }
            self.leave_doc();
        }
    }

    /// Route the scaled uniform `u ∈ [0, q+r+s)` to its bucket and invert
    /// that bucket's cumulative. Bucket order q, r, s — largest mass first
    /// in the common regime.
    #[inline]
    fn select(&self, u: f64, q: f64, r: f64) -> usize {
        if u < q {
            let idx = binary_search_cumulative(&self.term_cum, u);
            self.tally_q.set(self.tally_q.get() + 1);
            return self.term_topic[idx] as usize;
        }
        let mut fallback = None;
        let routed_to_doc = u < q + r;
        if routed_to_doc {
            // Doc bucket: walk the document's unique topics.
            let target = u - q;
            let mut acc = 0.0;
            for &t in &self.active {
                let t = t as usize;
                let mass = self.nd_doc[t] as f64 * self.base0[t];
                if mass > 0.0 {
                    acc += mass;
                    fallback = Some(t);
                    if acc > target {
                        self.tally_r.set(self.tally_r.get() + 1);
                        return t;
                    }
                }
            }
            // Drift overrun: the patched r exceeded the exact walk total
            // by a few ulps. Fall through to the smoothing walk.
        }
        // Smoothing bucket: walk all topics over α·base0.
        let target = (u - q - r).max(0.0);
        let mut acc = 0.0;
        for (t, &b) in self.base0.iter().enumerate() {
            let mass = self.alpha * b;
            if mass > 0.0 {
                acc += mass;
                fallback = Some(t);
                if acc > target {
                    // A draw that *entered* the doc bucket and overran into
                    // this walk resolved off its routed bucket — count it as
                    // a fallback, not a smoothing hit.
                    if routed_to_doc {
                        self.tally_fallback.set(self.tally_fallback.get() + 1);
                    } else {
                        self.tally_s.set(self.tally_s.get() + 1);
                    }
                    return t;
                }
            }
        }
        // Total drift overrun: return the last positive-mass topic seen.
        // Reachable only when the cached s/r exceed their exact sums by
        // ulps; a branch must still produce a valid topic.
        self.tally_fallback.set(self.tally_fallback.get() + 1);
        fallback.unwrap_or(0)
    }

    /// Initialize doc state and the doc-bucket mass from the document's
    /// assignments (O(n_d)); `r` is rebuilt exactly here, killing any
    /// drift accumulated in the previous document.
    fn enter_doc(&mut self, z_doc: &[u32]) {
        for &t32 in z_doc {
            let t = t32 as usize;
            if !self.in_active[t] {
                self.in_active[t] = true;
                self.active.push(t32);
            }
            self.nd_doc[t] += 1;
        }
        self.r = 0.0;
        for i in 0..self.active.len() {
            let t = self.active[i] as usize;
            self.fact[t] = self.nd_doc[t] as f64 + self.alpha;
            self.r += self.nd_doc[t] as f64 * self.base0[t];
        }
    }

    /// Reset the entries touched by the current document.
    fn leave_doc(&mut self) {
        for i in 0..self.active.len() {
            let t = self.active[i] as usize;
            self.nd_doc[t] = 0;
            self.fact[t] = self.alpha;
            self.in_active[t] = false;
        }
        self.active.clear();
        self.r = 0.0;
    }

    /// Total bucket mass for word `w` at the current state, computed the
    /// exact way the sweep computes it (cached s and r, fresh q). Test
    /// support for the bucket-mass ≡ dense-mass property.
    #[cfg(test)]
    fn total_mass(&mut self, counts: &CountMatrices, w: usize) -> f64 {
        let q = self.word_bucket(counts, w);
        q + self.r.max(0.0) + self.s.max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::super::kernel::Kernel;
    use super::*;
    use crate::persist::{RawIntegrationTable, RawPrior};
    use crate::prior::TopicPrior;
    use proptest::prelude::*;
    use srclda_knowledge::{SmoothingFunction, SourceTopic};
    use srclda_math::{rng_from_seed, DiscretizedGaussian};

    /// One prior of every kind over a shared vocabulary (mirrors the serial
    /// kernel's fixture).
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

    /// A λ-integrated prior decoded from a crafted raw sparse table over
    /// `v` words whose support is the first `2 ≤ n ≤ v` words. Word 0's
    /// row sits above the floor, and the other support rows dip below the
    /// off-support row at the last level, so every off-support word
    /// deviates from the floor. At `n = ⌈v/2⌉ + 1` (and `v ≥ 5`) only
    /// `⌊v/2⌋` words deviate and the topic is not demoted.
    fn dipping_support_prior(v: usize, n: usize, levels: usize) -> TopicPrior {
        let mut zero_values = vec![0.3; levels];
        zero_values[levels - 1] = 0.9;
        let mut values = vec![0.3; n * levels];
        values[..levels].fill(0.8);
        let sums = (0..levels)
            .map(|a| {
                let support: f64 = values.iter().skip(a).step_by(levels).sum();
                support + (v - n) as f64 * zero_values[a]
            })
            .collect();
        let quad = DiscretizedGaussian::unit_interval(0.6, 0.25, levels).unwrap();
        let raw = RawIntegrationTable {
            weights: quad.weights().to_vec(),
            prior_log_weights: vec![0.0; levels],
            sums,
            support: (0..idx_u32(n)).collect(),
            values,
            zero_values,
        };
        TopicPrior::from_raw(RawPrior::Integrated(raw), v).unwrap()
    }

    /// Random assignments into the count matrices; returns z.
    fn random_state(
        tokens: &[Vec<u32>],
        counts: &CountMatrices,
        rng: &mut SldaRng,
    ) -> Vec<Vec<u32>> {
        tokens
            .iter()
            .map(|doc| {
                doc.iter()
                    .map(|&w| {
                        let t = rng.gen_range(0..counts.num_topics());
                        counts.increment(w as usize, t);
                        t as u32
                    })
                    .collect()
            })
            .collect()
    }

    /// One document's `n_dt`, counted from its assignments.
    fn doc_topic_counts(z_doc: &[u32], t_count: usize) -> Vec<u32> {
        let mut nd = vec![0; t_count];
        for &t in z_doc {
            nd[t as usize] += 1;
        }
        nd
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The bucket decomposition's total mass (cached s + cached r +
        /// fresh q) equals the dense per-topic weight sum for every word,
        /// across all five prior kinds and random count states — the
        /// correctness core of the sub-linear sampler. A sixth topic puts
        /// off-support words on the deviation lists.
        #[test]
        fn bucket_mass_matches_dense_mass(
            raw_counts in prop::collection::vec(0u32..200, 5..16),
            bag in prop::collection::vec(0u32..8, 0..8),
            levels in 2usize..6,
            doc_words in prop::collection::vec(0u32..16, 4..40),
            alpha in 0.05f64..2.0,
            seed in 0u64..1000,
        ) {
            let counts_vec: Vec<f64> = raw_counts.iter().map(|&c| c as f64).collect();
            let v = counts_vec.len();
            let bag: Vec<u32> = bag.into_iter().filter(|&b| (b as usize) < v).collect();
            let doc: Vec<u32> = doc_words.into_iter().map(|w| w % v as u32).collect();
            let mut priors = mixed_priors(v, &counts_vec, &bag, levels);
            priors.push(dipping_support_prior(v, v - v / 2 + 1, levels));
            let tokens = vec![doc];
            let matrices = CountMatrices::new(v, priors.len());
            let mut rng = rng_from_seed(seed);
            let z = random_state(&tokens, &matrices, &mut rng);
            let nd = doc_topic_counts(&z[0], priors.len());
            let ctx = SweepContext {
                tokens: &tokens,
                counts: &matrices,
                priors: &priors,
                alpha,
            };
            let mut state = SparseState::build(&ctx);
            let off_word = v - 1;
            prop_assert!(!state.shape.dense_flag[5]);
            prop_assert_eq!(state.shape.exc[off_word].last().map(|e| e.0), Some(5));
            let mut kernel = SparseKernel::new(&ctx, &mut state);
            kernel.rebuild_s();
            kernel.enter_doc(&z[0]);
            for w in 0..v {
                let sparse_mass = kernel.total_mass(&matrices, w);
                let mut dense_mass = 0.0;
                for (t, prior) in priors.iter().enumerate() {
                    dense_mass += prior.word_weight(
                        w,
                        matrices.nw(w, t) as f64,
                        matrices.nt(t) as f64,
                    ) * (nd[t] as f64 + alpha);
                }
                let tol = 1e-9 * dense_mass.abs().max(1e-12);
                prop_assert!(
                    (sparse_mass - dense_mass).abs() <= tol,
                    "word {}: sparse {} vs dense {}", w, sparse_mass, dense_mass
                );
            }
        }

        /// Per-kind bucket mass: each prior kind in isolation must also
        /// match, pinning the per-kind baseline/deviation/coefficient
        /// algebra (a mixed fixture can mask a per-kind sign error).
        #[test]
        fn bucket_mass_matches_per_kind(
            raw_counts in prop::collection::vec(1u32..150, 5..12),
            kind_pick in 0usize..5,
            levels in 2usize..5,
            doc_words in prop::collection::vec(0u32..12, 3..24),
            alpha in 0.1f64..1.5,
            seed in 0u64..500,
        ) {
            let counts_vec: Vec<f64> = raw_counts.iter().map(|&c| c as f64).collect();
            let v = counts_vec.len();
            let topic = SourceTopic::new("T", counts_vec.clone());
            let quad = DiscretizedGaussian::unit_interval(0.6, 0.25, levels).unwrap();
            let g = SmoothingFunction::identity();
            let bag: Vec<u32> = (0..v as u32 / 2).collect();
            let make = |k: usize| -> TopicPrior {
                match k {
                    0 => TopicPrior::symmetric(0.21, v).unwrap(),
                    1 => TopicPrior::fixed_from_source(&topic, 0.01),
                    2 => TopicPrior::integrated(&topic, 0.01, &g, &quad),
                    3 => TopicPrior::frozen_from_source(&topic, 0.01),
                    _ => TopicPrior::concept_set(&bag, 0.5, v).unwrap(),
                }
            };
            let priors: Vec<TopicPrior> = (0..3).map(|_| make(kind_pick)).collect();
            let doc: Vec<u32> = doc_words.into_iter().map(|w| w % v as u32).collect();
            let tokens = vec![doc];
            let matrices = CountMatrices::new(v, priors.len());
            let mut rng = rng_from_seed(seed);
            let z = random_state(&tokens, &matrices, &mut rng);
            let nd = doc_topic_counts(&z[0], priors.len());
            let ctx = SweepContext {
                tokens: &tokens,
                counts: &matrices,
                priors: &priors,
                alpha,
            };
            let mut state = SparseState::build(&ctx);
            let mut kernel = SparseKernel::new(&ctx, &mut state);
            kernel.rebuild_s();
            kernel.enter_doc(&z[0]);
            for w in 0..v {
                let sparse_mass = kernel.total_mass(&matrices, w);
                let mut dense_mass = 0.0;
                for (t, prior) in priors.iter().enumerate() {
                    dense_mass += prior.word_weight(
                        w,
                        matrices.nw(w, t) as f64,
                        matrices.nt(t) as f64,
                    ) * (nd[t] as f64 + alpha);
                }
                let tol = 1e-9 * dense_mass.abs().max(1e-12);
                prop_assert!(
                    (sparse_mass - dense_mass).abs() <= tol,
                    "kind {} word {}: sparse {} vs dense {}",
                    kind_pick, w, sparse_mass, dense_mass
                );
            }
        }

        /// Sweeping preserves the count invariants and keeps the non-zero
        /// lists exactly in sync with the count matrices.
        #[test]
        fn sweeps_keep_nz_lists_in_sync(
            raw_counts in prop::collection::vec(0u32..80, 5..10),
            doc_lens_pick in prop::collection::vec(3usize..12, 2..5),
            seed in 0u64..300,
        ) {
            let counts_vec: Vec<f64> = raw_counts.iter().map(|&c| c as f64).collect();
            let v = counts_vec.len();
            let priors = mixed_priors(v, &counts_vec, &[0, 1], 3);
            let mut rng = rng_from_seed(seed);
            let tokens: Vec<Vec<u32>> = doc_lens_pick
                .iter()
                .map(|&n| (0..n).map(|_| rng.gen_range(0..v) as u32).collect())
                .collect();
            let matrices = CountMatrices::new(v, priors.len());
            let mut z = random_state(&tokens, &matrices, &mut rng);
            let ctx = SweepContext {
                tokens: &tokens,
                counts: &matrices,
                priors: &priors,
                alpha: 0.4,
            };
            let mut state = SparseState::build(&ctx);
            let mut kernel = SparseKernel::new(&ctx, &mut state);
            for _ in 0..6 {
                kernel.sweep(&ctx, &mut z, &mut rng);
                prop_assert!(matrices.check_invariants());
            }
            for w in 0..v {
                let expect: Vec<u32> = (0..priors.len() as u32)
                    .filter(|&t| matrices.nw(w, t as usize) > 0)
                    .collect();
                prop_assert_eq!(&state.nz[w], &expect);
            }
        }
    }

    /// Mixed-prior fixture shared with the determinism tests.
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

    /// Same seed → same chain, including when each chunk builds a new
    /// kernel over the lent state (reciprocals and baselines derived at a
    /// kernel's start equal the ones a long-lived kernel maintained).
    #[test]
    fn sparse_chain_is_deterministic_and_reuse_transparent() {
        let run = |split: bool| -> Vec<Vec<u32>> {
            let (tokens, priors) = fixture();
            let counts = CountMatrices::new(6, priors.len());
            let mut rng = rng_from_seed(77);
            let mut z = random_state(&tokens, &counts, &mut rng);
            let ctx = SweepContext {
                tokens: &tokens,
                counts: &counts,
                priors: &priors,
                alpha: 0.4,
            };
            let mut state = SparseState::build(&ctx);
            if split {
                // 30 sweeps as 3 chunks of 10, one kernel per chunk.
                for _ in 0..3 {
                    let mut k = SparseKernel::new(&ctx, &mut state);
                    for _ in 0..10 {
                        k.sweep(&ctx, &mut z, &mut rng);
                    }
                }
            } else {
                let mut k = SparseKernel::new(&ctx, &mut state);
                for _ in 0..30 {
                    k.sweep(&ctx, &mut z, &mut rng);
                    assert!(counts.check_invariants());
                }
            }
            z
        };
        let one_chunk = run(false);
        assert_eq!(one_chunk, run(false), "same seed must replay the chain");
        assert_eq!(
            one_chunk,
            run(true),
            "chunk boundaries must not perturb the chain"
        );
    }

    /// `prior` decoded from a crafted mirror that stores every word's δ
    /// row on the support, when it is λ-integrated; otherwise as it is.
    fn full_support_twin(prior: &TopicPrior, v: usize) -> TopicPrior {
        let raw = match (prior, prior.to_raw()) {
            (TopicPrior::Integrated(table), RawPrior::Integrated(raw)) => {
                RawPrior::Integrated(RawIntegrationTable {
                    support: (0..idx_u32(v)).collect(),
                    values: (0..v).flat_map(|w| table.delta_row(w).to_vec()).collect(),
                    ..raw
                })
            }
            (_, raw) => raw,
        };
        TopicPrior::from_raw(raw, v).unwrap()
    }

    /// The V-word walk that [`SparseShape::build`] replaced, for one
    /// λ-integrated topic: `None` if the topic is demoted, else its
    /// deviating `(word, δ row)` pairs in word order.
    fn deviating_by_word_walk(prior: &TopicPrior, v: usize) -> Option<Vec<(usize, usize)>> {
        let TopicPrior::Integrated(table) = prior else {
            panic!("a λ-integrated prior");
        };
        let off = table.support().len();
        let mut rows = (0..off).chain((off < v).then_some(off));
        let mut floor = table.row(rows.next()?).to_vec();
        for r in rows {
            for (f, &x) in floor.iter_mut().zip(table.row(r)) {
                if x < *f {
                    *f = x;
                }
            }
        }
        let row_deviates: Vec<bool> = (0..=off)
            .map(|r| table.row(r).iter().zip(&floor).any(|(&x, &f)| x != f))
            .collect();
        let deviating: Vec<(usize, usize)> = table
            .row_indices()
            .enumerate()
            .filter(|&(_, r)| row_deviates[r])
            .collect();
        (deviating.len() * 2 <= v).then_some(deviating)
    }

    /// The support walk builds the word walk's deviation lists and
    /// demotions in its three regimes: a healthy topic whose support alone
    /// deviates, a topic demoted because its shared off-support row
    /// deviates, and a deviating shared row under a support of ≥ V/2 words.
    #[test]
    fn support_walk_matches_the_word_walk() {
        let v = 12;
        let quad = DiscretizedGaussian::unit_interval(0.6, 0.25, 4).unwrap();
        let g = SmoothingFunction::identity();
        let mut source = vec![0.0; v];
        for (w, c) in [(1, 4.0), (6, 1.0), (10, 2.0)] {
            source[w] = c;
        }
        let healthy = TopicPrior::integrated(&SourceTopic::new("H", source), 0.01, &g, &quad);
        let priors = vec![
            healthy,
            TopicPrior::symmetric(0.1, v).unwrap(),
            dipping_support_prior(v, 3, 4),
            dipping_support_prior(v, v - v / 2 + 1, 4),
        ];
        let shape = SparseShape::build(&SweepTables::new(&priors), v);
        let mut regimes = Vec::new();
        for (t, prior) in priors.iter().enumerate().filter(|(_, p)| p.is_integrated()) {
            let want = deviating_by_word_walk(prior, v);
            let listed: Vec<(usize, usize)> = (0..v)
                .flat_map(|w| {
                    let entries = shape.exc[w].iter().filter(|e| e.0 as usize == t);
                    entries.map(move |&(_, r)| (w, r as usize))
                })
                .collect();
            assert_eq!(shape.dense_flag[t], want.is_none(), "topic {t}");
            assert_eq!(listed, want.clone().unwrap_or_default(), "topic {t}");
            regimes.push(want.map(|d| d.len()));
        }
        assert_eq!(regimes, [Some(3), None, Some(v / 2)]);
    }

    /// Regression: the bucket structure derives from row values, not from
    /// which words a table stores on its support, so it survives a
    /// checkpoint round-trip of the priors, and a twin whose mirror stores
    /// every word's row on the support builds it too. A structure derived
    /// from support membership would differ after such a resume and route
    /// draws onto a different chain (caught by
    /// `tests/shard_equivalence.rs::resume_replays_bit_identically`).
    /// Inputs: the mixed fixture at V = 6, and at V = 5000 a 20-word
    /// support, a support of exactly half the words (sub-linear) and one
    /// of more than half (demoted). Deviation entries are compared by
    /// topic and by the δ row they resolve to: a row index counts support
    /// positions, which differ between the twins.
    #[test]
    fn bucket_structure_survives_prior_round_trip() {
        type Resolved = Vec<Vec<(u32, Vec<u64>)>>;
        fn resolve(shape: &SparseShape, priors: &[TopicPrior]) -> Resolved {
            let row_bits = |t: u32, r: u32| match &priors[t as usize] {
                TopicPrior::Integrated(table) => {
                    table.row(r as usize).iter().map(|x| x.to_bits()).collect()
                }
                _ => Vec::new(),
            };
            let entries =
                |list: &Vec<(u32, u32)>| list.iter().map(|&(t, r)| (t, row_bits(t, r))).collect();
            shape.exc.iter().map(entries).collect()
        }
        let v = 5000;
        let quad = DiscretizedGaussian::unit_interval(0.7, 0.3, 4).unwrap();
        let g = SmoothingFunction::identity();
        let topic = |stride: usize, words: usize| {
            let mut counts = vec![0.0; v];
            for i in 0..words {
                counts[i * stride] = (1 + i % 7) as f64;
            }
            TopicPrior::integrated(&SourceTopic::new("T", counts), 0.01, &g, &quad)
        };
        let large = vec![topic(250, 20), topic(2, 2500), topic(1, 2600)];
        for (priors, v, demoted) in [(fixture().1, 6, vec![]), (large, v, vec![2])] {
            let a = SparseShape::build(&SweepTables::new(&priors), v);
            assert_eq!(a.dense_topics, demoted);
            let round_tripped: Vec<TopicPrior> = priors
                .iter()
                .map(|p| TopicPrior::from_raw(p.to_raw(), v).unwrap())
                .collect();
            let full: Vec<TopicPrior> = priors.iter().map(|p| full_support_twin(p, v)).collect();
            for (what, twins) in [("round trip", round_tripped), ("full support", full)] {
                let b = SparseShape::build(&SweepTables::new(&twins), v);
                assert_eq!(
                    resolve(&a, &priors),
                    resolve(&b, &twins),
                    "deviation lists changed across the {what} (V = {v})"
                );
                assert_eq!(b.dense_topics, demoted, "{what}");
                assert_eq!(a.base_param, b.base_param, "{what}");
                assert_eq!(a.int_floor, b.int_floor, "{what}");
            }
        }
    }

    /// The zero-mass fallback (all-concept priors covering no word) keeps
    /// the chain alive, mirroring the dense kernels.
    #[test]
    fn zero_mass_fallback_keeps_chain_alive() {
        let tokens = vec![vec![0, 1, 0]];
        let priors = vec![
            TopicPrior::concept_set(&[], 0.5, 2).unwrap(),
            TopicPrior::concept_set(&[], 0.5, 2).unwrap(),
        ];
        let counts = CountMatrices::new(2, 2);
        let mut rng = rng_from_seed(5);
        let mut z = random_state(&tokens, &counts, &mut rng);
        let ctx = SweepContext {
            tokens: &tokens,
            counts: &counts,
            priors: &priors,
            alpha: 0.5,
        };
        let mut state = SparseState::build(&ctx);
        let mut k = SparseKernel::new(&ctx, &mut state);
        for _ in 0..6 {
            k.sweep(&ctx, &mut z, &mut rng);
            assert!(counts.check_invariants());
        }
    }

    /// Long-run topic concentration sanity: under strongly separated fixed
    /// priors the sparse sampler finds the same separation the serial
    /// kernel does (a cheap distribution-level smoke check; the real
    /// perplexity-parity acceptance lives in `tests/kernel_equivalence.rs`).
    #[test]
    fn sparse_sampler_separates_topics_like_the_dense_kernel() {
        let tokens = vec![vec![0, 0, 3], vec![1, 1, 2]];
        let school = SourceTopic::new("School", vec![10.0, 10.0, 0.0, 0.0]);
        let sports = SourceTopic::new("Sports", vec![0.0, 0.0, 10.0, 10.0]);
        let priors = vec![
            TopicPrior::fixed_from_source(&school, 0.01),
            TopicPrior::fixed_from_source(&sports, 0.01),
        ];
        let counts = CountMatrices::new(4, 2);
        let mut rng = rng_from_seed(7);
        let mut z = random_state(&tokens, &counts, &mut rng);
        let ctx = SweepContext {
            tokens: &tokens,
            counts: &counts,
            priors: &priors,
            alpha: 0.1,
        };
        let mut state = SparseState::build(&ctx);
        let mut k = SparseKernel::new(&ctx, &mut state);
        for _ in 0..100 {
            k.sweep(&ctx, &mut z, &mut rng);
        }
        assert_eq!(z[0][0], 0, "pencil should map to School");
        assert_eq!(z[0][1], 0);
        assert_eq!(z[1][0], 0, "ruler should map to School");
        assert_eq!(z[0][2], 1, "umpire should map to Sports");
        assert_eq!(z[1][2], 1, "baseball should map to Sports");
    }

    /// A comparable chain statistic over many sweeps: the sparse and dense
    /// kernels must land in overlapping long-run occupancy (they walk
    /// different chains over the same stationary distribution).
    #[test]
    fn long_run_topic_occupancy_tracks_the_serial_kernel() {
        let occupancy = |sparse: bool| -> Vec<f64> {
            let (tokens, priors) = fixture();
            let counts = CountMatrices::new(6, priors.len());
            let mut rng = rng_from_seed(11);
            let mut z = random_state(&tokens, &counts, &mut rng);
            let ctx = SweepContext {
                tokens: &tokens,
                counts: &counts,
                priors: &priors,
                alpha: 0.4,
            };
            let mut totals = vec![0.0; priors.len()];
            let sweeps = 400;
            if sparse {
                let mut state = SparseState::build(&ctx);
                let mut k = SparseKernel::new(&ctx, &mut state);
                for _ in 0..sweeps {
                    k.sweep(&ctx, &mut z, &mut rng);
                    for (t, total) in totals.iter_mut().enumerate() {
                        *total += counts.nt(t) as f64;
                    }
                }
            } else {
                let mut k = Kernel::new(&ctx, None);
                for _ in 0..sweeps {
                    k.sweep(&ctx, &mut z, &mut rng);
                    for (t, total) in totals.iter_mut().enumerate() {
                        *total += counts.nt(t) as f64;
                    }
                }
            }
            let n: f64 = totals.iter().sum();
            totals.iter().map(|&x| x / n).collect()
        };
        let sparse = occupancy(true);
        let dense = occupancy(false);
        for (t, (a, b)) in sparse.iter().zip(&dense).enumerate() {
            assert!(
                (a - b).abs() < 0.1,
                "topic {t} occupancy diverged: sparse {a:.3} vs dense {b:.3}"
            );
        }
    }
}
