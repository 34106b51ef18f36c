//! Per-topic word priors — the single abstraction that unifies every model
//! in the paper.
//!
//! The collapsed Gibbs probability of word `w` under topic `t` (given the
//! current counts `n`) differs only in the topic's prior:
//!
//! | Model            | Prior kind        | Weight for word `w`                                     |
//! |------------------|-------------------|---------------------------------------------------------|
//! | LDA / unlabeled  | [`TopicPrior::Symmetric`]   | `(n_wt + β) / (n_t + Vβ)`                     |
//! | Source-LDA (bijective / mixture) | [`TopicPrior::Fixed`] | `(n_wt + δ_w) / (n_t + Σδ)` — Eq. (2) |
//! | Source-LDA (full) | [`TopicPrior::Integrated`] | `Σₐ wₐ (n_wt + δ_w^{g(λₐ)}) / (n_t + Σδ^{g(λₐ)})` — Eq. (3) |
//! | EDA              | [`TopicPrior::Frozen`]      | `φ_w` (never updated)                          |
//! | CTM              | [`TopicPrior::ConceptSet`]  | `(n_wt + β) / (n_t + |W_c|β)` if `w ∈ W_c` else 0 |
//!
//! The φ estimates (Eq. 1 / Eq. 4) are the same expressions evaluated at the
//! final counts, so [`TopicPrior::word_weight`] serves both sampling and
//! output.
//!
//! ## Canonical arithmetic
//!
//! Every ratio above is evaluated as `numerator * (1.0 / denominator)` —
//! multiply by a reciprocal, never divide directly. This is deliberate: the
//! Gibbs hot-path kernel ([`crate::sampler::kernel`]) caches the per-topic
//! reciprocals and refreshes them incrementally as `n_t` changes, and the
//! kernel's cached weights must match `word_weight` **bit for bit** so the
//! optimized sweep walks the exact chain of the dense reference sweep. Any
//! change to the expression shapes here must be mirrored in the kernel's
//! flat sweep tables (and vice versa); the equivalence is pinned by property
//! tests in the kernel module.

use crate::error::CoreError;
use crate::persist::RawIntegrationTable;
use srclda_knowledge::{SmoothingFunction, SourceTopic};
use srclda_math::DiscretizedGaussian;

/// The λ-integration table of one source topic: per quadrature level `a`,
/// the powered hyperparameters `δ^{g(λₐ)}` and their sum.
///
/// A word's δ row is `(n_w + ε)^{g(λₐ)}` on the topic's source support and
/// the shared row `ε^{g(λₐ)}` off it, so the table stores the support's
/// rows and the one off-support row, in memory and in its mirror
/// ([`Self::to_raw`]). Nothing in it is sized by the vocabulary: the
/// paper's `B = 10000` scaling benchmark would need `O(V·A·B)` floats
/// otherwise. Readers that visit every word walk the sorted support with
/// a cursor (`row_indices`); readers of one word binary-search it
/// (`row_index`).
#[derive(Debug, Clone)]
pub struct IntegrationTable {
    /// Current quadrature weights `wₐ` (initialized to the λ prior's
    /// discretization; per-topic posterior-adapted when adaptive λ is on).
    weights: Vec<f64>,
    /// Log of the prior quadrature weights (the fixed `N(µ, σ)` term of the
    /// λ posterior).
    prior_log_weights: Vec<f64>,
    /// Number of quadrature levels `A`.
    a: usize,
    /// `Σ_w δ_w^{g(λₐ)}` per level.
    sums: Vec<f64>,
    /// Vocabulary size `V`.
    vocab_size: usize,
    /// The support's word ids, strictly increasing.
    support: Vec<u32>,
    /// The δ rows, `A` values each: row `i < |support|` belongs to word
    /// `support[i]`, and row `|support|` is the shared off-support row
    /// `ε^{g(λₐ)}`.
    rows: Vec<f64>,
    /// `ln Γ` of `sums` and of `rows` (the baselines of [`Self::adapt`]),
    /// built by the first adapt call: loading a model builds a table per
    /// topic, and a served model never adapts.
    adapt_lngamma: Option<(Vec<f64>, Vec<f64>)>,
}

/// `ln Γ` of every entry.
fn lngamma_all(values: &[f64]) -> Vec<f64> {
    use srclda_math::special::ln_gamma;
    values.iter().map(|&v| ln_gamma(v)).collect()
}

/// The canonical `S2 = Σₐ δₐ·qrₐ` accumulation of the factored Eq. 3
/// evaluation (see [`IntegrationTable::weight`]): level `a` adds into
/// partial `a mod 4`, partials combine as `(p₀+p₁) + (p₂+p₃)`. The mod-4
/// interleave breaks the floating-point dependency chain that otherwise
/// serializes the sampling hot loop; the statically-unrolled body keeps
/// the four partials in registers. Every evaluation path (this module and
/// the sweep kernel's cached tables) must go through this function — or
/// reproduce it exactly — to keep weights bit-identical.
#[inline]
pub(crate) fn dot_mod4(row: &[f64], qr: &[f64]) -> f64 {
    debug_assert_eq!(row.len(), qr.len());
    let mut s2 = [0.0f64; 4];
    let mut chunks = row.chunks_exact(4);
    let mut qr_chunks = qr.chunks_exact(4);
    for (rc, qc) in chunks.by_ref().zip(qr_chunks.by_ref()) {
        s2[0] += rc[0] * qc[0];
        s2[1] += rc[1] * qc[1];
        s2[2] += rc[2] * qc[2];
        s2[3] += rc[3] * qc[3];
    }
    for (i, (&delta, &q)) in chunks
        .remainder()
        .iter()
        .zip(qr_chunks.remainder())
        .enumerate()
    {
        s2[i] += delta * q;
    }
    (s2[0] + s2[1]) + (s2[2] + s2[3])
}

/// A λ-integrated weight from its halves: `nw·S1 + S2` (see
/// [`IntegrationTable::weight`]).
#[inline]
fn integrated_weight(nw: f64, s1: f64, s2: f64) -> f64 {
    nw * s1 + s2
}

/// Stack budget for the per-call `qr` scratch row in
/// [`IntegrationTable::weight`] (heap fallback above it; `A` is typically
/// 4–16).
const QR_STACK: usize = 32;

impl IntegrationTable {
    /// Build the table for one source topic.
    pub fn new(
        topic: &SourceTopic,
        epsilon: f64,
        g: &SmoothingFunction,
        quadrature: &DiscretizedGaussian,
    ) -> Self {
        let weights: Vec<f64> = quadrature.weights().to_vec();
        let prior_log_weights: Vec<f64> = weights.iter().map(|&w| w.max(1e-300).ln()).collect();
        let v = topic.vocab_size();
        let exponents: Vec<f64> = quadrature.points().iter().map(|&lam| g.eval(lam)).collect();
        let counts = topic.counts();
        let support: Vec<u32> = (0..v)
            .filter(|&w| counts[w] > 0.0)
            .map(|w| w as u32)
            .collect();
        let zero_values: Vec<f64> = exponents.iter().map(|&e| epsilon.powf(e)).collect();
        // Each level sums the off-support term first, then the support
        // values in word order.
        let off_words = (v - support.len()) as f64;
        let mut sums: Vec<f64> = zero_values.iter().map(|&zv| off_words * zv).collect();
        let mut rows = Vec::with_capacity((support.len() + 1) * exponents.len());
        for &w in &support {
            for (sum, &e) in sums.iter_mut().zip(&exponents) {
                let val = (counts[w as usize] + epsilon).powf(e);
                rows.push(val);
                *sum += val;
            }
        }
        rows.extend_from_slice(&zero_values);
        Self::from_parts(weights, prior_log_weights, sums, v, support, rows)
    }

    /// Assemble a table from its stored parts.
    fn from_parts(
        weights: Vec<f64>,
        prior_log_weights: Vec<f64>,
        sums: Vec<f64>,
        vocab_size: usize,
        support: Vec<u32>,
        rows: Vec<f64>,
    ) -> Self {
        Self {
            a: weights.len(),
            weights,
            prior_log_weights,
            sums,
            vocab_size,
            support,
            rows,
            adapt_lngamma: None,
        }
    }

    /// Number of quadrature levels `A`.
    pub fn levels(&self) -> usize {
        self.a
    }

    /// The support's word ids, strictly increasing; word `support()[i]`
    /// reads row `i`.
    #[inline]
    pub(crate) fn support(&self) -> &[u32] {
        &self.support
    }

    /// δ row `i` (length `A`): the `i`-th support word's row for
    /// `i < |support|`, the off-support row for `i = |support|`.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[f64] {
        &self.rows[i * self.a..(i + 1) * self.a]
    }

    /// The shared off-support δ row: every word off the support reads it,
    /// so `S2` computed against it can be cached per topic.
    #[inline]
    pub(crate) fn zero_row(&self) -> &[f64] {
        self.row(self.support.len())
    }

    /// The row index of word `w`: its position in the support, or
    /// `|support|` (the off-support row) when it is not on it. A binary
    /// search of the support.
    #[inline]
    pub(crate) fn row_index(&self, w: usize) -> usize {
        self.support
            .binary_search_by(|&s| (s as usize).cmp(&w))
            .unwrap_or(self.support.len())
    }

    /// The row index of every word `0..V`, in word order: a cursor over
    /// the sorted support, no search.
    pub(crate) fn row_indices(&self) -> impl Iterator<Item = usize> + '_ {
        let off = self.support.len();
        let mut next = 0;
        (0..self.vocab_size).map(move |w| {
            if self.support.get(next).is_some_and(|&s| s as usize == w) {
                next += 1;
                next - 1
            } else {
                off
            }
        })
    }

    /// The δ row of word `w` (length `A`).
    #[inline]
    pub(crate) fn delta_row(&self, w: usize) -> &[f64] {
        self.row(self.row_index(w))
    }

    /// The per-level denominator addends `Σ_w δ_w^{g(λₐ)}` (kernel view).
    #[inline]
    pub(crate) fn sums(&self) -> &[f64] {
        &self.sums
    }

    /// The numerically integrated weight (Eq. 3 numerator/denominator pair),
    /// evaluated in the factored form
    ///
    /// ```text
    /// Σₐ wₐ (nw + δₐ) rₐ  =  nw · Σₐ wₐrₐ  +  Σₐ δₐ wₐrₐ ,   rₐ = 1/(nt + Σδₐ)
    /// ```
    ///
    /// with `S1 = Σ wₐrₐ` accumulated in level order, `S2 = Σ δₐ wₐrₐ`
    /// accumulated through [`dot_mod4`] (four interleaved partials), and
    /// the result formed as `nw*S1 + S2`. This shape is canonical: the
    /// kernel caches the per-level `wₐrₐ` products **and** the per-topic
    /// `S1` (both depend only on `nt`), pays one multiply-add per level
    /// for `S2`, and must reproduce this exact sum bit for bit. The two
    /// halves are [`Self::topic_terms`] and [`Self::word_term`].
    #[inline]
    fn weight(&self, w: usize, nw: f64, nt: f64) -> f64 {
        self.with_qr(|qr| {
            let s1 = self.topic_terms(qr, nt);
            self.word_term(qr, s1, w, nw)
        })
    }

    /// Run `f` on a zeroed `qr` scratch row of length `A` (on the stack
    /// up to [`QR_STACK`] levels).
    #[inline]
    fn with_qr<R>(&self, f: impl FnOnce(&mut [f64]) -> R) -> R {
        if self.a <= QR_STACK {
            f(&mut [0.0f64; QR_STACK][..self.a])
        } else {
            f(&mut vec![0.0; self.a])
        }
    }

    /// The per-topic half of [`Self::weight`]: fills `qr[a] = wₐrₐ`
    /// (length `A`) and returns `S1 = Σ wₐrₐ` in level order. Both depend
    /// on `nt` alone.
    #[inline]
    fn topic_terms(&self, qr: &mut [f64], nt: f64) -> f64 {
        let mut s1 = 0.0;
        for ((slot, &q), &sum) in qr.iter_mut().zip(self.weights.iter()).zip(self.sums.iter()) {
            let v = q * (1.0 / (nt + sum));
            *slot = v;
            s1 += v;
        }
        s1
    }

    /// The per-word half of [`Self::weight`]: `nw*S1 + S2` from the
    /// [`Self::topic_terms`] of the same `nt`.
    #[inline]
    fn word_term(&self, qr: &[f64], s1: f64, w: usize, nw: f64) -> f64 {
        integrated_weight(nw, s1, dot_mod4(self.delta_row(w), qr))
    }

    /// The current quadrature weights (prior weights until adapted).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Start the weights one-hot at the highest-λ level — the paper's
    /// "ideal situation \[where\] λ will be as close to 1 for most knowledge
    /// based latent topics, with the flexibility to deviate as required by
    /// the data". Pair with [`IntegrationTable::adapt`]: topics anchor to
    /// their articles first, then relax individually.
    pub fn optimistic_start(&mut self) {
        for w in self.weights.iter_mut() {
            *w = 0.0;
        }
        if let Some(last) = self.weights.last_mut() {
            *last = 1.0;
        }
    }

    /// Re-weight the quadrature levels with the λ posterior given this
    /// topic's current counts — the "λ as a hidden parameter of the model"
    /// reading of §III.C.2. Griddy-Gibbs over the grid:
    ///
    /// ```text
    /// w_a ∝ N(λ_a; µ, σ) · p(n_·t | δ^{g(λ_a)})
    ///     = prior_a · B(n_·t + δ_a) / B(δ_a)
    /// ```
    ///
    /// Only words with non-zero counts contribute to the beta-function
    /// ratio (`ln Γ(δ) − ln Γ(δ) = 0` otherwise), so the update is
    /// `O(nnz(topic) · A)`. The `ln Γ(δ)` baselines are computed once, at
    /// the first call, so each call pays only the count-dependent
    /// `ln Γ(δ + n)` evaluations.
    ///
    /// `topic_counts` yields the `(word, count)` pairs with `count > 0`.
    pub fn adapt<I: IntoIterator<Item = (usize, u32)>>(&mut self, topic_counts: I, nt: u32) {
        use srclda_math::special::ln_gamma;
        let mut loglik = self.prior_log_weights.clone();
        let ntf = nt as f64;
        let (sums_lngamma, rows_lngamma) = self
            .adapt_lngamma
            .take()
            .unwrap_or_else(|| (lngamma_all(&self.sums), lngamma_all(&self.rows)));
        for (ai, ll) in loglik.iter_mut().enumerate() {
            *ll -= ln_gamma(self.sums[ai] + ntf) - sums_lngamma[ai];
        }
        for (w, n) in topic_counts {
            debug_assert!(n > 0);
            let nf = n as f64;
            let i = self.row_index(w);
            let base = &rows_lngamma[i * self.a..(i + 1) * self.a];
            for (ai, (&delta, &lg)) in self.row(i).iter().zip(base).enumerate() {
                loglik[ai] += ln_gamma(delta + nf) - lg;
            }
        }
        self.adapt_lngamma = Some((sums_lngamma, rows_lngamma));
        // Softmax back to normalized weights.
        let max = loglik.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        if !max.is_finite() {
            return; // keep previous weights on numeric failure
        }
        let mut sum = 0.0;
        for x in loglik.iter_mut() {
            *x = (*x - max).exp();
            sum += *x;
        }
        if sum > 0.0 {
            for (w, x) in self.weights.iter_mut().zip(loglik) {
                *w = x / sum;
            }
        }
    }

    /// Convert to the serializable mirror (see [`crate::persist`]): the
    /// support, its rows and the shared row. All f64 state is copied
    /// verbatim, so the round trip is bit-exact.
    pub fn to_raw(&self) -> RawIntegrationTable {
        let (support_rows, zero_row) = self.rows.split_at(self.support.len() * self.a);
        RawIntegrationTable {
            weights: self.weights.clone(),
            prior_log_weights: self.prior_log_weights.clone(),
            sums: self.sums.clone(),
            support: self.support.clone(),
            values: support_rows.to_vec(),
            zero_values: zero_row.to_vec(),
        }
    }

    /// Rebuild from the mirror, revalidating every invariant the sampling
    /// hot path relies on: lengths, a sorted in-range support, and values
    /// that keep every weight finite and positive — δ rows and level sums
    /// finite and positive, quadrature weights finite and non-negative,
    /// prior log-weights finite.
    ///
    /// # Errors
    /// Fails on any inconsistency (a corrupt or mismatched artifact).
    pub fn from_raw(raw: RawIntegrationTable, vocab_size: usize) -> crate::Result<Self> {
        let bad = |msg: String| CoreError::InvalidConfig(format!("integration table: {msg}"));
        let a = raw.weights.len();
        if a == 0 {
            return Err(bad("no quadrature levels".into()));
        }
        if raw.prior_log_weights.len() != a || raw.sums.len() != a {
            return Err(bad(format!(
                "level-count mismatch: {} weights, {} prior weights, {} sums",
                a,
                raw.prior_log_weights.len(),
                raw.sums.len()
            )));
        }
        if !raw.weights.iter().all(|&w| w.is_finite() && w >= 0.0) {
            return Err(bad("a quadrature weight is negative or non-finite".into()));
        }
        if !raw.prior_log_weights.iter().all(|x| x.is_finite()) {
            return Err(bad("a prior log-weight is non-finite".into()));
        }
        let positive = |xs: &[f64]| xs.iter().all(|&x| x > 0.0 && x.is_finite());
        if !positive(&raw.sums) {
            return Err(bad("a level sum is not finite and positive".into()));
        }
        let RawIntegrationTable {
            weights,
            prior_log_weights,
            sums,
            support,
            values: mut rows,
            zero_values,
        } = raw;
        if rows.len() != support.len() * a || zero_values.len() != a {
            return Err(bad(format!(
                "{} support rows and a shared row of {} values for {} support words, A={a}",
                rows.len(),
                zero_values.len(),
                support.len()
            )));
        }
        if !support.windows(2).all(|p| p[0] < p[1]) {
            return Err(bad("support is not strictly increasing".into()));
        }
        if let Some(&w) = support.last().filter(|&&w| w as usize >= vocab_size) {
            return Err(bad(format!(
                "support word {w} outside vocabulary of size {vocab_size}"
            )));
        }
        rows.extend_from_slice(&zero_values);
        if !positive(&rows) {
            return Err(bad("a δ value is not finite and positive".into()));
        }
        Ok(Self::from_parts(
            weights,
            prior_log_weights,
            sums,
            vocab_size,
            support,
            rows,
        ))
    }

    /// Expected hyperparameter `E[δ_w^{g(λ)}]` under the quadrature — used
    /// by the joint log-likelihood as the effective Dirichlet parameter.
    pub fn expected_delta(&self, w: usize) -> f64 {
        self.delta_row(w)
            .iter()
            .zip(self.weights.iter())
            .map(|(&v, &q)| q * v)
            .sum()
    }
}

/// A topic's word prior (see module docs for the per-model table).
#[derive(Debug, Clone)]
pub enum TopicPrior {
    /// Symmetric Dirichlet `Dir(β)` over the full vocabulary.
    Symmetric {
        /// The concentration β.
        beta: f64,
        /// Precomputed `V·β` denominator term.
        denom_add: f64,
    },
    /// Fixed asymmetric Dirichlet `Dir(δ)` from source hyperparameters.
    Fixed {
        /// Per-word hyperparameters `δ_w`.
        delta: Vec<f64>,
        /// Precomputed `Σ δ`.
        sum: f64,
    },
    /// λ-integrated source prior (the full Source-LDA model). Boxed: the
    /// table carries several cache vectors, and a mixed prior vector
    /// shouldn't pay its inline size for every symmetric topic (the
    /// sampling hot path reads flattened sweep tables, not this enum).
    Integrated(Box<IntegrationTable>),
    /// Frozen word distribution (EDA): counts never influence the weight.
    Frozen {
        /// The fixed distribution `φ`.
        phi: Vec<f64>,
    },
    /// Concept word set (CTM): support-restricted symmetric prior.
    ConceptSet {
        /// Membership mask over the vocabulary.
        in_set: Vec<bool>,
        /// The concentration β.
        beta: f64,
        /// Precomputed `|W_c|·β`.
        denom_add: f64,
    },
}

impl TopicPrior {
    /// Symmetric prior with concentration `beta` over `v` words.
    pub fn symmetric(beta: f64, v: usize) -> crate::Result<Self> {
        if !(beta > 0.0 && beta.is_finite()) {
            return Err(CoreError::NonPositiveParameter {
                name: "beta",
                value: beta,
            });
        }
        Ok(Self::Symmetric {
            beta,
            denom_add: beta * v as f64,
        })
    }

    /// Fixed prior from a source topic's hyperparameters (Definition 3).
    pub fn fixed_from_source(topic: &SourceTopic, epsilon: f64) -> Self {
        let delta = topic.hyperparameters(epsilon);
        let sum = delta.iter().sum();
        Self::Fixed { delta, sum }
    }

    /// Fixed prior from hyperparameters raised to a constant exponent
    /// (the fixed-λ sweep of §IV.B / Figure 7).
    pub fn fixed_from_powered(topic: &SourceTopic, epsilon: f64, exponent: f64) -> Self {
        let delta = topic.powered_hyperparameters(epsilon, exponent);
        let sum = delta.iter().sum();
        Self::Fixed { delta, sum }
    }

    /// λ-integrated prior (Eq. 3) for the full Source-LDA model.
    pub fn integrated(
        topic: &SourceTopic,
        epsilon: f64,
        g: &SmoothingFunction,
        quadrature: &DiscretizedGaussian,
    ) -> Self {
        Self::Integrated(Box::new(IntegrationTable::new(
            topic, epsilon, g, quadrature,
        )))
    }

    /// Frozen prior (EDA) from a source topic's smoothed distribution.
    pub fn frozen_from_source(topic: &SourceTopic, epsilon: f64) -> Self {
        let delta = topic.hyperparameters(epsilon);
        let sum: f64 = delta.iter().sum();
        let phi = delta.iter().map(|&x| x / sum).collect();
        Self::Frozen { phi }
    }

    /// Concept-set prior (CTM) over `bag` within a `v`-word vocabulary.
    pub fn concept_set(bag: &[u32], beta: f64, v: usize) -> crate::Result<Self> {
        if !(beta > 0.0 && beta.is_finite()) {
            return Err(CoreError::NonPositiveParameter {
                name: "beta",
                value: beta,
            });
        }
        let mut in_set = vec![false; v];
        let mut size = 0usize;
        for &w in bag {
            let w = w as usize;
            if w < v && !in_set[w] {
                in_set[w] = true;
                size += 1;
            }
        }
        Ok(Self::ConceptSet {
            in_set,
            beta,
            denom_add: beta * size as f64,
        })
    }

    /// The sampling/φ weight for word `w` given the effective counts
    /// `nw = n_wt` and `nt = n_t` (Eqs. 1–4 depending on the kind).
    ///
    /// Ratios are evaluated as `numer * (1.0 / denom)` — the canonical
    /// arithmetic the hot-path kernel reproduces from cached reciprocals
    /// (see the module docs).
    #[inline]
    pub fn word_weight(&self, w: usize, nw: f64, nt: f64) -> f64 {
        match self {
            TopicPrior::Integrated(table) => table.weight(w, nw, nt),
            _ => self.ratio_term(w, nw, self.reciprocal(nt)),
        }
    }

    /// The per-topic half of [`Self::word_weight`] for the ratio kinds:
    /// `1.0 / (nt + c)` with `c` the kind's denominator addend (unused by
    /// frozen and λ-integrated priors, which return 0).
    #[inline]
    fn reciprocal(&self, nt: f64) -> f64 {
        match self {
            TopicPrior::Symmetric { denom_add, .. } | TopicPrior::ConceptSet { denom_add, .. } => {
                1.0 / (nt + denom_add)
            }
            TopicPrior::Fixed { sum, .. } => 1.0 / (nt + sum),
            TopicPrior::Integrated(_) | TopicPrior::Frozen { .. } => 0.0,
        }
    }

    /// The per-word half of [`Self::word_weight`] for the ratio kinds and
    /// frozen priors, given [`Self::reciprocal`]`(nt)` as `r`. A
    /// λ-integrated prior's per-word half is
    /// [`IntegrationTable::word_term`]; it never reaches this arm's 0.
    #[inline]
    fn ratio_term(&self, w: usize, nw: f64, r: f64) -> f64 {
        match self {
            TopicPrior::Symmetric { beta, .. } => (nw + beta) * r,
            TopicPrior::Fixed { delta, .. } => (nw + delta[w]) * r,
            TopicPrior::Frozen { phi } => phi[w],
            TopicPrior::ConceptSet { in_set, beta, .. } => {
                if in_set[w] {
                    (nw + beta) * r
                } else {
                    0.0
                }
            }
            TopicPrior::Integrated(_) => 0.0,
        }
    }

    /// One φ row: `row[w] = `[`Self::word_weight`]`(w, nw(w), nt)` for
    /// every word, bit for bit, from the [`TopicTerms`] at `nt`: the test
    /// oracle's rows for the engine's table of φ.
    #[cfg(test)]
    pub(crate) fn weight_row(&self, row: &mut [f64], nw: impl Fn(usize) -> f64, nt: f64) {
        let terms = TopicTerms::new(self, nt);
        match self {
            TopicPrior::Integrated(table) => {
                for (w, (cell, i)) in row.iter_mut().zip(table.row_indices()).enumerate() {
                    *cell = terms.weight_at(w, i, nw(w));
                }
            }
            _ => {
                for (w, cell) in row.iter_mut().enumerate() {
                    *cell = terms.weight_at(w, 0, nw(w));
                }
            }
        }
    }

    /// The vocabulary size the prior was built for, where it records one
    /// (a symmetric prior does not).
    pub fn vocab_size(&self) -> Option<usize> {
        match self {
            TopicPrior::Symmetric { .. } => None,
            TopicPrior::Fixed { delta, .. } => Some(delta.len()),
            TopicPrior::Integrated(table) => Some(table.vocab_size),
            TopicPrior::Frozen { phi } => Some(phi.len()),
            TopicPrior::ConceptSet { in_set, .. } => Some(in_set.len()),
        }
    }

    /// Whether the counts can change this topic's word distribution (false
    /// for EDA's frozen topics).
    pub fn is_learnable(&self) -> bool {
        !matches!(self, TopicPrior::Frozen { .. })
    }

    /// True iff this prior integrates λ (and therefore supports adaptation).
    pub fn is_integrated(&self) -> bool {
        matches!(self, TopicPrior::Integrated(_))
    }

    /// Posterior-adapt the λ quadrature weights from the topic's current
    /// counts (no-op for non-integrated priors). See
    /// [`IntegrationTable::adapt`].
    pub fn adapt_lambda<I: IntoIterator<Item = (usize, u32)>>(&mut self, topic_counts: I, nt: u32) {
        if let TopicPrior::Integrated(table) = self {
            table.adapt(topic_counts, nt);
        }
    }

    /// Apply the optimistic λ start (no-op for non-integrated priors). See
    /// [`IntegrationTable::optimistic_start`].
    pub fn optimistic_lambda_start(&mut self) {
        if let TopicPrior::Integrated(table) = self {
            table.optimistic_start();
        }
    }

    /// Effective Dirichlet parameter for word `w` (used by the joint
    /// log-likelihood). For frozen priors this is the distribution itself.
    pub fn effective_delta(&self, w: usize) -> f64 {
        match self {
            TopicPrior::Symmetric { beta, .. } => *beta,
            TopicPrior::Fixed { delta, .. } => delta[w],
            TopicPrior::Integrated(table) => table.expected_delta(w),
            TopicPrior::Frozen { phi } => phi[w],
            TopicPrior::ConceptSet { in_set, beta, .. } => {
                if in_set[w] {
                    *beta
                } else {
                    0.0
                }
            }
        }
    }

    /// Short kind name (diagnostics).
    pub fn kind(&self) -> &'static str {
        match self {
            TopicPrior::Symmetric { .. } => "symmetric",
            TopicPrior::Fixed { .. } => "fixed",
            TopicPrior::Integrated(_) => "integrated",
            TopicPrior::Frozen { .. } => "frozen",
            TopicPrior::ConceptSet { .. } => "concept-set",
        }
    }
}

/// The per-topic half of [`TopicPrior::word_weight`] at one `nt`, taken
/// once so that each word pays only its per-word half: a ratio prior's
/// reciprocal `1/(nt + c)`, or a λ-integrated prior's `S1` and the `S2` of
/// each of its δ rows. φ is built from these terms one word at a time
/// across all topics (the engine's table,
/// [`crate::Inference::from_counts`]); the tests' dense oracle builds it
/// one topic at a time, bit for bit the same.
pub(crate) struct TopicTerms<'p> {
    prior: &'p TopicPrior,
    /// Ratio kinds: `1/(nt + c)`. λ-integrated: `S1 = Σ wₐrₐ`.
    scale: f64,
    /// λ-integrated only: the `S2` of each δ row, the support's rows then
    /// the off-support row.
    s2: Vec<f64>,
}

impl<'p> TopicTerms<'p> {
    pub(crate) fn new(prior: &'p TopicPrior, nt: f64) -> Self {
        match prior {
            TopicPrior::Integrated(table) => table.with_qr(|qr| {
                let scale = table.topic_terms(qr, nt);
                let s2 = (0..=table.support.len())
                    .map(|i| dot_mod4(table.row(i), qr))
                    .collect();
                Self { prior, scale, s2 }
            }),
            _ => Self {
                prior,
                scale: prior.reciprocal(nt),
                s2: Vec::new(),
            },
        }
    }

    /// The weight of word `w` at count `nw`, where `i` is `w`'s δ row index
    /// ([`Self::row_index`]; only λ-integrated priors read it).
    #[inline]
    pub(crate) fn weight_at(&self, w: usize, i: usize, nw: f64) -> f64 {
        match self.prior {
            TopicPrior::Integrated(_) => integrated_weight(nw, self.scale, self.s2[i]),
            _ => self.prior.ratio_term(w, nw, self.scale),
        }
    }

    /// The weight of word `w` at count `nw`.
    #[inline]
    pub(crate) fn weight(&self, w: usize, nw: f64) -> f64 {
        self.weight_at(w, self.row_index(w), nw)
    }

    /// The δ row index of word `w` (0 for priors without δ rows).
    #[inline]
    fn row_index(&self, w: usize) -> usize {
        match self.prior {
            TopicPrior::Integrated(table) => table.row_index(w),
            _ => 0,
        }
    }

    /// The zero-count weight that every word off [`Self::own_rows`]
    /// shares, or `None` when each word has its own (fixed, frozen and
    /// concept-set priors).
    pub(crate) fn shared_zero_weight(&self) -> Option<f64> {
        match self.prior {
            TopicPrior::Symmetric { .. } => Some(self.weight_at(0, 0, 0.0)),
            TopicPrior::Integrated(table) => Some(self.weight_at(0, table.support.len(), 0.0)),
            _ => None,
        }
    }

    /// The words whose zero-count weight is not the shared one, each with
    /// its δ row index: a λ-integrated prior's support.
    pub(crate) fn own_rows(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let support: &[u32] = match self.prior {
            TopicPrior::Integrated(table) => &table.support,
            _ => &[],
        };
        support.iter().enumerate().map(|(i, &w)| (w as usize, i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srclda_math::rng_from_seed;

    fn topic() -> SourceTopic {
        // V = 4: counts over [pencil, ruler, baseball, umpire]
        SourceTopic::new("School Supplies", vec![6.0, 3.0, 0.0, 0.0])
    }

    #[test]
    fn symmetric_weight_formula() {
        let p = TopicPrior::symmetric(0.5, 4).unwrap();
        // (nw + β) / (nt + Vβ)
        let w = p.word_weight(0, 2.0, 10.0);
        assert!((w - 2.5 / 12.0).abs() < 1e-12);
        assert!(TopicPrior::symmetric(0.0, 4).is_err());
    }

    #[test]
    fn fixed_weight_follows_delta() {
        let p = TopicPrior::fixed_from_source(&topic(), 0.01);
        // At zero counts the weight is proportional to δ.
        let w0 = p.word_weight(0, 0.0, 0.0);
        let w1 = p.word_weight(1, 0.0, 0.0);
        assert!((w0 / w1 - 6.01 / 3.01).abs() < 1e-9);
        // Weights at zero counts normalize over the vocabulary.
        let total: f64 = (0..4).map(|w| p.word_weight(w, 0.0, 0.0)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn powered_prior_flattens_at_zero_exponent() {
        let p = TopicPrior::fixed_from_powered(&topic(), 0.01, 0.0);
        let w0 = p.word_weight(0, 0.0, 0.0);
        let w2 = p.word_weight(2, 0.0, 0.0);
        assert!((w0 - w2).abs() < 1e-12, "exponent 0 ⇒ uniform prior");
    }

    #[test]
    fn frozen_ignores_counts() {
        let p = TopicPrior::frozen_from_source(&topic(), 0.01);
        let a = p.word_weight(0, 0.0, 0.0);
        let b = p.word_weight(0, 100.0, 500.0);
        assert_eq!(a, b);
        assert!(!p.is_learnable());
        // Smoothing keeps zero-count words positive.
        assert!(p.word_weight(2, 0.0, 0.0) > 0.0);
    }

    #[test]
    fn concept_set_restricts_support() {
        let p = TopicPrior::concept_set(&[0, 1, 1], 0.5, 4).unwrap();
        assert!(p.word_weight(0, 0.0, 0.0) > 0.0);
        assert_eq!(p.word_weight(2, 5.0, 5.0), 0.0);
        // Duplicate bag entries are not double counted: |W_c| = 2.
        if let TopicPrior::ConceptSet { denom_add, .. } = &p {
            assert!((denom_add - 1.0).abs() < 1e-12);
        } else {
            panic!("wrong kind");
        }
    }

    fn quad_and_weights(a: usize) -> (DiscretizedGaussian, Vec<f64>) {
        let q = DiscretizedGaussian::unit_interval(0.7, 0.3, a).unwrap();
        let w = q.weights().to_vec();
        (q, w)
    }

    #[test]
    fn integrated_weight_is_convex_combination() {
        let (q, _w) = quad_and_weights(6);
        let g = SmoothingFunction::identity();
        let p = TopicPrior::integrated(&topic(), 0.01, &g, &q);
        // The integrated weight is a convex combination of the per-level
        // Fixed weights, so it must lie within their min/max envelope
        // (taken over all quadrature points — the per-exponent weight is
        // not monotone in the exponent).
        let levels: Vec<TopicPrior> = q
            .points()
            .iter()
            .map(|&e| TopicPrior::fixed_from_powered(&topic(), 0.01, e))
            .collect();
        for word in 0..4 {
            let wi = p.word_weight(word, 1.0, 3.0);
            let vals: Vec<f64> = levels
                .iter()
                .map(|l| l.word_weight(word, 1.0, 3.0))
                .collect();
            let min = vals.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            assert!(
                wi >= min - 1e-12 && wi <= max + 1e-12,
                "word {word}: {wi} outside [{min}, {max}]"
            );
        }
    }

    #[test]
    fn weight_row_is_word_weight_bit_for_bit() {
        let mut counts = vec![0.0; 6000];
        counts[3] = 7.0;
        counts[5999] = 2.0;
        let large = SourceTopic::new("Sparse", counts);
        let small = SourceTopic::new("T", vec![4.0, 0.0, 2.0, 1.0, 0.0, 9.0]);
        let g = SmoothingFunction::identity();
        // 6 levels exercise dot_mod4's tail; 40 overflow the stack scratch.
        let (q6, _) = quad_and_weights(6);
        let (q40, _) = quad_and_weights(40);
        let priors = [
            TopicPrior::symmetric(0.1, 6).unwrap(),
            TopicPrior::fixed_from_source(&small, 0.01),
            TopicPrior::frozen_from_source(&small, 0.01),
            TopicPrior::concept_set(&[0, 4], 0.5, 6).unwrap(),
            TopicPrior::integrated(&small, 0.01, &g, &q6),
            TopicPrior::integrated(&small, 0.01, &g, &q40),
            TopicPrior::integrated(&large, 0.01, &g, &q6),
        ];
        for (i, p) in priors.iter().enumerate() {
            let v = if i + 1 == priors.len() { 6000 } else { 6 };
            let nw = |w: usize| (w % 5) as f64;
            for nt in [0.0, 3.0, 1234.0] {
                let mut row = vec![f64::NAN; v];
                p.weight_row(&mut row, nw, nt);
                for (w, &got) in row.iter().enumerate() {
                    let want = p.word_weight(w, nw(w), nt);
                    assert_eq!(got.to_bits(), want.to_bits(), "{} w={w} nt={nt}", p.kind());
                }
            }
        }
    }

    #[test]
    fn integrated_dense_and_sparse_agree() {
        // Eq. 3 evaluated by hand at support and off-support words of a
        // large, sparsely supported topic.
        let v = 10_000;
        let mut counts = vec![0.0; v];
        counts[3] = 7.0;
        counts[9000] = 2.0;
        let t = SourceTopic::new("Sparse", counts);
        let (q, w) = quad_and_weights(4);
        let g = SmoothingFunction::identity();
        let p = TopicPrior::integrated(&t, 0.01, &g, &q);
        // Manual Eq. 3 at word 3 and at an off-support word.
        let exps: Vec<f64> = q.points().to_vec();
        let manual = |word: usize, nw: f64, nt: f64| -> f64 {
            let mut acc = 0.0;
            for (a, &e) in exps.iter().enumerate() {
                let delta_w = if t.counts()[word] > 0.0 {
                    (t.counts()[word] + 0.01f64).powf(e)
                } else {
                    0.01f64.powf(e)
                };
                let sum: f64 = (7.0f64 + 0.01).powf(e)
                    + (2.0f64 + 0.01).powf(e)
                    + (v as f64 - 2.0) * 0.01f64.powf(e);
                acc += w[a] * (nw + delta_w) / (nt + sum);
            }
            acc
        };
        for &(word, nw, nt) in &[
            (3usize, 2.0, 9.0),
            (500usize, 0.0, 9.0),
            (9000usize, 1.0, 4.0),
        ] {
            let got = p.word_weight(word, nw, nt);
            let want = manual(word, nw, nt);
            assert!((got - want).abs() < 1e-12, "word {word}: {got} vs {want}");
        }
    }

    #[test]
    fn small_vocab_table_is_sized_by_its_support() {
        // V = 4000, under the 4096 words up to which older writers stored
        // every word's row: the table and its mirror hold only the
        // support's rows and the shared one.
        let (v, support, levels) = (4000, 20, 8);
        let mut counts = vec![0.0; v];
        for i in 0..support {
            counts[i * 150 + 7] = (i + 1) as f64;
        }
        let (q, _w) = quad_and_weights(levels);
        let table = IntegrationTable::new(
            &SourceTopic::new("T", counts),
            0.01,
            &SmoothingFunction::identity(),
            &q,
        );
        assert_eq!(table.levels(), levels);
        // Exhaustive, so a new field must be bounded here too.
        let IntegrationTable {
            weights,
            prior_log_weights,
            a: _,
            sums,
            vocab_size: _,
            support: words,
            rows,
            adapt_lngamma,
        } = &table;
        assert!(
            adapt_lngamma.is_none(),
            "no ln Γ baselines before the first adapt"
        );
        let bound = (support + 1) * levels;
        for len in [
            weights.len(),
            prior_log_weights.len(),
            sums.len(),
            words.len(),
            rows.len(),
        ] {
            assert!(len <= bound, "a field holds {len} entries, over {bound}");
        }
        // The mirror: the support's rows with their ids, the shared row,
        // and the weights, prior log-weights and sums.
        let raw = crate::persist::RawPrior::Integrated(table.to_raw());
        let raw_bound = (support + 1) * (8 * levels + 4) + 24 * levels;
        assert!(
            raw.payload_bytes() <= raw_bound as u64,
            "the mirror is {} bytes, over {raw_bound}",
            raw.payload_bytes()
        );
    }

    #[test]
    fn effective_delta_matches_kind() {
        let p = TopicPrior::symmetric(0.25, 4).unwrap();
        assert_eq!(p.effective_delta(2), 0.25);
        let p = TopicPrior::fixed_from_source(&topic(), 0.01);
        assert!((p.effective_delta(0) - 6.01).abs() < 1e-12);
        let (q, _w) = quad_and_weights(4);
        let g = SmoothingFunction::identity();
        let p = TopicPrior::integrated(&topic(), 0.01, &g, &q);
        // Expected delta for word 0 lies between the min/max powered values.
        let d = p.effective_delta(0);
        assert!(d > 1.0 && d < 6.01);
    }

    #[test]
    fn kinds_are_labeled() {
        assert_eq!(TopicPrior::symmetric(1.0, 2).unwrap().kind(), "symmetric");
        assert_eq!(
            TopicPrior::fixed_from_source(&topic(), 0.01).kind(),
            "fixed"
        );
    }

    #[test]
    fn adaptation_concentrates_on_the_matching_level() {
        // Source topic: a strongly skewed distribution over 4 words.
        let src = SourceTopic::new("T", vec![400.0, 120.0, 40.0, 10.0]);
        let q = DiscretizedGaussian::unit_interval(0.5, 10.0, 8).unwrap(); // ~flat prior
        let g = SmoothingFunction::identity();

        // Counts sampled *from the source distribution* (high λ world).
        let mut aligned = TopicPrior::integrated(&src, 0.01, &g, &q);
        let aligned_counts = vec![(0usize, 700u32), (1, 210), (2, 70), (3, 20)];
        aligned.adapt_lambda(aligned_counts, 1000);

        // Near-uniform counts (low λ world: topic ignores the article).
        let mut drifted = TopicPrior::integrated(&src, 0.01, &g, &q);
        let drifted_counts = vec![(0usize, 250u32), (1, 250), (2, 250), (3, 250)];
        drifted.adapt_lambda(drifted_counts, 1000);

        let mean_lambda = |p: &TopicPrior| -> f64 {
            if let TopicPrior::Integrated(t) = p {
                t.weights()
                    .iter()
                    .zip(q.points())
                    .map(|(&w, &x)| w * x)
                    .sum()
            } else {
                panic!("wrong kind")
            }
        };
        let hi = mean_lambda(&aligned);
        let lo = mean_lambda(&drifted);
        assert!(
            hi > lo + 0.2,
            "aligned counts should imply higher λ: {hi:.3} vs {lo:.3}"
        );
        // Weights stay normalized.
        if let TopicPrior::Integrated(t) = &aligned {
            let sum: f64 = t.weights().iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn adaptation_is_a_noop_for_other_kinds() {
        let mut p = TopicPrior::symmetric(0.5, 4).unwrap();
        let before = p.word_weight(0, 1.0, 2.0);
        p.adapt_lambda(vec![(0usize, 5u32)], 5);
        assert_eq!(p.word_weight(0, 1.0, 2.0), before);
        assert!(!p.is_integrated());
    }

    #[test]
    fn sampling_sanity_under_fixed_prior() {
        // Draw topics for a two-topic system where topic 0's δ strongly
        // prefers word 0: word-0 tokens should mostly go to topic 0.
        let t0 = SourceTopic::new("A", vec![50.0, 1.0]);
        let t1 = SourceTopic::new("B", vec![1.0, 50.0]);
        let p0 = TopicPrior::fixed_from_source(&t0, 0.01);
        let p1 = TopicPrior::fixed_from_source(&t1, 0.01);
        let mut rng = rng_from_seed(1);
        let mut hits = 0;
        for _ in 0..1000 {
            let w0 = p0.word_weight(0, 0.0, 0.0);
            let w1 = p1.word_weight(0, 0.0, 0.0);
            let i = srclda_math::sample_categorical(&[w0, w1], &mut rng);
            if i == 0 {
                hits += 1;
            }
        }
        assert!(hits > 900, "topic 0 should dominate: {hits}");
    }
}
