//! Online fold-in inference: score *new* documents against an already
//! trained model.
//!
//! Training (the collapsed Gibbs sampler in [`crate::model`]) and held-out
//! evaluation (§III.C.5a, [`crate::perplexity`]) both work on whole corpora
//! inside one process. Serving works differently: a model is trained once,
//! persisted, and then asked to label a stream of unseen documents, one at a
//! time, concurrently. [`Inference`] is the engine for that workload — it
//! holds only what scoring needs (φ, α, labels), so it can be rebuilt from a
//! deserialized artifact without the training corpus.
//!
//! ## φ as baselines plus exceptions
//!
//! The engine keeps one copy of φ, sparse: each topic's **baseline**
//! `b_t = min_w φ_tw`, and each word's **exceptions**, the topics where
//! `φ_tw ≠ b_t`, each with its exact `φ_tw`, sorted by topic. Most words of
//! a topic share one weight (every word off a source topic's support that
//! has no count in it), so a word has a handful of exceptions, not `T`
//! cells: at T = 2000 the table is ≈0.6 MB where a dense φ is 74 MB. It is
//! built from a topic-major φ ([`Inference::from_parts`],
//! [`Inference::from_fitted`]) or straight from sampler state
//! ([`Inference::from_counts`]), and neither path allocates anything `V·T`.
//! Exceptions are decided on φ's values, never on which words a prior keeps
//! on its support, so two priors with the same values build the same table.
//!
//! ## Fold-in: three buckets per token
//!
//! The estimator is standard *fold-in* Gibbs sampling: φ is frozen at its
//! trained value and only the new document's topic assignments are sampled,
//!
//! ```text
//! p(z_j = t | w_j = w, z_¬j) ∝ φ_tw · (ñ_dt^¬j + α)
//! ```
//!
//! Writing `φ_tw = b_t + (φ_tw − b_t)` splits that mass into three buckets
//! (the SparseLDA split of Yao, Mimno & McCallum, KDD 2009):
//!
//! ```text
//! q = Σ_{t ∈ exc(w)} (φ_tw − b_t)·(ñ_dt + α)   word bucket, k_w terms
//! r = Σ_{t: ñ_dt > 0} ñ_dt · b_t               document bucket, k_d terms
//! s = α · Σ_t b_t                              smoothing bucket, fixed
//! ```
//!
//! One uniform picks a bucket and the topic inside it: the word and
//! document buckets walk their lists, and the smoothing bucket
//! binary-searches the running sums of `α·b_t`, which the engine builds
//! once. A token costs O(k_w + k_d + log T) instead of O(T). The chain is
//! the dense loop's in distribution, not bit for bit;
//! [`Inference::fold_in_dense`] keeps that O(T) loop as the test oracle.
//!
//! After the sweeps `θ̃_td = (ñ_dt + α) / (ñ_d + Tα)` and the document's
//! perplexity is `exp(−Σ_j ln Σ_t φ_t,w_j θ̃_t / ñ_d)`. The scorer rebuilds
//! each token's dense φ row from the table and sums it left to right, so
//! scores keep the bits of a dense φ. This is the cheap single-document
//! specialization of the paper's held-out estimator: the `n + ñ` equations
//! collapse to fixed φ because one document's counts are negligible against
//! the training mass (and must be, for results on one request to be
//! independent of every other request in flight).

use crate::error::CoreError;
use crate::model::FittedModel;
use crate::persist::CountCells;
use crate::prior::{TopicPrior, TopicTerms};
use rand::Rng;
use srclda_math::categorical::binary_search_cumulative;
use srclda_math::{rng_from_seed, DenseMatrix, SldaRng};

/// Options for one fold-in run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FoldInConfig {
    /// Gibbs sweeps over the document (clamped to at least 1).
    pub iterations: usize,
    /// RNG seed — fold-in is a pure function of `(φ, α, tokens, seed)`.
    pub seed: u64,
}

impl Default for FoldInConfig {
    fn default() -> Self {
        Self {
            iterations: 30,
            seed: 0,
        }
    }
}

/// The posterior summary of one folded-in document.
#[derive(Debug, Clone, PartialEq)]
pub struct InferredDocument {
    theta: Vec<f64>,
    assignments: Vec<u32>,
    log_likelihood: f64,
}

impl InferredDocument {
    /// The document–topic distribution θ̃ (length `T`, sums to 1).
    pub fn theta(&self) -> &[f64] {
        &self.theta
    }

    /// Final per-token topic assignments (same length as the input tokens).
    pub fn assignments(&self) -> &[u32] {
        &self.assignments
    }

    /// Number of tokens that were folded in.
    pub fn num_tokens(&self) -> usize {
        self.assignments.len()
    }

    /// Total log-likelihood `Σ_j ln p(w_j | φ, θ̃)`.
    pub fn log_likelihood(&self) -> f64 {
        self.log_likelihood
    }

    /// Per-token perplexity `exp(−log-likelihood / ñ_d)`; lower is better.
    ///
    /// An empty document carries no evidence and reports the neutral 1.0.
    pub fn perplexity(&self) -> f64 {
        if self.assignments.is_empty() {
            1.0
        } else {
            (-self.log_likelihood / self.assignments.len() as f64).exp()
        }
    }

    /// Indices of the `n` most probable topics, descending (ties broken by
    /// lowest index — see [`srclda_math::simplex::top_n_indices`]).
    pub fn top_topics(&self, n: usize) -> Vec<usize> {
        srclda_math::simplex::top_n_indices(&self.theta, n)
    }
}

/// φ as per-topic baselines plus per-word exceptions (see the module
/// docs). Row `w` of the dense word-major φ is `baseline` with the
/// exceptions of `w` written over it, bit for bit.
#[derive(Debug, Clone)]
pub(crate) struct PhiTable {
    /// `b_t = min_w φ_tw`; `1/V` for a topic whose weights sum to zero.
    baseline: Vec<f64>,
    /// The exceptions of word `w` are entries `starts[w]..starts[w + 1]`
    /// of `topics` and `values`.
    starts: Vec<usize>,
    /// Exception topics, ascending within each word.
    topics: Vec<u32>,
    /// Exception values: the exact `φ_tw`, each other than `b_t`.
    values: Vec<f64>,
}

/// The smallest of `xs` by `<` (`+∞` when none compares below it).
fn minimum(xs: &[f64]) -> f64 {
    xs.iter()
        .fold(f64::INFINITY, |low, &x| if x < low { x } else { low })
}

impl PhiTable {
    /// The table of a topic-major (`T × V`) φ: its exceptions are counted
    /// per word, then written topic by topic, so each word's come out
    /// sorted by topic.
    fn from_topic_major(phi: &DenseMatrix<f64>) -> Self {
        let v = phi.cols();
        let baseline: Vec<f64> = phi.iter_rows().map(minimum).collect();
        let mut starts = vec![0usize; v + 1];
        for (row, &b) in phi.iter_rows().zip(&baseline) {
            for (w, &x) in row.iter().enumerate() {
                if x.to_bits() != b.to_bits() {
                    starts[w + 1] += 1;
                }
            }
        }
        for w in 0..v {
            starts[w + 1] += starts[w];
        }
        let mut next = starts[..v].to_vec();
        let mut topics = vec![0u32; starts[v]];
        let mut values = vec![0.0; starts[v]];
        for (t, (row, &b)) in phi.iter_rows().zip(&baseline).enumerate() {
            for (w, &x) in row.iter().enumerate() {
                if x.to_bits() != b.to_bits() {
                    topics[next[w]] = t as u32;
                    values[next[w]] = x;
                    next[w] += 1;
                }
            }
        }
        Self {
            baseline,
            starts,
            topics,
            values,
        }
    }

    /// The table of φ at the counts `counts` under `priors` (Eq. 1 /
    /// Eq. 4), holding exactly the values the fitted φ holds for the same
    /// counts and priors, in two passes over [`CountRows`]. The first adds
    /// each topic's weights in word order, as
    /// [`DenseMatrix::normalize_rows`] does, and takes each topic's
    /// smallest weight; dividing by a positive sum is monotone, so that
    /// weight over the sum is the baseline. The second divides and keeps
    /// the values other than the baseline: two distinct weights can divide
    /// to one value, so only the divided values are compared. A topic
    /// whose weights do not sum to a positive number is uniform, as
    /// `normalize_rows` makes it, and has no exceptions. `priors` must be
    /// `counts`' `T` priors over its `V` words.
    pub(crate) fn from_counts(priors: &[TopicPrior], counts: &CountCells) -> Self {
        let rows = CountRows::new(priors, counts);
        let t_count = counts.num_topics();
        let mut sums = vec![0.0f64; t_count];
        let mut smallest = vec![f64::INFINITY; t_count];
        rows.for_each(|row| {
            for ((sum, low), &x) in sums.iter_mut().zip(smallest.iter_mut()).zip(row) {
                *sum += x;
                if x < *low {
                    *low = x;
                }
            }
        });
        let uniform = 1.0 / counts.vocab_size() as f64;
        let baseline: Vec<f64> = sums
            .iter()
            .zip(&smallest)
            .map(|(&sum, &low)| if sum > 0.0 { low / sum } else { uniform })
            .collect();
        let mut starts = Vec::with_capacity(counts.vocab_size() + 1);
        starts.push(0);
        let (mut topics, mut values) = (Vec::new(), Vec::new());
        rows.for_each(|row| {
            let terms = row.iter().zip(&smallest).zip(&sums).zip(&baseline);
            for (t, (((&x, &low), &sum), &b)) in terms.enumerate() {
                // A weight equal to the smallest divides to the baseline.
                if x.to_bits() != low.to_bits() && sum > 0.0 {
                    let x = x / sum;
                    if x.to_bits() != b.to_bits() {
                        topics.push(t as u32);
                        values.push(x);
                    }
                }
            }
            starts.push(topics.len());
        });
        topics.shrink_to_fit();
        values.shrink_to_fit();
        Self {
            baseline,
            starts,
            topics,
            values,
        }
    }

    /// Topic count `T`.
    fn num_topics(&self) -> usize {
        self.baseline.len()
    }

    /// Vocabulary size `V`.
    fn vocab_size(&self) -> usize {
        self.starts.len() - 1
    }

    /// The exceptions of word `w`: their topics and their values.
    #[inline]
    fn exceptions(&self, w: usize) -> (&[u32], &[f64]) {
        let (start, end) = (self.starts[w], self.starts[w + 1]);
        (&self.topics[start..end], &self.values[start..end])
    }

    /// Row `w` of the dense word-major φ: the baselines, then `w`'s
    /// exceptions written over them.
    #[inline]
    fn row_into(&self, w: usize, row: &mut [f64]) {
        row.copy_from_slice(&self.baseline);
        let (topics, values) = self.exceptions(w);
        for (&t, &x) in topics.iter().zip(values) {
            row[t as usize] = x;
        }
    }

    /// φ topic-major (`T × V`), written out in full.
    pub(crate) fn to_topic_major(&self) -> DenseMatrix<f64> {
        let mut phi = DenseMatrix::zeros(self.num_topics(), self.vocab_size());
        for (t, &b) in self.baseline.iter().enumerate() {
            phi.row_mut(t).fill(b);
        }
        for w in 0..self.vocab_size() {
            let (topics, values) = self.exceptions(w);
            for (&t, &x) in topics.iter().zip(values) {
                phi[(t as usize, w)] = x;
            }
        }
        phi
    }
}

/// The unnormalized φ rows of a model stored as counts, one word at a
/// time: row `w` holds every topic's weight of `w` at its count, from each
/// topic's [`TopicTerms`], taken once. The row starts from every topic's
/// shared zero-count weight, then takes the topics whose words each have
/// their own weight, the λ-integrated topics that have `w` on their
/// support, and the non-zero cells of `w`, which one cursor walks in index
/// order.
struct CountRows<'p> {
    counts: &'p CountCells,
    terms: Vec<TopicTerms<'p>>,
    /// Each topic's shared zero-count weight (0 where it has none).
    template: Vec<f64>,
    /// The topics with no shared zero-count weight.
    own_words: Vec<usize>,
    /// The support words of every topic, grouped by word: the (topic, δ
    /// row index) pairs of word `w` are `own_rows[starts[w]..starts[w + 1]]`.
    starts: Vec<usize>,
    own_rows: Vec<(usize, usize)>,
}

impl<'p> CountRows<'p> {
    fn new(priors: &'p [TopicPrior], counts: &'p CountCells) -> Self {
        let v = counts.vocab_size();
        let terms: Vec<TopicTerms> = priors
            .iter()
            .zip(counts.nt())
            .map(|(prior, &nt)| TopicTerms::new(prior, f64::from(nt)))
            .collect();
        let shared: Vec<Option<f64>> = terms.iter().map(TopicTerms::shared_zero_weight).collect();
        let template = shared.iter().map(|s| s.unwrap_or(0.0)).collect();
        let own_words = (0..shared.len()).filter(|&t| shared[t].is_none()).collect();
        let mut starts = vec![0usize; v + 1];
        for term in &terms {
            for (w, _) in term.own_rows() {
                starts[w + 1] += 1;
            }
        }
        for w in 0..v {
            starts[w + 1] += starts[w];
        }
        let mut own_rows = vec![(0usize, 0usize); starts[v]];
        let mut next = starts.clone();
        for (t, term) in terms.iter().enumerate() {
            for (w, i) in term.own_rows() {
                own_rows[next[w]] = (t, i);
                next[w] += 1;
            }
        }
        Self {
            counts,
            terms,
            template,
            own_words,
            starts,
            own_rows,
        }
    }

    /// Call `f` on the row of every word, in word order, through one
    /// reused row of length `T`.
    fn for_each(&self, mut f: impl FnMut(&[f64])) {
        let t_wide = self.template.len() as u64;
        let mut row = self.template.clone();
        let mut cells = self.counts.cells();
        for w in 0..self.counts.vocab_size() {
            row.copy_from_slice(&self.template);
            for &t in &self.own_words {
                row[t] = self.terms[t].weight(w, 0.0);
            }
            for &(t, i) in &self.own_rows[self.starts[w]..self.starts[w + 1]] {
                row[t] = self.terms[t].weight_at(w, i, 0.0);
            }
            let end = (w as u64 + 1) * t_wide;
            let here = cells.iter().take_while(|&&(index, _)| index < end).count();
            let (word_cells, rest) = cells.split_at(here);
            for &(index, n) in word_cells {
                let t = (index % t_wide) as usize;
                row[t] = self.terms[t].weight(w, f64::from(n));
            }
            cells = rest;
            f(&row);
        }
    }
}

/// One document's topic counts during fold-in.
struct DocTopics {
    alpha: f64,
    nd: Vec<u32>,
    /// `fact[t]` mirrors `nd[t] as f64 + α`, patched at the two topics a
    /// token move touches — the same incremental bookkeeping as the
    /// training kernel, and bit-identical to recomputing per topic.
    fact: Vec<f64>,
    /// The topics with `nd[t] > 0`, ascending.
    topics: Vec<u32>,
}

impl DocTopics {
    fn new(nd: Vec<u32>, alpha: f64) -> Self {
        let fact = nd.iter().map(|&n| n as f64 + alpha).collect();
        let topics = (0..nd.len() as u32)
            .filter(|&t| nd[t as usize] > 0)
            .collect();
        Self {
            alpha,
            nd,
            fact,
            topics,
        }
    }

    /// Take one token off topic `t`.
    fn remove(&mut self, t: usize) {
        self.nd[t] -= 1;
        self.fact[t] = self.nd[t] as f64 + self.alpha;
        if self.nd[t] == 0 {
            if let Ok(i) = self.topics.binary_search(&(t as u32)) {
                self.topics.remove(i);
            }
        }
    }

    /// Put one token on topic `t`.
    fn add(&mut self, t: usize) {
        if self.nd[t] == 0 {
            if let Err(i) = self.topics.binary_search(&(t as u32)) {
                self.topics.insert(i, t as u32);
            }
        }
        self.nd[t] += 1;
        self.fact[t] = self.nd[t] as f64 + self.alpha;
    }
}

/// A scoring-only view of a trained topic model: φ, α, and labels.
///
/// Build from a live [`FittedModel`] ([`Inference::from_fitted`]), from
/// deserialized parts ([`Inference::from_parts`]) or from sampler state
/// ([`Inference::from_counts`]); every path builds the same table for the
/// same φ, so fold-in results are bit-identical for the same seed.
#[derive(Debug, Clone)]
pub struct Inference {
    /// φ as per-topic baselines plus per-word exceptions. This is the only
    /// copy of φ.
    phi: PhiTable,
    /// Running sums of `α·b_t` over the topics: the smoothing bucket, the
    /// same for every token the engine folds in.
    smoothing: Vec<f64>,
    alpha: f64,
    labels: Vec<Option<String>>,
}

/// Fill `buf` with the running sums of `phi_row[t] · fact[t]`, added left
/// to right, and return the total. The serial sum bounds the loop at one
/// add latency per topic; taking four topics per iteration keeps its speed
/// independent of where the linker places it (on a 2-vCPU Intel Xeon, a
/// one-topic body ran ~20% slower at T = 2000 whenever it straddled a
/// 64-byte line).
fn cumulative_weights(phi_row: &[f64], fact: &[f64], buf: &mut [f64]) -> f64 {
    let split = phi_row.len() - phi_row.len() % 4;
    let mut acc = 0.0;
    let blocks = buf[..split]
        .chunks_exact_mut(4)
        .zip(phi_row[..split].chunks_exact(4))
        .zip(fact[..split].chunks_exact(4));
    for ((b, p), f) in blocks {
        for i in 0..4 {
            acc += p[i] * f[i];
            b[i] = acc;
        }
    }
    let tail = buf[split..].iter_mut().zip(&phi_row[split..]);
    for ((b, &p), &f) in tail.zip(&fact[split..]) {
        acc += p * f;
        *b = acc;
    }
    acc
}

/// Fails unless a `topics × words` model has topics and words, α is
/// positive and finite, and there is one label per topic.
fn check_parts(topics: usize, words: usize, alpha: f64, labels: usize) -> crate::Result<()> {
    if topics == 0 || words == 0 {
        return Err(CoreError::NoTopics);
    }
    if !(alpha > 0.0 && alpha.is_finite()) {
        return Err(CoreError::NonPositiveParameter {
            name: "alpha",
            value: alpha,
        });
    }
    if labels != topics {
        return Err(CoreError::InvalidConfig(format!(
            "{labels} labels for {topics} topics"
        )));
    }
    Ok(())
}

impl Inference {
    fn new(phi: PhiTable, alpha: f64, labels: Vec<Option<String>>) -> Self {
        let mut acc = 0.0;
        let smoothing = phi
            .baseline
            .iter()
            .map(|&b| {
                acc += alpha * b;
                acc
            })
            .collect();
        Self {
            phi,
            smoothing,
            alpha,
            labels,
        }
    }

    /// Build from explicit parts; `phi` is topic-major (`T × V`) and is
    /// read into the engine's table.
    ///
    /// # Errors
    /// Fails if φ has no topics or no words, `alpha` is not positive and
    /// finite, or the label count does not match φ's topic count.
    pub fn from_parts(
        phi: &DenseMatrix<f64>,
        alpha: f64,
        labels: Vec<Option<String>>,
    ) -> crate::Result<Self> {
        check_parts(phi.rows(), phi.cols(), alpha, labels.len())?;
        Ok(Self::new(PhiTable::from_topic_major(phi), alpha, labels))
    }

    /// Build from sampler state: φ at the counts `counts` under `priors`
    /// (Eq. 1 / Eq. 4), derived straight into the engine's table. No
    /// dense φ and no dense `nw` is built, and the table holds bit for bit
    /// the φ [`Self::from_fitted`] serves for the same counts and priors.
    ///
    /// # Errors
    /// Fails if there are no topics or no words, `alpha` is not positive
    /// and finite, the label count does not match the topic count, or
    /// `priors` are not one prior per topic over the counts' vocabulary.
    pub fn from_counts(
        priors: &[TopicPrior],
        counts: &CountCells,
        alpha: f64,
        labels: Vec<Option<String>>,
    ) -> crate::Result<Self> {
        check_parts(
            counts.num_topics(),
            counts.vocab_size(),
            alpha,
            labels.len(),
        )?;
        counts.check_priors(priors)?;
        Ok(Self::new(
            PhiTable::from_counts(priors, counts),
            alpha,
            labels,
        ))
    }

    /// Snapshot a fitted model's φ/α/labels for serving.
    pub fn from_fitted(fitted: &FittedModel) -> Self {
        Self::new(
            PhiTable::from_topic_major(fitted.phi()),
            fitted.alpha(),
            fitted.labels().to_vec(),
        )
    }

    /// Topic count `T`.
    pub fn num_topics(&self) -> usize {
        self.phi.num_topics()
    }

    /// Vocabulary size `V`.
    pub fn vocab_size(&self) -> usize {
        self.phi.vocab_size()
    }

    /// The document–topic prior α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Per-topic labels (`None` for unlabeled topics).
    pub fn labels(&self) -> &[Option<String>] {
        &self.labels
    }

    /// Label of one topic.
    pub fn label(&self, t: usize) -> Option<&str> {
        self.labels[t].as_deref()
    }

    /// Fold one tokenized document into the model, drawing each token from
    /// the three buckets of the module docs.
    ///
    /// Deterministic: the result is a pure function of the engine state,
    /// `tokens`, and `config.seed`. An empty token slice yields the prior
    /// (uniform) θ with perplexity 1.
    ///
    /// # Errors
    /// Fails if any token id is outside the model's vocabulary.
    pub fn fold_in(
        &self,
        tokens: &[u32],
        config: &FoldInConfig,
    ) -> crate::Result<InferredDocument> {
        self.check_tokens(tokens)?;
        let longest = tokens
            .iter()
            .map(|&w| self.phi.exceptions(w as usize).0.len())
            .max();
        let mut word_sums = vec![0.0; longest.unwrap_or(0)];
        Ok(self.run_fold_in(tokens, config, |w, doc, rng| {
            self.draw(w, doc, &mut word_sums, rng)
        }))
    }

    /// [`Self::fold_in`] through the O(T) dense loop: per token, the
    /// word's dense row rebuilt from the table, the running sum of
    /// `φ_tw · (ñ_dt + α)` over every topic, and one binary search. It is
    /// the test oracle the bucket draws are checked against, and its bits
    /// are pinned; serving never runs it.
    ///
    /// # Errors
    /// Fails if any token id is outside the model's vocabulary.
    pub fn fold_in_dense(
        &self,
        tokens: &[u32],
        config: &FoldInConfig,
    ) -> crate::Result<InferredDocument> {
        self.check_tokens(tokens)?;
        let t_count = self.num_topics();
        let (mut row, mut buf) = (vec![0.0; t_count], vec![0.0; t_count]);
        Ok(self.run_fold_in(tokens, config, |w, doc, rng| {
            self.phi.row_into(w, &mut row);
            let acc = cumulative_weights(&row, &doc.fact, &mut buf);
            if acc > 0.0 && acc.is_finite() {
                let u = rng.gen::<f64>() * acc;
                binary_search_cumulative(&buf, u)
            } else {
                rng.gen_range(0..t_count)
            }
        }))
    }

    /// Fails if any token id is outside the model's vocabulary.
    fn check_tokens(&self, tokens: &[u32]) -> crate::Result<()> {
        let v = self.vocab_size();
        match tokens.iter().find(|&&w| w as usize >= v) {
            Some(&w) => Err(CoreError::InvalidConfig(format!(
                "token id {w} outside model vocabulary of size {v}"
            ))),
            None => Ok(()),
        }
    }

    /// The fold-in sweeps around one draw: random initial topics, then
    /// `config.iterations` sweeps that take each token off its topic, draw
    /// a new one with `draw(word, counts, rng)` and put it there. `tokens`
    /// must be in the vocabulary ([`Self::check_tokens`]).
    fn run_fold_in(
        &self,
        tokens: &[u32],
        config: &FoldInConfig,
        mut draw: impl FnMut(usize, &DocTopics, &mut SldaRng) -> usize,
    ) -> InferredDocument {
        let t_count = self.num_topics();
        let denom = tokens.len() as f64 + t_count as f64 * self.alpha;
        if tokens.is_empty() {
            return InferredDocument {
                theta: vec![1.0 / t_count as f64; t_count],
                assignments: Vec::new(),
                log_likelihood: 0.0,
            };
        }

        let mut rng = rng_from_seed(config.seed);
        let mut nd = vec![0u32; t_count];
        let mut z: Vec<u32> = tokens
            .iter()
            .map(|_| {
                let t = rng.gen_range(0..t_count);
                nd[t] += 1;
                t as u32
            })
            .collect();
        let mut doc = DocTopics::new(nd, self.alpha);
        for _ in 0..config.iterations.max(1) {
            for (j, &word) in tokens.iter().enumerate() {
                doc.remove(z[j] as usize);
                let new = draw(word as usize, &doc, &mut rng);
                z[j] = new as u32;
                doc.add(new);
            }
        }

        let theta: Vec<f64> = doc
            .nd
            .iter()
            .map(|&n| (n as f64 + self.alpha) / denom)
            .collect();
        let log_likelihood = self.token_log_likelihood(&theta, tokens);
        InferredDocument {
            theta,
            assignments: z,
            log_likelihood,
        }
    }

    /// One bucket draw for a token of word `w` whose own count is off
    /// `doc`, with `word_sums` (at least `w`'s exception count long) as
    /// scratch for the word bucket's running sums. One uniform, scaled to
    /// `q + r + s`, picks the bucket and the topic. A draw that a rounding
    /// overrun carries past its bucket's last entry still lands on a topic:
    /// the document bucket's last, or the smoothing bucket's last.
    #[inline]
    fn draw(&self, w: usize, doc: &DocTopics, word_sums: &mut [f64], rng: &mut SldaRng) -> usize {
        let baseline = &self.phi.baseline;
        let (topics, values) = self.phi.exceptions(w);
        let mut q = 0.0;
        for ((sum, &t), &x) in word_sums.iter_mut().zip(topics).zip(values) {
            let t = t as usize;
            q += (x - baseline[t]) * doc.fact[t];
            *sum = q;
        }
        let doc_mass = |t: u32| f64::from(doc.nd[t as usize]) * baseline[t as usize];
        let mut r = 0.0;
        for &t in &doc.topics {
            r += doc_mass(t);
        }
        let s = self.smoothing[self.smoothing.len() - 1];
        let total = q + r + s;
        if !(total > 0.0 && total.is_finite()) {
            return rng.gen_range(0..baseline.len());
        }
        let u = rng.gen::<f64>() * total;
        if u < q {
            return topics[binary_search_cumulative(&word_sums[..topics.len()], u)] as usize;
        }
        let u = u - q;
        if u < r {
            let mut acc = 0.0;
            for &t in &doc.topics {
                acc += doc_mass(t);
                if u < acc {
                    return t as usize;
                }
            }
            if let Some(&t) = doc.topics.last() {
                return t as usize;
            }
        }
        binary_search_cumulative(&self.smoothing, u - r)
    }

    /// `Σ_j ln p(w_j)` for `tokens` under the document mixture `theta`:
    /// `p(w) = Σ_t φ_tw θ_t`, with `w`'s dense row rebuilt from the table,
    /// summed left to right and floored at 1e-300 to keep logs finite.
    ///
    /// The one scorer: fold-in and both held-out perplexity estimators
    /// ([`crate::perplexity`]) call it, so every path scores documents
    /// identically.
    pub fn token_log_likelihood(&self, theta: &[f64], tokens: &[u32]) -> f64 {
        debug_assert_eq!(theta.len(), self.num_topics());
        let mut row = vec![0.0; theta.len()];
        let mut buf = vec![0.0; theta.len()];
        let mut log_prob = 0.0;
        for &w in tokens {
            self.phi.row_into(w as usize, &mut row);
            let p = cumulative_weights(&row, theta, &mut buf);
            log_prob += p.max(1e-300).ln();
        }
        log_prob
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lda::Lda;
    use srclda_corpus::{Corpus, CorpusBuilder, Tokenizer};

    fn train() -> (Corpus, FittedModel) {
        let mut b = CorpusBuilder::new().tokenizer(Tokenizer::permissive());
        for _ in 0..10 {
            b.add_tokens("a", &["cat", "dog", "pet", "cat"]);
            b.add_tokens("b", &["stock", "bond", "fund", "stock"]);
        }
        let corpus = b.build();
        let fitted = Lda::builder()
            .topics(2)
            .alpha(0.5)
            .beta(0.1)
            .iterations(100)
            .seed(17)
            .build()
            .unwrap()
            .fit(&corpus)
            .unwrap();
        (corpus, fitted)
    }

    fn ids(corpus: &Corpus, words: &[&str]) -> Vec<u32> {
        words
            .iter()
            .map(|w| corpus.vocabulary().get(w).unwrap().0)
            .collect()
    }

    #[test]
    fn fold_in_produces_normalized_theta() {
        let (corpus, fitted) = train();
        let inf = Inference::from_fitted(&fitted);
        let doc = ids(&corpus, &["cat", "dog", "cat", "pet"]);
        let out = inf.fold_in(&doc, &FoldInConfig::default()).unwrap();
        let sum: f64 = out.theta().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "theta sums to {sum}");
        assert_eq!(out.num_tokens(), 4);
        assert_eq!(out.assignments().len(), 4);
        assert!(out.perplexity() > 1.0);
    }

    #[test]
    fn fold_in_recovers_the_dominant_topic() {
        let (corpus, fitted) = train();
        let inf = Inference::from_fitted(&fitted);
        let animals = ids(&corpus, &["cat", "dog", "pet", "cat", "dog"]);
        let finance = ids(&corpus, &["stock", "bond", "fund", "stock", "bond"]);
        let cfg = FoldInConfig {
            iterations: 50,
            seed: 3,
        };
        for fold_in in [Inference::fold_in, Inference::fold_in_dense] {
            let a = fold_in(&inf, &animals, &cfg).unwrap();
            let f = fold_in(&inf, &finance, &cfg).unwrap();
            let ta = a.top_topics(1)[0];
            let tf = f.top_topics(1)[0];
            assert_ne!(ta, tf, "distinct themes should land on distinct topics");
            assert!(
                a.theta()[ta] > 0.7,
                "theme should dominate: {:?}",
                a.theta()
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (corpus, fitted) = train();
        let inf = Inference::from_fitted(&fitted);
        let doc = ids(&corpus, &["cat", "stock", "dog", "fund"]);
        let cfg = FoldInConfig {
            iterations: 25,
            seed: 99,
        };
        let a = inf.fold_in(&doc, &cfg).unwrap();
        let b = inf.fold_in(&doc, &cfg).unwrap();
        assert_eq!(a, b);
        // A different seed is allowed (and here, expected) to mix differently.
        let c = inf
            .fold_in(
                &doc,
                &FoldInConfig {
                    iterations: 25,
                    seed: 100,
                },
            )
            .unwrap();
        assert_eq!(a.num_tokens(), c.num_tokens());
    }

    #[test]
    fn from_parts_matches_from_fitted_bit_exactly() {
        let (corpus, fitted) = train();
        let a = Inference::from_fitted(&fitted);
        let b =
            Inference::from_parts(fitted.phi(), fitted.alpha(), fitted.labels().to_vec()).unwrap();
        let doc = ids(&corpus, &["pet", "fund", "cat", "cat"]);
        let cfg = FoldInConfig {
            iterations: 40,
            seed: 7,
        };
        let ra = a.fold_in(&doc, &cfg).unwrap();
        let rb = b.fold_in(&doc, &cfg).unwrap();
        assert_eq!(ra.theta(), rb.theta());
        assert_eq!(ra.assignments(), rb.assignments());
        assert_eq!(ra.log_likelihood(), rb.log_likelihood());
    }

    #[test]
    fn empty_document_yields_prior_theta() {
        let (_, fitted) = train();
        let inf = Inference::from_fitted(&fitted);
        let out = inf.fold_in(&[], &FoldInConfig::default()).unwrap();
        assert_eq!(out.num_tokens(), 0);
        assert_eq!(out.theta(), &[0.5, 0.5]);
        assert_eq!(out.perplexity(), 1.0);
        assert_eq!(out.log_likelihood(), 0.0);
    }

    #[test]
    fn rejects_out_of_vocabulary_token_ids() {
        let (_, fitted) = train();
        let inf = Inference::from_fitted(&fitted);
        let v = inf.vocab_size() as u32;
        for fold_in in [Inference::fold_in, Inference::fold_in_dense] {
            assert!(matches!(
                fold_in(&inf, &[0, v], &FoldInConfig::default()),
                Err(CoreError::InvalidConfig(_))
            ));
        }
    }

    #[test]
    fn rejects_bad_construction() {
        let phi = DenseMatrix::filled(2, 2, 0.25);
        assert!(Inference::from_parts(&DenseMatrix::zeros(0, 4), 0.5, vec![]).is_err());
        assert!(Inference::from_parts(&phi, 0.0, vec![None, None]).is_err());
        assert!(Inference::from_parts(&phi, 0.5, vec![None]).is_err());
    }

    #[test]
    fn labels_carry_over() {
        let (_, fitted) = train();
        let mut inf = Inference::from_fitted(&fitted);
        assert_eq!(inf.labels().len(), 2);
        inf =
            Inference::from_parts(fitted.phi(), inf.alpha(), vec![Some("A".into()), None]).unwrap();
        assert_eq!(inf.label(0), Some("A"));
        assert_eq!(inf.label(1), None);
    }

    /// The word-major rows rebuilt from the table are the fitted φ,
    /// transposed, bit for bit, and so is the table written out
    /// topic-major.
    #[test]
    fn transposed_phi_matches_topic_major_phi() {
        let (_, fitted) = train();
        let inf = Inference::from_fitted(&fitted);
        assert_eq!(inf.vocab_size(), fitted.vocab_size());
        assert_eq!(inf.num_topics(), fitted.num_topics());
        let mut row = vec![0.0; inf.num_topics()];
        for w in 0..inf.vocab_size() {
            inf.phi.row_into(w, &mut row);
            for (t, x) in row.iter().enumerate() {
                assert_eq!(x.to_bits(), fitted.phi()[(t, w)].to_bits());
            }
        }
        assert_eq!(&inf.phi.to_topic_major(), fitted.phi());
    }

    /// Exceptions follow values: a topic dipping below its common weight
    /// lists every other word, a topic with a zero cell lists its non-zero
    /// words, and a uniform topic lists none.
    #[test]
    fn exceptions_are_the_values_other_than_the_minimum() {
        #[rustfmt::skip]
        let phi = DenseMatrix::from_vec(3, 4, vec![
            0.3, 0.3, 0.3, 0.1,
            0.5, 0.0, 0.25, 0.25,
            0.25, 0.25, 0.25, 0.25,
        ]);
        let inf = Inference::from_parts(&phi, 0.5, vec![None; 3]).unwrap();
        assert_eq!(inf.phi.baseline, [0.1, 0.0, 0.25]);
        let listed: Vec<(Vec<u32>, Vec<f64>)> = (0..4)
            .map(|w| {
                let (topics, values) = inf.phi.exceptions(w);
                (topics.to_vec(), values.to_vec())
            })
            .collect();
        assert_eq!(
            listed,
            [
                (vec![0, 1], vec![0.3, 0.5]),
                (vec![0], vec![0.3]),
                (vec![0, 1], vec![0.3, 0.25]),
                (vec![1], vec![0.25]),
            ]
        );
        assert_eq!(inf.phi.to_topic_major(), phi);
    }

    /// A word no topic gives any weight has no mass to draw from: both
    /// kernels fall back to a uniform topic, in range, without a panic.
    #[test]
    fn zero_mass_words_draw_a_topic_in_range() {
        let phi = DenseMatrix::from_vec(2, 3, vec![0.5, 0.5, 0.0, 1.0, 0.0, 0.0]);
        let inf = Inference::from_parts(&phi, 0.5, vec![None; 2]).unwrap();
        for fold_in in [Inference::fold_in, Inference::fold_in_dense] {
            for seed in 0..20 {
                let config = FoldInConfig {
                    iterations: 5,
                    seed,
                };
                let out = fold_in(&inf, &[2, 2, 0, 1], &config).unwrap();
                assert!(out.assignments().iter().all(|&t| t < 2));
                assert!((out.theta().iter().sum::<f64>() - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn token_log_likelihood_matches_manual_sum() {
        let phi = DenseMatrix::from_vec(2, 2, vec![0.9, 0.1, 0.2, 0.8]);
        let inf = Inference::from_parts(&phi, 0.5, vec![None, None]).unwrap();
        let theta = [0.25, 0.75];
        let ll = inf.token_log_likelihood(&theta, &[0, 1, 1]);
        let p0: f64 = 0.9 * 0.25 + 0.2 * 0.75;
        let p1: f64 = 0.1 * 0.25 + 0.8 * 0.75;
        let manual = p0.ln() + p1.ln() + p1.ln();
        assert!((ll - manual).abs() < 1e-12);
    }
}
