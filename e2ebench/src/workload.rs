//! The two workloads. Every number here is a fixed constant chosen from
//! seed measurements on a 2-vCPU host; nothing is computed from the
//! machine at run time, so a parent and a change see the same load.

use srclda_core::{Backend, KernelKind};

/// Which Source-LDA variant is trained.
#[derive(Clone, Copy)]
pub enum Model {
    /// λ-integrated (§III.C) with adaptive λ.
    Full { adapt_every: usize, burn_in: usize },
    /// Fixed δ priors plus unlabeled topics (§III.B).
    Mixture { unlabeled: usize },
}

/// The `/infer` request shape.
#[derive(Clone, Copy)]
pub enum Requests {
    /// `{"text": …}`, every document distinct.
    Single { doc_len: usize },
    /// `{"docs": […]}` of `docs` documents drawn Zipf(1) from a pool.
    Batch {
        docs: usize,
        doc_len: usize,
        pool: usize,
    },
}

pub struct Workload {
    pub name: &'static str,
    // The generating world.
    pub vocab: usize,
    pub source_topics: usize,
    /// Topics that generate text but have no knowledge-source article.
    pub hidden_topics: usize,
    /// Source topics documents actually draw from.
    pub active_topics: usize,
    pub topics_per_doc: usize,
    pub support: usize,
    pub article_len: usize,
    /// Share of tokens drawn uniformly from the whole vocabulary.
    pub background: f64,
    pub docs: usize,
    pub doc_len: usize,
    pub heldout_docs: usize,
    // Training.
    pub model: Model,
    pub backend: Backend,
    pub sweeps: usize,
    pub checkpoint_every: Option<usize>,
    /// Rounds with a set-up and a train phase.
    pub train_reps: usize,
    pub perplexity_iters: usize,
    // Serving.
    pub requests: Requests,
    /// Distinct request bodies generated for the run.
    pub request_docs: usize,
    /// Rounds with a fixed-rate serving phase on a fresh daemon.
    pub serve_rounds: usize,
    /// Share of `--seconds` the fixed-rate phases take, all rounds together.
    pub fixed_share: f64,
    /// Untimed requests sent before timing, on each fresh daemon.
    pub warmup_requests: usize,
    /// Idle `/reload` round trips after each fixed-rate phase.
    pub idle_reloads: usize,
    /// Offered rate of the fixed-rate phase (requests/s).
    pub rate: f64,
    /// Rate ladder: `ladder_base · LADDER_RATIO^k` for `k < ladder_steps`.
    pub ladder_base: f64,
    pub ladder_steps: usize,
    /// Rung the staircase search starts from.
    pub ladder_start: usize,
    /// Length of each ladder probe (s): the request count follows from
    /// the rung's rate.
    pub probe_secs: f64,
}

/// Ratio between adjacent ladder rungs.
pub const LADDER_RATIO: f64 = 1.06;

/// A ladder probe passes with p99 under this limit (ms): far above what a
/// host stall does to a probe's tail, far below the tail past the knee.
pub const P99_LIMIT_MS: f64 = 100.0;

/// Daemon settings, passed explicitly so a change of the binary's
/// defaults cannot change the workload.
pub const WORKERS: usize = 2;
pub const CACHE: usize = 1024;
pub const FOLD_IN_SWEEPS: usize = 30;
pub const FOLD_IN_SEED: u64 = 0;

pub const T2000_SPARSE_S2: Workload = Workload {
    name: "t2000_sparse_s2",
    vocab: 6000,
    source_topics: 2000,
    hidden_topics: 0,
    active_topics: 200,
    topics_per_doc: 4,
    support: 20,
    article_len: 200,
    background: 0.08,
    docs: 1000,
    doc_len: 60,
    // Held-out scoring walks every λ-integrated prior per token, so it
    // runs few iterations here.
    heldout_docs: 40,
    model: Model::Full {
        adapt_every: 4,
        burn_in: 4,
    },
    backend: Backend::ShardedDocs {
        kernel: KernelKind::Sparse,
        shards: 2,
        threads: 2,
    },
    sweeps: 10,
    checkpoint_every: Some(5),
    train_reps: 4,
    perplexity_iters: 3,
    requests: Requests::Single { doc_len: 50 },
    request_docs: 12_000,
    // Serving is slowed by the host's spells more than training is, so it
    // is cut into more, shorter rounds spread through the run.
    serve_rounds: 6,
    fixed_share: 0.6,
    warmup_requests: 30,
    idle_reloads: 1,
    // Well under capacity (≈250 req/s), so a slow spell of the host does
    // not turn into a queue.
    rate: 120.0,
    ladder_base: 100.0,
    ladder_steps: 24,
    ladder_start: 14,
    probe_secs: 2.4,
};

pub const T64_FLAT_BATCH: Workload = Workload {
    name: "t64_flat_batch",
    vocab: 2000,
    source_topics: 64,
    hidden_topics: 8,
    active_topics: 64,
    topics_per_doc: 3,
    support: 60,
    article_len: 400,
    background: 0.05,
    docs: 8000,
    doc_len: 50,
    heldout_docs: 400,
    model: Model::Mixture { unlabeled: 8 },
    backend: Backend::Serial,
    sweeps: 5,
    checkpoint_every: None,
    // Many short train phases: on a shared host, identical ~0.6 s phases
    // range over 1.5x, and the mean of many short ones spread through a
    // long run is what stays steady.
    train_reps: 32,
    perplexity_iters: 20,
    requests: Requests::Batch {
        docs: 16,
        doc_len: 25,
        pool: 4096,
    },
    request_docs: 40_000,
    serve_rounds: 6,
    fixed_share: 0.6,
    warmup_requests: 150,
    idle_reloads: 5,
    rate: 500.0,
    ladder_base: 200.0,
    ladder_steps: 48,
    ladder_start: 33,
    probe_secs: 0.8,
};

pub const ALL: [&Workload; 2] = [&T2000_SPARSE_S2, &T64_FLAT_BATCH];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().copied().find(|w| w.name == name)
}

impl Workload {
    pub fn ladder(&self) -> Vec<f64> {
        (0..self.ladder_steps)
            .map(|k| self.ladder_base * LADDER_RATIO.powi(k as i32))
            .collect()
    }

    /// Topics the trained model has.
    pub fn model_topics(&self) -> usize {
        match self.model {
            Model::Full { .. } => self.source_topics,
            Model::Mixture { unlabeled } => self.source_topics + unlabeled,
        }
    }
}
