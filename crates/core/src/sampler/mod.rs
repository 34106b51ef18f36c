//! Sampler backends, decomposed along two orthogonal axes: the sweep
//! **kernel** ([`KernelKind`] — dense reference, optimized flat tables,
//! or sub-linear SparseLDA buckets) and the **execution strategy**
//! (single-threaded, document-sharded, or the paper's two exact
//! per-token parallel algorithms). See the kernel × execution matrix on
//! [`Backend`].
//!
//! All backends draw **one uniform variate per token** from their RNG
//! stream. The dense-family kernels realize the same categorical draw, so
//! they walk identical chains from identical seeds; the sparse kernel
//! routes the uniform through bucket thresholds and is held to a
//! distribution-level contract instead. The kernel ([`kernel`]) and the
//! dense reference ([`serial`]) are bit-identical by construction (flat
//! tables and cached reciprocals reproduce `TopicPrior::word_weight`
//! exactly).
//!
//! ## Sweep-state lifecycle
//!
//! `run_sweeps` builds the sweep driver's `ShardState` ([`shard`]) on a
//! fit's first chunk, and the fit loop keeps it and lends it to every later
//! chunk. It holds one `KernelState` in place, or one clone per shard
//! next to the shard's own copy of the counts, which every sweep's merge
//! brings back to the global counts. A kernel state keeps only the tables
//! that depend on the priors' shape and the sparse kernel's non-zero
//! lists. Each sweep builds a transient kernel over that
//! state, and the kernel derives its reciprocals (and the sparse kernel
//! its baselines) from the counts and the current priors at its start, so
//! λ-adaptation between chunks leaves nothing stale.

pub mod adapt;
pub mod kernel;
pub mod parallel;
pub mod serial;
pub mod shard;
pub mod sparse;

use crate::counts::CountMatrices;
use crate::error::CoreError;
use crate::prior::TopicPrior;
use srclda_math::SldaRng;
use std::ops::Range;
use std::sync::Arc;

/// Which **sweep kernel** computes the per-token topic distribution and
/// draws from it — the *arithmetic* axis of the backend matrix, orthogonal
/// to how work is scheduled (single-threaded vs document shards).
///
/// `Dense` and `Flat` realize the identical categorical draw and walk
/// bit-identical chains from one seed (the flat tables reproduce
/// `TopicPrior::word_weight` exactly); `Sparse` routes the same per-token
/// uniform through SparseLDA bucket thresholds, so it walks its own chain
/// and is held to a distribution-level contract instead (see [`sparse`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelKind {
    /// The straightforward per-(token, topic) `word_weight` loop
    /// ([`serial`]) — the O(T) reference arithmetic.
    Dense,
    /// The optimized flat-table kernel ([`kernel`]): struct-of-arrays
    /// sweep tables, cached reciprocals, word-major combined layout.
    /// Bit-identical to `Dense`, several times faster. The default — every
    /// pre-existing config and checkpoint maps here.
    #[default]
    Flat,
    /// The sub-linear SparseLDA bucket kernel ([`sparse`]):
    /// O(k_d + k_w) per token instead of O(T). Distribution-level
    /// equivalent to `Dense`/`Flat`, not bit-equal.
    Sparse,
}

impl KernelKind {
    /// Whether this kernel routes draws through bucket thresholds (walks
    /// its own chain) rather than the dense prefix-sum arithmetic. The
    /// checkpoint layer records this so resume can never silently switch
    /// between the two chain families.
    pub fn is_sparse(&self) -> bool {
        matches!(self, KernelKind::Sparse)
    }
}

/// Which sampling algorithm executes the per-token topic draw.
///
/// ## Kernel × execution matrix
///
/// Backends decompose along two orthogonal axes: the sweep **kernel**
/// ([`KernelKind`] — how one token's topic distribution is computed) and
/// the **execution strategy** (how tokens are scheduled onto threads).
/// Every cell of the matrix that exists is reachable:
///
/// | kernel ↓ \ execution → | single-thread (in place)            | document shards (`S > 1`, AD-LDA)   | per-token parallel (Algorithms 2/3)  |
/// |------------------------|-------------------------------------|-------------------------------------|--------------------------------------|
/// | [`KernelKind::Flat`]   | [`Backend::Serial`], `ShardedDocs { kernel: Flat, shards: 1, .. }` | `ShardedDocs { kernel: Flat, .. }`  | —                                    |
/// | [`KernelKind::Dense`]  | `ShardedDocs { kernel: Dense, shards: 1, .. }` | `ShardedDocs { kernel: Dense, .. }` | [`Backend::PrefixSums`], [`Backend::SimpleParallel`] |
/// | [`KernelKind::Sparse`] | `ShardedDocs { kernel: Sparse, shards: 1, .. }` | `ShardedDocs { kernel: Sparse, .. }` | —                             |
///
/// Every single-thread cell — `Serial`, any `S = 1`, and a paper
/// algorithm whose pool clamps to one thread — runs one sweep driver that
/// sweeps the global counts in place (see [`shard`]).
///
/// Equivalence classes, from one seed:
///
/// * `Serial` ≡ `{ Flat | Dense, shards: 1 }` ≡ `PrefixSums` ≡
///   `SimpleParallel` — **bit-identical** chains (the flat tables and the
///   parallel scans reorganize the same arithmetic without changing the
///   sampled draw). `PrefixSums`/`SimpleParallel` are the paper's
///   per-token algorithms, kept for fidelity; they cap out at T and are
///   superseded for corpus scale by `ShardedDocs` — prefer the shard row
///   for new configs.
/// * At `S > 1` the chain is the AD-LDA approximation, deterministic in
///   `(seed, S, kernel)` with `threads` pure scheduling; `Flat` and
///   `Dense` stay bit-identical to each other at every `S`.
/// * The `Sparse` row is **distribution-level** equivalent to the dense
///   family: exact bucket-mass ≡ dense-mass property tests plus held-out
///   perplexity parity (`tests/kernel_equivalence.rs`,
///   `tests/shard_equivalence.rs`), never bit-equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Single-threaded sampling (Algorithm 1) through the optimized hot
    /// path: flat prior tables, cached reciprocals, sparse document-topic
    /// bookkeeping (see [`kernel`]). The library default; the same chain
    /// as `ShardedDocs { kernel: Flat, shards: 1, .. }`, whose checkpoints
    /// differ only in layout (one shard stream instead of none).
    Serial,
    /// Algorithm 2: Blelloch prefix-sums scan over the probability vector,
    /// parallelized over `threads` workers with per-level barriers.
    PrefixSums {
        /// Number of worker threads `P`.
        threads: usize,
    },
    /// Algorithm 3: per-thread block sums, one barrier, parallel fix-up.
    SimpleParallel {
        /// Number of worker threads `P`.
        threads: usize,
    },
    /// Document-sharded approximate collapsed Gibbs (AD-LDA style, see
    /// [`shard`]): documents are statically partitioned into `shards`
    /// shards; each shard sweeps its own copy of the word/topic counts
    /// with its own RNG stream, and at every sweep boundary the shards'
    /// moves are replayed into the global counts in shard order and every
    /// copy takes the cells the other shards moved.
    ///
    /// The chain is a pure function of `(seed, shards, kernel)` —
    /// `threads` only schedules shard work and never changes a single bit
    /// of the result. `shards: 1` is the single-thread backend of
    /// `kernel`: the lone shard sweeps the global counts in place.
    ShardedDocs {
        /// Sweep kernel each shard runs over its local counts. Defaults
        /// to [`KernelKind::Flat`] ([`Default`]), which reproduces the
        /// pre-kernel-axis sharded chain bit for bit; pick
        /// [`KernelKind::Sparse`] at large T so shards keep the
        /// sub-linear O(k_d + k_w) per-token cost.
        kernel: KernelKind,
        /// Fixed shard count `S` (determinism granularity).
        shards: usize,
        /// Worker threads executing shard sweeps (clamped to `S`).
        threads: usize,
    },
}

impl Backend {
    /// Number of worker threads this backend uses.
    pub fn threads(&self) -> usize {
        match self {
            Backend::Serial => 1,
            Backend::PrefixSums { threads }
            | Backend::SimpleParallel { threads }
            | Backend::ShardedDocs { threads, .. } => *threads,
        }
    }

    /// Number of document shards (1 for every non-sharded backend).
    pub fn shards(&self) -> usize {
        match self {
            Backend::ShardedDocs { shards, .. } => *shards,
            _ => 1,
        }
    }

    /// True iff this is the document-sharded backend (the only backend
    /// whose sampler state includes per-shard RNG streams).
    pub fn is_sharded(&self) -> bool {
        matches!(self, Backend::ShardedDocs { .. })
    }

    /// The sweep kernel this backend runs — the backend's position on the
    /// arithmetic axis of the kernel × execution matrix. `Serial` is the
    /// flat kernel; the paper's per-token parallel algorithms scan the
    /// dense weight vector.
    pub fn kernel(&self) -> KernelKind {
        match self {
            Backend::Serial => KernelKind::Flat,
            Backend::PrefixSums { .. } | Backend::SimpleParallel { .. } => KernelKind::Dense,
            Backend::ShardedDocs { kernel, .. } => *kernel,
        }
    }

    /// Check the configuration is runnable.
    pub(crate) fn validate(&self) -> crate::Result<()> {
        if self.threads() == 0 {
            return Err(CoreError::InvalidConfig(
                "parallel backends need at least one thread".into(),
            ));
        }
        if let Backend::ShardedDocs { shards: 0, .. } = self {
            return Err(CoreError::InvalidConfig(
                "sharded backend needs at least one shard".into(),
            ));
        }
        Ok(())
    }
}

/// Narrow an in-memory index (topic, word, doc position) to its `u32`
/// wire/storage width. Topic counts, vocabulary sizes, and document
/// lengths are all `u32`-sized by construction, so the cast cannot
/// truncate; debug builds verify that.
#[inline]
pub(crate) fn idx_u32(x: usize) -> u32 {
    debug_assert!(u32::try_from(x).is_ok(), "index {x} exceeds u32::MAX");
    x as u32 // lint:allow(narrowing-cast): debug-asserted above; callers pass indices bounded by u32-sized T/V/doc-len
}

/// Split items of the given `weights` into `parts` contiguous ranges of
/// near-equal total weight: the boundary before range `i` is the first
/// item whose cumulative weight before it reaches `total·i/parts`, clamped
/// so the ranges tile in order. A pure function of the weights and
/// `parts` — never of thread count or machine. Ranges are empty wherever
/// the integer targets collapse (possibly at the front), e.g. when `parts`
/// exceeds the items or the total weight.
///
/// # Panics
/// Panics if `parts` is 0.
pub(crate) fn partition_by_weight(
    weights: impl IntoIterator<Item = u64>,
    parts: usize,
) -> Vec<Range<usize>> {
    assert!(parts > 0, "need at least one shard");
    // cumulative[i] = total weight of items [0, i).
    let cumulative: Vec<u64> = std::iter::once(0)
        .chain(weights.into_iter().scan(0u64, |acc, w| {
            *acc += w;
            Some(*acc)
        }))
        .collect();
    let n = cumulative.len() - 1;
    let total = cumulative[n];
    let mut ranges = Vec::with_capacity(parts);
    let mut lo = 0usize;
    for i in 1..=parts {
        let hi = if i == parts {
            n
        } else {
            let target = total * i as u64 / parts as u64;
            cumulative.partition_point(|&c| c < target).max(lo).min(n)
        };
        ranges.push(lo..hi);
        lo = hi;
    }
    ranges
}

/// Debug-build cross-check of the sampler's core bookkeeping invariant:
/// the counts `nw`/`nt` must be exactly the histograms of the current
/// assignment vector `z`. Every backend calls this at sweep boundaries; a
/// drifted counter here means a broken increment/decrement pairing or a
/// bad shard merge, which would otherwise surface only as silently wrong
/// posteriors.
#[inline]
pub(crate) fn debug_assert_counts(ctx: &SweepContext<'_>, z: &[Vec<u32>], backend: &str) {
    debug_assert!(
        counts_match_assignments(ctx, z),
        "{backend}: count matrices diverged from the z histogram at a sweep boundary"
    );
}

/// Recompute `nw`/`nt` from `(tokens, z)` and compare against the live
/// matrices. O(N + (V+1)·T); only debug builds evaluate it.
fn counts_match_assignments(ctx: &SweepContext<'_>, z: &[Vec<u32>]) -> bool {
    let counts = ctx.counts;
    let (v, t_count) = (counts.vocab_size(), counts.num_topics());
    if z.len() != ctx.tokens.len() {
        return false;
    }
    let mut nw = vec![0u32; v * t_count];
    let mut nt = vec![0u32; t_count];
    for (doc, zs) in ctx.tokens.iter().zip(z) {
        if doc.len() != zs.len() {
            return false;
        }
        for (&w, &t) in doc.iter().zip(zs) {
            let (w, t) = (w as usize, t as usize);
            if w >= v || t >= t_count {
                return false;
            }
            nw[w * t_count + t] += 1;
            nt[t] += 1;
        }
    }
    (0..t_count).all(|t| nt[t] == counts.nt(t))
        && (0..v).all(|w| (0..t_count).all(|t| nw[w * t_count + t] == counts.nw(w, t)))
}

/// Everything a sweep needs, borrowed from the fitting engine.
pub(crate) struct SweepContext<'a> {
    /// Per-document word ids.
    pub tokens: &'a [Vec<u32>],
    /// The word–topic counts the sweep moves: the global counts in place,
    /// or a shard's own copy.
    pub counts: &'a CountMatrices,
    /// Per-topic priors.
    pub priors: &'a [TopicPrior],
    /// Document–topic prior α.
    pub alpha: f64,
}

impl<'a> SweepContext<'a> {
    /// Total topic count `T`.
    pub fn num_topics(&self) -> usize {
        self.priors.len()
    }
}

/// The sampler's mutable RNG state: the run stream, plus the per-shard
/// streams of [`Backend::ShardedDocs`] (empty for every other backend).
/// Both live in the fitting loop across chunk calls — they are part of
/// the sampler state and are checkpointed.
pub(crate) struct SamplerRngs<'a> {
    /// The run stream (every non-sharded backend draws from it).
    pub main: &'a mut SldaRng,
    /// One stream per shard, in shard order.
    pub shards: &'a mut [SldaRng],
}

/// One sweep kernel's state — the [`KernelKind`] axis as data, built once
/// per fit by [`shard::ShardState::build`] and lent to every sweep. It
/// keeps only tables that λ-adaptation never changes and the sparse
/// non-zero lists: the flat kernel's word-major [`kernel::Combined`]
/// table (`None` when the λ-tables mix quadrature depths or the copy would
/// exceed its byte budget), the sparse kernel's [`sparse::SparseState`],
/// the dense reference nothing. Everything that depends on the topic
/// totals or on the λ-adapted quadrature weights — reciprocals, sparse
/// baselines — is derived by each sweep's kernel at its start.
///
/// A clone is the state for another shard of the same run. It shares the
/// tables that depend on the priors alone by `Arc` — the combined table,
/// the sparse [`sparse::SparseShape`] — and copies only the sparse
/// non-zero lists, which the shard's own sweeps and its merge refreshes
/// ([`Self::refresh`]) keep in step with its local counts.
#[derive(Clone)]
pub(crate) enum KernelState {
    Flat(Option<Arc<kernel::Combined>>),
    Dense,
    Sparse(sparse::SparseState),
}

impl KernelState {
    /// Fresh state for `kind` over `ctx`'s priors and counts.
    pub(crate) fn new(kind: KernelKind, ctx: &SweepContext<'_>) -> Self {
        match kind {
            KernelKind::Flat => {
                let tables = kernel::SweepTables::new(ctx.priors);
                Self::Flat(kernel::Combined::build(&tables, ctx.counts.vocab_size()).map(Arc::new))
            }
            KernelKind::Dense => Self::Dense,
            KernelKind::Sparse => Self::Sparse(sparse::SparseState::build(ctx)),
        }
    }

    /// One full sweep over `ctx`'s documents and counts, drawing from
    /// `rng`. Returns the sparse kernel's bucket-routing tallies.
    pub(crate) fn sweep(
        &mut self,
        ctx: &SweepContext<'_>,
        z: &mut [Vec<u32>],
        rng: &mut SldaRng,
    ) -> Option<srclda_obs::SparseBucketCounts> {
        match self {
            Self::Flat(combined) => {
                kernel::Kernel::new(ctx, combined.as_deref()).sweep(ctx, z, rng);
                None
            }
            Self::Dense => {
                serial::sweep(ctx, z, rng);
                None
            }
            Self::Sparse(state) => {
                let mut k = sparse::SparseKernel::new(ctx, state);
                k.sweep(ctx, z, rng);
                Some(k.take_bucket_counts())
            }
        }
    }

    /// Bring a shard's `local` counts to the merged `global` ones: copy
    /// `n_t` whole and the `n_wt` cells `cells` names, keeping the sparse
    /// non-zero lists in step. Cells outside `cells` must already agree.
    /// Idempotent, and independent of the order of `cells`.
    pub(crate) fn refresh(
        &mut self,
        local: &CountMatrices,
        global: &CountMatrices,
        cells: impl Iterator<Item = (usize, usize)>,
    ) {
        local.copy_nt_from(global);
        for (w, t) in cells {
            let (before, after) = local.copy_nw_cell_from(global, w, t);
            self.track(w, t, before, after);
        }
    }

    /// Keep the state in step with an `n_wt` cell of the counts it sweeps
    /// that something other than its own sweep moved from `before` to
    /// `after`: a refresh, or the merge replaying another shard's move
    /// into the global counts shard 0 sweeps.
    #[inline]
    pub(crate) fn track(&mut self, w: usize, t: usize, before: u32, after: u32) {
        if let Self::Sparse(state) = self {
            state.track(w, t, before, after);
        }
    }

    /// Whether this state matches `counts`: the sparse non-zero lists
    /// equal a rebuild from them (the other kernels keep nothing
    /// count-dependent). An O(V·T) check for debug assertions and tests.
    pub(crate) fn in_step_with(&self, counts: &CountMatrices) -> bool {
        match self {
            Self::Sparse(state) => state.lists_match(counts),
            Self::Flat(_) | Self::Dense => true,
        }
    }
}

/// Per-sweep telemetry the backend hands to `on_sweep` alongside the
/// iteration index. Pure bookkeeping — tallies and wall-clock spans the
/// sweep produced as a side effect; reading (or ignoring) them never
/// touches the chain. Backends without the corresponding machinery leave
/// the fields `None`.
#[derive(Default)]
pub(crate) struct SweepStats {
    /// Bucket routing tallies from the in-place sparse kernel.
    pub buckets: Option<srclda_obs::SparseBucketCounts>,
    /// Per-shard kernel and refresh timings, the merge timing and the
    /// tokens moved, from [`Backend::ShardedDocs`] at `S > 1`.
    pub shards: Option<srclda_obs::ShardTimings>,
}

/// Run `iterations` full Gibbs sweeps with the chosen backend, mutating the
/// assignment vector `z` and the counts. `on_sweep` is invoked after every
/// sweep with the completed iteration index (1-based) for trace recording,
/// plus that sweep's [`SweepStats`].
///
/// `state` is the sweep driver's state for the whole fit: built here on
/// the first call, then lent to every later one (the fit loop calls once
/// per λ-adaptation/checkpoint chunk). The paper algorithms' thread pools
/// keep none.
pub(crate) fn run_sweeps<F: FnMut(usize, &SweepStats)>(
    backend: Backend,
    ctx: &SweepContext<'_>,
    z: &mut [Vec<u32>],
    rngs: SamplerRngs<'_>,
    iterations: usize,
    state: &mut Option<shard::ShardState>,
    mut on_sweep: F,
) {
    let (kernel, threads, shard_rngs) = match backend {
        Backend::PrefixSums { threads } | Backend::SimpleParallel { threads }
            if parallel::pool_size(threads, ctx.num_topics()) > 1 =>
        {
            let algo = match backend {
                Backend::PrefixSums { .. } => parallel::Algo::PrefixSums,
                _ => parallel::Algo::Simple,
            };
            let no_stats = SweepStats::default();
            let mut on_sweep = |iter| on_sweep(iter, &no_stats);
            parallel::run(ctx, z, rngs.main, iterations, threads, algo, &mut on_sweep);
            return;
        }
        Backend::ShardedDocs {
            kernel,
            shards,
            threads,
        } => {
            debug_assert_eq!(rngs.shards.len(), shards, "one RNG stream per shard");
            (kernel, threads, rngs.shards)
        }
        // `Serial` and a paper algorithm whose pool clamps to one thread:
        // the flat kernel in place, on the run stream.
        _ => (KernelKind::Flat, 1, std::slice::from_mut(rngs.main)),
    };
    let state =
        state.get_or_insert_with(|| shard::ShardState::build(ctx, shard_rngs.len(), kernel));
    for iter in 1..=iterations {
        on_sweep(iter, &state.sweep(ctx, z, shard_rngs, threads));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_counts() {
        let one_shard = |kernel| Backend::ShardedDocs {
            kernel,
            shards: 1,
            threads: 1,
        };
        assert_eq!(Backend::Serial.threads(), 1);
        assert_eq!(one_shard(KernelKind::Dense).threads(), 1);
        assert_eq!(one_shard(KernelKind::Sparse).threads(), 1);
        assert_eq!(Backend::PrefixSums { threads: 4 }.threads(), 4);
        assert_eq!(Backend::SimpleParallel { threads: 6 }.threads(), 6);
        assert_eq!(
            Backend::ShardedDocs {
                kernel: KernelKind::Flat,
                shards: 4,
                threads: 2
            }
            .threads(),
            2
        );
    }

    #[test]
    fn shard_counts() {
        assert_eq!(Backend::Serial.shards(), 1);
        assert!(!Backend::Serial.is_sharded());
        let one_sparse_shard = Backend::ShardedDocs {
            kernel: KernelKind::Sparse,
            shards: 1,
            threads: 1,
        };
        assert_eq!(one_sparse_shard.shards(), 1);
        // `is_sharded` names the variant, whose checkpoints carry shard
        // streams even at S = 1.
        assert!(one_sparse_shard.is_sharded());
        let sharded = Backend::ShardedDocs {
            kernel: KernelKind::Flat,
            shards: 8,
            threads: 2,
        };
        assert_eq!(sharded.shards(), 8);
        assert!(sharded.is_sharded());
    }

    #[test]
    fn kernel_axis_aliases() {
        // `Serial` is the flat cell of the kernel × execution matrix; the
        // default kernel is Flat so pre-refactor configs keep their chains.
        let one_shard = |kernel| Backend::ShardedDocs {
            kernel,
            shards: 1,
            threads: 1,
        };
        assert_eq!(KernelKind::default(), KernelKind::Flat);
        assert_eq!(Backend::Serial.kernel(), KernelKind::Flat);
        assert_eq!(one_shard(KernelKind::Dense).kernel(), KernelKind::Dense);
        assert_eq!(one_shard(KernelKind::Sparse).kernel(), KernelKind::Sparse);
        assert_eq!(
            Backend::PrefixSums { threads: 2 }.kernel(),
            KernelKind::Dense
        );
        assert_eq!(
            Backend::SimpleParallel { threads: 2 }.kernel(),
            KernelKind::Dense
        );
        let sharded_sparse = Backend::ShardedDocs {
            kernel: KernelKind::Sparse,
            shards: 4,
            threads: 2,
        };
        assert_eq!(sharded_sparse.kernel(), KernelKind::Sparse);
        assert!(sharded_sparse.kernel().is_sparse());
        assert!(!Backend::Serial.kernel().is_sparse());
    }

    #[test]
    fn zero_threads_invalid() {
        assert!(Backend::PrefixSums { threads: 0 }.validate().is_err());
        assert!(Backend::SimpleParallel { threads: 0 }.validate().is_err());
        assert!(Backend::Serial.validate().is_ok());
        assert!(Backend::ShardedDocs {
            kernel: KernelKind::Flat,
            shards: 0,
            threads: 1
        }
        .validate()
        .is_err());
        assert!(Backend::ShardedDocs {
            kernel: KernelKind::Sparse,
            shards: 2,
            threads: 0
        }
        .validate()
        .is_err());
        assert!(Backend::ShardedDocs {
            kernel: KernelKind::Sparse,
            shards: 2,
            threads: 2
        }
        .validate()
        .is_ok());
    }
}
