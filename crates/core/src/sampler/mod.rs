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
/// | kernel ↓ \ execution → | single-thread      | document shards (`S`, AD-LDA)       | per-token parallel (Algorithms 2/3)  |
/// |------------------------|--------------------|-------------------------------------|--------------------------------------|
/// | [`KernelKind::Flat`]   | [`Backend::Serial`]| `ShardedDocs { kernel: Flat, .. }`  | —                                    |
/// | [`KernelKind::Dense`]  | [`Backend::SerialDense`] | `ShardedDocs { kernel: Dense, .. }` | [`Backend::PrefixSums`], [`Backend::SimpleParallel`] |
/// | [`KernelKind::Sparse`] | [`Backend::SparseKernel`] | `ShardedDocs { kernel: Sparse, .. }` | —                             |
///
/// Equivalence classes, from one seed:
///
/// * `Serial` ≡ `SerialDense` ≡ `PrefixSums` ≡ `SimpleParallel` —
///   **bit-identical** chains (the flat tables and the parallel scans
///   reorganize the same arithmetic without changing the sampled draw).
///   `PrefixSums`/`SimpleParallel` are the paper's per-token algorithms,
///   kept for fidelity; they cap out at T and are superseded for corpus
///   scale by `ShardedDocs` — prefer the shard row for new configs.
/// * `ShardedDocs { kernel: k, shards: 1, .. }` is **bit-identical** to
///   kernel `k`'s single-thread backend, for every `k`; at `S > 1` the
///   chain is the AD-LDA approximation, deterministic in
///   `(seed, S, kernel)` with `threads` pure scheduling.
/// * `SparseKernel` (and the `Sparse` shard row) is
///   **distribution-level** equivalent to the dense family: exact
///   bucket-mass ≡ dense-mass property tests plus held-out perplexity
///   parity (`tests/kernel_equivalence.rs`, `tests/shard_equivalence.rs`),
///   never bit-equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Single-threaded sampling (Algorithm 1) through the optimized hot
    /// path: flat prior tables, cached reciprocals, sparse document-topic
    /// bookkeeping, non-atomic counts (see [`kernel`]).
    Serial,
    /// Single-threaded sampling through the dense reference sweep — the
    /// straightforward per-(token, topic) `word_weight` loop. Walks the
    /// same chain as [`Backend::Serial`] bit for bit; kept as the
    /// reference the equivalence tests compare every kernel against.
    SerialDense,
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
    /// Single-threaded **sub-linear** sampling through the SparseLDA-style
    /// bucket decomposition (see [`sparse`]): the per-token weight splits
    /// into a cached smoothing bucket, a cached doc bucket, and a
    /// word-sparse bucket, so each token costs O(k_d + k_w) instead of
    /// O(T). Wins when T is large and documents/words touch few topics.
    ///
    /// The chain is fully deterministic in the seed and chunk-boundary
    /// invariant, but **not** bit-equal to [`Backend::Serial`] — bucket
    /// routing consumes the per-token uniform differently. Equivalence is
    /// distribution-level: exact bucket-mass ≡ dense-mass (property-tested)
    /// and held-out perplexity parity (`tests/kernel_equivalence.rs`).
    SparseKernel,
    /// Document-sharded approximate collapsed Gibbs (AD-LDA style, see
    /// [`shard`]): documents are statically partitioned into `shards`
    /// shards; each shard sweeps against a sweep-start snapshot of the
    /// word/topic counts with its own RNG stream, and shard deltas merge
    /// into the global counts at every sweep boundary, in shard order.
    ///
    /// The chain is a pure function of `(seed, shards, kernel)` —
    /// `threads` only schedules shard work and never changes a single bit
    /// of the result — and `shards: 1` walks the exact chain of the
    /// kernel's single-thread backend ([`Backend::Serial`] for `Flat`,
    /// [`Backend::SparseKernel`] for `Sparse`, [`Backend::SerialDense`]
    /// for `Dense`).
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
            Backend::Serial | Backend::SerialDense | Backend::SparseKernel => 1,
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
    /// arithmetic axis of the kernel × execution matrix. The serial
    /// backends are aliases into the matrix (`Serial` → `Flat`,
    /// `SerialDense` → `Dense`, `SparseKernel` → `Sparse`); the paper's
    /// per-token parallel algorithms scan the dense weight vector.
    pub fn kernel(&self) -> KernelKind {
        match self {
            Backend::Serial => KernelKind::Flat,
            Backend::SerialDense | Backend::PrefixSums { .. } | Backend::SimpleParallel { .. } => {
                KernelKind::Dense
            }
            Backend::SparseKernel => KernelKind::Sparse,
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

/// Debug-build cross-check of the sampler's core bookkeeping invariant:
/// the count matrices `nd`/`nw`/`nt` must be exactly the histograms of
/// the current assignment vector `z`. Every backend calls this at sweep
/// boundaries; a drifted counter here means a broken
/// increment/decrement pairing or a bad shard-delta merge, which would
/// otherwise surface only as silently wrong posteriors.
#[inline]
pub(crate) fn debug_assert_counts(ctx: &SweepContext<'_>, z: &[Vec<u32>], backend: &str) {
    debug_assert!(
        counts_match_assignments(ctx, z),
        "{backend}: count matrices diverged from the z histogram at a sweep boundary"
    );
}

/// Recompute `nd`/`nw`/`nt` from `(tokens, z)` and compare against the
/// live matrices. O(N + (D+V+1)·T); only debug builds evaluate it.
fn counts_match_assignments(ctx: &SweepContext<'_>, z: &[Vec<u32>]) -> bool {
    let counts = ctx.counts;
    let (v, t_count, d_count) = (counts.vocab_size(), counts.num_topics(), counts.num_docs());
    if z.len() != d_count {
        return false;
    }
    let mut nw = vec![0u32; v * t_count];
    let mut nd = vec![0u32; d_count * t_count];
    let mut nt = vec![0u32; t_count];
    for (d, (doc, zs)) in ctx.tokens.iter().zip(z).enumerate() {
        if doc.len() != zs.len() {
            return false;
        }
        for (&w, &t) in doc.iter().zip(zs) {
            let (w, t) = (w as usize, t as usize);
            if w >= v || t >= t_count {
                return false;
            }
            nw[w * t_count + t] += 1;
            nd[d * t_count + t] += 1;
            nt[t] += 1;
        }
    }
    (0..t_count).all(|t| nt[t] == counts.nt(t))
        && (0..v).all(|w| (0..t_count).all(|t| nw[w * t_count + t] == counts.nw(w, t)))
        && (0..d_count).all(|d| (0..t_count).all(|t| nd[d * t_count + t] == counts.nd(d, t)))
}

/// Everything a sweep needs, borrowed from the fitting engine.
pub(crate) struct SweepContext<'a> {
    /// Per-document word ids.
    pub tokens: &'a [Vec<u32>],
    /// Count matrices (shared, atomic).
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

/// Reusable sweep state carried by the fitting loop across chunk calls
/// (the fit loop invokes [`run_sweeps`] once per λ-adaptation/checkpoint
/// chunk). Everything here is a pure cache: rebuilding it from the live
/// model state produces bit-identical values, so reuse never perturbs the
/// chain — it only avoids repaying multi-MB copies per chunk.
#[derive(Default)]
pub(crate) struct SweepCache {
    /// The serial kernel's word-major combined prior table (λ adaptation
    /// never touches its contents; `Arc` so shards can share one copy).
    pub combined: Option<std::sync::Arc<kernel::Combined>>,
    /// The sharded backend's chunk state (partition, local count
    /// matrices, the shared combined table).
    pub shard: Option<shard::ShardState>,
    /// The sparse bucket kernel's per-word deviation and non-zero lists
    /// (maintained in lock-step with the counts across chunks).
    pub sparse: Option<sparse::SparseState>,
}

/// Per-sweep telemetry the backend hands to `on_sweep` alongside the
/// iteration index. Pure bookkeeping — tallies and wall-clock spans the
/// sweep produced as a side effect; reading (or ignoring) them never
/// touches the chain. Backends without the corresponding machinery leave
/// the fields `None`.
#[derive(Default)]
pub(crate) struct SweepStats {
    /// Bucket routing tallies from [`Backend::SparseKernel`].
    pub buckets: Option<srclda_obs::SparseBucketCounts>,
    /// Per-shard sweep and merge timings from [`Backend::ShardedDocs`].
    pub shards: Option<srclda_obs::ShardTimings>,
}

/// Run `iterations` full Gibbs sweeps with the chosen backend, mutating the
/// assignment vector `z` and the counts. `on_sweep` is invoked after every
/// sweep with the completed iteration index (1-based) for trace recording,
/// plus that sweep's [`SweepStats`].
///
/// `cache` carries backend sweep state across calls (see [`SweepCache`]);
/// pass a fresh `&mut SweepCache::default()` when no reuse applies.
pub(crate) fn run_sweeps<F: FnMut(usize, &SweepStats)>(
    backend: Backend,
    ctx: &SweepContext<'_>,
    z: &mut [Vec<u32>],
    rngs: SamplerRngs<'_>,
    iterations: usize,
    cache: &mut SweepCache,
    mut on_sweep: F,
) {
    let rng = rngs.main;
    let no_stats = SweepStats::default();
    match backend {
        Backend::Serial => {
            let mut k = kernel::Kernel::new(ctx, cache.combined.take());
            for iter in 1..=iterations {
                k.sweep(ctx, z, rng);
                debug_assert_counts(ctx, z, "serial kernel");
                on_sweep(iter, &no_stats);
            }
            cache.combined = k.into_combined();
        }
        Backend::SparseKernel => {
            let mut k = sparse::SparseKernel::new(ctx, cache.sparse.take());
            for iter in 1..=iterations {
                k.sweep(ctx, z, rng);
                debug_assert_counts(ctx, z, "sparse kernel");
                on_sweep(
                    iter,
                    &SweepStats {
                        buckets: Some(k.take_bucket_counts()),
                        shards: None,
                    },
                );
            }
            cache.sparse = Some(k.into_state());
        }
        Backend::SerialDense => {
            let mut buf = vec![0.0; ctx.num_topics()];
            for iter in 1..=iterations {
                serial::sweep(ctx, z, rng, &mut buf);
                debug_assert_counts(ctx, z, "dense reference");
                on_sweep(iter, &no_stats);
            }
        }
        Backend::SimpleParallel { threads } => {
            parallel::run(
                ctx,
                z,
                rng,
                iterations,
                threads,
                parallel::Algo::Simple,
                &mut |iter| on_sweep(iter, &no_stats),
            );
        }
        Backend::PrefixSums { threads } => {
            parallel::run(
                ctx,
                z,
                rng,
                iterations,
                threads,
                parallel::Algo::PrefixSums,
                &mut |iter| on_sweep(iter, &no_stats),
            );
        }
        Backend::ShardedDocs {
            kernel,
            shards,
            threads,
        } => {
            debug_assert_eq!(rngs.shards.len(), shards, "one RNG stream per shard");
            shard::run(
                ctx,
                z,
                rngs.shards,
                &shard::RunPlan {
                    iterations,
                    threads,
                    kernel,
                },
                &mut cache.shard,
                &mut |iter, timings| {
                    on_sweep(
                        iter,
                        &SweepStats {
                            buckets: None,
                            shards: Some(timings),
                        },
                    )
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_counts() {
        assert_eq!(Backend::Serial.threads(), 1);
        assert_eq!(Backend::SerialDense.threads(), 1);
        assert_eq!(Backend::SparseKernel.threads(), 1);
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
        assert_eq!(Backend::SparseKernel.shards(), 1);
        assert!(!Backend::SparseKernel.is_sharded());
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
        // The serial backends are aliases into the kernel × execution
        // matrix; the default kernel is Flat so pre-refactor configs keep
        // their chains.
        assert_eq!(KernelKind::default(), KernelKind::Flat);
        assert_eq!(Backend::Serial.kernel(), KernelKind::Flat);
        assert_eq!(Backend::SerialDense.kernel(), KernelKind::Dense);
        assert_eq!(Backend::SparseKernel.kernel(), KernelKind::Sparse);
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
