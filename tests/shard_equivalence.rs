//! Contracts of the document-sharded training backend
//! (`Backend::ShardedDocs`) and of training checkpoint/resume:
//!
//! * `S = 1` sweeps the global counts in place — one shard's view
//!   (sweep-start counts + its own moves) *is* the true state — and shard 0
//!   continues the run RNG stream, so `{ Flat, 1 }` is **bit-identical**
//!   to `Backend::Serial` and every `S = 1` chain is thread-count
//!   invariant;
//! * absolute golden digests pin every cell of the backend matrix, so a
//!   refactor that moved every chain the same way still fails;
//! * for any `S`, the chain is a pure function of `(seed, S, kernel)` —
//!   thread count only schedules work and never moves a bit;
//! * at every sweep boundary the merged global counts are exactly the
//!   counts implied by the assignments (proptest over shard/thread/kernel
//!   layouts);
//! * resume-from-checkpoint replays the remaining sweeps bit-identically
//!   to the uninterrupted run of the same backend, a single-thread
//!   checkpoint (shard word 0) resumes bit-identically under `S = 1` of
//!   its kernel family, and the checkpoint interval itself never perturbs
//!   the chain (chunk-boundary invariance);
//! * `S > 1` is the standard AD-LDA approximation: a *different* chain,
//!   but statistically equivalent — pinned here as perplexity parity with
//!   the serial sampler on the golden fixture corpus.
//!
//! **Tolerance: exact (zero)** for everything except the perplexity-parity
//! test, which compares two legitimately different chains and uses a
//! relative band instead.

use proptest::prelude::*;
use source_lda::core::generative::{DocLength, LambdaMode, SourceLdaGenerator};
use source_lda::core::{CountCells, GibbsModel, TrainCheckpoint};
use source_lda::prelude::*;

/// A substantive synthetic world: 6 source topics + 3 unlabeled over a
/// 250-word vocabulary, 30 documents.
fn model_and_corpus(backend: Backend, iterations: usize) -> (GibbsModel, Corpus) {
    let (vocab, knowledge) = source_lda::synth::random_source_topics(250, 16, 10, 120, 11);
    let generated = SourceLdaGenerator {
        alpha: 0.5,
        num_docs: 30,
        doc_len: DocLength::Fixed(25),
        lambda_mode: LambdaMode::None,
        seed: 13,
        ..SourceLdaGenerator::default()
    }
    .generate(&knowledge.select(&(0..6).collect::<Vec<_>>()), &vocab)
    .unwrap();
    let vocab_size = generated.corpus.vocab_size();
    let model = SourceLda::builder()
        .knowledge_source(knowledge)
        .variant(Variant::Full)
        .unlabeled_topics(3)
        .approximation_steps(3)
        .smoothing(SmoothingMode::Identity)
        .adaptive_lambda(6)
        .lambda_burn_in(4)
        .alpha(0.5)
        .iterations(iterations)
        .backend(backend)
        .seed(29)
        .build()
        .unwrap()
        .assemble(vocab_size)
        .unwrap();
    (model, generated.corpus)
}

fn fit(backend: Backend, iterations: usize) -> FittedModel {
    let (model, corpus) = model_and_corpus(backend, iterations);
    model.fit(&corpus).unwrap()
}

fn assert_identical(a: &FittedModel, b: &FittedModel, what: &str) {
    assert_eq!(a.assignments(), b.assignments(), "{what}: chains diverged");
    assert_eq!(a.phi().as_slice(), b.phi().as_slice(), "{what}: φ diverged");
    assert_eq!(
        a.theta().as_slice(),
        b.theta().as_slice(),
        "{what}: θ diverged"
    );
}

#[test]
fn one_shard_is_bit_identical_to_the_serial_kernel() {
    let serial = fit(Backend::Serial, 18);
    for threads in [1, 3] {
        let sharded = fit(
            Backend::ShardedDocs {
                kernel: KernelKind::Flat,
                shards: 1,
                threads,
            },
            18,
        );
        assert_identical(
            &sharded,
            &serial,
            &format!("S=1, {threads} threads vs Backend::Serial"),
        );
    }
}

/// The composed axes degenerate the same way the flat kernel does: one
/// sparse shard is the single-thread bucket kernel whatever the thread
/// count — same bucket walks, same uniform-consumption order, shard 0
/// continuing the run RNG.
#[test]
fn one_shard_sparse_is_bit_identical_to_the_sparse_kernel() {
    let sparse = fit(
        Backend::ShardedDocs {
            kernel: KernelKind::Sparse,
            shards: 1,
            threads: 1,
        },
        18,
    );
    for threads in [1, 3] {
        let sharded = fit(
            Backend::ShardedDocs {
                kernel: KernelKind::Sparse,
                shards: 1,
                threads,
            },
            18,
        );
        assert_identical(
            &sharded,
            &sparse,
            &format!("S=1 sparse, {threads} threads vs 1 thread"),
        );
    }
}

#[test]
fn sharded_chain_is_thread_count_invariant() {
    for kernel in [KernelKind::Flat, KernelKind::Sparse] {
        for shards in [2, 4] {
            let reference = fit(
                Backend::ShardedDocs {
                    kernel,
                    shards,
                    threads: 1,
                },
                15,
            );
            for threads in [2, 3, 8] {
                let other = fit(
                    Backend::ShardedDocs {
                        kernel,
                        shards,
                        threads,
                    },
                    15,
                );
                assert_identical(
                    &other,
                    &reference,
                    &format!("{kernel:?} S={shards}: {threads} threads vs 1 thread"),
                );
            }
        }
    }
}

#[test]
fn checkpoint_interval_never_perturbs_the_chain() {
    // The same fit with aggressive checkpointing (chunk boundaries at
    // every 5th sweep, interleaving awkwardly with the λ-adaptation
    // boundaries at 4, 10, 16, …) must walk the identical chain.
    // The in-place sparse kernel rides along: its bucket caches (sorted
    // non-zero lists, per-sweep smoothing rebuild) are chunk-boundary
    // invariant by construction, and this pins it end to end.
    for backend in [
        Backend::Serial,
        Backend::ShardedDocs {
            kernel: KernelKind::Sparse,
            shards: 1,
            threads: 1,
        },
        Backend::ShardedDocs {
            kernel: KernelKind::Flat,
            shards: 3,
            threads: 2,
        },
        Backend::ShardedDocs {
            kernel: KernelKind::Sparse,
            shards: 3,
            threads: 2,
        },
    ] {
        let plain = fit(backend, 18);
        let (model, corpus) = model_and_corpus(backend, 18);
        let mut seen = Vec::new();
        let checkpointed = model
            .fit_resumable(&corpus, None, Some(5), |cp| {
                seen.push(cp.sweep);
                Ok(())
            })
            .unwrap();
        assert_eq!(seen, vec![5, 10, 15], "checkpoint boundaries ({backend:?})");
        assert_identical(&checkpointed, &plain, &format!("{backend:?} checkpointed"));
    }
}

#[test]
fn resume_replays_bit_identically() {
    for backend in [
        Backend::Serial,
        Backend::ShardedDocs {
            kernel: KernelKind::Sparse,
            shards: 1,
            threads: 1,
        },
        Backend::ShardedDocs {
            kernel: KernelKind::Flat,
            shards: 4,
            threads: 2,
        },
        Backend::ShardedDocs {
            kernel: KernelKind::Sparse,
            shards: 4,
            threads: 2,
        },
    ] {
        // The uninterrupted reference run, also capturing its sweep-18
        // checkpoint so the kill/resume path below can be compared
        // digest-to-digest, not just on the final model values.
        let (ref_model, ref_corpus) = model_and_corpus(backend, 18);
        let mut reference_cp18: Option<TrainCheckpoint> = None;
        let uninterrupted = ref_model
            .fit_resumable(&ref_corpus, None, Some(6), |cp| {
                if cp.sweep == 18 {
                    reference_cp18 = Some(cp.clone());
                }
                Ok(())
            })
            .unwrap();

        // "Kill" the run at sweep 12 by erroring out of the checkpoint
        // callback after capturing it.
        let (model, corpus) = model_and_corpus(backend, 18);
        let mut captured: Option<TrainCheckpoint> = None;
        let killed = model.fit_resumable(&corpus, None, Some(6), |cp| {
            if cp.sweep == 12 {
                captured = Some(cp.clone());
                Err(source_lda::core::CoreError::InvalidConfig(
                    "simulated kill".into(),
                ))
            } else {
                Ok(())
            }
        });
        assert!(killed.is_err(), "simulated kill must abort the fit");
        let checkpoint = captured.expect("checkpoint at sweep 12 captured");
        assert_eq!(checkpoint.sweep, 12);
        if let Backend::ShardedDocs { shards, .. } = backend {
            assert_eq!(checkpoint.shard_rngs.len(), shards);
        } else {
            assert!(checkpoint.shard_rngs.is_empty());
        }

        // Resume in a fresh process-equivalent: a newly assembled model.
        let (resumed_model, corpus2) = model_and_corpus(backend, 18);
        let resumed = resumed_model
            .fit_resumable(&corpus2, Some(&checkpoint), None, |_| Ok(()))
            .unwrap();
        assert_identical(
            &resumed,
            &uninterrupted,
            &format!("{backend:?} resumed at sweep 12"),
        );

        // A resumed run with checkpointing still enabled emits the same
        // later checkpoints the uninterrupted run would — same boundaries,
        // and the sweep-18 checkpoint digests equal (assignments, counts,
        // RNG streams, priors: the whole sampler state, one number).
        let (again, corpus3) = model_and_corpus(backend, 18);
        let mut later: Vec<u64> = Vec::new();
        let mut resumed_cp18: Option<TrainCheckpoint> = None;
        again
            .fit_resumable(&corpus3, Some(&checkpoint), Some(6), |cp| {
                later.push(cp.sweep);
                if cp.sweep == 18 {
                    resumed_cp18 = Some(cp.clone());
                }
                Ok(())
            })
            .unwrap();
        assert_eq!(later, vec![18], "absolute checkpoint boundaries");
        assert_eq!(
            resumed_cp18.expect("resumed sweep-18 checkpoint").digest(),
            reference_cp18
                .expect("uninterrupted sweep-18 checkpoint")
                .digest(),
            "{backend:?}: resumed checkpoint digest diverged from uninterrupted"
        );
    }

    // A single-thread checkpoint (shard word 0) resumes under S = 1 of its
    // kernel family: the lone shard continues the run stream, so seeding
    // it from the main stream replays the uninterrupted chain.
    let one_shard = |kernel| Backend::ShardedDocs {
        kernel,
        shards: 1,
        threads: 1,
    };
    let fit_capturing_sweep_12 = |backend: Backend| -> (FittedModel, TrainCheckpoint) {
        let (model, corpus) = model_and_corpus(backend, 18);
        let mut captured = None;
        let fitted = model
            .fit_resumable(&corpus, None, Some(6), |cp| {
                if cp.sweep == 12 {
                    captured = Some(cp.clone());
                }
                Ok(())
            })
            .unwrap();
        (fitted, captured.expect("checkpoint at sweep 12"))
    };
    let resume_under = |backend: Backend, checkpoint: &TrainCheckpoint| -> FittedModel {
        let (model, corpus) = model_and_corpus(backend, 18);
        model
            .fit_resumable(&corpus, Some(checkpoint), None, |_| Ok(()))
            .unwrap()
    };
    let (serial, serial_cp) = fit_capturing_sweep_12(Backend::Serial);
    assert_eq!(serial_cp.shard_count(), 0);
    for kernel in [KernelKind::Flat, KernelKind::Dense] {
        assert_identical(
            &resume_under(one_shard(kernel), &serial_cp),
            &serial,
            &format!("Serial's sweep-12 checkpoint resumed under {{{kernel:?}, 1}}"),
        );
    }
    // The (Sparse, 0) layout of a single-thread sparse run: the stream
    // lives in `main_rng` and no shard streams are stored.
    let (sparse, mut sparse_cp) = fit_capturing_sweep_12(one_shard(KernelKind::Sparse));
    sparse_cp.main_rng = sparse_cp.shard_rngs.remove(0);
    sparse_cp.shards -= sparse_cp.shard_count(); // count 0, kernel tag kept
    assert_eq!(sparse_cp.shard_count(), 0);
    assert_eq!(sparse_cp.kernel_kind().unwrap(), KernelKind::Sparse);
    assert_identical(
        &resume_under(one_shard(KernelKind::Sparse), &sparse_cp),
        &sparse,
        "(Sparse, 0) sweep-12 checkpoint resumed under {Sparse, 1}",
    );
}

#[test]
fn resume_rejects_mismatched_state() {
    let backend = Backend::ShardedDocs {
        kernel: KernelKind::Flat,
        shards: 2,
        threads: 1,
    };
    let (model, corpus) = model_and_corpus(backend, 18);
    let mut captured: Option<TrainCheckpoint> = None;
    model
        .fit_resumable(&corpus, None, Some(6), |cp| {
            if captured.is_none() {
                captured = Some(cp.clone());
            }
            Ok(())
        })
        .unwrap();
    let checkpoint = captured.unwrap();

    // Wrong shard layout for the configured backend.
    let (serial_model, corpus2) = model_and_corpus(Backend::Serial, 18);
    assert!(serial_model
        .fit_resumable(&corpus2, Some(&checkpoint), None, |_| Ok(()))
        .is_err());

    // Checkpoint taken past the configured iteration count.
    let (short_model, corpus3) = model_and_corpus(backend, 3);
    assert!(short_model
        .fit_resumable(&corpus3, Some(&checkpoint), None, |_| Ok(()))
        .is_err());

    // A different corpus: dimensions match nothing, so validation fails.
    let (model4, _) = model_and_corpus(backend, 18);
    let mut tiny = CorpusBuilder::new().tokenizer(Tokenizer::permissive());
    tiny.add_tokens("d", &["a", "b"]);
    assert!(model4
        .fit_resumable(&tiny.build(), Some(&checkpoint), None, |_| Ok(()))
        .is_err());

    // Tampered counts: one more token of a topic, caught by the topic
    // totals; and one token of a topic moved to another word, whose totals
    // still match z, caught by the counts-vs-assignments cross-check.
    let (v, t) = (checkpoint.vocab_size(), checkpoint.num_topics());
    let from = checkpoint.counts.cells()[0].0 as usize;
    let tamper = |edit: &dyn Fn(&mut Vec<u32>)| {
        let mut tampered = checkpoint.clone();
        let mut nw = tampered.counts.to_dense();
        edit(&mut nw);
        tampered.counts = CountCells::from_dense(v, t, nw);
        tampered
    };
    let added = tamper(&|nw| nw[0] = nw[0].wrapping_add(1));
    let moved = tamper(&|nw| {
        nw[from] -= 1;
        nw[(from + t) % (v * t)] += 1;
    });
    assert_eq!(moved.counts.nt(), checkpoint.counts.nt());
    for tampered in [added, moved] {
        let (model5, corpus5) = model_and_corpus(backend, 18);
        assert!(model5
            .fit_resumable(&corpus5, Some(&tampered), None, |_| Ok(()))
            .is_err());
    }

    // A different configured seed: resuming would silently mislabel the
    // run (the chain continues from the checkpoint's streams regardless
    // of what the new config claims), so it must be rejected.
    let mut wrong_seed = checkpoint.clone();
    wrong_seed.seed ^= 1;
    let (model6, corpus6) = model_and_corpus(backend, 18);
    assert!(model6
        .fit_resumable(&corpus6, Some(&wrong_seed), None, |_| Ok(()))
        .is_err());

    // A flat-kernel checkpoint resumed on a sparse-kernel backend (and
    // vice versa): sparse and dense-family kernels draw different chains,
    // so the kernel tag must reject the switch.
    let (model7, corpus7) = model_and_corpus(
        Backend::ShardedDocs {
            kernel: KernelKind::Sparse,
            shards: 2,
            threads: 1,
        },
        18,
    );
    let err = model7
        .fit_resumable(&corpus7, Some(&checkpoint), None, |_| Ok(()))
        .unwrap_err();
    assert!(
        err.to_string().contains("kernel"),
        "kernel-switch rejection should name the kernel: {err}"
    );

    // Flat → Dense is legitimate: the two kernels walk bit-identical
    // chains, so the tag only polices the sparse/dense family boundary.
    let (model8, corpus8) = model_and_corpus(
        Backend::ShardedDocs {
            kernel: KernelKind::Dense,
            shards: 2,
            threads: 1,
        },
        18,
    );
    assert!(model8
        .fit_resumable(&corpus8, Some(&checkpoint), None, |_| Ok(()))
        .is_ok());

    // A single-thread checkpoint (shard word 0) resumes only under S = 1,
    // and only of its kernel family.
    let (serial_model, corpus9) = model_and_corpus(Backend::Serial, 18);
    let mut serial_cp: Option<TrainCheckpoint> = None;
    serial_model
        .fit_resumable(&corpus9, None, Some(6), |cp| {
            serial_cp.get_or_insert_with(|| cp.clone());
            Ok(())
        })
        .unwrap();
    let serial_cp = serial_cp.unwrap();
    for wrong in [
        backend,
        Backend::ShardedDocs {
            kernel: KernelKind::Sparse,
            shards: 1,
            threads: 1,
        },
    ] {
        let (model, corpus) = model_and_corpus(wrong, 18);
        assert!(
            model
                .fit_resumable(&corpus, Some(&serial_cp), None, |_| Ok(()))
                .is_err(),
            "a Serial checkpoint must not resume under {wrong:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    /// AD-LDA merge soundness for the composed axes: at *every* sweep
    /// boundary the merged global counts are exactly the counts implied by
    /// the assignments, whatever the shard count, thread count, or shard
    /// kernel. A merge that dropped, doubled, or misrouted a single delta
    /// would surface here as a count that `z` cannot explain.
    #[test]
    fn merged_counts_match_assignments_at_every_sweep_boundary(
        shards in 1usize..5,
        threads in 1usize..4,
        sparse in any::<bool>(),
    ) {
        let kernel = if sparse { KernelKind::Sparse } else { KernelKind::Flat };
        let backend = Backend::ShardedDocs { kernel, shards, threads };
        let (model, corpus) = model_and_corpus(backend, 9);
        let t_count = model.num_topics();
        let v = corpus.vocab_size();
        let mut boundaries = 0usize;
        model
            .fit_resumable(&corpus, None, Some(1), |cp| {
                let mut nw = vec![0u32; v * t_count];
                let mut nt = vec![0u32; t_count];
                for (doc, z_doc) in corpus.docs().iter().zip(&cp.z) {
                    for (&w, &t) in doc.tokens().iter().zip(z_doc) {
                        nw[w.index() * t_count + t as usize] += 1;
                        nt[t as usize] += 1;
                    }
                }
                assert_eq!(
                    cp.counts,
                    CountCells::from_dense(v, t_count, nw),
                    "{kernel:?} S={shards} t={threads}: merged nw diverged from \
                     counts(z) at sweep {}",
                    cp.sweep
                );
                assert_eq!(
                    cp.counts.nt(),
                    nt,
                    "{kernel:?} S={shards} t={threads}: merged nt diverged from \
                     counts(z) at sweep {}",
                    cp.sweep
                );
                boundaries += 1;
                Ok(())
            })
            .unwrap();
        prop_assert_eq!(boundaries, 9);
    }
}

/// The golden fixture corpus (the pinned §I case-study world of
/// `tests/artifact_compat.rs`, repeated to give the shards real work).
fn golden_corpus() -> (Corpus, KnowledgeSource) {
    let mut builder = CorpusBuilder::new().tokenizer(Tokenizer::permissive());
    for i in 0..12 {
        builder.add_tokens(
            format!("school-{i}"),
            &["pencil", "pencil", "ruler", "eraser"],
        );
        builder.add_tokens(
            format!("sports-{i}"),
            &["baseball", "umpire", "baseball", "glove"],
        );
    }
    let corpus = builder.build();
    let mut ks = KnowledgeSourceBuilder::new();
    ks.add_article(
        "School Supplies",
        "pencil ruler eraser notebook pencil ruler pencil ".repeat(40),
    );
    ks.add_article(
        "Baseball",
        "baseball umpire pitcher inning baseball umpire baseball glove ".repeat(40),
    );
    let knowledge = ks.build(corpus.vocabulary());
    (corpus, knowledge)
}

/// λ-adaptation is now topic-sharded (`sampler::adapt`); its determinism
/// contract is stronger than the document shards': **bit-identical for any
/// shard/thread count**, because each topic's adaptation is a pure function
/// of its own prior and counts column with no cross-topic reads and no RNG.
#[test]
fn lambda_adaptation_is_bit_identical_for_one_vs_n_shards() {
    use source_lda::core::sampler::adapt::adapt_integrated_priors;
    use source_lda::core::CountMatrices;

    // Real integrated priors from the synthetic knowledge source (6
    // integrated + the mixture machinery's plain topics).
    let (vocab, knowledge) = source_lda::synth::random_source_topics(250, 16, 10, 120, 11);
    let model = SourceLda::builder()
        .knowledge_source(knowledge.select(&(0..6).collect::<Vec<_>>()))
        .variant(Variant::Full)
        .unlabeled_topics(3)
        .approximation_steps(3)
        .smoothing(SmoothingMode::Identity)
        .adaptive_lambda(6)
        .alpha(0.5)
        .iterations(4)
        .seed(29)
        .build()
        .unwrap()
        .assemble(vocab.len())
        .unwrap();

    let filled_counts = || {
        let counts = CountMatrices::new(vocab.len(), model.num_topics());
        for w in 0..vocab.len() {
            for t in 0..model.num_topics() {
                for _ in 0..((w * 13 + t * 5) % 3) {
                    counts.increment(w, t);
                }
            }
        }
        counts
    };

    // Reference: one adaptation shard (the old serial loop).
    let reference = {
        let mut priors = model.priors().to_vec();
        adapt_integrated_priors(&mut priors, &filled_counts(), 1);
        priors
    };
    assert!(
        reference
            .iter()
            .zip(model.priors())
            .any(|(a, b)| a.to_raw() != b.to_raw()),
        "fixture must actually adapt something"
    );

    // N shards / N threads: bit-identical adapted priors, for thread
    // counts below, at, and far above the integrated-topic count.
    for threads in [2, 3, 6, 32] {
        let mut priors = model.priors().to_vec();
        adapt_integrated_priors(&mut priors, &filled_counts(), threads);
        for (t, (a, b)) in priors.iter().zip(&reference).enumerate() {
            assert_eq!(
                a.to_raw(),
                b.to_raw(),
                "topic {t}: {threads}-thread adaptation diverged from serial"
            );
        }
    }
}

/// End-to-end closure of the adaptation-determinism contract: a full
/// adaptive-λ fit (whose boundaries invoke the sharded adaptation with the
/// machine's parallelism) replays bit-identically — if scheduling could
/// move a bit, this and `checkpoint_interval_never_perturbs_the_chain`
/// would flake.
#[test]
fn adaptive_fit_replays_bit_identically_with_sharded_adaptation() {
    for backend in [
        Backend::Serial,
        Backend::ShardedDocs {
            kernel: KernelKind::Sparse,
            shards: 1,
            threads: 1,
        },
    ] {
        let a = fit(backend, 18);
        let b = fit(backend, 18);
        assert_identical(&a, &b, &format!("{backend:?} adaptive-λ replay"));
    }
}

#[test]
fn sharded_perplexity_parity_with_serial_on_golden_corpus() {
    let fit_golden = |backend: Backend| -> FittedModel {
        let (corpus, knowledge) = golden_corpus();
        SourceLda::builder()
            .knowledge_source(knowledge)
            .variant(Variant::Bijective)
            .alpha(0.5)
            .iterations(120)
            .backend(backend)
            .seed(7)
            .build()
            .unwrap()
            .fit(&corpus)
            .unwrap()
    };
    let (corpus, _) = golden_corpus();
    let serial = fit_golden(Backend::Serial);
    let serial_ppx = gibbs_perplexity(&serial, &corpus, 30, 99).unwrap();
    for kernel in [KernelKind::Flat, KernelKind::Sparse] {
        for shards in [2, 4] {
            let sharded = fit_golden(Backend::ShardedDocs {
                kernel,
                shards,
                threads: 2,
            });
            let ppx = gibbs_perplexity(&sharded, &corpus, 30, 99).unwrap();
            let rel = (ppx - serial_ppx).abs() / serial_ppx;
            assert!(
                rel < 0.15,
                "{kernel:?} S={shards} perplexity {ppx} vs serial {serial_ppx} (rel {rel:.3})"
            );
            // Both should solve the case study: pencil tokens land in the
            // School Supplies topic.
            let school = sharded
                .labels()
                .iter()
                .position(|l| l.as_deref() == Some("School Supplies"))
                .unwrap() as u32;
            assert_eq!(sharded.assignments()[0][0], school, "{kernel:?} S={shards}");
        }
    }
}

/// FNV-1a digest of a fitted model: the assignments as `u32` LE, then the
/// φ bits as `u64` LE — the encoding of `train_driver`'s `final digest`.
fn model_digest(fitted: &FittedModel) -> u64 {
    let mut bytes = Vec::new();
    for doc in fitted.assignments() {
        for &t in doc {
            bytes.extend_from_slice(&t.to_le_bytes());
        }
    }
    for &x in fitted.phi().as_slice() {
        bytes.extend_from_slice(&x.to_bits().to_le_bytes());
    }
    source_lda::serve::codec::fnv1a64(&bytes)
}

/// FNV-1a digest of what a fitted model derives from its assignments: the
/// θ bits as `u64` LE, then `topic_doc_frequencies(m)` for `m` in `0..4`,
/// each count as `u64` LE. [`model_digest`] hashes z and φ only, so this
/// is what pins θ and the superset reduction's document frequencies.
fn theta_digest(fitted: &FittedModel) -> u64 {
    let mut bytes = Vec::new();
    for &x in fitted.theta().as_slice() {
        bytes.extend_from_slice(&x.to_bits().to_le_bytes());
    }
    for min_tokens in 0..4 {
        for f in fitted.topic_doc_frequencies(min_tokens) {
            bytes.extend_from_slice(&(f as u64).to_le_bytes());
        }
    }
    source_lda::serve::codec::fnv1a64(&bytes)
}

/// Absolute chain pins: the final-model digest ([`model_digest`]), the θ
/// and document-frequency digest ([`theta_digest`]) and the sweep-6/12/18
/// [`TrainCheckpoint::digest`] of every cell of the backend matrix. The
/// relative tests above would pass a refactor that moved every chain the
/// same way; these would not. Flat and Dense share a model digest at each
/// S (bit-identical arithmetic), and every S = 1 cell shares its kernel
/// family's single-thread chain; the checkpoint digests differ per cell
/// because they also hash the kernel tag, shard layout and RNG words.
#[test]
fn golden_chain_digests() {
    let sharded = |kernel, shards| Backend::ShardedDocs {
        kernel,
        shards,
        threads: 2,
    };
    const DENSE_S1: (u64, u64) = (0x140b_215a_1162_dae1, 0xd5f8_7cdb_f685_c99f);
    const SPARSE_S1: (u64, u64) = (0xeac8_968c_a518_cf8a, 0x7128_62a8_a603_58ce);
    const DENSE_S3: (u64, u64) = (0xcaa8_5897_a1ae_8145, 0xef5e_7110_66bf_b9bf);
    const SPARSE_S3: (u64, u64) = (0x4649_37bb_4fbc_ed3a, 0x4964_3669_f569_0427);
    const PAPER_CPS: [u64; 3] = [
        0xea68_2707_5aec_4d4a,
        0x190c_75aa_e670_1f30,
        0x0a4c_33e5_6d1f_993c,
    ];
    let cells: [(Backend, (u64, u64), [u64; 3]); 9] = [
        (
            Backend::Serial,
            DENSE_S1,
            [
                0x1024_0562_c0cb_9a78,
                0x41cd_2c5c_fc69_3bfe,
                0x7524_8b86_be57_0ef6,
            ],
        ),
        (Backend::PrefixSums { threads: 2 }, DENSE_S1, PAPER_CPS),
        (Backend::SimpleParallel { threads: 2 }, DENSE_S1, PAPER_CPS),
        (
            sharded(KernelKind::Flat, 1),
            DENSE_S1,
            [
                0x23d3_53f8_6237_eac2,
                0x07e5_8f8f_2aa9_d4d0,
                0x1637_ea45_bbc3_4cf4,
            ],
        ),
        (
            sharded(KernelKind::Dense, 1),
            DENSE_S1,
            [
                0x9052_034c_a480_d944,
                0xceda_f9df_7a48_9b32,
                0xbc48_9c93_7638_347a,
            ],
        ),
        (
            sharded(KernelKind::Sparse, 1),
            SPARSE_S1,
            [
                0x86ef_f7c8_22bf_bd1c,
                0xd416_57c2_212c_f91b,
                0x9803_79a3_e198_c1fb,
            ],
        ),
        (
            sharded(KernelKind::Flat, 3),
            DENSE_S3,
            [
                0x4e6f_37d1_11c7_cfda,
                0x145a_e4c2_b2f9_2e71,
                0x8e94_6dd1_ea8e_e799,
            ],
        ),
        (
            sharded(KernelKind::Dense, 3),
            DENSE_S3,
            [
                0x0d73_cf42_744a_4f44,
                0x6a49_0ba5_7579_27bf,
                0xa8bd_4b5c_cad3_1263,
            ],
        ),
        (
            sharded(KernelKind::Sparse, 3),
            SPARSE_S3,
            [
                0xd42b_5fb8_c990_7256,
                0x3226_b67b_0fac_dc0d,
                0xdd36_1451_3112_65de,
            ],
        ),
    ];
    for (backend, (model_pin, theta_pin), checkpoint_pins) in cells {
        let (model, corpus) = model_and_corpus(backend, 18);
        let mut checkpoints = Vec::new();
        let fitted = model
            .fit_resumable(&corpus, None, Some(6), |cp| {
                checkpoints.push(cp.digest());
                Ok(())
            })
            .unwrap();
        assert_eq!(
            model_digest(&fitted),
            model_pin,
            "{backend:?}: final model digest moved"
        );
        assert_eq!(
            theta_digest(&fitted),
            theta_pin,
            "{backend:?}: θ / document-frequency digest moved"
        );
        assert_eq!(
            checkpoints, checkpoint_pins,
            "{backend:?}: sweep-6/12/18 checkpoint digests moved"
        );
    }
}
