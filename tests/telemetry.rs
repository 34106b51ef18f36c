//! Contracts of the `srclda_obs` telemetry subsystem at the training
//! boundary:
//!
//! * **Observation is free of side effects on the chain.** Fitting with a
//!   JSONL observer attached (plus a registry observer fanned out behind
//!   it) produces φ/θ/z **bit-identical** to the same fit with no
//!   observer, and the checkpoints passed to the callback are identical
//!   too — across the serial flat kernel, the in-place sparse kernel
//!   (`S = 1`), and the document-sharded backends (`S > 1`). Observers are value-snapshot consumers; they never draw
//!   RNG and never touch sampler state.
//! * **The JSONL stream is well-formed.** Every line round-trips through
//!   the same vendored JSON codec the serving daemon uses, carries a
//!   known `"event"` discriminator, and the per-backend event mix is what
//!   the backend promises (shard timings only from `ShardedDocs` at
//!   `S > 1`, standalone bucket-count events only from the in-place
//!   sparse kernel, bucket tallies *inline on the shard_sweep lines* only
//!   when the shard kernel is sparse, adaptation events exactly at the
//!   configured λ boundaries).
//! * **The registry renders valid Prometheus exposition** covering the
//!   `srclda_train_*` families.
//!
//! **Tolerance: exact (zero)** — bit-identity, not approximate parity.

use std::sync::Arc;

use source_lda::core::generative::{DocLength, LambdaMode, SourceLdaGenerator};
use source_lda::core::{GibbsModel, TrainCheckpoint};
use source_lda::obs::{Fanout, JsonlSink, Registry, RegistryObserver};
use source_lda::prelude::*;
use source_lda::serve::server::json::{self, Value};

/// The `tests/shard_equivalence.rs` world: 6 source topics + 3 unlabeled
/// over a 250-word vocabulary, 30 documents, adaptive λ.
fn model_and_corpus(backend: Backend) -> (GibbsModel, Corpus) {
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
        .iterations(18)
        .backend(backend)
        .seed(29)
        .build()
        .unwrap()
        .assemble(vocab_size)
        .unwrap();
    (model, generated.corpus)
}

const BACKENDS: [Backend; 4] = [
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
];

/// Fit with an optional observer, capturing every checkpoint the run
/// emits; returns the fitted model, the checkpoints, and (when observed)
/// the raw JSONL bytes.
fn fit_capturing(
    backend: Backend,
    observed: bool,
) -> (FittedModel, Vec<TrainCheckpoint>, Option<String>) {
    let (model, corpus) = model_and_corpus(backend);
    let mut checkpoints = Vec::new();
    let on_checkpoint = |cp: &TrainCheckpoint| {
        checkpoints.push(cp.clone());
        Ok(())
    };
    if observed {
        let mut sink = JsonlSink::new(Vec::<u8>::new());
        let mut registry = RegistryObserver::new(Arc::new(Registry::new()));
        let mut fanout = Fanout::new().with(&mut sink).with(&mut registry);
        let fitted = model
            .fit_observed(&corpus, None, Some(5), on_checkpoint, &mut fanout)
            .unwrap();
        let bytes = sink.finish().unwrap();
        (fitted, checkpoints, Some(String::from_utf8(bytes).unwrap()))
    } else {
        let fitted = model
            .fit_resumable(&corpus, None, Some(5), on_checkpoint)
            .unwrap();
        (fitted, checkpoints, None)
    }
}

#[test]
fn attaching_observers_never_perturbs_the_chain() {
    for backend in BACKENDS {
        let (plain, plain_cps, _) = fit_capturing(backend, false);
        let (observed, observed_cps, _) = fit_capturing(backend, true);
        assert_eq!(
            plain.assignments(),
            observed.assignments(),
            "{backend:?}: z diverged under observation"
        );
        assert_eq!(
            plain.phi().as_slice(),
            observed.phi().as_slice(),
            "{backend:?}: φ diverged under observation"
        );
        assert_eq!(
            plain.theta().as_slice(),
            observed.theta().as_slice(),
            "{backend:?}: θ diverged under observation"
        );
        assert_eq!(
            plain_cps, observed_cps,
            "{backend:?}: checkpoints diverged under observation"
        );
        assert_eq!(plain_cps.len(), 3, "{backend:?}: sweeps 5, 10, 15");
    }
}

/// Parse a JSONL stream, asserting each line is an object with a string
/// `"event"` field and survives a render → re-parse round trip.
fn parse_events(jsonl: &str) -> Vec<(String, Value)> {
    jsonl
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let value = json::parse(line).expect("telemetry line parses");
            let reparsed = json::parse(&value.render()).expect("rendered line re-parses");
            assert_eq!(value, reparsed, "render/parse round trip");
            let kind = value
                .get("event")
                .and_then(|v| v.as_str())
                .expect("event discriminator")
                .to_string();
            (kind, value)
        })
        .collect()
}

#[test]
fn jsonl_streams_are_well_formed_and_backend_shaped() {
    for backend in BACKENDS {
        let (_, _, jsonl) = fit_capturing(backend, true);
        let events = parse_events(&jsonl.unwrap());
        let count = |kind: &str| events.iter().filter(|(k, _)| k == kind).count();

        assert_eq!(count("sweep"), 18, "{backend:?}: one sweep event per sweep");
        assert_eq!(count("fit_complete"), 1, "{backend:?}");
        assert_eq!(count("checkpoint"), 3, "{backend:?}: sweeps 5, 10, 15");
        // adaptive_lambda(6) with lambda_burn_in(4): boundaries at sweeps
        // 4, 10, 16.
        assert_eq!(count("adapt"), 3, "{backend:?}: λ boundaries at 4/10/16");

        // S = 1 sweeps in place: no shard timings, and the sparse
        // kernel's bucket counts arrive as standalone events.
        let sharded = backend.shards() > 1;
        let in_place_sparse = !sharded && backend.kernel() == KernelKind::Sparse;
        assert_eq!(
            count("shard_sweep"),
            if sharded { 18 } else { 0 },
            "{backend:?}: shard timings iff S > 1"
        );
        assert_eq!(
            count("sparse_buckets"),
            if in_place_sparse { 18 } else { 0 },
            "{backend:?}: bucket counts iff the in-place sparse kernel"
        );

        // Spot-check value-level coherence on the sweep events.
        let (_, corpus) = model_and_corpus(backend);
        let tokens = corpus.num_tokens() as f64;
        for (_, e) in events.iter().filter(|(k, _)| k == "sweep") {
            assert_eq!(e.get("tokens").and_then(Value::as_f64), Some(tokens));
            let rate = e.get("tokens_per_sec").and_then(Value::as_f64).unwrap();
            assert!(rate > 0.0, "{backend:?}: tokens/sec must be positive");
        }
        if sharded {
            let sharded_sparse = matches!(
                backend,
                Backend::ShardedDocs {
                    kernel: KernelKind::Sparse,
                    ..
                }
            );
            for (_, e) in events.iter().filter(|(k, _)| k == "shard_sweep") {
                for field in ["shard_secs", "refresh_secs"] {
                    let Some(Value::Arr(secs)) = e.get(field) else {
                        panic!("{backend:?}: {field} must be an array");
                    };
                    assert_eq!(secs.len(), 3, "{backend:?}: one {field} timing per shard");
                }
                // A sweep moves each token at most once.
                let moved = e.get("moved").and_then(Value::as_f64).unwrap();
                assert!(
                    moved <= tokens,
                    "{backend:?}: moved {moved} of {tokens} tokens"
                );
                // Bucket tallies ride the shard_sweep line iff the shard
                // kernel is sparse, and the merged totals across shards
                // account for every token of the sweep.
                for field in ["q_hits", "r_hits", "s_hits", "dense_fallbacks"] {
                    assert_eq!(
                        e.get(field).is_some(),
                        sharded_sparse,
                        "{backend:?}: {field} iff the shard kernel is sparse"
                    );
                }
                if sharded_sparse {
                    let total: f64 = ["q_hits", "r_hits", "s_hits", "dense_fallbacks"]
                        .iter()
                        .map(|f| e.get(f).and_then(Value::as_f64).unwrap())
                        .sum();
                    assert_eq!(
                        total, tokens,
                        "{backend:?}: bucket totals must cover the sweep"
                    );
                }
            }
        }
        for (_, e) in events.iter().filter(|(k, _)| k == "checkpoint") {
            let bytes = e.get("bytes").and_then(Value::as_f64).unwrap();
            assert!(bytes > 0.0, "{backend:?}: checkpoint payload is nonempty");
        }
    }
}

#[test]
fn registry_observer_renders_valid_prometheus_exposition() {
    let (model, corpus) = model_and_corpus(Backend::ShardedDocs {
        kernel: KernelKind::Sparse,
        shards: 1,
        threads: 1,
    });
    let registry = Arc::new(Registry::new());
    let mut observer = RegistryObserver::new(Arc::clone(&registry));
    model
        .fit_observed(&corpus, None, Some(5), |_| Ok(()), &mut observer)
        .unwrap();

    let text = registry.render();
    let samples = source_lda::obs::validate_exposition(&text)
        .unwrap_or_else(|e| panic!("invalid exposition: {e}\n{text}"));
    assert!(samples >= 8, "expected a full train family set:\n{text}");
    for family in [
        "srclda_train_sweeps_total 18",
        "srclda_train_checkpoints_total 3",
        "srclda_train_adaptations_total 3",
        "srclda_train_tokens_total",
        "srclda_train_sparse_bucket_hits_total{bucket=\"word\"}",
    ] {
        assert!(text.contains(family), "missing {family:?} in:\n{text}");
    }
}
