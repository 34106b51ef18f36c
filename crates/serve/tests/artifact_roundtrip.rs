//! Property-based tests for the artifact codec: arbitrary models and
//! checkpoint generations must round-trip bit-exactly, and malformed
//! bytes — including crafted generations and final models whose
//! re-stamped checksum is valid — must fail cleanly (never panic, never
//! silently succeed). Version-1 byte streams (no checkpoint section) must
//! keep loading.

use proptest::prelude::*;
use srclda_core::persist::{CountCells, RawPrior, TrainCheckpoint};
use srclda_corpus::{Tokenizer, Vocabulary};
use srclda_math::DenseMatrix;
use srclda_serve::{ModelArtifact, ServeError, FORMAT_VERSION};

/// An arbitrary valid model: T topics × V words with positive φ mass,
/// optional labels, and a mix of prior kinds, all derived from `seed`.
fn build_artifact(t: usize, v: usize, seed: u64) -> ModelArtifact {
    {
        // Derive deterministic but varied contents from the seed.
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let phi_data: Vec<f64> = (0..t * v)
            .map(|_| (next() % 1000) as f64 / 1000.0 + 1e-6)
            .collect();
        let mut phi = DenseMatrix::from_vec(t, v, phi_data);
        phi.normalize_rows();
        let labels: Vec<Option<String>> = (0..t)
            .map(|i| (next() % 2 == 0).then(|| format!("topic-{i}")))
            .collect();
        let priors: Vec<RawPrior> = (0..t)
            .map(|_| match next() % 3 {
                0 => RawPrior::Symmetric {
                    beta: (next() % 100 + 1) as f64 / 100.0,
                },
                1 => RawPrior::Fixed {
                    delta: (0..v).map(|_| (next() % 500 + 1) as f64 / 100.0).collect(),
                },
                _ => RawPrior::ConceptSet {
                    support: (0..v as u32).filter(|_| next() % 2 == 0).chain([0]).fold(
                        Vec::new(),
                        |mut acc, w| {
                            if acc.last() != Some(&w) && !acc.contains(&w) {
                                acc.push(w);
                            }
                            acc
                        },
                    ),
                    beta: 0.5,
                },
            })
            .collect();
        let vocab = Vocabulary::from_words((0..v).map(|i| format!("word{i}")));
        let tokenizer = Tokenizer::from_parts(
            next() % 2 == 0,
            (next() % 4) as usize,
            next() % 2 == 0,
            next() % 2 == 0,
        );
        ModelArtifact::new(
            1.0 / 16.0 + (next() % 16) as f64,
            phi,
            labels,
            priors,
            vocab,
            tokenizer,
        )
        .expect("strategy builds valid artifacts")
    }
}

/// An arbitrary *consistent* training checkpoint for a `t × v` model:
/// random document lengths and assignments, with the counts derived from
/// them (the validator rejects anything else).
fn build_checkpoint(t: usize, v: usize, seed: u64, alpha: f64) -> TrainCheckpoint {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let docs = (next() % 6 + 1) as usize;
    let mut nw = vec![0u32; v * t];
    let z: Vec<Vec<u32>> = (0..docs)
        .map(|_| {
            (0..(next() % 9) as usize)
                .map(|_| {
                    let w = (next() % v as u64) as usize;
                    let topic = (next() % t as u64) as u32;
                    nw[w * t + topic as usize] += 1;
                    topic
                })
                .collect()
        })
        .collect();
    let shards = next() % 4; // 0 = serial checkpoint
    TrainCheckpoint {
        sweep: next() % 1000,
        seed: next(),
        alpha,
        shards,
        z,
        counts: CountCells::from_dense(v, t, nw),
        main_rng: [next(), next(), next(), next()],
        shard_rngs: (0..shards)
            .map(|_| [next(), next(), next(), next()])
            .collect(),
        priors: (0..t)
            .map(|_| RawPrior::Symmetric {
                beta: (next() % 100 + 1) as f64 / 100.0,
            })
            .collect(),
    }
}

/// A generation of `cp` that serves with `artifact`'s labels, vocabulary
/// and tokenizer.
fn generation(artifact: &ModelArtifact, cp: &TrainCheckpoint) -> ModelArtifact {
    ModelArtifact::from_checkpoint(
        cp,
        artifact.labels().to_vec(),
        artifact.vocabulary(),
        artifact.tokenizer(),
    )
    .expect("strategy builds consistent checkpoints")
}

/// Overwrite the trailer with the checksum of everything before it, so
/// an edited byte stream is refused for its content, not its checksum.
fn restamp(bytes: &mut [u8]) {
    let body = bytes.len() - 8;
    let checksum = srclda_serve::codec::fnv1a64(&bytes[..body]);
    bytes[body..].copy_from_slice(&checksum.to_le_bytes());
}

/// Patch a (checkpoint-free) final-model byte stream down to version 1
/// and restamp the checksum — byte-identical to what a v1 writer
/// produced, since the sections and layout of a final model never
/// changed.
fn downgrade_to_v1(mut bytes: Vec<u8>) -> Vec<u8> {
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    restamp(&mut bytes);
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn encode_decode_is_bit_exact(t in 2usize..6, v in 2usize..24, seed in any::<u64>()) {
        let artifact = build_artifact(t, v, seed);
        let bytes = artifact.to_bytes();
        let back = ModelArtifact::from_bytes(&bytes).unwrap();
        // φ compared by bit pattern, not float equality.
        let bits = |a: &ModelArtifact| -> Vec<u64> {
            a.phi().unwrap().as_slice().iter().map(|x| x.to_bits()).collect()
        };
        let (a_bits, b_bits) = (bits(&artifact), bits(&back));
        prop_assert_eq!(a_bits, b_bits);
        prop_assert_eq!(artifact.alpha().to_bits(), back.alpha().to_bits());
        prop_assert_eq!(artifact.labels(), back.labels());
        prop_assert_eq!(artifact.priors(), back.priors());
        prop_assert_eq!(artifact.vocabulary().words(), back.vocabulary().words());
        prop_assert_eq!(artifact.tokenizer().to_parts(), back.tokenizer().to_parts());
        // Re-encoding is deterministic and stable.
        prop_assert_eq!(bytes, back.to_bytes());
    }

    #[test]
    fn checkpoint_section_round_trips_bit_exactly(
        t in 2usize..6,
        v in 2usize..24,
        seed in any::<u64>(),
    ) {
        let artifact = build_artifact(t, v, seed);
        let cp = build_checkpoint(t, v, seed ^ 0xc4ec, artifact.alpha());
        let artifact = generation(&artifact, &cp);
        let bytes = artifact.to_bytes();
        let back = ModelArtifact::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back.checkpoint(), Some(&cp));
        prop_assert_eq!(back.priors(), artifact.priors());
        prop_assert_eq!(back.phi().unwrap(), cp.phi().unwrap());
        prop_assert_eq!(bytes, back.to_bytes());
    }

    #[test]
    fn v1_byte_streams_still_load_without_the_checkpoint_section(
        t in 2usize..6,
        v in 2usize..24,
        seed in any::<u64>(),
    ) {
        let artifact = build_artifact(t, v, seed);
        let v1_bytes = downgrade_to_v1(artifact.to_bytes());
        let back = ModelArtifact::from_bytes(&v1_bytes).unwrap();
        prop_assert!(back.checkpoint().is_none());
        prop_assert_eq!(back.labels(), artifact.labels());
        prop_assert_eq!(back.priors(), artifact.priors());
    }

    #[test]
    fn every_truncation_fails_cleanly(
        t in 2usize..6,
        v in 2usize..24,
        seed in any::<u64>(),
        frac in 0.0f64..1.0,
        with_checkpoint in any::<bool>(),
    ) {
        let mut artifact = build_artifact(t, v, seed);
        if with_checkpoint {
            let cp = build_checkpoint(t, v, seed ^ 0x71c, artifact.alpha());
            artifact = generation(&artifact, &cp);
        }
        let bytes = artifact.to_bytes();
        let cut = ((bytes.len() - 1) as f64 * frac) as usize;
        prop_assert!(ModelArtifact::from_bytes(&bytes[..cut]).is_err());
    }

    #[test]
    fn every_single_byte_corruption_fails_cleanly(
        t in 2usize..6,
        v in 2usize..24,
        seed in any::<u64>(),
        frac in 0.0f64..1.0,
        bit in 0u8..8,
        with_checkpoint in any::<bool>(),
    ) {
        // The checksum trailer covers the full payload, so flipping any one
        // bit anywhere must be caught (by checksum, magic, or version).
        let mut artifact = build_artifact(t, v, seed);
        if with_checkpoint {
            let cp = build_checkpoint(t, v, seed ^ 0xf11b, artifact.alpha());
            artifact = generation(&artifact, &cp);
        }
        let mut bytes = artifact.to_bytes();
        let idx = ((bytes.len() - 1) as f64 * frac) as usize;
        bytes[idx] ^= 1 << bit;
        prop_assert!(ModelArtifact::from_bytes(&bytes).is_err());
    }
}

#[test]
fn corrupted_header_reports_bad_magic() {
    let bytes = b"NOTAMODL the rest does not matter".to_vec();
    assert!(matches!(
        ModelArtifact::from_bytes(&bytes),
        Err(ServeError::BadMagic { .. })
    ));
}

#[test]
fn future_version_reports_unsupported() {
    // Build a valid artifact, then bump the version field and re-stamp the
    // checksum: a well-formed file from the future must be refused by
    // version, not by checksum.
    let artifact = tiny_artifact();
    let mut bytes = artifact.to_bytes();
    bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    restamp(&mut bytes);
    assert!(matches!(
        ModelArtifact::from_bytes(&bytes),
        Err(ServeError::UnsupportedVersion { found, supported })
            if found == FORMAT_VERSION + 1 && supported == FORMAT_VERSION
    ));
}

#[test]
fn wrong_checksum_is_distinguished_from_truncation() {
    let artifact = tiny_artifact();
    let mut bytes = artifact.to_bytes();
    let len = bytes.len();
    bytes[len - 1] ^= 0xff;
    assert!(matches!(
        ModelArtifact::from_bytes(&bytes),
        Err(ServeError::ChecksumMismatch { .. })
    ));
}

fn tiny_artifact() -> ModelArtifact {
    let mut phi = DenseMatrix::from_vec(2, 3, vec![3.0, 2.0, 1.0, 1.0, 2.0, 3.0]);
    phi.normalize_rows();
    ModelArtifact::new(
        0.5,
        phi,
        vec![Some("A".into()), None],
        vec![
            RawPrior::Symmetric { beta: 0.1 },
            RawPrior::Fixed {
                delta: vec![1.0, 2.0, 3.0],
            },
        ],
        Vocabulary::from_words(["a", "b", "c"]),
        Tokenizer::default(),
    )
    .unwrap()
}

/// A generation or final model with its `nw` cells replaced by `cells`:
/// the checkpoint or counts section is the last one and the cells end it,
/// so the edit cuts the old cells off the end, appends the new ones, and
/// restamps the section length and the checksum.
fn with_cells(bytes: &[u8], old_cells: usize, cells: &[(u64, u32)]) -> Vec<u8> {
    let sections = srclda_serve::list_sections(bytes).unwrap();
    let last = sections.len() - 1;
    assert!(["checkpoint", "counts"].contains(&sections[last].name()));
    let mut out = bytes[..bytes.len() - 8 - 8 - 12 * old_cells].to_vec();
    out.extend((cells.len() as u64).to_le_bytes());
    for &(index, n) in cells {
        out.extend(index.to_le_bytes());
        out.extend(n.to_le_bytes());
    }
    let length = out.len() as u64 - sections[last].offset;
    let at = 16 + 20 * last + 12;
    out[at..at + 8].copy_from_slice(&length.to_le_bytes());
    out.extend([0; 8]);
    restamp(&mut out);
    out
}

/// A crafted generation in the v3 layout, which v4 keeps — every edit
/// re-checksummed so that only the content is wrong — decodes to a
/// `ServeError`, and never aborts on an allocation that no file bytes
/// back. So does a crafted final model's counts section.
#[test]
fn crafted_v3_generations_are_rejected() {
    let (t, v) = (3, 5);
    let artifact = build_artifact(t, v, 0x5eed);
    let cp = build_checkpoint(t, v, 0xce11, artifact.alpha());
    let bytes = generation(&artifact, &cp).to_bytes();
    let cells = cp.counts.cells().to_vec();
    assert!(cells.len() >= 2, "the edits below need two cells");
    assert_eq!(with_cells(&bytes, cells.len(), &cells), bytes);
    ModelArtifact::from_bytes(&bytes).unwrap();

    let rejected = |what: &str, bytes: &[u8]| {
        let err = ModelArtifact::from_bytes(bytes).expect_err(what);
        assert!(
            matches!(
                err,
                ServeError::Corrupt(_)
                    | ServeError::Truncated { .. }
                    | ServeError::MissingSection { .. }
            ),
            "{what}: {err}"
        );
    };

    // T or V claimed as 2^40 by the model section: the labels and vocab
    // sections must refute it before any V·T-sized buffer exists.
    let model = srclda_serve::list_sections(&bytes).unwrap()[0];
    assert_eq!(model.name(), "model");
    for (field, what) in [(8, "T = 2^40"), (16, "V = 2^40")] {
        let mut crafted = bytes.clone();
        let at = model.offset as usize + field;
        crafted[at..at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        restamp(&mut crafted);
        rejected(what, &crafted);
    }

    type Cells = Vec<(u64, u32)>;
    let edit = |f: &dyn Fn(&mut Cells)| {
        let mut edited = cells.clone();
        f(&mut edited);
        with_cells(&bytes, cells.len(), &edited)
    };
    let past_end = (v * t) as u64;
    rejected("index past V·T", &edit(&|c| c.push((past_end, 1))));
    rejected("index u64::MAX", &edit(&|c| c.push((u64::MAX, 1))));
    rejected("swapped cells", &edit(&|c| c.swap(0, 1)));
    rejected("duplicated cell", &edit(&|c| c.insert(1, c[0])));
    rejected("zero count", &edit(&|c| c[0].1 = 0));
    rejected("totals disagree with z", &edit(&|c| c[0].1 += 1));
    rejected(
        "missing cell",
        &edit(&|c| {
            c.remove(0);
        }),
    );

    // A file with no phi, counts or checkpoint section: a model built
    // from a φ whose phi section id is renamed to one readers ignore. A v4
    // reader asks for the counts a final model stores; before v4 a final
    // model stored φ.
    let mut crafted = artifact.to_bytes();
    let sections = srclda_serve::list_sections(&crafted).unwrap();
    let phi = sections.iter().position(|s| s.name() == "phi").unwrap();
    let at = 16 + 20 * phi;
    crafted[at..at + 4].copy_from_slice(&99u32.to_le_bytes());
    restamp(&mut crafted);
    assert!(matches!(
        ModelArtifact::from_bytes(&crafted),
        Err(ServeError::MissingSection { name: "counts" })
    ));
    crafted[8..12].copy_from_slice(&3u32.to_le_bytes());
    restamp(&mut crafted);
    assert!(matches!(
        ModelArtifact::from_bytes(&crafted),
        Err(ServeError::MissingSection { name: "phi" })
    ));

    // A final model's counts section: every crafted cell list is corrupt
    // content, never a panic.
    let (fitted, vocab) = fitted_lda();
    let final_bytes = ModelArtifact::from_fitted(&fitted, &vocab, &Tokenizer::default())
        .unwrap()
        .to_bytes();
    let t = fitted.num_topics() as u64;
    let v = fitted.vocab_size() as u64;
    let cells: Vec<(u64, u32)> = (0..v * t)
        .zip(fitted.counts().snapshot_nw())
        .filter(|&(_, n)| n != 0)
        .collect();
    assert!(cells.len() >= 2, "the edits below need two cells");
    assert_eq!(with_cells(&final_bytes, cells.len(), &cells), final_bytes);
    ModelArtifact::from_bytes(&final_bytes).unwrap();
    let edit = |f: &dyn Fn(&mut Cells)| {
        let mut edited = cells.clone();
        f(&mut edited);
        with_cells(&final_bytes, cells.len(), &edited)
    };
    for (what, crafted) in [
        ("zero count", edit(&|c| c[0].1 = 0)),
        ("swapped cells", edit(&|c| c.swap(0, 1))),
        ("duplicated cell", edit(&|c| c.insert(1, c[0]))),
        ("index past V·T", edit(&|c| c.push((v * t, 1)))),
        ("index u64::MAX", edit(&|c| c.push((u64::MAX, 1)))),
        (
            "topic total over u32::MAX",
            edit(&|c| *c = vec![(0, u32::MAX), (t, 1)]),
        ),
    ] {
        let err = ModelArtifact::from_bytes(&crafted).expect_err(what);
        assert!(matches!(err, ServeError::Corrupt(_)), "{what}: {err}");
    }
}

/// A two-topic LDA fit on a small corpus, and its vocabulary.
fn fitted_lda() -> (srclda_core::FittedModel, Vocabulary) {
    let mut b = srclda_corpus::CorpusBuilder::new().tokenizer(Tokenizer::permissive());
    for _ in 0..4 {
        b.add_tokens("a", &["cat", "dog", "pet", "cat"]);
        b.add_tokens("b", &["stock", "bond", "fund", "stock"]);
    }
    let corpus = b.build();
    let fitted = srclda_core::Lda::builder()
        .topics(2)
        .iterations(20)
        .seed(5)
        .build()
        .unwrap()
        .fit(&corpus)
        .unwrap();
    (fitted, corpus.vocabulary().clone())
}
