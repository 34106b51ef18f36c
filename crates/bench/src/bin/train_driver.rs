//! Deterministic document-sharded training on the pinned golden-fixture
//! corpus (the §I case-study world), exercising the checkpoint lifecycle
//! end to end. Two runs print the same `final digest` iff they produced
//! bit-identical models:
//!
//! ```sh
//! # train, writing rotating resumable v4 .slda generations
//! # (ck.g000006.slda, ck.g000012.slda, …) every 6 sweeps, and simulate
//! # a kill right after the sweep-12 checkpoint:
//! train_driver --sweeps 24 --shards 2 \
//!     --checkpoint-every 6 --checkpoint-path ck.slda --stop-after 12
//! # scan, checksum-validate, and resume from the newest good generation:
//! train_driver --sweeps 24 --shards 2 \
//!     --checkpoint-every 6 --checkpoint-path ck.slda --resume auto
//! # the printed "final digest" is bit-identical to an uninterrupted run:
//! train_driver --sweeps 24 --shards 2
//! # crash *during* the sweep-12 checkpoint write instead (exit 9); the
//! # torn file fails its checksum and --resume auto falls back to the
//! # sweep-6 generation:
//! train_driver --sweeps 24 --shards 2 --checkpoint-every 6 \
//!     --checkpoint-path ck.slda --fault torn@12 --fault-seed 42
//! ```
//!
//! `--validate-telemetry <P>` checks a `--telemetry` JSONL file against
//! the event schema instead of training.

use srclda_bench::cli::{flag_present, flag_usage, flag_value, help_requested};
use srclda_core::prelude::gibbs_perplexity_counted;
use srclda_core::{Backend, GibbsModel, KernelKind, SourceLda, TrainCheckpoint, Variant};
use srclda_corpus::{Corpus, CorpusBuilder, Tokenizer};
use srclda_knowledge::KnowledgeSourceBuilder;
use srclda_obs::{Fanout, JsonlSink, ProgressSink, TrainEvent, TrainObserver};
use srclda_serve::codec::fnv1a64;
use srclda_serve::server::json;
use srclda_serve::{CheckpointStore, FaultKind, FaultPlan, ModelArtifact};

/// Every flag the driver accepts; a spec with a space takes a value.
const FLAGS: &[(&str, &str)] = &[
    ("--shards <S>", "document shard count (default 2)"),
    (
        "--kernel <K>",
        "shard sweep kernel: flat, sparse, or dense (default flat)",
    ),
    ("--sweeps <N>", "Gibbs sweeps (default 24)"),
    ("--seed <N>", "run seed (default 7)"),
    (
        "--checkpoint-every <N>",
        "write a resumable .slda generation every N sweeps",
    ),
    (
        "--checkpoint-path <P>",
        "base path for checkpoint generations; sweep-N lands at \
         <stem>.g<N>.slda beside it (default train_checkpoint.slda)",
    ),
    ("--keep <K>", "checkpoint generations to retain (default 3)"),
    (
        "--resume <P|auto>",
        "resume from a checkpoint-bearing .slda file, or scan the \
         --checkpoint-path generations for the newest valid one",
    ),
    (
        "--stop-after <K>",
        "exit right after the sweep-K checkpoint (simulated kill)",
    ),
    (
        "--fault <kind>@<sweep>",
        "inject a fault into the sweep-<sweep> checkpoint write and exit 9; \
         kinds: torn, fail, enospc, crash",
    ),
    (
        "--fault-seed <N>",
        "seed deriving the injected fault's byte offset (default 42)",
    ),
    ("--telemetry <P>", "stream JSONL telemetry events to P"),
    ("--progress", "print per-sweep progress lines to stderr"),
    (
        "--validate-telemetry <P>",
        "validate a telemetry JSONL file against the event schema and exit",
    ),
];

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn parse_usize(args: &[String], flag: &str) -> Option<usize> {
    if !flag_present(args, flag) {
        return None;
    }
    match flag_value(args, flag) {
        Some(v) => match v.parse() {
            Ok(n) => Some(n),
            Err(_) => die(&format!("{flag} needs a non-negative integer, got {v:?}")),
        },
        None => die(&format!("{flag} requires a value")),
    }
}

/// The pinned golden-fixture corpus (the §I case-study world of
/// `tests/artifact_compat.rs`, repeated so the shards have real work) and
/// its knowledge source.
fn golden_world() -> (Corpus, Tokenizer, srclda_knowledge::KnowledgeSource) {
    let tokenizer = Tokenizer::permissive();
    let mut builder = CorpusBuilder::new().tokenizer(tokenizer.clone());
    for i in 0..24 {
        builder.add_tokens(
            format!("school-{i}"),
            &["pencil", "pencil", "ruler", "eraser"],
        );
        builder.add_tokens(
            format!("sports-{i}"),
            &["baseball", "umpire", "baseball", "glove"],
        );
        // "bag" appears in *both* articles with equal weight, so its
        // tokens stay genuinely stochastic: the final assignments depend
        // on the chain, not just the priors. Without this every run
        // converges to one prior-determined fixed point and the CI digest
        // comparison could not distinguish a broken resume that merely
        // re-converges.
        builder.add_tokens(
            format!("mixed-{i}"),
            &["pencil", "baseball", "bag", "bag", "bag", "glove"],
        );
    }
    let corpus = builder.build();
    let mut ks = KnowledgeSourceBuilder::new();
    ks.add_article(
        "School Supplies",
        "pencil ruler eraser notebook bag pencil ruler pencil ".repeat(40),
    );
    ks.add_article(
        "Baseball",
        "baseball umpire pitcher inning bag baseball umpire baseball glove ".repeat(40),
    );
    let knowledge = ks.build(corpus.vocabulary());
    (corpus, tokenizer, knowledge)
}

/// FNV-1a digest over the final assignments and φ bits: two runs print
/// the same digest iff they produced bit-identical models.
fn digest(assignments: &[Vec<u32>], phi: &[f64]) -> u64 {
    let mut bytes = Vec::new();
    for doc in assignments {
        for &t in doc {
            bytes.extend_from_slice(&t.to_le_bytes());
        }
    }
    for &x in phi {
        bytes.extend_from_slice(&x.to_bits().to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// Parse a `--fault` spec like `torn@12` into the fault kind and the
/// checkpoint sweep it strikes at.
fn parse_fault_spec(spec: &str) -> (FaultKind, usize) {
    let Some((kind_str, sweep_str)) = spec.split_once('@') else {
        die(&format!("--fault wants <kind>@<sweep>, got {spec:?}"));
    };
    let kind = match kind_str {
        "torn" => FaultKind::TornWrite,
        "fail" => FaultKind::FailWrite,
        "enospc" => FaultKind::DiskFull,
        "crash" => FaultKind::CrashAfterRename,
        other => die(&format!(
            "unknown fault kind {other:?} (expected torn, fail, enospc, or crash)"
        )),
    };
    let sweep = sweep_str.parse().unwrap_or_else(|_| {
        die(&format!(
            "--fault sweep must be an integer, got {sweep_str:?}"
        ))
    });
    (kind, sweep)
}

fn train(args: &[String]) {
    let shards = parse_usize(args, "--shards").unwrap_or(2);
    let kernel = if flag_present(args, "--kernel") {
        match flag_value(args, "--kernel") {
            Some("flat") => KernelKind::Flat,
            Some("sparse") => KernelKind::Sparse,
            Some("dense") => KernelKind::Dense,
            Some(other) => die(&format!(
                "--kernel wants flat, sparse, or dense, got {other:?}"
            )),
            None => die("--kernel requires a value"),
        }
    } else {
        KernelKind::Flat
    };
    let sweeps = parse_usize(args, "--sweeps").unwrap_or(24);
    let seed = parse_usize(args, "--seed").unwrap_or(7) as u64;
    let checkpoint_every = parse_usize(args, "--checkpoint-every");
    let stop_after = parse_usize(args, "--stop-after");
    let keep = parse_usize(args, "--keep").unwrap_or(3);
    let fault_seed = parse_usize(args, "--fault-seed").unwrap_or(42) as u64;
    let checkpoint_path = flag_value(args, "--checkpoint-path")
        .unwrap_or("train_checkpoint.slda")
        .to_string();
    let resume_path = flag_value(args, "--resume").map(str::to_string);
    if flag_present(args, "--resume") && resume_path.is_none() {
        die("--resume requires a path or \"auto\"");
    }
    if flag_present(args, "--checkpoint-path") && flag_value(args, "--checkpoint-path").is_none() {
        die("--checkpoint-path requires a path");
    }
    let fault = flag_value(args, "--fault").map(parse_fault_spec);
    if flag_present(args, "--fault") && fault.is_none() {
        die("--fault requires a <kind>@<sweep> value");
    }
    // Exit 2 unless this run writes a checkpoint at the --stop-after and
    // --fault sweeps: after the sweep it starts from, a multiple of
    // --checkpoint-every, and at most --sweeps. A flag naming any other
    // sweep would never fire, and its simulated kill or fault would
    // silently degrade into a full run.
    let require_boundaries = |from: usize| {
        let flagged = [
            ("--stop-after", stop_after),
            ("--fault", fault.map(|(_, at)| at)),
        ];
        for (flag, sweep) in flagged {
            let Some(sweep) = sweep else { continue };
            let Some(every) = checkpoint_every else {
                die(&format!("{flag} only makes sense with --checkpoint-every"));
            };
            if sweep <= from || !sweep.is_multiple_of(every) || sweep > sweeps {
                die(&format!(
                    "{flag} at sweep {sweep} is never a checkpoint boundary \
                     (checkpoints fire at multiples of {every} after sweep {from} up to {sweeps})"
                ));
            }
        }
    };
    require_boundaries(0);
    let store = CheckpointStore::new(&checkpoint_path, keep);

    let (corpus, tokenizer, knowledge) = golden_world();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let model: GibbsModel = SourceLda::builder()
        .knowledge_source(knowledge)
        .variant(Variant::Bijective)
        .alpha(0.5)
        .iterations(sweeps)
        .seed(seed)
        .backend(Backend::ShardedDocs {
            kernel,
            shards,
            threads,
        })
        .build()
        .and_then(|m| m.assemble(corpus.vocab_size()))
        .unwrap_or_else(|e| die(&e.to_string()));

    // The generation a resume continues from, which holds its checkpoint.
    let resumed_from: Option<ModelArtifact> = resume_path.and_then(|path| {
        let (path, artifact) = if path == "auto" {
            // Scan the generation family for the newest valid snapshot,
            // skipping (and reporting) torn or bit-flipped files.
            let recovery = store
                .resume_auto()
                .unwrap_or_else(|e| die(&format!("scanning {checkpoint_path:?} generations: {e}")));
            println!(
                "resume auto: scanned {} generation(s), {} corrupt skipped, {} stale tmp cleaned",
                recovery.scanned, recovery.corrupt, recovery.cleaned_tmp
            );
            let Some(recovered) = recovery.recovered else {
                println!("resume auto: no valid generation found, starting fresh");
                return None;
            };
            (recovered.path, recovered.artifact)
        } else {
            let artifact = ModelArtifact::load(&path)
                .unwrap_or_else(|e| die(&format!("loading {path:?}: {e}")));
            (path.into(), artifact)
        };
        let cp = artifact
            .checkpoint()
            .unwrap_or_else(|| die(&format!("{path:?} carries no checkpoint section")));
        println!(
            "resuming from {path:?} at sweep {} (checkpoint digest {:016x})",
            cp.sweep,
            cp.digest()
        );
        Some(artifact)
    });
    let resume: Option<&TrainCheckpoint> =
        resumed_from.as_ref().and_then(ModelArtifact::checkpoint);
    if let Some(cp) = resume {
        require_boundaries(cp.sweep as usize);
    }

    let telemetry_path = flag_value(args, "--telemetry").map(str::to_string);
    if flag_present(args, "--telemetry") && telemetry_path.is_none() {
        die("--telemetry requires a path");
    }
    let mut jsonl = telemetry_path.as_ref().map(|path| {
        JsonlSink::create(path).unwrap_or_else(|e| die(&format!("creating {path:?}: {e}")))
    });
    let mut progress = flag_present(args, "--progress").then(ProgressSink::stderr);
    // With no sinks the fan-out reports `enabled() == false` and the fit
    // takes the exact no-telemetry fast path; either way the chain is
    // bit-identical (observers are read-only value-snapshot consumers).
    let mut sinks = Fanout::new();
    if let Some(sink) = jsonl.as_mut() {
        sinks.push(sink);
    }
    if let Some(sink) = progress.as_mut() {
        sinks.push(sink);
    }

    let labels = model.labels().to_vec();
    let fitted = model
        .fit_observed(
            &corpus,
            resume,
            checkpoint_every,
            |cp| {
                let artifact = ModelArtifact::from_checkpoint(
                    cp,
                    labels.clone(),
                    corpus.vocabulary(),
                    &tokenizer,
                )
                .map_err(|e| {
                    srclda_core::CoreError::InvalidConfig(format!("checkpoint artifact: {e}"))
                })?;
                let plan = match fault {
                    Some((kind, at)) if at == cp.sweep as usize => {
                        FaultPlan::seeded(kind, fault_seed)
                    }
                    _ => FaultPlan::none(),
                };
                match store.save_generation_with_plan(cp.sweep, &artifact, &plan) {
                    Ok(path) => {
                        println!("checkpoint at sweep {} -> {}", cp.sweep, path.display());
                    }
                    Err(e) if plan.triggered() > 0 => {
                        // The injected fault fired: this process is "the
                        // trainer that died mid-checkpoint". Exit 9 so CI
                        // can tell a simulated crash from a real failure.
                        println!(
                            "simulated crash during checkpoint at sweep {}: {e}",
                            cp.sweep
                        );
                        std::process::exit(9);
                    }
                    Err(e) => {
                        return Err(srclda_core::CoreError::InvalidConfig(format!(
                            "writing generation {} of {checkpoint_path:?}: {e}",
                            cp.sweep
                        )));
                    }
                }
                if stop_after == Some(cp.sweep as usize) {
                    println!("stopping after sweep {} (simulated kill)", cp.sweep);
                    std::process::exit(0);
                }
                Ok(())
            },
            &mut sinks,
        )
        .unwrap_or_else(|e| die(&e.to_string()));

    if sinks.enabled() {
        // Telemetry runs close the loop with a held-out-style perplexity
        // pass over the training corpus, so the JSONL stream carries the
        // underflow-rescue tallies alongside the sweep records.
        let est = gibbs_perplexity_counted(&fitted, &corpus, 20, seed.wrapping_add(1))
            .unwrap_or_else(|e| die(&format!("perplexity evaluation: {e}")));
        sinks.on_event(&TrainEvent::Perplexity {
            perplexity: est.perplexity,
            rescued_draws: est.rescued_draws,
            zero_mass_draws: est.zero_mass_draws,
        });
    }
    if let (Some(sink), Some(path)) = (jsonl, telemetry_path.as_ref()) {
        sink.finish()
            .unwrap_or_else(|e| die(&format!("writing {path:?}: {e}")));
        println!("telemetry -> {path}");
    }

    println!(
        "trained {} docs x {} sweeps, shards={shards}, kernel={kernel:?}, seed={seed}",
        corpus.num_docs(),
        sweeps
    );
    println!(
        "final digest: {:016x}",
        digest(fitted.assignments(), fitted.phi().as_slice())
    );
}

/// Field schemas per event kind: `(name, nullable)`; the `"event"`
/// discriminator itself is implicit. The [`ARRAY_FIELDS`] are arrays of
/// numbers; every other non-null field is a number.
const SWEEP_FIELDS: &[(&str, bool)] = &[
    ("sweep", false),
    ("duration_secs", false),
    ("tokens", false),
    ("tokens_per_sec", false),
    ("loglik", true),
    ("loglik_clamped_tokens", false),
];
const SPARSE_FIELDS: &[(&str, bool)] = &[
    ("sweep", false),
    ("q_hits", false),
    ("r_hits", false),
    ("s_hits", false),
    ("dense_fallbacks", false),
];
const SHARD_FIELDS: &[(&str, bool)] = &[
    ("sweep", false),
    ("merge_secs", false),
    ("shard_secs", false),
    ("refresh_secs", false),
    ("moved", false),
];
/// The per-shard fields of a `shard_sweep` line.
const ARRAY_FIELDS: &[&str] = &["shard_secs", "refresh_secs"];
/// Bucket tallies a `shard_sweep` line carries iff the shard kernel is
/// sparse — all four present or all four absent, never a subset.
const SHARD_BUCKET_FIELDS: &[&str] = &["q_hits", "r_hits", "s_hits", "dense_fallbacks"];
const ADAPT_FIELDS: &[(&str, bool)] = &[
    ("sweep", false),
    ("duration_secs", false),
    ("threads", false),
];
const CHECKPOINT_FIELDS: &[(&str, bool)] =
    &[("sweep", false), ("bytes", false), ("duration_secs", false)];
const FIT_COMPLETE_FIELDS: &[(&str, bool)] = &[
    ("sweeps", false),
    ("duration_secs", false),
    ("tokens_per_sec", false),
    ("loglik_clamped_tokens", false),
];
const PERPLEXITY_FIELDS: &[(&str, bool)] = &[
    ("perplexity", false),
    ("rescued_draws", false),
    ("zero_mass_draws", false),
];

/// Strict schema validation for a telemetry JSONL file: every line must
/// parse (through the same vendored JSON codec the daemon serves with)
/// as an object whose `"event"` kind is known and whose fields exactly
/// match that kind's schema. Unknown kinds, missing fields, wrong types,
/// and *extra* fields all exit 2 — schema drift must fail CI loudly, not
/// scroll past it.
fn validate_telemetry(path: &str) {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("reading {path:?}: {e}")));
    let mut counts: Vec<(&'static str, usize)> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        let value = json::parse(line).unwrap_or_else(|e| die(&format!("{path}:{lineno}: {e}")));
        let json::Value::Obj(members) = &value else {
            die(&format!("{path}:{lineno}: line is not a json object"));
        };
        let Some(kind) = value.get("event").and_then(|v| v.as_str()) else {
            die(&format!(
                "{path}:{lineno}: missing the \"event\" discriminator"
            ));
        };
        let (kind, fields, optional): (&'static str, &[(&str, bool)], &[&str]) = match kind {
            "sweep" => ("sweep", SWEEP_FIELDS, &[]),
            "sparse_buckets" => ("sparse_buckets", SPARSE_FIELDS, &[]),
            "shard_sweep" => ("shard_sweep", SHARD_FIELDS, SHARD_BUCKET_FIELDS),
            "adapt" => ("adapt", ADAPT_FIELDS, &[]),
            "checkpoint" => ("checkpoint", CHECKPOINT_FIELDS, &[]),
            "fit_complete" => ("fit_complete", FIT_COMPLETE_FIELDS, &[]),
            "perplexity" => ("perplexity", PERPLEXITY_FIELDS, &[]),
            other => die(&format!("{path}:{lineno}: unknown event kind {other:?}")),
        };
        for (field, nullable) in fields {
            let Some(v) = value.get(field) else {
                die(&format!(
                    "{path}:{lineno}: {kind} event is missing {field:?}"
                ));
            };
            let ok = match v {
                json::Value::Null => *nullable,
                json::Value::Num(_) => !ARRAY_FIELDS.contains(field),
                json::Value::Arr(items) => {
                    ARRAY_FIELDS.contains(field)
                        && items.iter().all(|x| matches!(x, json::Value::Num(_)))
                }
                _ => false,
            };
            if !ok {
                die(&format!(
                    "{path}:{lineno}: {kind} field {field:?} has the wrong type"
                ));
            }
        }
        let present_optional = optional.iter().filter(|f| value.get(f).is_some()).count();
        if present_optional != 0 && present_optional != optional.len() {
            die(&format!(
                "{path}:{lineno}: {kind} event carries {present_optional} of \
                 {} bucket fields (all or none)",
                optional.len()
            ));
        }
        for field in optional {
            if let Some(v) = value.get(field) {
                if !matches!(v, json::Value::Num(_)) {
                    die(&format!(
                        "{path}:{lineno}: {kind} field {field:?} has the wrong type"
                    ));
                }
            }
        }
        if let Some((name, _)) = members.iter().find(|(name, _)| {
            name != "event"
                && !fields.iter().any(|(f, _)| f == name)
                && !optional.iter().any(|f| f == name)
        }) {
            die(&format!(
                "{path}:{lineno}: {kind} event has unknown field {name:?}"
            ));
        }
        match counts.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, n)) => *n += 1,
            None => counts.push((kind, 1)),
        }
    }
    let total: usize = counts.iter().map(|(_, n)| n).sum();
    if total == 0 {
        die(&format!("{path}: no telemetry events"));
    }
    let by_kind: Vec<String> = counts.iter().map(|(k, n)| format!("{k}={n}")).collect();
    println!(
        "validated {total} telemetry events in {path} ({})",
        by_kind.join(", ")
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if help_requested(&args) {
        print!(
            "{}",
            flag_usage(
                "train_driver",
                "Deterministic document-sharded training on the golden fixture \
                 corpus, exercising checkpoint/resume, fault injection and \
                 telemetry; prints a final digest of the trained model.",
                FLAGS,
            )
        );
        return;
    }
    // Strict flag hygiene: unknown options exit 2 rather than silently
    // training with a typo'd configuration.
    let mut skip_next = false;
    for arg in &args {
        if std::mem::take(&mut skip_next) {
            continue;
        }
        let name = arg.split('=').next().unwrap_or(arg);
        let Some((spec, _)) = FLAGS
            .iter()
            .find(|(spec, _)| spec.split(' ').next() == Some(name))
        else {
            die(&format!("unknown argument {arg:?} (see --help)"));
        };
        // `--flag value` form consumes the next argument.
        skip_next = spec.contains(' ') && !arg.contains('=');
    }

    if flag_present(&args, "--validate-telemetry") {
        let Some(path) = flag_value(&args, "--validate-telemetry") else {
            die("--validate-telemetry requires a file path");
        };
        validate_telemetry(path);
        return;
    }
    train(&args);
}
