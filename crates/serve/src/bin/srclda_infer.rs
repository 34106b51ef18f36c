//! `srclda-infer` — train-and-save, inspect, and serve Source-LDA model
//! artifacts from the command line.
//!
//! ```text
//! srclda-infer save --docs corpus.txt --source articles.txt --out model.slda
//! srclda-infer inspect model.slda
//! srclda-infer infer model.slda --batch held_out.txt --workers 4
//! ```

use srclda_core::prelude::*;
use srclda_corpus::{CorpusBuilder, Tokenizer};
use srclda_knowledge::KnowledgeSourceBuilder;
use srclda_serve::{list_sections, EngineOptions, InferenceEngine, ModelArtifact};
use std::io::{self, Write};

const USAGE: &str = "\
usage: srclda-infer <command> [options]

commands:
  save      train a Source-LDA model and write a model artifact
  inspect   print an artifact's header, section table, and model summary
  infer     fold raw documents into a saved model

save options:
  --docs <file>        training corpus, one document per line
                       (\"name<TAB>text\" or bare text)
  --source <file>      knowledge source, one \"Label<TAB>article text\" line
                       per labeled topic
  --out <file>         artifact path to write (conventionally .slda);
                       written atomically (staged + fsync + rename), so
                       a crash never leaves a torn file at this path
  --variant <v>        bijective | mixture | full   (default: bijective)
  --unlabeled <k>      extra unlabeled topics for the mixture variant
                       (default: 10)
  --alpha <x>          document-topic prior          (default: 0.5)
  --iterations <n>     Gibbs sweeps                  (default: 500)
  --seed <n>           RNG seed                      (default: 42)

inspect options:
  srclda-infer inspect <artifact> [--top <k>]
  --top <k>            top words to print per topic  (default: 5; 0 hides)

infer options:
  srclda-infer infer <artifact> (--text \"...\" | --batch <file>)
  --batch <file>       documents to score, one per line
  --text <string>      score a single inline document instead
  --workers <n>        worker threads for --batch    (default: 1)
  --iterations <n>     fold-in sweeps                (default: 30)
  --seed <n>           base fold-in seed             (default: 0)
  --top <k>            topics to report per document (default: 3)

Every command accepts --help / -h.";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    // Every command writes its output through this one handle, so a
    // failed write (a reader that closed the pipe) is an error, not a
    // panic.
    let mut out = io::stdout().lock();
    let result = if wants_help(&args) {
        writeln!(out, "{USAGE}").map_err(Into::into)
    } else {
        match args[0].as_str() {
            "save" => cmd_save(&args[1..], &mut out),
            "inspect" => cmd_inspect(&args[1..], &mut out),
            "infer" => cmd_infer(&args[1..], &mut out),
            other => usage_error(&format!("unknown command {other:?}")),
        }
    };
    if let Err(e) = result.and_then(|()| Ok(out.flush()?)) {
        // A reader that stopped early (`srclda-infer … | head -1`) has all
        // the output it wants: stop quietly.
        let closed = e.downcast_ref::<io::Error>();
        if closed.is_some_and(|e| e.kind() == io::ErrorKind::BrokenPipe) {
            return;
        }
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

/// Options that consume the following argument as their value. Their
/// values must not be mistaken for flags (`--text "-h"` scores the literal
/// string `-h`; it does not request help).
const VALUE_FLAGS: &[&str] = &[
    "--docs",
    "--source",
    "--out",
    "--variant",
    "--unlabeled",
    "--alpha",
    "--iterations",
    "--seed",
    "--top",
    "--workers",
    "--text",
    "--batch",
];

fn wants_help(args: &[String]) -> bool {
    let mut skip_value = false;
    for arg in args {
        if skip_value {
            skip_value = false;
            continue;
        }
        if arg == "--help" || arg == "-h" {
            return true;
        }
        if VALUE_FLAGS.contains(&arg.as_str()) {
            skip_value = true;
        }
    }
    false
}

fn usage_error(msg: &str) -> Result<(), Box<dyn std::error::Error>> {
    eprintln!("error: {msg}\n\n{USAGE}");
    std::process::exit(2);
}

/// Strict argument validation, run before each subcommand touches its
/// flags: every `-`-prefixed token must be a known option for that
/// subcommand (in either `--flag value` or `--flag=value` form, matching
/// the experiment binaries), space-form options must actually have a
/// value, and at most `positionals` bare arguments are accepted. Unknown
/// or misplaced arguments exit 2 — a typo like `--batchh` must not
/// silently run with defaults.
fn validate_args(
    args: &[String],
    allowed: &[&str],
    positionals: usize,
) -> Result<(), Box<dyn std::error::Error>> {
    let mut seen_positionals = 0usize;
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        if arg.starts_with('-') {
            let flag = arg.split('=').next().unwrap_or(arg);
            if !allowed.contains(&flag) {
                return usage_error(&format!("unknown option {flag:?}"));
            }
            if !arg.contains('=') {
                if args.get(i + 1).is_none() {
                    return usage_error(&format!("option {flag} requires a value"));
                }
                i += 1; // the next token is this option's value, not a flag
            }
        } else {
            seen_positionals += 1;
            if seen_positionals > positionals {
                return usage_error(&format!("unexpected argument {arg:?}"));
            }
        }
        i += 1;
    }
    Ok(())
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    for (i, arg) in args.iter().enumerate() {
        if arg == flag {
            return args.get(i + 1).map(String::as_str);
        }
        if let Some(rest) = arg.strip_prefix(flag) {
            if let Some(v) = rest.strip_prefix('=') {
                return Some(v);
            }
        }
    }
    None
}

fn required<'a>(args: &'a [String], flag: &str) -> Result<&'a str, Box<dyn std::error::Error>> {
    flag_value(args, flag).ok_or_else(|| format!("missing required option {flag}").into())
}

fn parsed<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    default: T,
) -> Result<T, Box<dyn std::error::Error>> {
    match flag_value(args, flag) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("invalid value {raw:?} for {flag}").into()),
    }
}

/// Split an input line into `(name, text)` on the first tab, synthesizing
/// `doc-<i>` names for bare-text lines.
fn name_and_text(line: &str, i: usize) -> (String, String) {
    match line.split_once('\t') {
        Some((name, text)) => (name.to_string(), text.to_string()),
        None => (format!("doc-{i}"), line.to_string()),
    }
}

fn non_empty_lines(path: &str) -> Result<Vec<String>, Box<dyn std::error::Error>> {
    Ok(std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {path}: {e}"))?
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(str::to_string)
        .collect())
}

fn cmd_save(args: &[String], out: &mut impl Write) -> Result<(), Box<dyn std::error::Error>> {
    validate_args(
        args,
        &[
            "--docs",
            "--source",
            "--out",
            "--variant",
            "--unlabeled",
            "--alpha",
            "--iterations",
            "--seed",
        ],
        0,
    )?;
    let docs_path = required(args, "--docs")?;
    let source_path = required(args, "--source")?;
    let out_path = required(args, "--out")?;
    let alpha: f64 = parsed(args, "--alpha", 0.5)?;
    let iterations: usize = parsed(args, "--iterations", 500)?;
    let seed: u64 = parsed(args, "--seed", 42)?;
    let unlabeled: usize = parsed(args, "--unlabeled", 10)?;
    let variant = match flag_value(args, "--variant").unwrap_or("bijective") {
        "bijective" => Variant::Bijective,
        "mixture" => Variant::Mixture,
        "full" => Variant::Full,
        other => return usage_error(&format!("unknown --variant {other:?}")),
    };

    let tokenizer = Tokenizer::default();
    let mut builder = CorpusBuilder::new().tokenizer(tokenizer.clone());
    for (i, line) in non_empty_lines(docs_path)?.iter().enumerate() {
        let (name, text) = name_and_text(line, i);
        builder.add_text(name, &text);
    }
    if builder.is_empty() {
        return Err(format!("{docs_path} contains no documents").into());
    }
    let corpus = builder.build();

    let mut ks = KnowledgeSourceBuilder::new();
    for (i, line) in non_empty_lines(source_path)?.iter().enumerate() {
        let Some((label, text)) = line.split_once('\t') else {
            return Err(format!(
                "{source_path}:{}: expected \"Label<TAB>article text\"",
                i + 1
            )
            .into());
        };
        ks.add_article(label, text);
    }
    let source = ks.build(corpus.vocabulary());
    eprintln!(
        "training: {} docs, {} tokens, vocabulary {}, {} source topics, variant {variant:?}",
        corpus.num_docs(),
        corpus.num_tokens(),
        corpus.vocab_size(),
        source.len(),
    );

    let mut model = SourceLda::builder()
        .knowledge_source(source)
        .variant(variant)
        .alpha(alpha)
        .iterations(iterations)
        .seed(seed);
    if matches!(variant, Variant::Mixture) {
        model = model.unlabeled_topics(unlabeled);
    }
    let fitted = model.build()?.fit(&corpus)?;

    let artifact = ModelArtifact::from_fitted(&fitted, corpus.vocabulary(), &tokenizer)?;
    artifact.save(out_path)?;
    let size = std::fs::metadata(out_path)?.len();
    writeln!(
        out,
        "wrote {out_path}: {size} bytes, {} topics × {} words",
        artifact.num_topics(),
        artifact.vocab_size()
    )?;
    Ok(())
}

fn cmd_inspect(args: &[String], out: &mut impl Write) -> Result<(), Box<dyn std::error::Error>> {
    validate_args(args, &["--top"], 1)?;
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        return usage_error("inspect requires an artifact path");
    };
    let top: usize = parsed(args, "--top", 5)?;
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let sections = list_sections(&bytes)?;
    // list_sections validated magic + version, so the field is readable.
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    writeln!(
        out,
        "{path}: {} bytes, format v{version}, checksum ok",
        bytes.len()
    )?;
    writeln!(out, "sections:")?;
    for s in &sections {
        writeln!(
            out,
            "  id {:>2} {:<10} offset {:>8}  {:>10} bytes",
            s.id,
            s.name(),
            s.offset,
            s.length
        )?;
    }
    let artifact = ModelArtifact::from_bytes(&bytes)?;
    write!(out, "{}", artifact.summary())?;
    if top > 0 {
        writeln!(out, "topics:")?;
        for t in 0..artifact.num_topics() {
            writeln!(
                out,
                "  {:>4} {:<24} {}",
                t,
                artifact.labels()[t].as_deref().unwrap_or("(unlabeled)"),
                artifact.top_words(t, top).join(" ")
            )?;
        }
    }
    Ok(())
}

fn cmd_infer(args: &[String], out: &mut impl Write) -> Result<(), Box<dyn std::error::Error>> {
    validate_args(
        args,
        &[
            "--batch",
            "--text",
            "--workers",
            "--iterations",
            "--seed",
            "--top",
        ],
        1,
    )?;
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        return usage_error("infer requires an artifact path");
    };
    let workers: usize = parsed(args, "--workers", 1)?;
    let top: usize = parsed(args, "--top", 3)?;
    let iterations: usize = parsed(args, "--iterations", 30)?;
    let seed: u64 = parsed(args, "--seed", 0)?;

    let artifact = ModelArtifact::load(path)?;
    let engine = InferenceEngine::from_artifact(
        &artifact,
        EngineOptions {
            fold_in: FoldInConfig { iterations, seed },
            ..EngineOptions::default()
        },
    )?;

    let docs: Vec<(String, String)> = if let Some(text) = flag_value(args, "--text") {
        vec![("text".to_string(), text.to_string())]
    } else if let Some(batch) = flag_value(args, "--batch") {
        non_empty_lines(batch)?
            .iter()
            .enumerate()
            .map(|(i, l)| name_and_text(l, i))
            .collect()
    } else {
        return usage_error("infer requires --text or --batch");
    };

    let texts: Vec<&str> = docs.iter().map(|(_, t)| t.as_str()).collect();
    // lint:allow(wall-clock): operator-facing latency report printed by the CLI; never feeds model state
    let start = std::time::Instant::now();
    let scores = if workers > 1 {
        engine.infer_batch_parallel(&texts, workers)?
    } else {
        engine.infer_batch(&texts)?
    };
    let elapsed = start.elapsed();

    for ((name, _), score) in docs.iter().zip(&scores) {
        let tops: Vec<String> = score
            .top_topics(top)
            .into_iter()
            .map(|t| {
                format!(
                    "{}({:.3})",
                    engine.label(t).unwrap_or("(unlabeled)"),
                    score.theta()[t]
                )
            })
            .collect();
        writeln!(
            out,
            "{name}: tokens={} oov={} perplexity={:.2} top: {}",
            score.num_tokens(),
            score.oov_tokens(),
            score.perplexity(),
            tops.join(" ")
        )?;
    }
    let stats = engine.cache_stats();
    // Tokens/sec alongside docs/sec so serving throughput is directly
    // comparable with training throughput (tokens per second).
    let total_tokens: usize = scores.iter().map(|s| s.num_tokens()).sum();
    let secs = elapsed.as_secs_f64().max(1e-9);
    eprintln!(
        "{} docs ({} tokens) in {:.3}s ({:.1} docs/sec, {:.1} tokens/sec, {} workers, \
         cache {}h/{}m)",
        docs.len(),
        total_tokens,
        elapsed.as_secs_f64(),
        docs.len() as f64 / secs,
        total_tokens as f64 / secs,
        workers.max(1),
        stats.hits,
        stats.misses,
    );
    Ok(())
}
