//! End-to-end benchmark of the Source-LDA train → save → serve path.
//!
//! ```text
//! bash e2ebench/run.sh --workload t64_flat_batch --seed 1 --seconds 20 --trace 0
//! bash e2ebench/run.sh --workload t64_flat_batch --seed 1 --seconds 20 --trace 0 --repeat 10
//! ```
//!
//! One run generates raw text from the seed, then runs set-up (ingest,
//! knowledge source, priors), training (fit with checkpoints, final
//! `.slda` save), evaluation, and serving through the real
//! `srclda-served` binary, one phase after another. It checks every
//! output and prints each metric by name and unit; the last stdout line
//! is the JSON result. See README.md for the workloads and metrics.

mod gen;
mod load;
mod pipeline;
mod probe;
mod serve;
mod stats;
mod steady;
mod trace;
mod workload;

use gen::World;
use load::{Daemon, Outcome};
use pipeline::Trained;
use serve::Summary;
use srclda_core::FoldInConfig;
use srclda_obs::TrainEvent;
use srclda_serve::{EngineOptions, InferenceEngine, ModelArtifact};
use stats::{max, mean, median, min, quantile};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::Workload;

const USAGE: &str = "usage: e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                     --daemon <srclda-served> --root <checkout> [--commit <id>] [--repeat <k>]";

/// Sequential Prometheus scrapes after each fixed-rate phase.
const IDLE_SCRAPES: usize = 10;
/// In-process engine requests timed in the traced run.
const ENGINE_REQUESTS: usize = 1000;
/// Response bodies kept for the JSON parse/render timings.
const JSON_SAMPLES: usize = 100;
/// In-process artifact loads timed in the traced run (after the first).
const EXTRA_LOADS: usize = 3;

/// Reloads and artifact loads are reported as this quantile: a load is
/// hundreds of milliseconds of memory-heavy work, and the shared host runs
/// such work up to 1.5x slower in spells of seconds.
pub const LOW_QUANTILE: f64 = 0.1;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub daemon: PathBuf,
    pub root: PathBuf,
    pub commit: String,
    pub repeat: Option<usize>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Option<String> {
        raw.iter()
            .position(|a| a == flag)
            .and_then(|i| raw.get(i + 1).cloned())
    };
    let need = |v: Option<String>, flag: &str| v.ok_or(format!("missing {flag}"));
    let num = |v: String, flag: &str| v.parse::<f64>().map_err(|_| format!("bad {flag} {v:?}"));
    let trace = match need(get("--trace"), "--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace {other:?}")),
    };
    Ok(Args {
        workload: need(get("--workload"), "--workload")?,
        seed: need(get("--seed"), "--seed")?
            .parse()
            .map_err(|_| "bad --seed".to_string())?,
        seconds: num(need(get("--seconds"), "--seconds")?, "--seconds")?,
        trace,
        daemon: PathBuf::from(need(get("--daemon"), "--daemon")?),
        root: PathBuf::from(need(get("--root"), "--root")?),
        commit: get("--commit").unwrap_or_else(|| "unknown".into()),
        repeat: match get("--repeat") {
            Some(k) => Some(k.parse().map_err(|_| "bad --repeat".to_string())?),
            None => None,
        },
    })
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("--host-probe") {
        let (chase, alu) = probe::measure();
        println!("{chase} {alu}");
        return;
    }
    let args = parse_args(&raw).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if let Some(k) = args.repeat {
        std::process::exit(steady::run(&args, k));
    }
    match run(&args) {
        Ok(report) => {
            report.print();
            std::process::exit(if report.failures.is_empty() { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// What a run prints.
struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn check(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            println!("CHECK FAILED: {e}");
            self.failures.push(e);
        }
    }

    fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("metric {name} = {value} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no infinity; a metric every request failed
                // for is printed as 1e300 ("missed every limit").
                let v = if value.is_finite() { *value } else { 1e300 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Host probe readings, one between consecutive timed phases, with the
/// CPU steal share since the previous reading.
struct Probes {
    start: Instant,
    readings: Vec<probe::Reading>,
    first_jiffies: Option<(u64, u64)>,
    last_jiffies: Option<(u64, u64)>,
}

fn steal_pct(from: Option<(u64, u64)>, to: Option<(u64, u64)>) -> f64 {
    match (from, to) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => 100.0 * (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => f64::NAN,
    }
}

impl Probes {
    fn new() -> Self {
        let jiffies = probe::cpu_jiffies();
        Probes {
            start: Instant::now(),
            readings: Vec::new(),
            first_jiffies: jiffies,
            last_jiffies: jiffies,
        }
    }

    fn take(&mut self, at: &str) {
        let jiffies = probe::cpu_jiffies();
        let steal = steal_pct(self.last_jiffies, jiffies);
        self.last_jiffies = jiffies;
        let r = probe::take();
        println!(
            "probe {at} (t={:.2} s): chase_ns={:.2} alu_ns={:.3} steal_pct={steal:.2}",
            self.start.elapsed().as_secs_f64(),
            r.chase_ns,
            r.alu_ns
        );
        self.readings.push(r);
    }

    fn summary(&self) {
        let chase: Vec<f64> = self.readings.iter().map(|r| r.chase_ns).collect();
        let alu: Vec<f64> = self.readings.iter().map(|r| r.alu_ns).collect();
        println!(
            "host chase_ns_median={} chase_ns_max={} alu_ns_median={} alu_ns_max={} steal_pct={}",
            median(&chase),
            max(&chase),
            median(&alu),
            max(&alu),
            steal_pct(self.first_jiffies, probe::cpu_jiffies())
        );
    }
}

/// What every serving phase of a run shares.
struct Serving<'a> {
    args: &'a Args,
    wl: &'a Workload,
    world: &'a World,
    artifact: &'a Path,
}

/// Everything the serving phases produce.
#[derive(Default)]
struct Served {
    ready: Vec<f64>,
    /// The fixed-rate phase of each serve round.
    fixed: Vec<Summary>,
    /// Every `/infer` latency of the fixed-rate phases (ms).
    fixed_ms: Vec<f64>,
    handler_p50_ms: Vec<f64>,
    hit_ratio: Vec<f64>,
    scrape_ms: Vec<f64>,
    reload_ms: Vec<f64>,
    serve_rss_mb: Vec<f64>,
    max_rps: Option<f64>,
    attempted: usize,
    failed: usize,
    shed: usize,
    samples: Vec<(usize, Vec<Vec<f64>>)>,
    bodies: Vec<Vec<u8>>,
}

impl Served {
    /// Account a phase, check every `/infer` response, keep the sampled
    /// θ and a few bodies, and record per-request spans when tracing.
    fn absorb(
        &mut self,
        cx: &Serving,
        tr: &mut Tracer,
        phase: &str,
        start: Instant,
        outcomes: Vec<Outcome>,
        report: &mut Report,
    ) {
        let t0 = tr.at(start);
        for o in outcomes {
            self.attempted += 1;
            if o.status != 200 {
                self.failed += 1;
            }
            if o.status == 503 {
                self.shed += 1;
            }
            if let Some(ms) = o.latency_ms {
                tr.record(
                    "request.infer",
                    format!("{phase}#{}", o.index),
                    t0 + o.due_s,
                    t0 + o.due_s + ms / 1e3,
                );
            }
            if o.status != 200 {
                continue;
            }
            match serve::check_response(cx.world, &o, cx.wl.model_topics()) {
                Ok(thetas) => {
                    if o.index % serve::SAMPLE_EVERY == 0 {
                        self.samples.push((o.index, thetas));
                    }
                }
                Err(e) => report.check(Err(format!("{phase} request {}: {e}", o.index))),
            }
            if self.bodies.len() < JSON_SAMPLES {
                self.bodies.push(o.body);
            }
        }
    }

    fn spawn(&mut self, cx: &Serving, tr: &mut Tracer, tag: &str) -> Result<Daemon, String> {
        let open = tr.begin("serve.ready", tag);
        let d = Daemon::spawn(&cx.args.daemon, cx.artifact)?;
        tr.end(open);
        self.ready.push(d.ready_secs);
        Ok(d)
    }

    /// Untimed requests from the stream that fill the daemon's cache and
    /// fault in its model before the clock starts.
    fn warm(
        &mut self,
        d: &Daemon,
        cx: &Serving,
        tr: &mut Tracer,
        next: &mut usize,
    ) -> Result<(), String> {
        let n = cx.wl.warmup_requests;
        let open = tr.begin("serve.warm", "");
        serve::warm(d, cx.world, *next, n)?;
        tr.end(open);
        *next += n;
        self.attempted += n;
        Ok(())
    }

    /// One serve round on a fresh daemon: warm-up, the fixed-rate phase,
    /// then idle scrapes and reloads.
    fn round(
        &mut self,
        cx: &Serving,
        tr: &mut Tracer,
        next: &mut usize,
        round: usize,
        report: &mut Report,
    ) -> Result<(), String> {
        let (args, wl, world) = (cx.args, cx.wl, cx.world);
        let tag = format!("fixed{round}");
        let d = self.spawn(cx, tr, &tag)?;
        self.warm(&d, cx, tr, next)?;
        let (h0, m0) = serve::cache_counts(&serve::metrics_json(&d)?);
        let n = (wl.rate * args.seconds * wl.fixed_share / wl.serve_rounds as f64).round() as usize;
        if round == 0 && n * wl.serve_rounds < 1000 {
            println!(
                "note: the fixed-rate rounds offer {} requests (< 1000) at --seconds {}",
                n * wl.serve_rounds,
                args.seconds
            );
        }
        let plan = serve::infer_plan(world, *next, n.max(1), wl.rate);
        *next += n.max(1);
        let open = tr.begin("serve.fixed", tag.as_str());
        let start = Instant::now();
        let outcomes = serve::run(&d, serve::spread(plan))?;
        tr.end(open);
        let summary = serve::summarize(&outcomes);
        print_summary(&tag, &summary);
        self.fixed.push(summary);
        self.fixed_ms.extend(serve::latencies(&outcomes));
        self.absorb(cx, tr, &tag, start, outcomes, report);
        let m = serve::metrics_json(&d)?;
        self.handler_p50_ms
            .push(serve::num(&m, &["infer", "latency_p50_ms"]).unwrap_or(f64::NAN));
        let (h1, m1) = serve::cache_counts(&m);
        let lookups = (h1 - h0) + (m1 - m0);
        self.hit_ratio.push(if lookups > 0.0 {
            (h1 - h0) / lookups
        } else {
            0.0
        });
        if h1 > 0.0 && matches!(wl.requests, workload::Requests::Single { .. }) {
            report.check(Err("cache hits on a stream of distinct documents".into()));
        }
        self.serve_rss_mb.push(d.peak_rss_mb());
        let open = tr.begin("serve.scrape", tag.as_str());
        self.scrape_ms.extend(serve::repeat(
            &d,
            &load::get("/metrics", "text/plain"),
            IDLE_SCRAPES,
            Duration::from_millis(20),
        )?);
        tr.end(open);
        let open = tr.begin("serve.reload", tag.as_str());
        self.reload_ms.extend(serve::repeat(
            &d,
            &load::post("/reload", ""),
            wl.idle_reloads,
            Duration::from_millis(50),
        )?);
        tr.end(open);
        self.attempted += IDLE_SCRAPES + wl.idle_reloads;
        d.stop()
    }

    /// The rate ladder on a fresh, warmed daemon.
    fn ladder(
        &mut self,
        cx: &Serving,
        tr: &mut Tracer,
        next: &mut usize,
        report: &mut Report,
    ) -> Result<(), String> {
        let d = self.spawn(cx, tr, "ladder")?;
        self.warm(&d, cx, tr, next)?;
        let open = tr.begin("serve.ladder", "ladder");
        let start = Instant::now();
        let ladder = serve::ladder(&d, cx.world, cx.wl, next)?;
        tr.end(open);
        for r in &ladder.rungs {
            println!(
                "ladder rate={:.1} pass={} p50_ms={:.3} p99_ms={:.3} lag_p99_ms={:.3} lag_growth_ms={:.3} failed={}",
                r.rate,
                r.pass,
                r.summary.p50,
                r.summary.p99,
                r.summary.lag_p99,
                r.summary.lag_growth,
                r.summary.failed()
            );
        }
        self.max_rps = ladder.best;
        self.absorb(cx, tr, "ladder", start, ladder.outcomes, report);
        d.stop()
    }
}

fn print_summary(phase: &str, s: &Summary) {
    println!(
        "phase {phase}: attempted={} succeeded={} failed={} shed={} retried=0 \
         p50_ms={:.3} p90_ms={:.3} p99_ms={:.3} lag_p99_ms={:.3} lag_max_ms={:.3}",
        s.attempted,
        s.ok,
        s.failed(),
        s.shed,
        s.p50,
        s.p90,
        s.p99,
        s.lag_p99,
        s.lag_max
    );
}

fn engine_options() -> EngineOptions {
    EngineOptions {
        fold_in: FoldInConfig {
            iterations: workload::FOLD_IN_SWEEPS,
            seed: workload::FOLD_IN_SEED,
        },
        cache_capacity: workload::CACHE,
    }
}

/// The digest, accuracy and perplexity of a (workload, seed) must repeat
/// exactly across runs in one checkout, traced or not.
fn check_repeat(
    work: &Path,
    wl: &Workload,
    seed: u64,
    digest: u64,
    acc: f64,
    ppl: f64,
) -> Result<(), String> {
    let path = work.join(format!("digest-{}-{seed}.txt", wl.name));
    let line = format!(
        "{digest:016x} {:016x} {:016x}",
        acc.to_bits(),
        ppl.to_bits()
    );
    match std::fs::read_to_string(&path) {
        Ok(prev) if prev.trim() == line => Ok(()),
        Ok(prev) => Err(format!(
            "train digest / accuracy / perplexity differ from an earlier run with this seed ({} vs {line})",
            prev.trim()
        )),
        Err(_) => std::fs::write(&path, line).map_err(|e| e.to_string()),
    }
}

/// One step of a run.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Step {
    /// Set-up and a train phase.
    Train(usize),
    /// A serve round on a fresh daemon.
    Serve(usize),
}

/// Train phases and serve rounds interleaved evenly: train phase `i` sits
/// at `i / train_reps` of the run and serve round `k` at
/// `(k + 1) / serve_rounds`, so serving follows the first train phase and
/// ends the run. Spreading both kinds of unit through the run is what
/// lets a slow spell of the host miss some of each.
fn schedule(wl: &Workload) -> Vec<Step> {
    let (t, s) = (wl.train_reps, wl.serve_rounds);
    let mut steps: Vec<(usize, usize, Step)> = (0..t)
        .map(|i| (i * s, 0, Step::Train(i)))
        .chain((0..s).map(|k| ((k + 1) * t, 1, Step::Serve(k))))
        .collect();
    steps.sort_by_key(|&(at, kind, _)| (at, kind));
    steps.into_iter().map(|(_, _, step)| step).collect()
}

fn run(args: &Args) -> Result<Report, String> {
    let wl = workload::by_name(&args.workload).ok_or_else(|| {
        let names: Vec<&str> = workload::ALL.iter().map(|w| w.name).collect();
        format!("unknown workload {:?} (one of {names:?})", args.workload)
    })?;
    let mut tr = Tracer::new(args.trace);
    let mut report = Report {
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };
    let work = args.root.join(".bench_work");
    let dir = work.join(format!("{}-{}", wl.name, args.seed));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    println!(
        "context workload={} seed={} trace={} seconds={} nproc={} profile={} commit={}",
        wl.name,
        args.seed,
        u8::from(args.trace),
        args.seconds,
        nproc(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        args.commit
    );
    let mut probes = Probes::new();
    probes.take("start");

    let (world, gen_s) = tr.time("inputs.generate", "", || World::generate(wl, args.seed));
    println!(
        "inputs: {} train docs / {} tokens, {} articles, {} held-out docs, {} request bodies ({:.2} s)",
        world.train.len(),
        world.train_tokens(),
        world.articles.len(),
        world.heldout.len(),
        world.num_requests(),
        gen_s
    );

    // Train phases and serve rounds, one after another (see `schedule`).
    // Traced runs alternate untraced and traced train phases, so the
    // overhead is measured in-run.
    let artifact = pipeline::artifact_path(&dir);
    let mut setups = Vec::new();
    let mut untraced_s = Vec::new();
    let mut traced: Vec<Trained> = Vec::new();
    let mut first_digest: Option<u64> = None;
    let mut tokens = 0;
    let mut train_rss_mb = f64::NAN;
    let mut quality = (f64::NAN, f64::NAN);
    let mut sv = Served::default();
    let cx = Serving {
        args,
        wl,
        world: &world,
        artifact: &artifact,
    };
    let mut next = 0usize;
    for step in schedule(wl) {
        if let Step::Train(round) = step {
            let s = pipeline::setup(&world, wl, args.seed, &mut tr, &format!("setup{round}"))?;
            if round == 0 {
                report.check(pipeline::check_tokens(&s.corpus, &world));
            }
            println!(
                "setup{round}: ingest {:.4} s, knowledge {:.4} s, assemble {:.4} s",
                s.ingest_s, s.knowledge_s, s.assemble_s
            );
            setups.push((s.ingest_s, s.knowledge_s, s.assemble_s, s.secs()));
            let observe = args.trace && round % 2 == 1;
            let t = pipeline::train(&s, wl, &dir, &mut tr, &format!("train{round}"), observe)?;
            println!(
                "train{round}{}: {:.4} s (fit {:.4} s, checkpoints {}, save {:.4} s, {} bytes)",
                if observe { " (traced)" } else { "" },
                t.secs,
                t.fit_s,
                t.checkpoints.len(),
                t.save_s,
                t.artifact_bytes
            );
            probes.take(&format!("after train{round}"));
            match first_digest {
                None => {
                    // Peak RSS of set-up plus training, before any serving.
                    train_rss_mb = load::peak_rss_mb("/proc/self/status");
                    let accuracy = pipeline::label_accuracy(&t.fitted, &world);
                    let perplexity = pipeline::heldout_perplexity(
                        &t.fitted,
                        &s,
                        &world,
                        wl.perplexity_iters,
                        args.seed,
                    )?;
                    println!("eval: label_accuracy {accuracy} heldout_perplexity {perplexity} digest {:016x}", t.digest);
                    report.check(check_repeat(
                        &work, wl, args.seed, t.digest, accuracy, perplexity,
                    ));
                    quality = (accuracy, perplexity);
                    first_digest = Some(t.digest);
                    tokens = s.corpus.num_tokens();
                    probes.take("after eval");
                }
                Some(d) if d != t.digest => {
                    report.check(Err(format!("train{round} digest differs from train0")));
                }
                Some(_) => {}
            }
            if observe {
                traced.push(t);
            } else {
                untraced_s.push(t.secs);
            }
        }
        if let Step::Serve(k) = step {
            sv.round(&cx, &mut tr, &mut next, k, &mut report)?;
            probes.take(&format!("after serve{k}"));
        }
    }
    // The rate ladder is traced-only: its verdicts hinge on the p99 of
    // seconds-long probes near capacity, which host stalls swing by a
    // quarter or more between runs.
    if args.trace {
        sv.ladder(&cx, &mut tr, &mut next, &mut report)?;
        probes.take("after ladder");
    }
    report.attempted = sv.attempted;
    report.failed = sv.failed;

    // In-process checks (and the traced run's in-process timings).
    let (engine, load_s) = tr.time("artifact.load", "", || {
        ModelArtifact::load(&artifact)
            .and_then(|a| InferenceEngine::from_artifact(&a, engine_options()))
    });
    let engine = engine.map_err(|e| format!("loading {}: {e}", artifact.display()))?;
    report.check(serve::check_bits(&engine, &world, &sv.samples));
    println!(
        "checked {} sampled responses bit-for-bit against in-process infer",
        sv.samples.len()
    );
    probes.summary();

    let rate_of = |secs: f64| (wl.sweeps * tokens) as f64 / secs;
    let setup_core: Vec<f64> = setups.iter().map(|x| x.3).collect();
    if !args.trace {
        report.metric("setup_s", median(&setup_core) + median(&sv.ready), "s");
        // Every untraced train phase does the same work, so the mean phase
        // is all of the run's training tokens over all of its train time.
        report.metric("train_tokens_per_s", rate_of(mean(&untraced_s)), "tok/s");
        report.metric("label_accuracy", quality.0, "fraction");
        report.metric("heldout_perplexity", quality.1, "perplexity");
        report.metric("train_rss_mb", train_rss_mb, "MB");
        report.metric("infer_p50_ms", median(&sv.fixed_ms), "ms");
        report.metric("serve_rss_mb", median(&sv.serve_rss_mb), "MB");
        report.metric("reload_ms", quantile(&sv.reload_ms, LOW_QUANTILE), "ms");
        println!(
            "samples: setup {} + ready {}, train phases {}, fixed-rate rounds {} x {} requests, reloads {}",
            setups.len(),
            sv.ready.len(),
            untraced_s.len(),
            sv.fixed.len(),
            sv.fixed.first().map_or(0, |f| f.attempted),
            sv.reload_ms.len()
        );
    } else {
        per_layer(
            &mut report,
            wl,
            tokens,
            &setups,
            &sv,
            &traced,
            &untraced_s,
            load_s,
            &artifact,
            &engine,
            &world,
            &mut tr,
            rate_of,
        );
        let path = work.join(format!("trace-{}-{}.jsonl", wl.name, args.seed));
        tr.write(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("spans -> {}", path.display());
    }
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(report)
}

/// The traced run's per-layer metrics.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    report: &mut Report,
    wl: &Workload,
    tokens: usize,
    setups: &[(f64, f64, f64, f64)],
    sv: &Served,
    traced: &[Trained],
    untraced_s: &[f64],
    load_s: f64,
    artifact: &Path,
    engine: &InferenceEngine,
    world: &World,
    tr: &mut Tracer,
    rate_of: impl Fn(f64) -> f64,
) {
    let col =
        |f: fn(&(f64, f64, f64, f64)) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    report.metric("corpus.ingest_s", col(|x| x.0), "s");
    report.metric("knowledge.build_s", col(|x| x.1), "s");
    report.metric("prior.assemble_s", col(|x| x.2), "s");
    report.metric("serve.ready_s", median(&sv.ready), "s");
    // The same statistic as reload_ms, so registry.swap_ms compares like
    // with like.
    let mut load_ms = vec![load_s * 1e3];
    for _ in 0..EXTRA_LOADS {
        let (_, secs) = tr.time("artifact.load", "", || {
            ModelArtifact::load(artifact)
                .and_then(|a| InferenceEngine::from_artifact(&a, engine_options()))
        });
        load_ms.push(secs * 1e3);
    }
    let load_ms = quantile(&load_ms, LOW_QUANTILE);
    report.metric("artifact.load_ms", load_ms, "ms");

    // Training layers, from the traced phases' events.
    let mut sweep_ms = Vec::new();
    let mut kernel_rate = Vec::new();
    let (mut q, mut s_hits, mut total, mut fallbacks) = (0u64, 0u64, 0u64, 0u64);
    let mut merge_ms = Vec::new();
    let mut refresh_ms = Vec::new();
    let mut imbalance = Vec::new();
    let mut adapt_ms = Vec::new();
    let mut adapt_calls = Vec::new();
    let mut ckpt_encode = Vec::new();
    let mut ckpt_write = Vec::new();
    let mut ckpt_bytes = Vec::new();
    let mut save_ms = Vec::new();
    let mut artifact_bytes = Vec::new();
    let mut unattributed = Vec::new();
    for t in traced {
        let events = t.events.as_ref().map_or(&[][..], |l| &l.events[..]);
        let mut attributed = t.save_s;
        let (mut a_ms, mut a_calls) = (0.0, 0.0);
        let mut last_sweep = 0.0;
        for (_, ev) in events {
            match ev {
                TrainEvent::Sweep {
                    duration_secs,
                    tokens,
                    ..
                } => {
                    sweep_ms.push(duration_secs * 1e3);
                    last_sweep = *duration_secs;
                    attributed += duration_secs;
                    if !wl.backend.is_sharded() {
                        kernel_rate.push(*tokens as f64 / duration_secs);
                    }
                }
                TrainEvent::ShardSweep { timings, .. } => {
                    let busy: f64 = timings.shard_secs.iter().sum();
                    let slowest = max(&timings.shard_secs);
                    let mean = busy / timings.shard_secs.len() as f64;
                    kernel_rate.push(tokens as f64 / busy);
                    merge_ms.push(timings.merge_secs * 1e3);
                    refresh_ms.push((last_sweep - slowest - timings.merge_secs) * 1e3);
                    imbalance.push(slowest / mean);
                    if let Some(b) = timings.buckets {
                        q += b.q_hits;
                        s_hits += b.s_hits;
                        fallbacks += b.dense_fallbacks;
                        total += b.total();
                    }
                }
                TrainEvent::SparseBuckets { counts, .. } => {
                    q += counts.q_hits;
                    s_hits += counts.s_hits;
                    fallbacks += counts.dense_fallbacks;
                    total += counts.total();
                }
                TrainEvent::Adapt { duration_secs, .. } => {
                    a_ms += duration_secs * 1e3;
                    a_calls += 1.0;
                    attributed += duration_secs;
                }
                TrainEvent::Checkpoint { duration_secs, .. } => attributed += duration_secs,
                _ => {}
            }
        }
        adapt_ms.push(a_ms);
        adapt_calls.push(a_calls);
        for c in &t.checkpoints {
            ckpt_encode.push(c.encode_s * 1e3);
            ckpt_write.push(c.write_s * 1e3);
            ckpt_bytes.push(c.bytes as f64);
        }
        save_ms.push(t.save_s * 1e3);
        artifact_bytes.push(t.artifact_bytes as f64);
        unattributed.push((t.secs - attributed) * 1e3);
    }
    let or_zero = |v: &[f64], f: fn(&[f64]) -> f64| if v.is_empty() { 0.0 } else { f(v) };
    let share = |x: u64| {
        if total == 0 {
            0.0
        } else {
            x as f64 / total as f64
        }
    };
    report.metric("sampler.sweep_ms", median(&sweep_ms), "ms");
    report.metric("sampler.kernel_tokens_per_s", median(&kernel_rate), "tok/s");
    report.metric("sparse.q_share", share(q), "fraction");
    report.metric("sparse.s_share", share(s_hits), "fraction");
    report.metric("sparse.dense_fallbacks", fallbacks as f64, "count");
    report.metric("shard.merge_ms", or_zero(&merge_ms, median), "ms");
    report.metric("shard.refresh_ms", or_zero(&refresh_ms, median), "ms");
    report.metric("shard.imbalance", or_zero(&imbalance, median), "ratio");
    report.metric("adapt.ms", median(&adapt_ms), "ms");
    report.metric("adapt.calls", median(&adapt_calls), "count");
    report.metric("checkpoint.encode_ms", or_zero(&ckpt_encode, median), "ms");
    report.metric("checkpoint.write_ms", or_zero(&ckpt_write, median), "ms");
    report.metric("checkpoint.bytes", or_zero(&ckpt_bytes, median), "bytes");
    report.metric("artifact.save_ms", median(&save_ms), "ms");
    report.metric("artifact.bytes", median(&artifact_bytes), "bytes");
    report.metric("fit.unattributed_ms", median(&unattributed), "ms");
    let absent = [
        (
            !wl.backend.is_sharded(),
            "shard.* (single-threaded training)",
        ),
        (total == 0, "sparse.* (flat kernel)"),
        (
            adapt_calls.iter().all(|&c| c == 0.0),
            "adapt.* (no λ-adaptation)",
        ),
        (ckpt_encode.is_empty(), "checkpoint.* (no checkpoints)"),
    ];
    for (is_absent, what) in absent {
        if is_absent {
            println!("absent: {what} reads 0");
        }
    }
    // Request path, in process: fold-in with the daemon's cache size on
    // fresh requests of the workload's shape, then tokenize and JSON.
    let base = world.num_requests() / 2;
    let mut infer_ms = Vec::with_capacity(ENGINE_REQUESTS);
    let open = tr.begin("engine.infer", "in-process");
    for i in 0..ENGINE_REQUESTS {
        let docs = world.request(base + i);
        let start = Instant::now();
        for d in &docs {
            let _ = std::hint::black_box(engine.infer(&d.text));
        }
        infer_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    tr.end(open);
    let mut tokenize_us = Vec::new();
    for i in 0..ENGINE_REQUESTS {
        for d in world.request(base + i) {
            let start = Instant::now();
            std::hint::black_box(engine.tokenize(&d.text));
            tokenize_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    let mut parse_us = Vec::new();
    let mut render_us = Vec::new();
    for body in &sv.bodies {
        let text = String::from_utf8_lossy(body);
        let start = Instant::now();
        let parsed = srclda_serve::server::json::parse(&text);
        parse_us.push(start.elapsed().as_secs_f64() * 1e6);
        if let Ok(v) = parsed {
            let start = Instant::now();
            std::hint::black_box(v.render());
            render_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    let transport: Vec<f64> = sv
        .fixed
        .iter()
        .zip(&sv.handler_p50_ms)
        .map(|(f, h)| f.p50 - h)
        .collect();
    report.metric("engine.infer_p50_ms", median(&infer_ms), "ms");
    report.metric("engine.infer_p99_ms", quantile(&infer_ms, 0.99), "ms");
    report.metric("engine.tokenize_us", median(&tokenize_us), "us");
    report.metric("lru.hit_ratio", median(&sv.hit_ratio), "fraction");
    report.metric("server.handler_p50_ms", median(&sv.handler_p50_ms), "ms");
    report.metric("server.transport_ms", median(&transport), "ms");
    report.metric("json.parse_us", median(&parse_us), "us");
    report.metric("json.render_us", median(&render_us), "us");
    report.metric("server.scrape_ms", median(&sv.scrape_ms), "ms");
    report.metric(
        "registry.swap_ms",
        quantile(&sv.reload_ms, LOW_QUANTILE) - load_ms,
        "ms",
    );
    let lag_p99: Vec<f64> = sv.fixed.iter().map(|f| f.lag_p99).collect();
    let lag_max: Vec<f64> = sv.fixed.iter().map(|f| f.lag_max).collect();
    let p90: Vec<f64> = sv.fixed.iter().map(|f| f.p90).collect();
    let p99: Vec<f64> = sv.fixed.iter().map(|f| f.p99).collect();
    if sv.max_rps.is_none() {
        println!("note: no ladder rung met the p99 limit; load.max_rps reports the lowest rung");
    }
    report.metric(
        "load.max_rps",
        sv.max_rps.unwrap_or(wl.ladder()[0]),
        "req/s",
    );
    report.metric("load.infer_p90_ms", min(&p90), "ms");
    report.metric("load.infer_p99_ms", min(&p99), "ms");
    report.metric("load.lag_p99_ms", median(&lag_p99), "ms");
    report.metric("load.lag_max_ms", max(&lag_max), "ms");
    report.metric("ops.attempted", sv.attempted as f64, "count");
    report.metric("ops.failed", sv.failed as f64, "count");
    report.metric("ops.shed", sv.shed as f64, "count");
    report.metric("ops.retried", 0.0, "count");
    let traced_s: Vec<f64> = traced.iter().map(|t| t.secs).collect();
    report.metric(
        "obs.overhead",
        rate_of(mean(&traced_s)) / rate_of(mean(untraced_s)),
        "ratio",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_interleaves_and_trains_first() {
        let wl = Workload {
            train_reps: 4,
            serve_rounds: 6,
            ..workload::T2000_SPARSE_S2
        };
        use Step::{Serve as S, Train as T};
        assert_eq!(
            schedule(&wl),
            [T(0), S(0), T(1), S(1), T(2), S(2), S(3), T(3), S(4), S(5)]
        );
    }
}
