//! Steadiness mode: run one workload `k` times (seeds `seed..seed+k`),
//! each in its own process, and print per end-to-end metric the median,
//! quartiles and range against the bound in BENCHMARK.json — plus how
//! each metric moves with the host probe across runs.

use crate::stats::{correlation, max, median, min, quartiles};
use crate::Args;
use srclda_serve::server::json::{self, Value};
use std::collections::BTreeMap;
use std::process::Command;

struct RunResult {
    metrics: BTreeMap<String, f64>,
    chase_ns: f64,
    alu_ns: f64,
    steal_pct: f64,
    /// Per train phase: seconds, mean chase ns and mean ALU ns of the
    /// probes taken right before and right after it, and the steal share
    /// between them.
    train_phases: Vec<[f64; 4]>,
}

/// `(chase_ns, alu_ns, steal_pct)` of a `probe …` line.
fn probe_of(line: &str) -> Option<(f64, f64, f64)> {
    let field = |key: &str| {
        line.split_whitespace()
            .find_map(|kv| kv.strip_prefix(key))
            .and_then(|x| x.parse::<f64>().ok())
    };
    Some((field("chase_ns=")?, field("alu_ns=")?, field("steal_pct=")?))
}

/// Pair every `trainN…: S s` line with the probes around it.
fn train_phases(text: &str) -> Vec<[f64; 4]> {
    let lines: Vec<&str> = text.lines().collect();
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if !line.starts_with("train") || i == 0 {
            continue;
        }
        let secs = line
            .split_once(": ")
            .and_then(|(_, rest)| rest.split_whitespace().next())
            .and_then(|x| x.parse::<f64>().ok());
        let before = lines[..i]
            .iter()
            .rev()
            .find_map(|l| l.starts_with("probe ").then(|| probe_of(l)).flatten());
        let after = lines[i + 1..]
            .iter()
            .find_map(|l| l.starts_with("probe ").then(|| probe_of(l)).flatten());
        if let (Some(secs), Some(b), Some(a)) = (secs, before, after) {
            out.push([secs, (b.0 + a.0) / 2.0, (b.1 + a.1) / 2.0, a.2]);
        }
    }
    out
}

fn one(args: &Args, seed: u64) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .arg("--daemon")
        .arg(&args.daemon)
        .arg("--root")
        .arg(&args.root)
        .args(["--commit", &args.commit])
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    let log = args
        .root
        .join(".bench_work")
        .join(format!("repeat-{}-{seed}.log", args.workload));
    let _ = std::fs::write(&log, text.as_bytes());
    if !out.status.success() {
        return Err(format!(
            "seed {seed} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let last = text.lines().last().ok_or("no output")?;
    let v = json::parse(last).map_err(|e| format!("result line: {e}"))?;
    let mut metrics = BTreeMap::new();
    if let Some(Value::Obj(members)) = v.get("metrics") {
        for (name, m) in members {
            if let Some(x) = m.get("value").and_then(Value::as_f64) {
                metrics.insert(name.clone(), x);
            }
        }
    }
    let host = |key: &str| {
        text.lines()
            .find(|l| l.starts_with("host "))
            .and_then(|l| l.split_whitespace().find_map(|kv| kv.strip_prefix(key)))
            .and_then(|x| x.parse::<f64>().ok())
            .unwrap_or(f64::NAN)
    };
    Ok(RunResult {
        metrics,
        chase_ns: host("chase_ns_median="),
        alu_ns: host("alu_ns_median="),
        steal_pct: host("steal_pct="),
        train_phases: train_phases(&text),
    })
}

/// Bounds of the end-to-end metrics, by name.
fn bounds(args: &Args) -> BTreeMap<String, f64> {
    let text = std::fs::read_to_string(args.root.join("BENCHMARK.json")).unwrap_or_default();
    let mut out = BTreeMap::new();
    if let Ok(v) = json::parse(&text) {
        for m in v.get("end_to_end").and_then(Value::as_arr).unwrap_or(&[]) {
            if let (Some(name), Some(bound)) = (
                m.get("name").and_then(Value::as_str),
                m.get("bound").and_then(Value::as_f64),
            ) {
                out.insert(name.to_string(), bound);
            }
        }
    }
    out
}

pub fn run(args: &Args, k: usize) -> i32 {
    let bounds = bounds(args);
    let mut runs = Vec::new();
    for i in 0..k as u64 {
        let seed = args.seed + i;
        match one(args, seed) {
            Ok(r) => {
                println!(
                    "run seed={seed} chase_ns={:.2} alu_ns={:.3} steal_pct={:.2} {}",
                    r.chase_ns,
                    r.alu_ns,
                    r.steal_pct,
                    r.metrics
                        .iter()
                        .map(|(n, v)| format!("{n}={v:.6}"))
                        .collect::<Vec<_>>()
                        .join(" ")
                );
                runs.push(r);
            }
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        }
    }
    let chase: Vec<f64> = runs.iter().map(|r| r.chase_ns).collect();
    let alu: Vec<f64> = runs.iter().map(|r| r.alu_ns).collect();
    let steal: Vec<f64> = runs.iter().map(|r| r.steal_pct).collect();
    println!(
        "{:<28} {:>14} {:>14} {:>14} {:>14} {:>14} {:>7} {:>6}  {:>6} {:>6} {:>7}",
        "metric",
        "median",
        "q1",
        "q3",
        "min",
        "max",
        "spread",
        "bound",
        "r_mem",
        "r_alu",
        "r_steal"
    );
    let names: Vec<String> = runs
        .first()
        .map(|r| r.metrics.keys().cloned().collect())
        .unwrap_or_default();
    for name in names {
        let v: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.metrics.get(&name).copied())
            .collect();
        let (q1, q3) = quartiles(&v);
        let m = median(&v);
        let spread = (q3 - q1) / m.abs();
        let bound = bounds.get(&name).copied();
        let verdict = match bound {
            Some(b) if spread <= b / 3.0 => "ok",
            Some(b) if spread <= b => "within",
            Some(_) => "OVER",
            None => "",
        };
        println!(
            "{name:<28} {m:>14.4} {q1:>14.4} {q3:>14.4} {:>14.4} {:>14.4} {:>7.4} {:>6} {:>6.2} {:>6.2} {:>7.2} {verdict}",
            min(&v),
            max(&v),
            spread,
            bound.map_or("-".to_string(), |b| format!("{b}")),
            correlation(&v, &chase),
            correlation(&v, &alu),
            correlation(&v, &steal),
        );
    }
    // Does the probe track slow phases? Train phases are the longest
    // timed units; correlate each one's duration with the probes around it.
    let phases: Vec<[f64; 4]> = runs.iter().flat_map(|r| r.train_phases.clone()).collect();
    let col = |i: usize| phases.iter().map(|p| p[i]).collect::<Vec<f64>>();
    println!(
        "probe tracking over {} train phases: r(phase time, chase_ns) = {:.2}, \
         r(phase time, alu_ns) = {:.2}, r(phase time, steal_pct) = {:.2}",
        phases.len(),
        correlation(&col(0), &col(1)),
        correlation(&col(0), &col(2)),
        correlation(&col(0), &col(3))
    );
    0
}
