//! Serving phases against a running daemon: the fixed-rate phase, the
//! rate ladder, idle reloads and scrapes, and the response checks.

use crate::gen::World;
use crate::load::{self, Daemon, Outcome, Planned};
use crate::stats::quantile;
use crate::workload::{Workload, P99_LIMIT_MS, WORKERS};
use srclda_serve::server::json::{self, Value};
use srclda_serve::InferenceEngine;
use std::time::{Duration, Instant};

/// A probe whose generator lag grew by more than this share of the p99
/// limit (median of its last tenth over median of its first tenth) did
/// not offer its rate.
const LAG_SHARE: f64 = 0.25;
/// The ladder search stops after this many probes, bounding run time.
const MAX_PROBES: usize = 6;
/// Every `SAMPLE_EVERY`-th request is re-scored in process.
pub const SAMPLE_EVERY: usize = 50;
pub fn infer_plan(world: &World, first: usize, n: usize, rate: f64) -> Vec<Planned> {
    (0..n)
        .map(|k| Planned {
            index: first + k,
            due: Duration::from_secs_f64(k as f64 / rate),
            bytes: load::post("/infer", &world.request_body(first + k)),
        })
        .collect()
}

/// Open one connection per plan, check each with `/healthz` before the
/// clock starts (so each is held by its own worker), then drive them all
/// open-loop from a common start.
pub fn run(daemon: &Daemon, plans: Vec<Vec<Planned>>) -> Result<Vec<Outcome>, String> {
    let mut streams = Vec::with_capacity(plans.len());
    for _ in &plans {
        let mut s = daemon.connect()?;
        let (status, _, _) = load::roundtrip(&mut s, &load::get("/healthz", "application/json"))?;
        if status != 200 {
            return Err(format!("/healthz answered {status}"));
        }
        streams.push(s);
    }
    let start = Instant::now() + Duration::from_millis(5);
    let outcomes = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .zip(&plans)
            .map(|(stream, plan)| scope.spawn(move || load::drive(stream, plan, start)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_default())
            .collect()
    });
    Ok(outcomes)
}

/// Split a plan round-robin over one connection per daemon worker.
pub fn spread(plan: Vec<Planned>) -> Vec<Vec<Planned>> {
    let mut out: Vec<Vec<Planned>> = (0..WORKERS).map(|_| Vec::new()).collect();
    for (k, p) in plan.into_iter().enumerate() {
        out[k % WORKERS].push(p);
    }
    out
}

/// Counts and latency quantiles of a phase.
#[derive(Default, Clone)]
pub struct Summary {
    pub attempted: usize,
    pub ok: usize,
    pub shed: usize,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub lag_p99: f64,
    pub lag_max: f64,
    /// Median lag of the last tenth of requests minus the first tenth.
    pub lag_growth: f64,
}

impl Summary {
    pub fn failed(&self) -> usize {
        self.attempted - self.ok
    }
}

/// Latency of every request (ms); a failed or shed request counts as
/// +∞, missing every limit.
pub fn latencies(outcomes: &[Outcome]) -> Vec<f64> {
    outcomes
        .iter()
        .map(|o| match (o.status, o.latency_ms) {
            (200, Some(ms)) => ms,
            _ => f64::INFINITY,
        })
        .collect()
}

pub fn summarize(outcomes: &[Outcome]) -> Summary {
    let lat = latencies(outcomes);
    let lag: Vec<f64> = outcomes.iter().map(|o| o.lag_ms).collect();
    let tenth = (lag.len() / 10).max(1).min(lag.len());
    let lag_growth =
        crate::stats::median(&lag[lag.len() - tenth..]) - crate::stats::median(&lag[..tenth]);
    Summary {
        attempted: outcomes.len(),
        ok: outcomes.iter().filter(|o| o.status == 200).count(),
        shed: outcomes.iter().filter(|o| o.status == 503).count(),
        p50: quantile(&lat, 0.5),
        p90: quantile(&lat, 0.9),
        p99: quantile(&lat, 0.99),
        lag_p99: quantile(&lag, 0.99),
        lag_max: crate::stats::max(&lag),
        lag_growth,
    }
}

/// A ladder search: the highest passing rate (`None` if none passed),
/// every probe, and every outcome.
pub struct Ladder {
    pub best: Option<f64>,
    pub rungs: Vec<Rung>,
    pub outcomes: Vec<Outcome>,
}

/// One ladder probe's result.
pub struct Rung {
    pub rate: f64,
    pub summary: Summary,
    pub pass: bool,
}

/// Galloping search over the fixed ladder from `wl.ladder_start`: climb
/// two rungs at a time while probes pass (or descend in doubling steps
/// until one does), then probe once between the boundary rungs — at most
/// [`MAX_PROBES`] probes.
pub fn ladder(
    daemon: &Daemon,
    world: &World,
    wl: &Workload,
    first: &mut usize,
) -> Result<Ladder, String> {
    let rates = wl.ladder();
    let top = rates.len() - 1;
    let mut rungs: Vec<Rung> = Vec::new();
    let mut all = Vec::new();
    let mut probe = |k: usize, first: &mut usize| -> Result<Option<bool>, String> {
        if rungs.len() == MAX_PROBES {
            return Ok(None);
        }
        let n = (rates[k] * wl.probe_secs).round() as usize;
        let plan = infer_plan(world, *first, n, rates[k]);
        *first += n;
        let outcomes = run(daemon, spread(plan))?;
        let summary = summarize(&outcomes);
        let pass = summary.failed() == 0
            && summary.p99 <= P99_LIMIT_MS
            && summary.lag_growth <= LAG_SHARE * P99_LIMIT_MS;
        rungs.push(Rung {
            rate: rates[k],
            summary,
            pass,
        });
        all.extend(outcomes);
        Ok(Some(pass))
    };
    let start = wl.ladder_start.min(top);
    let best = if probe(start, first)? == Some(true) {
        let mut k = start;
        loop {
            let up = (k + 2).min(top);
            if up == k {
                break;
            }
            match probe(up, first)? {
                Some(true) => k = up,
                Some(false) => {
                    if up == k + 2 && probe(k + 1, first)? == Some(true) {
                        k += 1;
                    }
                    break;
                }
                None => break,
            }
        }
        Some(k)
    } else {
        // Descend in doubling steps, so a slow host still finds a passing
        // rung within the probe budget.
        let (mut k, mut step) = (start, 2);
        loop {
            if k == 0 {
                break None;
            }
            let down = k.saturating_sub(step);
            match probe(down, first)? {
                Some(true) => {
                    let mid = (down + k) / 2;
                    let between = mid > down && probe(mid, first)? == Some(true);
                    break Some(if between { mid } else { down });
                }
                Some(false) => {
                    k = down;
                    step *= 2;
                }
                None => break None,
            }
        }
    };
    Ok(Ladder {
        best: best.map(|k| rates[k]),
        rungs,
        outcomes: all,
    })
}

/// Sequential round trips of one request; returns milliseconds each.
pub fn repeat(daemon: &Daemon, bytes: &[u8], n: usize, gap: Duration) -> Result<Vec<f64>, String> {
    let mut s = daemon.connect()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let (status, body, secs) = load::roundtrip(&mut s, bytes)?;
        if status != 200 {
            return Err(format!(
                "status {status}: {}",
                String::from_utf8_lossy(&body)
            ));
        }
        out.push(secs * 1e3);
        std::thread::sleep(gap);
    }
    Ok(out)
}

/// The daemon's JSON `/metrics`.
pub fn metrics_json(daemon: &Daemon) -> Result<Value, String> {
    let mut s = daemon.connect()?;
    let (status, body, _) = load::roundtrip(&mut s, &load::get("/metrics", "application/json"))?;
    if status != 200 {
        return Err(format!("/metrics answered {status}"));
    }
    parse(&body)
}

/// `(hits, misses)` of the served model's cache in a JSON `/metrics`.
pub fn cache_counts(m: &Value) -> (f64, f64) {
    let model = m
        .get("models")
        .and_then(Value::as_arr)
        .and_then(|a| a.first());
    let count = |key: &str| {
        model
            .and_then(|v| num(v, &["cache", key]))
            .unwrap_or(f64::NAN)
    };
    (count("hits"), count("misses"))
}

/// `n` requests from the stream starting at `first`, one at a time.
pub fn warm(daemon: &Daemon, world: &World, first: usize, n: usize) -> Result<(), String> {
    let mut s = daemon.connect()?;
    for i in first..first + n {
        let (status, _, _) =
            load::roundtrip(&mut s, &load::post("/infer", &world.request_body(i)))?;
        if status != 200 {
            return Err(format!("warm-up request {i} answered {status}"));
        }
    }
    Ok(())
}

pub fn parse(body: &[u8]) -> Result<Value, String> {
    let text = std::str::from_utf8(body).map_err(|_| "non-utf8 body".to_string())?;
    json::parse(text).map_err(|e| format!("unparseable response: {e}"))
}

pub fn num(v: &Value, path: &[&str]) -> Option<f64> {
    let mut at = v;
    for key in path {
        at = at.get(key)?;
    }
    at.as_f64()
}

/// Check one `/infer` response: it parses, each θ has `topics` entries
/// summing to 1 within 1e-9, and `tokens` is the in-vocabulary count.
/// Returns the θ of each document.
pub fn check_response(world: &World, o: &Outcome, topics: usize) -> Result<Vec<Vec<f64>>, String> {
    let v = parse(&o.body)?;
    let docs = world.request(o.index);
    let scores: Vec<&Value> = match v.get("results") {
        Some(r) => r
            .as_arr()
            .ok_or("results is not an array")?
            .iter()
            .collect(),
        None => vec![&v],
    };
    if scores.len() != docs.len() {
        return Err(format!(
            "{} results for {} documents",
            scores.len(),
            docs.len()
        ));
    }
    let mut thetas = Vec::with_capacity(docs.len());
    for (score, doc) in scores.iter().zip(&docs) {
        let theta: Vec<f64> = score
            .get("theta")
            .and_then(Value::as_arr)
            .ok_or("response without theta")?
            .iter()
            .map(|x| x.as_f64().ok_or("non-numeric theta"))
            .collect::<Result<_, _>>()?;
        if theta.len() != topics {
            return Err(format!(
                "theta has {} entries, expected {topics}",
                theta.len()
            ));
        }
        let sum: f64 = theta.iter().sum();
        if (sum - 1.0).abs() > 1e-9 {
            return Err(format!("theta sums to {sum}"));
        }
        let tokens = score.get("tokens").and_then(Value::as_usize);
        if tokens != Some(world.known_tokens(doc)) {
            return Err(format!(
                "tokens {tokens:?}, expected {} in-vocabulary",
                world.known_tokens(doc)
            ));
        }
        thetas.push(theta);
    }
    Ok(thetas)
}

/// Responses must be bit-identical to in-process `InferenceEngine::infer`
/// on the same artifact.
pub fn check_bits(
    engine: &InferenceEngine,
    world: &World,
    samples: &[(usize, Vec<Vec<f64>>)],
) -> Result<(), String> {
    for (index, thetas) in samples {
        for (doc, theta) in world.request(*index).iter().zip(thetas) {
            let local = engine.infer(&doc.text).map_err(|e| e.to_string())?;
            let same = local.theta().len() == theta.len()
                && local
                    .theta()
                    .iter()
                    .zip(theta)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            if !same {
                return Err(format!(
                    "request {index}: served theta differs from in-process infer"
                ));
            }
        }
    }
    Ok(())
}
