//! Retry with exponential backoff and deterministic jitter.
//!
//! A daemon that sheds load with 503 + `Retry-After` only degrades
//! gracefully if its *clients* back off instead of hammering the socket
//! in a tight loop. [`RetryPolicy`] computes capped exponential delays
//! with seeded (splitmix64) jitter — deterministic given the seed, so
//! tests never flake on timing randomness — and [`RetryClient`] applies
//! the policy to the daemon's HTTP wire format: it retries connect and
//! socket errors, honors `Retry-After` on a 503 (capped at the policy's
//! `max_delay` so test suites stay fast), and counts every attempt into
//! an optional [`srclda_obs::Registry`]. The loopback suite uses this
//! one implementation.

use crate::server::http::read_response_with_headers;
use std::io::{self, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// Backoff schedule: exponential in the attempt number, capped, with
/// deterministic seeded jitter.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts, including the first (so `1` means "no retries").
    pub max_attempts: u32,
    /// Delay before the first retry; doubles each further retry.
    pub base_delay: Duration,
    /// Upper bound on any single delay — including a server-requested
    /// `Retry-After`, so a hostile or miscalibrated header cannot stall
    /// a client for minutes.
    pub max_delay: Duration,
    /// Jitter seed: the same seed yields the same delays, keeping the
    /// determinism contract that the rest of the workspace tests under.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 5,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The delay to sleep before retry number `attempt` (0-based: the
    /// delay after the first failure is `delay_for(0)`). Exponential
    /// `base * 2^attempt` capped at `max_delay`, then scaled by a
    /// seeded jitter factor in `[0.5, 1.0]` ("equal jitter") so a fleet
    /// of clients sharing a schedule does not retry in lockstep.
    pub fn delay_for(&self, attempt: u32) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
            .min(self.max_delay);
        let jitter_bits = crate::durable::splitmix64(self.jitter_seed ^ u64::from(attempt));
        let factor = 0.5 + 0.5 * (jitter_bits as f64 / u64::MAX as f64);
        exp.mul_f64(factor)
    }
}

/// Counters the client registers when built with
/// [`RetryClient::with_registry`].
#[derive(Debug)]
struct ClientCounters {
    attempts: Arc<srclda_obs::Counter>,
    shed_retries: Arc<srclda_obs::Counter>,
    io_retries: Arc<srclda_obs::Counter>,
    giveups: Arc<srclda_obs::Counter>,
}

/// An HTTP client wrapper applying a [`RetryPolicy`] to the daemon's
/// wire format. One TCP connection per attempt (`Connection: close`) —
/// simple, and exactly what a freshly shed client would do.
#[derive(Debug)]
pub struct RetryClient {
    policy: RetryPolicy,
    counters: Option<ClientCounters>,
}

impl RetryClient {
    /// A client with the given policy and no telemetry.
    pub fn new(policy: RetryPolicy) -> Self {
        Self {
            policy,
            counters: None,
        }
    }

    /// A client whose attempts/retries/give-ups are counted into
    /// `registry` as the `srclda_client_*` families.
    pub fn with_registry(policy: RetryPolicy, registry: &srclda_obs::Registry) -> Self {
        let counters = ClientCounters {
            attempts: registry.counter(
                "srclda_client_attempts_total",
                "HTTP attempts issued by the retry client (first tries and retries).",
                &[],
            ),
            shed_retries: registry.counter(
                "srclda_client_retries_total",
                "Retries by cause.",
                &[("reason", "shed")],
            ),
            io_retries: registry.counter(
                "srclda_client_retries_total",
                "Retries by cause.",
                &[("reason", "io")],
            ),
            giveups: registry.counter(
                "srclda_client_giveups_total",
                "Requests abandoned after exhausting the retry budget.",
                &[],
            ),
        };
        Self {
            policy,
            counters: Some(counters),
        }
    }

    /// The configured policy.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    fn count(&self, pick: impl Fn(&ClientCounters) -> &Arc<srclda_obs::Counter>) {
        if let Some(c) = &self.counters {
            pick(c).inc();
        }
    }

    /// Issue `method path` with `body` against `addr`, retrying connect
    /// and socket failures and 503 responses per the policy. A 503 with
    /// a parseable `Retry-After: <seconds>` header sleeps that long
    /// (capped at `max_delay`) instead of the backoff schedule.
    ///
    /// Returns the final response — which is still `Ok((503, body))`
    /// when every attempt was shed, so callers can distinguish "server
    /// said no politely" from a dead socket.
    ///
    /// # Errors
    /// The last socket error once the attempt budget is exhausted.
    pub fn request(
        &self,
        addr: &str,
        method: &str,
        path: &str,
        body: &str,
    ) -> io::Result<(u16, String)> {
        let attempts = self.policy.max_attempts.max(1);
        let mut last_err: Option<io::Error> = None;
        let mut last_shed: Option<(u16, String)> = None;
        for attempt in 0..attempts {
            self.count(|c| &c.attempts);
            match self.attempt_once(addr, method, path, body) {
                Ok((503, headers, resp_body)) => {
                    last_shed = Some((503, resp_body));
                    if attempt + 1 == attempts {
                        break;
                    }
                    self.count(|c| &c.shed_retries);
                    std::thread::sleep(self.shed_delay(attempt, &headers));
                }
                Ok((status, _, resp_body)) => return Ok((status, resp_body)),
                Err(e) => {
                    last_err = Some(e);
                    if attempt + 1 == attempts {
                        break;
                    }
                    self.count(|c| &c.io_retries);
                    std::thread::sleep(self.policy.delay_for(attempt));
                }
            }
        }
        self.count(|c| &c.giveups);
        match (last_shed, last_err) {
            // A shed on the final attempt is the freshest signal; an
            // earlier shed still beats surfacing a stale socket error.
            (Some(shed), _) => Ok(shed),
            (None, Some(e)) => Err(e),
            (None, None) => unreachable!("at least one attempt always runs"),
        }
    }

    /// The sleep after a shed: the `Retry-After` header when present and
    /// parseable (capped at `max_delay`), the backoff schedule otherwise.
    fn shed_delay(&self, attempt: u32, headers: &[(String, String)]) -> Duration {
        headers
            .iter()
            .find(|(name, _)| name == "retry-after")
            .and_then(|(_, value)| value.parse::<u64>().ok())
            .map(|secs| Duration::from_secs(secs).min(self.policy.max_delay))
            .unwrap_or_else(|| self.policy.delay_for(attempt))
    }

    fn attempt_once(
        &self,
        addr: &str,
        method: &str,
        path: &str,
        body: &str,
    ) -> io::Result<crate::server::http::ParsedResponse> {
        let mut stream = TcpStream::connect(addr)?;
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
            body.len(),
        )?;
        stream.flush()?;
        read_response_with_headers(&mut BufReader::new(stream))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::{FaultKind, FaultPlan, FaultStream};
    use std::io::Read;

    #[test]
    fn delays_are_deterministic_exponential_and_capped() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(100),
            jitter_seed: 42,
        };
        let a: Vec<Duration> = (0..6).map(|i| policy.delay_for(i)).collect();
        let b: Vec<Duration> = (0..6).map(|i| policy.delay_for(i)).collect();
        assert_eq!(a, b, "same seed, same schedule");
        for (i, d) in a.iter().enumerate() {
            let exp = Duration::from_millis(10 << i).min(Duration::from_millis(100));
            assert!(*d >= exp / 2, "attempt {i}: {d:?} below half of {exp:?}");
            assert!(*d <= exp, "attempt {i}: {d:?} above cap {exp:?}");
        }
        let other = RetryPolicy {
            jitter_seed: 43,
            ..policy
        };
        assert_ne!(
            (0..6).map(|i| other.delay_for(i)).collect::<Vec<_>>(),
            a,
            "different seeds decorrelate the schedule"
        );
    }

    #[test]
    fn huge_attempt_numbers_do_not_overflow_the_shift() {
        let policy = RetryPolicy::default();
        assert_eq!(policy.delay_for(40).max(policy.max_delay), policy.max_delay);
    }

    #[test]
    fn connect_errors_are_retried_and_counted() {
        let registry = srclda_obs::Registry::new();
        let client = RetryClient::with_registry(
            RetryPolicy {
                max_attempts: 3,
                base_delay: Duration::from_millis(1),
                max_delay: Duration::from_millis(2),
                jitter_seed: 7,
            },
            &registry,
        );
        // A port nothing listens on: every attempt fails at connect.
        let err = client
            .request("127.0.0.1:1", "GET", "/healthz", "")
            .unwrap_err();
        assert_ne!(err.kind(), io::ErrorKind::InvalidData);
        let text = registry.render();
        srclda_obs::validate_exposition(&text).expect("valid exposition");
        assert!(text.contains("srclda_client_attempts_total 3\n"), "{text}");
        assert!(
            text.contains("srclda_client_retries_total{reason=\"io\"} 2\n"),
            "{text}"
        );
        assert!(text.contains("srclda_client_giveups_total 1\n"), "{text}");
    }

    #[test]
    fn fault_stream_interruptions_surface_as_retryable_io_errors() {
        // The loopback socket shim: an EINTR budget of 1 makes the first
        // read fail Interrupted and the second succeed — the retry
        // client's `request` treats any io::Error as retryable, so this
        // pins the FaultStream error kind the client will actually see.
        let plan = FaultPlan::eintr(1);
        let mut stream = FaultStream::new(std::io::Cursor::new(b"hello".to_vec()), plan.clone());
        let mut buf = [0u8; 5];
        let first = stream.read(&mut buf).unwrap_err();
        assert_eq!(first.kind(), io::ErrorKind::Interrupted);
        assert_eq!(stream.read(&mut buf).unwrap(), 5);
        assert_eq!(plan.triggered(), 1);
        assert!(matches!(
            FaultPlan::seeded(FaultKind::TornWrite, 9).resolved_offset(100),
            Some(n) if n < 100
        ));
    }
}
