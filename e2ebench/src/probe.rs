//! Host-context probe, for diagnosis only: a dependent-load chase over an
//! 8 MiB working set (about what a t64 train phase touches; it slows when
//! neighbours contend for the shared cache and memory), an ALU-only loop
//! (which such contention does not slow), and the CPU steal share from
//! `/proc/stat`. The loops run in a child process so their buffer never
//! shows in the harness's own peak RSS.

use crate::gen::Rng;
use std::time::Instant;

const CHASE_ENTRIES: usize = 1 << 20; // 8 MiB of u64
const CHASE_STEPS: usize = 300_000;
const ALU_STEPS: u64 = 5_000_000;

/// `(ns per dependent load, ns per ALU step)`.
pub fn measure() -> (f64, f64) {
    // Sattolo's algorithm: one cycle through every entry.
    let mut next: Vec<u64> = (0..CHASE_ENTRIES as u64).collect();
    let mut rng = Rng::new(0x9b0b);
    for i in (1..CHASE_ENTRIES).rev() {
        let j = rng.below(i);
        next.swap(i, j);
    }
    let mut at = 0usize;
    for _ in 0..CHASE_STEPS / 4 {
        at = next[at] as usize;
    }
    let start = Instant::now();
    for _ in 0..CHASE_STEPS {
        at = next[at] as usize;
    }
    let chase_ns = start.elapsed().as_secs_f64() * 1e9 / CHASE_STEPS as f64;
    std::hint::black_box(at);

    let start = Instant::now();
    let mut x = std::hint::black_box(0x1234_5678_9abc_def0u64);
    for i in 0..ALU_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    std::hint::black_box(x);
    let alu_ns = start.elapsed().as_secs_f64() * 1e9 / ALU_STEPS as f64;
    (chase_ns, alu_ns)
}

/// One probe reading, taken by a child process.
#[derive(Clone, Copy)]
pub struct Reading {
    pub chase_ns: f64,
    pub alu_ns: f64,
}

pub fn take() -> Reading {
    let out = std::env::current_exe()
        .and_then(|exe| std::process::Command::new(exe).arg("--host-probe").output());
    let parsed = out.ok().and_then(|o| {
        let text = String::from_utf8(o.stdout).ok()?;
        let mut it = text.split_whitespace().map(|s| s.parse::<f64>());
        Some((it.next()?.ok()?, it.next()?.ok()?))
    });
    let (chase_ns, alu_ns) = parsed.unwrap_or((f64::NAN, f64::NAN));
    Reading { chase_ns, alu_ns }
}

/// `(steal, total)` jiffies of all CPUs from `/proc/stat`: the share the
/// hypervisor ran something else while this guest wanted the CPU.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|x| x.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}
