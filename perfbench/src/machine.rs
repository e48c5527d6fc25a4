//! Facts about the machine a run measured on: its measured parallel
//! ceiling, the process's peak memory and the source revision.

use std::hint::black_box;
use std::time::Instant;

/// Iterations of the fixed CPU kernel (about 0.1 s on one core).
const KERNEL_ITERS: u64 = 60_000_000;

/// A fixed, memory-free CPU kernel: an xorshift chain.
fn kernel(seed: u64) -> u64 {
    let mut x = seed | 1;
    for _ in 0..black_box(KERNEL_ITERS) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

/// The machine's measured throughput ceiling for two concurrent workers:
/// the kernel runs once alone, then twice at once; the ceiling is the
/// aggregate speed of the pair relative to one run alone (2.0 on two
/// idle cores, less when the cores share a physical core or a host).
pub fn parallel_ceiling() -> f64 {
    let t0 = Instant::now();
    black_box(kernel(1));
    let alone = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    std::thread::scope(|scope| {
        let a = scope.spawn(|| black_box(kernel(2)));
        let b = scope.spawn(|| black_box(kernel(3)));
        a.join().expect("ceiling kernel thread panicked");
        b.join().expect("ceiling kernel thread panicked");
    });
    let pair = t1.elapsed().as_secs_f64();
    2.0 * alone / pair.max(1e-9)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checked-out commit, read from `.git` when the tree is a git
/// checkout; `unknown` otherwise.
pub fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|id| id.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None => head,
    }
}

/// Aggregate CPU time counters of the machine from `/proc/stat`, in
/// clock ticks: `(steal, total)`. Steal is time the hypervisor ran
/// something else while one of this machine's CPUs wanted to run.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    let steal = fields.get(7).copied().unwrap_or(0);
    // guest time is already counted in user time, so only the first
    // eight fields add up to the total.
    (steal, fields.iter().take(8).sum())
}

/// Share of CPU time stolen by the hypervisor between two
/// [`cpu_ticks`] readings, percent.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    100.0 * after.0.saturating_sub(before.0) as f64 / total.max(1) as f64
}
