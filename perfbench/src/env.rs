//! Facts about the box a result came from, and the memory-bandwidth
//! roofline.

use std::time::Instant;

/// CPU model name from `/proc/cpuinfo`, or `"unknown"`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Peak resident set size of this process so far in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Single-thread `memcpy` bandwidth in bytes per ns (= GB/s) for a
/// buffer of `len` bytes: the median of seven samples, each copying the
/// buffer until at least 64 MB moved. A buffer the size of a kernel's
/// working set gives that kernel's roofline at the cache level it runs
/// from.
pub fn memcpy_bytes_per_ns(len: usize) -> f64 {
    let len = len.max(1);
    let reps = (64usize << 20).div_ceil(len);
    let src = vec![1u8; len];
    let mut dst = vec![0u8; len];
    dst.copy_from_slice(&src);
    let mut rates: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                dst.copy_from_slice(std::hint::black_box(&src));
                std::hint::black_box(&mut dst);
            }
            (len * reps) as f64 / t.elapsed().as_nanos() as f64
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    rates[rates.len() / 2]
}

/// Share of all CPU time stolen by the hypervisor since `before` (a
/// [`cpu_jiffies`] reading); 0 when `/proc/stat` cannot be read.
pub fn steal_since(before: Option<(u64, u64)>) -> f64 {
    match (before, cpu_jiffies()) {
        (Some((t0, s0)), Some((t1, s1))) => (s1 - s0) as f64 / (t1 - t0).max(1) as f64,
        _ => 0.0,
    }
}

/// Total and steal jiffies of all CPUs so far (`/proc/stat`): steal is
/// time the hypervisor ran something else while this box's CPUs wanted
/// to run.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((fields.iter().take(8).sum(), *fields.get(7)?))
}
