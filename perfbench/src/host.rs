//! Host provenance: a fixed reference loop that shows host drift, peak
//! memory, and the facts every output records.

use std::time::Instant;

/// Iterations of the reference loop (about 25 ms on a 2-vCPU VM).
const REF_ITERS: u64 = 8_000_000;

/// Milliseconds one pass of a fixed integer loop takes. It calls nothing
/// in the repository, so it moves only with the host.
pub fn ref_loop_ms() -> f64 {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..REF_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// Median of `reps` reference-loop passes.
pub fn ref_ms(reps: usize) -> f64 {
    let v: Vec<f64> = (0..reps).map(|_| ref_loop_ms()).collect();
    crate::stats::quantile(&v, 0.5)
}

/// Process high-water resident set size in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// CPUs the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
