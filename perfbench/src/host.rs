//! Host-side readings from `/proc`: peak resident memory and the noise
//! context recorded beside each run's numbers. A reading that is not
//! available on the host comes back as `None`.

use std::fs;

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One-minute load average.
pub fn loadavg() -> Option<f64> {
    fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Nanoseconds the main thread has spent runnable but waiting for a CPU
/// (the second field of `/proc/self/schedstat`).
pub fn runqueue_wait_ns() -> Option<u64> {
    fs::read_to_string("/proc/self/schedstat")
        .ok()?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}
