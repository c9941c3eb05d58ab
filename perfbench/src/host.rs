//! Facts about the host a run executed on, read from `/proc` and the
//! kernel layer, plus the fixed reference loop that records how fast the
//! shared host was during the run.

use std::hint::black_box;
use std::time::Instant;

/// The CPU model name, or `unknown` where `/proc/cpuinfo` does not say.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// User plus system CPU seconds this process has used so far.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall, in clock ticks (USER_HZ = 100 on Linux).
    let rest = stat.rsplit_once(')')?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Runs a fixed single-threaded integer and floating-point loop and returns
/// its wall time in milliseconds. The work never changes, so the figure
/// moves only with the host's speed during the run.
pub fn ref_loop_ms() -> f64 {
    let started = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    let mut acc = black_box(1.0f64);
    for _ in 0..20_000_000u32 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        acc = acc * 0.999_999_9 + (x >> 40) as f64 * 1e-12;
    }
    black_box((x, acc));
    started.elapsed().as_secs_f64() * 1e3
}
