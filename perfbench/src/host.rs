//! Host facts recorded with every result set, so a reader can tell a
//! host change from a regression: core count, CPU model and the time
//! of a fixed calibration kernel. None of them is an end-to-end metric.

use std::time::Instant;

/// Cores the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The first `model name` in `/proc/cpuinfo`, or `unknown`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// One run of the calibration kernel: 2^22 dependent splitmix64 steps
/// folded into an FNV-style accumulator — integer-ALU bound, no
/// allocation, the same work on every host.
fn calibration_kernel() -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut acc = 0xcbf2_9ce4_8422_2325_u64;
    for _ in 0..(1u32 << 22) {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        acc = (acc ^ (z ^ (z >> 31))).wrapping_mul(0x0100_0000_01b3);
    }
    acc
}

/// Median of five timed runs of the calibration kernel, milliseconds.
pub fn calibration_ms() -> f64 {
    let mut times: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(calibration_kernel());
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[2]
}

/// Peak resident set of process `pid` (`self` for this one), MiB, from
/// the `VmHWM` line of its `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
