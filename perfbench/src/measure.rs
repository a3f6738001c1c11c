//! Order statistics and the `/proc` readings the ledger needs.

use std::fs;

/// Linux reports `/proc/*/stat` CPU times in USER_HZ ticks, fixed at 100
/// per second by the kernel ABI.
const USER_HZ: f64 = 100.0;

/// Nearest-rank percentile (`p` in 0..=1) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

fn stat_cpu_s(path: &str) -> Result<f64, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after the name.
    let rest = text
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| format!("malformed {path}"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / USER_HZ)
            .ok_or_else(|| format!("malformed {path}"))
    };
    Ok(tick(11)? + tick(12)?)
}

/// User + system CPU seconds of the whole process, exited threads
/// included.
pub fn process_cpu_s() -> Result<f64, String> {
    stat_cpu_s("/proc/self/stat")
}

/// User + system CPU seconds of the calling thread.
pub fn thread_cpu_s() -> Result<f64, String> {
    stat_cpu_s("/proc/thread-self/stat")
}

/// Peak resident set size (VmHWM) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let text = fs::read_to_string("/proc/self/status").map_err(|e| format!("read status: {e}"))?;
    let line = text
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("malformed VmHWM")?;
    Ok(kb / 1024.0)
}

/// splitmix64: derives independent seeds from the workload seed.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
