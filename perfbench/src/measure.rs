//! Process counters and order statistics.

use std::fs;

/// Kernel clock ticks per second of `/proc/<pid>/stat` CPU times (Linux
/// fixes `USER_HZ` at 100 for this interface on every architecture the
/// workspace targets).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds consumed by every thread of this process.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // The command name (field 2) may hold spaces; fields after it are
    // plain numbers.  utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).ok_or("/proc/self/stat: no ')'")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / USER_HZ)
            .ok_or_else(|| format!("/proc/self/stat: bad field {}", i + 3))
    };
    Ok(tick(11)? + tick(12)?)
}

/// Peak resident set size (VmHWM) of this process, MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "/proc/self/status: no VmHWM".to_string())
}

/// Nearest-rank percentile `p` (0–100] of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest rank) of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Median over `blocks` consecutive, near-equal blocks of `values` of
/// each block's percentile `p`; 0 when empty.  A slow stretch of the host
/// that covers fewer than half the blocks does not move it.
pub fn block_percentile(values: &[f64], blocks: usize, p: f64) -> f64 {
    let b = blocks.clamp(1, values.len().max(1));
    let n = values.len();
    let per_block: Vec<f64> =
        (0..b).map(|i| percentile(&values[i * n / b..(i + 1) * n / b], p)).collect();
    median(&per_block)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn block_percentile_ignores_a_slow_stretch() {
        // Ten blocks of 1..=10; the last two blocks run 10x slower.
        let mut v: Vec<f64> = (0..100).map(|i| f64::from(i % 10 + 1)).collect();
        v[80..].iter_mut().for_each(|x| *x *= 10.0);
        assert_eq!(block_percentile(&v, 10, 90.0), 9.0);
        assert_eq!(percentile(&v, 90.0), 50.0);
        // Fewer samples than blocks: one sample per block.
        assert_eq!(block_percentile(&[4.0, 1.0, 3.0], 10, 90.0), 3.0);
        assert_eq!(block_percentile(&[], 10, 90.0), 0.0);
    }

    #[test]
    fn process_counters_are_readable() {
        assert!(cpu_seconds().expect("cpu time") >= 0.0);
        assert!(peak_rss_mb().expect("peak rss") > 0.0);
    }
}
