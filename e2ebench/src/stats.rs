//! Order statistics, the tail-percentile rule, and the two process-level
//! measurements every run takes (peak memory and the host reference loop).

use std::time::Instant;

/// Linear-interpolated percentile of `xs`, `q` in `[0, 1]`; NaN when empty.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `xs` (the mean of the two middle values for even counts).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Arithmetic mean; NaN when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Tail percentiles a run may report, highest first.
pub const TAILS: [u32; 4] = [99, 95, 90, 75];

/// Whether `n` samples hold at least ten samples beyond the `pct`-th
/// percentile — the condition for reporting that percentile at all.
pub fn tail_supported(n: usize, pct: u32) -> bool {
    pct < 100 && n * (100 - pct as usize) >= 1000
}

/// The highest percentile in [`TAILS`] that `n` samples support.
pub fn highest_tail(n: usize) -> Option<u32> {
    TAILS.into_iter().find(|&pct| tail_supported(n, pct))
}

/// Peak resident set size of this process in MB (`VmHWM`), if the platform
/// exposes it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Iterations of the reference loop: about 30 ms on a 2-vCPU cloud host.
const REF_ITERS: u64 = 12_000_000;

/// Times a fixed compute loop (xorshift plus a float accumulate), in ms.
/// A diagnostic of host speed only: no metric is ever scaled by it.
pub fn host_ref_ms() -> f64 {
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut acc = 0.0f64;
    for i in 0..REF_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += (x >> 11) as f64 * 1e-16 + (i & 1023) as f64;
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 4.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert!(!tail_supported(99, 90));
        assert!(tail_supported(100, 90));
        assert!(!tail_supported(199, 95));
        assert!(tail_supported(200, 95));
        assert!(tail_supported(40, 75));
        assert!(!tail_supported(39, 75));
        assert_eq!(highest_tail(1000), Some(99));
        assert_eq!(highest_tail(150), Some(90));
        assert_eq!(highest_tail(60), Some(75));
        assert_eq!(highest_tail(39), None);
    }
}
