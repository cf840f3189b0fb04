//! Order statistics, process memory, and the result line.

use std::fmt::Write as _;

/// The median of `values` (0 for an empty slice).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (0 for an empty slice).
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The `q`-quantile of a log2-nanosecond histogram (bucket `i` holds
/// samples in `[2^i, 2^(i+1))` ns, the last bucket everything above its
/// lower edge), interpolated linearly inside the bucket that holds it.
/// A quantile in the open last bucket reads as that bucket's lower
/// edge: a lower bound, since the histogram cannot say more.
#[must_use]
pub fn log2_hist_quantile(hist: &[u64], q: f64) -> f64 {
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = q.clamp(0.0, 1.0) * total as f64;
    let mut below = 0u64;
    for (i, &count) in hist.iter().enumerate() {
        if count > 0 && (below + count) as f64 >= rank {
            let lo = (1u64 << i) as f64;
            if i + 1 == hist.len() {
                return lo;
            }
            let frac = ((rank - below as f64) / count as f64).clamp(0.0, 1.0);
            return lo + lo * frac;
        }
        below += count;
    }
    (1u64 << (hist.len() - 1)) as f64
}

/// The process's peak resident set (`VmHWM`) in MiB.
///
/// # Errors
///
/// Returns a message when `/proc/self/status` is unreadable or lacks
/// the field (the benchmark runs on Linux only).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// FNV-1a 64-bit digest: a compact stand-in for a multi-megabyte
/// simulated output when comparing it with its expectation.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Metrics in print order: `(name, value, unit)`.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Appends one metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// Renders the benchmark's result line. A non-finite value would not
/// be valid JSON; it is printed as `null` and marks the run incorrect.
#[must_use]
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let finite = metrics.0.iter().all(|(_, v, _)| v.is_finite());
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        correct && finite
    );
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() {
            format!("{value}")
        } else {
            "null".to_string()
        };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.95), 9.5);
    }

    #[test]
    fn hist_quantile_stays_inside_its_bucket() {
        let mut hist = [0u64; 16];
        hist[8] = 100; // [256, 512) ns
        let p50 = log2_hist_quantile(&hist, 0.5);
        assert!((256.0..512.0).contains(&p50), "{p50}");
        hist[10] = 1;
        assert!(log2_hist_quantile(&hist, 0.999) >= 1024.0);
        hist[15] = 1_000;
        assert_eq!(
            log2_hist_quantile(&hist, 0.99),
            32_768.0,
            "open bucket: lower edge"
        );
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut m = Metrics::default();
        m.push("wall_s", 1.5, "s");
        let line = result_line(true, 3, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
        m.push("bad", f64::NAN, "s");
        assert!(result_line(true, 3, 0, &m).starts_with("{\"correct\": false"));
    }
}
