//! Order statistics and process probes shared by every workload.

/// Nearest-rank percentile (`q` in `[0, 1]`) of a sample set; sorts in
/// place. Panics on an empty set: every caller measures at least once.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample set");
    samples.sort_by(f64::total_cmp);
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// The median of a sample set (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    percentile(&mut samples.to_vec(), 0.5)
}

/// A latency distribution summarized the way the benchmark reports it:
/// median, p99 and the sample count behind them.
#[derive(Clone, Copy, Debug)]
pub struct Latency {
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub samples: usize,
}

/// Samples needed for a p99 with at least ten samples beyond it.
pub const MIN_P99_SAMPLES: usize = 1000;

impl Latency {
    /// Summarizes latencies given in seconds.
    pub fn from_secs(samples_s: &[f64]) -> Self {
        let mut ms: Vec<f64> = samples_s.iter().map(|s| s * 1e3).collect();
        Self {
            p50_ms: percentile(&mut ms, 0.5),
            p99_ms: percentile(&mut ms, 0.99),
            samples: ms.len(),
        }
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
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

/// Total size in bytes of the regular files under `dir` (recursive);
/// 0 when the directory is absent.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&entry.path()),
            Ok(t) if t.is_file() => entry.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), 500.0);
        assert_eq!(percentile(&mut v, 0.99), 990.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
