//! Order statistics, digests and process measurements shared by the timed
//! runs, the profile and `compare`.

/// Nearest-rank percentile `p` (in percent) of ascending `sorted`, or
/// `None` when fewer than ten samples lie beyond it — a tail percentile
/// resting on fewer points is noise. The median needs only one sample.
pub fn percentile(sorted: &[f64], p: usize) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || (p > 50 && n * (100 - p) / 100 < 10) {
        return None;
    }
    let rank = (p * n).div_ceil(100).max(1);
    Some(sorted[rank - 1])
}

/// Median of unsorted values (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50)
}

/// First quartile, median and third quartile by the same rule as
/// Python's `statistics.quantiles(values, n=4)` (the exclusive method),
/// so spreads printed here match an independent check.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let n = x.len();
    assert!(n > 0, "quartiles of an empty set");
    if n == 1 {
        return (x[0], x[0], x[0]);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Running 64-bit FNV-1a over 32-bit words (the output means' bit
/// patterns), so two runs can be compared for bit-identical outputs.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    pub fn eat(&mut self, words: impl IntoIterator<Item = u32>) {
        for w in words {
            for byte in w.to_le_bytes() {
                self.0 ^= u64::from(byte);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// splitmix64: derives every input and mask seed from `--seed`.
pub fn mix(seed: u64, salt: u64, index: u64) -> u64 {
    let mut z = seed ^ salt.rotate_left(17) ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident set of this process in MB (`VmHWM`), or `None` where
/// the kernel does not expose it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&v, 90), None, "99 samples leave 9 beyond p90");
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90), Some(90.0));
        assert_eq!(percentile(&v, 99), None);
        assert_eq!(percentile(&v, 50), Some(50.0));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99), Some(990.0));
        assert_eq!(percentile(&[7.0], 50), Some(7.0));
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0, 2.0, 4.0]), (1.5, 3.0, 4.5));
    }
}
