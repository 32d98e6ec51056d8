//! Small dependencies of the harness: a seeded generator, order statistics
//! and host facts. Kept local so the benchmark needs nothing beyond the
//! crates it measures.

/// SplitMix64: the benchmark's only source of randomness. Everything it
/// feeds (sweep order, cache line streams, fault seeds) is a pure function
/// of `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median (mean of the two middle values for even counts); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(v, n=4)` computes them (the rule the driver's
/// acceptance check uses). Fewer than two values give `(x, x)`.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let s = sorted(v);
    let m = s.len();
    if m < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median; 0 for degenerate input.
pub fn spread(v: &[f64]) -> f64 {
    let med = median(v);
    if v.len() < 2 || med == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(v);
    (q3 - q1) / med.abs()
}

/// The highest percentile that still has at least ten samples beyond it,
/// and its value (nearest rank). With fewer than 20 samples this degrades
/// to the median.
pub fn tail(v: &[f64]) -> (f64, f64) {
    let s = sorted(v);
    let n = s.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    if n < 20 {
        return (50.0, median(&s));
    }
    let idx = n - 11; // ten samples lie strictly above s[idx]
    (100.0 * (idx + 1) as f64 / n as f64, s[idx])
}

/// Time one pass of the benchmark's reference computation: a fixed chain of
/// multiply-rotate hashes, look-ups in a 256 KiB table and data-dependent
/// branches (about 3 ms here).
///
/// The host this benchmark runs on is a small shared VM whose speed drifts
/// over minutes. Every metric is reported as measured; the traced run also
/// reports this loop's time (`bench.reference_ms`) so that a reader
/// comparing raw per-layer timings from two runs can tell a slower host
/// from a slower program. The loop is harness code and never changes with
/// the program under test.
pub fn reference_pass() -> f64 {
    use std::sync::OnceLock;
    const MASK: usize = (1 << 15) - 1;
    static TABLE: OnceLock<Vec<u64>> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut r = Rng::new(42);
        (0..=MASK).map(|_| r.next_u64()).collect()
    });
    let t = std::time::Instant::now();
    let (mut x, mut acc) = (0x1234u64, 0u64);
    for _ in 0..340_000u32 {
        x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(23) ^ acc;
        acc = acc.wrapping_add(table[(x as usize) & MASK] ^ x);
        if acc & 3 == 0 {
            x ^= acc >> 7;
        }
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Largest relative element error, as `alpaka_kernels::host::rel_err`
/// defines it, but total: a length mismatch or a NaN is an infinite error
/// rather than a panic, so a wrong output is counted, not crashed on.
pub fn rel_err(got: &[f64], want: &[f64]) -> f64 {
    if got.len() != want.len() {
        return f64::INFINITY;
    }
    let e = alpaka_kernels::host::rel_err(got, want);
    if e.is_nan() {
        f64::INFINITY
    } else {
        e
    }
}

pub fn bit_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        assert_eq!(median(&v), 5.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        let (pct, val) = tail(&v);
        assert_eq!(val, 89.0);
        assert_eq!(pct, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > val).count(), 10);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        Rng::new(7).shuffle(&mut a);
        Rng::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        let mut s = a.clone();
        s.sort_unstable();
        assert_eq!(s, (0..50).collect::<Vec<_>>());
        assert_ne!(a, s);
    }
}
