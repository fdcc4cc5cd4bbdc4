//! Small numeric helpers: the seeded generator, quantiles with the
//! benchmark's tail rule, and the response digest.

/// splitmix64: the benchmark's only source of randomness. Every input
/// is derived from `--seed` through it, so a seed names one input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`, quantized to 1/64 so every value is
    /// exactly representable and prints the same on every platform.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        let steps = ((hi - lo) * 64.0) as u64;
        lo + (self.next_u64() % steps.max(1)) as f64 / 64.0
    }
}

/// Median of `v` (upper median for even lengths); `None` when empty.
pub fn median(v: &[f64]) -> Option<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s.get(s.len() / 2).copied()
}

/// The benchmark's tail: the highest whole percentile that leaves at
/// least ten samples beyond it, capped at p99 (reached at 1000
/// samples). Returns `(percentile, value)` by nearest rank, or `None`
/// with fewer than 11 samples, where no percentile has ten beyond it.
pub fn tail(v: &[f64]) -> Option<(u32, f64)> {
    let n = v.len();
    if n < 11 {
        return None;
    }
    let p = ((100 * (n - 10)) / n).min(99) as u32;
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    Some((p, s[rank(n, p)]))
}

/// Nearest-rank index of percentile `p` in `n` sorted samples.
pub fn rank(n: usize, p: u32) -> usize {
    ((p as usize * n).div_ceil(100)).clamp(1, n) - 1
}

/// A 128-bit digest of a response line, eight bytes at a time: cheap
/// enough to take on every response outside the timed region, so the
/// checks after the run compare against an oracle without keeping
/// megabyte frames in memory.
pub fn digest(bytes: &[u8]) -> (u64, u64) {
    let (mut a, mut b) = (0x243F_6A88_85A3_08D3u64, 0x1319_8A2E_0370_7344u64);
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("chunk of 8"));
        a = (a ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
        b = (b ^ w.rotate_left(17))
            .wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
            .rotate_left(31);
    }
    for &byte in chunks.remainder() {
        a = (a ^ byte as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        b = (b ^ byte as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    }
    let n = bytes.len() as u64;
    (a ^ n, b.wrapping_add(n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        for n in [11usize, 20, 40, 99, 100, 250, 999, 1000, 1001, 5000] {
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let (p, value) = tail(&v).expect("enough samples");
            let beyond = v.iter().filter(|&&x| x > value).count();
            assert!(beyond >= 10, "n={n}: p{p} leaves {beyond} beyond");
            if p < 99 {
                // The next percentile up would leave fewer than ten.
                let next = rank(n, p + 1);
                assert!(n - 1 - next < 10, "n={n}: p{} would also qualify", p + 1);
            }
        }
    }

    #[test]
    fn tail_is_p99_from_1000_samples() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99, 990.0)));
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&v), Some((75, 30.0)));
        assert_eq!(tail(&[1.0; 10]), None);
    }

    #[test]
    fn digest_separates_single_byte_changes() {
        let a = b"{\"ok\":\"frame\",\"revision\":3,\"cached\":false}".to_vec();
        let mut b = a.clone();
        b[30] ^= 1;
        assert_ne!(digest(&a), digest(&b));
        assert_ne!(digest(&a[..a.len() - 1]), digest(&a));
        assert_eq!(digest(&a), digest(&a.clone()));
    }
}
