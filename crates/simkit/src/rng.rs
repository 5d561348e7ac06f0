//! Deterministic random number generation.
//!
//! Every stochastic component in the workspace (workload generators, shuffle
//! sequences, timing jitter) draws from a [`SplitMix64`] stream derived from
//! a single experiment seed, so whole multi-node simulations replay
//! bit-identically. Distribution helpers (uniform, normal, shuffles,
//! byte fills) are implemented directly on [`SplitMix64`], so the crate
//! needs no external RNG machinery.

/// Sebastiano Vigna's SplitMix64 generator.
///
/// Tiny state, excellent equidistribution for its size, and — critically for
/// us — trivially *splittable*: [`SplitMix64::derive`] produces statistically
/// independent child streams from (seed, stream-label) pairs, which is how a
/// single experiment seed fans out to per-node, per-device, per-component
/// streams without coordination.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

impl SplitMix64 {
    /// Create a generator from a raw seed.
    #[inline]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Derive an independent child stream labelled `stream`.
    ///
    /// Children with distinct labels (or distinct parent seeds) produce
    /// unrelated sequences; the same `(seed, stream)` pair always produces
    /// the same sequence.
    #[inline]
    pub fn derive(seed: u64, stream: u64) -> Self {
        // Mix the label in twice with different offsets so that
        // (seed, stream) and (seed + 1, stream - GOLDEN) don't collide.
        let s = mix(seed ^ 0x9e3779b97f4a7c15)
            .wrapping_add(mix(stream.wrapping_mul(0xd1342543de82ef95)));
        SplitMix64 { state: mix(s) }
    }

    /// Derive a child stream from this generator's seed and a label.
    #[inline]
    pub fn child(&self, stream: u64) -> Self {
        Self::derive(self.state, stream)
    }

    /// Next raw 64-bit value.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        mix(self.state)
    }

    /// Uniform value in `[0, bound)`. Uses Lemire's multiply-shift reduction;
    /// the tiny modulo bias is irrelevant for simulation workloads.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        ((self.next() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform value in `[lo, hi)`.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo < hi);
        lo + self.below(hi - lo)
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Standard normal deviate (Box–Muller; one value per call, the pair's
    /// twin is discarded to keep the state machine simple).
    pub fn normal(&mut self) -> f64 {
        loop {
            let u = self.f64();
            if u > 1e-12 {
                let v = self.f64();
                return (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos();
            }
        }
    }

    /// Log-normal deviate with the given parameters of the underlying normal.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.normal()).exp()
    }

    /// In-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// A random permutation of `0..n` as `u32` indices (n must fit in u32).
    pub fn permutation(&mut self, n: usize) -> Vec<u32> {
        assert!(
            n <= u32::MAX as usize,
            "permutation too large for u32 indices"
        );
        let mut v: Vec<u32> = (0..n as u32).collect();
        self.shuffle(&mut v);
        v
    }

    /// Fill `dest` with pseudo-random bytes from this stream.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let last = self.next().to_le_bytes();
            rem.copy_from_slice(&last[..rem.len()]);
        }
    }
}

/// Fill `buf` with deterministic pseudo-random bytes that are a pure function
/// of `(seed, tag)`. Used to synthesize sample payloads that can be verified
/// after travelling through the whole storage stack without storing a copy.
pub fn fill_deterministic(buf: &mut [u8], seed: u64, tag: u64) {
    SplitMix64::derive(seed, tag).fill_bytes(buf);
}

/// 64-bit FNV-1a, used for content checksums and name hashing.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = SplitMix64::derive(42, 7);
        let mut b = SplitMix64::derive(42, 7);
        for _ in 0..100 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn distinct_streams_differ() {
        let mut a = SplitMix64::derive(42, 7);
        let mut b = SplitMix64::derive(42, 8);
        let same = (0..64).filter(|_| a.next() == b.next()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SplitMix64::new(1);
        for bound in [1u64, 2, 3, 10, 1000] {
            for _ in 0..200 {
                assert!(r.below(bound) < bound);
            }
        }
        assert_eq!(r.below(0), 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(9);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut r = SplitMix64::new(3);
        let n = 20_000;
        let (mut s, mut s2) = (0.0, 0.0);
        for _ in 0..n {
            let x = r.normal();
            s += x;
            s2 += x * x;
        }
        let mean = s / n as f64;
        let var = s2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn permutation_is_permutation() {
        let mut r = SplitMix64::new(5);
        let p = r.permutation(1000);
        let mut seen = vec![false; 1000];
        for &i in &p {
            assert!(!seen[i as usize]);
            seen[i as usize] = true;
        }
        assert!(seen.iter().all(|&x| x));
        // Should not be the identity permutation.
        assert!(p.iter().enumerate().any(|(i, &x)| i as u32 != x));
    }

    #[test]
    fn fill_bytes_covers_tail() {
        let mut buf = [0u8; 13];
        fill_deterministic(&mut buf, 1, 2);
        let mut buf2 = [0u8; 13];
        fill_deterministic(&mut buf2, 1, 2);
        assert_eq!(buf, buf2);
        let mut buf3 = [0u8; 13];
        fill_deterministic(&mut buf3, 1, 3);
        assert_ne!(buf, buf3);
    }

    #[test]
    fn fnv_known_vector() {
        // FNV-1a of empty input is the offset basis.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }
}
