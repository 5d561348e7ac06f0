//! A log-scale histogram for latency-style values in virtual time.

use crate::time::Dur;

/// Power-of-two bucketed histogram for latency-style values (nanoseconds).
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: Vec<u64>, // bucket i counts values in [2^i, 2^(i+1))
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; 64],
            count: 0,
            sum: 0,
        }
    }

    pub fn add(&mut self, v: u64) {
        let idx = 63 - v.max(1).leading_zeros() as usize;
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += v;
    }

    pub fn add_dur(&mut self, d: Dur) {
        self.add(d.as_nanos());
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values (exact, unlike the bucketed quantiles).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile (bucket upper bound containing the q-quantile).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target.max(1) {
                return 1u64 << (i + 1).min(63);
            }
        }
        u64::MAX
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.add(v);
        }
        assert_eq!(h.count(), 1000);
        // Median of 1..=1000 is ~500, bucket upper bound 512.
        assert_eq!(h.quantile(0.5), 512);
        assert!(h.quantile(1.0) >= 1000);
        assert!((h.mean() - 500.5).abs() < 1.0);
    }
}
