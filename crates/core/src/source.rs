//! Dataset sources for `dlfs_mount`: where samples come from (the HPC
//! parallel file system, in the paper) before being staged onto NVMe.

use simkit::rng::fill_deterministic;

/// A dataset to stage into DLFS. Implementations must be deterministic:
/// `fill` for the same id always produces the same bytes, so tests can
/// verify end-to-end payload integrity without keeping copies.
pub trait SampleSource: Send + Sync {
    /// Number of samples.
    fn count(&self) -> usize;
    /// Sample name (unique; drives hash placement).
    fn name(&self, id: u32) -> String;
    /// Sample payload size in bytes (nonzero).
    fn size(&self, id: u32) -> u64;
    /// Write the sample payload into `buf` (`buf.len() == size(id)`).
    fn fill(&self, id: u32, buf: &mut [u8]);
}

/// Deterministic synthetic dataset: "a dummy dataset with random values as
/// the sample content" (paper §IV), with configurable per-sample sizes —
/// or, built with [`SyntheticSource::compressible`], samples that each
/// repeat a short per-sample random motif, so LZ-style codecs find long
/// back-references (real DL corpora — text shards, sparse tensors,
/// annotation JSON — are highly repetitive, unlike white noise). Payloads
/// stay distinct per id and per seed either way.
#[derive(Clone, Debug)]
pub struct SyntheticSource {
    sizes: Vec<u64>,
    seed: u64,
    prefix: String,
    /// Length of the pattern each payload repeats; 0 is white noise.
    motif: usize,
}

impl SyntheticSource {
    pub fn new(seed: u64, sizes: Vec<u64>) -> SyntheticSource {
        assert!(sizes.iter().all(|&s| s > 0), "zero-size sample");
        SyntheticSource {
            sizes,
            seed,
            prefix: "sample".to_string(),
            motif: 0,
        }
    }

    /// `count` samples, all of `size` bytes (the paper's fixed-size sweeps).
    pub fn fixed(seed: u64, count: usize, size: u64) -> SyntheticSource {
        SyntheticSource::new(seed, vec![size; count])
    }

    /// `count` samples of `size` bytes, each repeating a `motif`-byte
    /// pseudo-random pattern (smaller motifs compress harder).
    pub fn compressible(seed: u64, count: usize, size: u64, motif: usize) -> SyntheticSource {
        assert!(motif > 0, "zero-length motif");
        SyntheticSource {
            motif,
            ..SyntheticSource::fixed(seed, count, size)
        }
    }

    pub fn with_prefix(mut self, prefix: &str) -> SyntheticSource {
        self.prefix = prefix.to_string();
        self
    }

    /// The expected payload of a sample (for verification in tests).
    pub fn expected(&self, id: u32) -> Vec<u8> {
        let mut buf = vec![0u8; self.size(id) as usize];
        self.fill(id, &mut buf);
        buf
    }
}

impl SampleSource for SyntheticSource {
    fn count(&self) -> usize {
        self.sizes.len()
    }

    fn name(&self, id: u32) -> String {
        format!("{}_{id:08}", self.prefix)
    }

    fn size(&self, id: u32) -> u64 {
        self.sizes[id as usize]
    }

    fn fill(&self, id: u32, buf: &mut [u8]) {
        debug_assert_eq!(buf.len() as u64, self.sizes[id as usize]);
        if self.motif == 0 {
            return fill_deterministic(buf, self.seed, id as u64);
        }
        let mut motif = vec![0u8; self.motif];
        fill_deterministic(&mut motif, self.seed ^ 0xC0DEC, id as u64);
        for (i, b) in buf.iter_mut().enumerate() {
            *b = motif[i % motif.len()];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_source_shape() {
        let s = SyntheticSource::fixed(1, 10, 512);
        assert_eq!(s.count(), 10);
        assert_eq!(s.size(3), 512);
        assert_eq!(s.name(3), "sample_00000003");
    }

    #[test]
    fn fill_is_deterministic_and_distinct() {
        let s = SyntheticSource::fixed(1, 4, 256);
        assert_eq!(s.expected(0), s.expected(0));
        assert_ne!(s.expected(0), s.expected(1));
        let other_seed = SyntheticSource::fixed(2, 4, 256);
        assert_ne!(s.expected(0), other_seed.expected(0));
    }

    #[test]
    #[should_panic(expected = "zero-size sample")]
    fn zero_size_rejected() {
        SyntheticSource::new(1, vec![512, 0]);
    }

    #[test]
    fn compressible_source_compresses_and_stays_distinct() {
        let s = SyntheticSource::compressible(1, 4, 4096, 64);
        assert_eq!(s.expected(0), s.expected(0));
        assert_ne!(s.expected(0), s.expected(1));
        let enc = crate::codec::CodecKind::Lz.codec().encode(&s.expected(0));
        assert!(
            enc.len() < s.expected(0).len() / 4,
            "motif data should compress at least 4x, got {} -> {}",
            s.expected(0).len(),
            enc.len()
        );
    }
}
