//! The 128-bit sample entry (paper §III-B1, Fig. 3b).
//!
//! Each sample in the directory is described by exactly two 64-bit words:
//!
//! ```text
//! unit 1: | NID (16 bits) | key (48 bits)            |
//! unit 2: | offset (40)   | len (23)       | V (1)   |
//! ```
//!
//! * `NID` — storage node holding the sample;
//! * `key` — 48-bit hash of the sample name (and class attributes);
//! * `offset`/`len` — byte location on that node's NVMe device;
//! * `V` — whether a copy currently sits in the local sample cache.
//!
//! 16 bytes per sample is what makes a full in-memory replica of a 50 M
//! sample directory cost only 0.8 GB per node (§III-B2).

use simkit::rng::fnv1a;

/// Maximum offset encodable in 40 bits (1 TiB addressing per device).
pub const MAX_OFFSET: u64 = (1 << 40) - 1;

/// Maximum sample length encodable in 23 bits (8 MiB - 1).
pub const MAX_LEN: u64 = (1 << 23) - 1;

/// Mask for the 48-bit key.
pub const KEY_MASK: u64 = (1 << 48) - 1;

/// A packed 128-bit sample directory entry.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct SampleEntry {
    unit1: u64,
    unit2: u64,
}

impl SampleEntry {
    /// Pack an entry. Panics if a field exceeds its bit width (a simulation
    /// bug: the paper's format simply cannot express it).
    pub fn new(nid: u16, key: u64, offset: u64, len: u64, valid: bool) -> SampleEntry {
        assert!(key <= KEY_MASK, "key exceeds 48 bits");
        assert!(offset <= MAX_OFFSET, "offset exceeds 40 bits");
        assert!(
            len > 0 && len <= MAX_LEN,
            "len must fit in 23 bits and be nonzero"
        );
        SampleEntry {
            unit1: ((nid as u64) << 48) | key,
            unit2: (offset << 24) | (len << 1) | (valid as u64),
        }
    }

    /// 48-bit key for a sample name (FNV-1a truncated), as the paper derives
    /// keys from "hash value of a file/sample name and other attributes".
    pub fn key_for(name: &str) -> u64 {
        fnv1a(name.as_bytes()) & KEY_MASK
    }

    #[inline]
    pub fn nid(self) -> u16 {
        (self.unit1 >> 48) as u16
    }

    #[inline]
    pub fn key(self) -> u64 {
        self.unit1 & KEY_MASK
    }

    #[inline]
    pub fn offset(self) -> u64 {
        self.unit2 >> 24
    }

    #[inline]
    pub fn len(self) -> u64 {
        (self.unit2 >> 1) & MAX_LEN
    }

    #[inline]
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// The V field: sample present in the local sample cache.
    #[inline]
    pub fn valid(self) -> bool {
        self.unit2 & 1 == 1
    }

    /// Raw words (for serialization / wire-size accounting).
    pub fn raw(self) -> (u64, u64) {
        (self.unit1, self.unit2)
    }

    pub fn from_raw(unit1: u64, unit2: u64) -> SampleEntry {
        SampleEntry { unit1, unit2 }
    }
}

impl std::fmt::Debug for SampleEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SampleEntry")
            .field("nid", &self.nid())
            .field("key", &format_args!("{:#014x}", self.key()))
            .field("offset", &self.offset())
            .field("len", &self.len())
            .field("valid", &self.valid())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_is_exactly_128_bits() {
        assert_eq!(std::mem::size_of::<SampleEntry>(), 16);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let e = SampleEntry::new(513, 0xABCDEF012345, 987_654_321, 147_000, true);
        assert_eq!(e.nid(), 513);
        assert_eq!(e.key(), 0xABCDEF012345);
        assert_eq!(e.offset(), 987_654_321);
        assert_eq!(e.len(), 147_000);
        assert!(e.valid());
    }

    #[test]
    fn extremes_roundtrip() {
        let e = SampleEntry::new(u16::MAX, KEY_MASK, MAX_OFFSET, MAX_LEN, false);
        assert_eq!(e.nid(), u16::MAX);
        assert_eq!(e.key(), KEY_MASK);
        assert_eq!(e.offset(), MAX_OFFSET);
        assert_eq!(e.len(), MAX_LEN);
        assert!(!e.valid());
    }

    #[test]
    fn raw_words_roundtrip() {
        let e = SampleEntry::new(3, 99, 12345, 678, true);
        let (u1, u2) = e.raw();
        assert_eq!(SampleEntry::from_raw(u1, u2), e);
    }

    #[test]
    #[should_panic(expected = "offset exceeds 40 bits")]
    fn oversized_offset_rejected() {
        SampleEntry::new(0, 0, MAX_OFFSET + 1, 1, false);
    }

    #[test]
    #[should_panic(expected = "len must fit")]
    fn oversized_len_rejected() {
        SampleEntry::new(0, 0, 0, MAX_LEN + 1, false);
    }

    #[test]
    #[should_panic(expected = "len must fit")]
    fn zero_len_rejected() {
        SampleEntry::new(0, 0, 0, 0, false);
    }

    #[test]
    fn key_for_is_48_bits_and_stable() {
        let k = SampleEntry::key_for("train/sample_000001.jpg");
        assert!(k <= KEY_MASK);
        assert_eq!(k, SampleEntry::key_for("train/sample_000001.jpg"));
        assert_ne!(k, SampleEntry::key_for("train/sample_000002.jpg"));
    }
}
