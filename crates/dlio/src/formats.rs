//! On-disk dataset container formats.
//!
//! The paper (§II-B) discusses why preprocessed container formats
//! (TFRecord, the CIFAR binary format) don't solve the random-small-read
//! problem: they are read sequentially through a bounded shuffle buffer,
//! which only partially shuffles. TFRecord is implemented for real so the
//! pipeline experiments and the partial-shuffle demonstration run against
//! the genuine article.

/// CRC-32C (Castagnoli), as used by TFRecord framing.
pub fn crc32c(data: &[u8]) -> u32 {
    const POLY: u32 = 0x82F6_3B78;
    let mut crc = !0u32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (POLY & mask);
        }
    }
    !crc
}

/// TFRecord's masked CRC.
pub fn masked_crc(data: &[u8]) -> u32 {
    let crc = crc32c(data);
    crc.rotate_right(15).wrapping_add(0xa282_ead8)
}

/// Errors from container parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatError {
    Truncated,
    BadLengthCrc,
    BadDataCrc,
}

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FormatError::Truncated => write!(f, "record truncated"),
            FormatError::BadLengthCrc => write!(f, "length CRC mismatch"),
            FormatError::BadDataCrc => write!(f, "data CRC mismatch"),
        }
    }
}

impl std::error::Error for FormatError {}

/// Serialize records into TFRecord framing:
/// `u64 length | u32 masked_crc(length) | data | u32 masked_crc(data)`.
pub fn tfrecord_write(records: &[&[u8]]) -> Vec<u8> {
    let total: usize = records.iter().map(|r| r.len() + 16).sum();
    let mut out = Vec::with_capacity(total);
    for r in records {
        let len = (r.len() as u64).to_le_bytes();
        out.extend_from_slice(&len);
        out.extend_from_slice(&masked_crc(&len).to_le_bytes());
        out.extend_from_slice(r);
        out.extend_from_slice(&masked_crc(r).to_le_bytes());
    }
    out
}

/// Iterate TFRecord frames, verifying CRCs.
pub fn tfrecord_read(mut buf: &[u8]) -> Result<Vec<Vec<u8>>, FormatError> {
    let mut out = Vec::new();
    while !buf.is_empty() {
        if buf.len() < 12 {
            return Err(FormatError::Truncated);
        }
        let mut len_bytes = [0u8; 8];
        len_bytes.copy_from_slice(&buf[..8]);
        let len = u64::from_le_bytes(len_bytes) as usize;
        let len_crc = u32::from_le_bytes(buf[8..12].try_into().unwrap());
        if len_crc != masked_crc(&len_bytes) {
            return Err(FormatError::BadLengthCrc);
        }
        if buf.len() < 12 + len + 4 {
            return Err(FormatError::Truncated);
        }
        let data = &buf[12..12 + len];
        let data_crc = u32::from_le_bytes(buf[12 + len..12 + len + 4].try_into().unwrap());
        if data_crc != masked_crc(data) {
            return Err(FormatError::BadDataCrc);
        }
        out.push(data.to_vec());
        buf = &buf[12 + len + 4..];
    }
    Ok(out)
}

/// Byte offsets of each record's *data* within a TFRecord buffer, without
/// copying — what DLFS's sample-level directory indexes ("we are able to
/// have direct access to any samples in a TFRecord file").
pub fn tfrecord_index(buf: &[u8]) -> Result<Vec<(u64, u64)>, FormatError> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos < buf.len() {
        if buf.len() - pos < 12 {
            return Err(FormatError::Truncated);
        }
        let mut len_bytes = [0u8; 8];
        len_bytes.copy_from_slice(&buf[pos..pos + 8]);
        let len = u64::from_le_bytes(len_bytes) as usize;
        if buf.len() - pos < 12 + len + 4 {
            return Err(FormatError::Truncated);
        }
        out.push(((pos + 12) as u64, len as u64));
        pos += 12 + len + 4;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32c_known_vectors() {
        // RFC 3720 test vector: 32 bytes of zeros.
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        // "123456789"
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn tfrecord_roundtrip() {
        let recs: Vec<Vec<u8>> = (0..10).map(|i| vec![i as u8; 100 + i * 7]).collect();
        let refs: Vec<&[u8]> = recs.iter().map(|r| r.as_slice()).collect();
        let buf = tfrecord_write(&refs);
        let back = tfrecord_read(&buf).unwrap();
        assert_eq!(back, recs);
    }

    #[test]
    fn tfrecord_detects_corruption() {
        let buf = tfrecord_write(&[b"hello world"]);
        let mut bad = buf.to_vec();
        bad[14] ^= 0xFF; // flip a data byte
        assert_eq!(tfrecord_read(&bad), Err(FormatError::BadDataCrc));
        let mut bad_len = buf.to_vec();
        bad_len[0] ^= 0x01;
        assert_eq!(tfrecord_read(&bad_len), Err(FormatError::BadLengthCrc));
        assert_eq!(tfrecord_read(&buf[..5]), Err(FormatError::Truncated));
    }

    #[test]
    fn tfrecord_index_points_at_payloads() {
        let recs: Vec<Vec<u8>> = (0..5).map(|i| vec![0xA0 + i as u8; 50]).collect();
        let refs: Vec<&[u8]> = recs.iter().map(|r| r.as_slice()).collect();
        let buf = tfrecord_write(&refs);
        let idx = tfrecord_index(&buf).unwrap();
        assert_eq!(idx.len(), 5);
        for (i, &(off, len)) in idx.iter().enumerate() {
            assert_eq!(len, 50);
            assert_eq!(&buf[off as usize..(off + len) as usize], recs[i].as_slice());
        }
    }
}
