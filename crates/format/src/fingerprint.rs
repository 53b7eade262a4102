//! Content fingerprints over the canonical v2 wire stream.
//!
//! A [`MatrixFingerprint`] identifies a matrix by *content*, not by
//! identity: it combines the CRC-32 of the full canonical byte stream
//! (the same [`crate::crc32`] that guards the wire checksum) with the
//! stream length and the shape fields a serving front-end routes on
//! (rows, cols, tile size, instance count). Two matrices share a
//! fingerprint exactly when their canonical v2 serialisations are
//! byte-for-byte equal — matrices that differ only in their values
//! produce different streams and therefore different fingerprints.
//!
//! The extra length/shape fields make accidental collisions require a
//! simultaneous CRC-32 collision *and* identical length and shape, so
//! false sharing between distinct catalog entries is negligible in
//! practice (and impossible between matrices of different sizes).
//!
//! The fingerprint is *defined* over the canonical bytes, but
//! [`SpasmMatrix::fingerprint`] never builds them: the matrix caches its
//! payload CRC, and the CRC of each tile's run of stream records as a
//! segment that `crc32_combine` algebra folds onto the sections before
//! the stream, one step per tile. Decoding a v2 stream seeds the payload
//! CRC with the one the decoder verified. A values-only patch moves the
//! payload CRC and the patched tile's segment, whichever are known, by
//! CRC-32 linearity in O(patched slots · log n). A
//! splice carries the segments of untouched tiles over and checksums
//! only the re-encoded tiles, so re-keying a structural delta reads
//! the touched tiles, not the whole stream. Segments missing after an
//! encode or a cold load are filled in one pass on first use.

use crate::crc::crc32;
use crate::matrix::SpasmMatrix;
use crate::serialize::{WireError, CHECKSUM_BYTES, HEADER_BYTES, MAGIC, VERSION};

/// A content fingerprint of a matrix's canonical v2 wire stream.
///
/// Cheap to copy, hash and order — suitable as a catalog key. Construct
/// one with [`SpasmMatrix::fingerprint`] (from the matrix's cached
/// payload CRC) or [`MatrixFingerprint::of_wire_bytes`] when the v2
/// stream is already in hand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MatrixFingerprint {
    /// CRC-32 (IEEE) over the canonical stream's payload — everything up
    /// to the trailing wire checksum. The checksum itself is excluded
    /// because a CRC computed over a message followed by its own CRC
    /// collapses to a content-independent residue.
    crc: u32,
    /// Length of the canonical stream in bytes.
    len: u64,
    /// Dense row count.
    rows: u32,
    /// Dense column count.
    cols: u32,
    /// Tile edge length.
    tile_size: u32,
    /// Template-pattern instances in the stream.
    n_instances: u64,
}

impl MatrixFingerprint {
    /// Fingerprints an in-memory v2 wire stream without decoding it.
    ///
    /// Only the fixed-size header is parsed (magic, version and the shape
    /// fields); the CRC runs over the whole buffer. The stream must be a
    /// version-2 stream — the canonical serialisation — because the
    /// fingerprint is defined over canonical bytes; decode legacy v1
    /// streams first and fingerprint via [`SpasmMatrix::fingerprint`].
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] when shorter than a header,
    /// [`WireError::BadMagic`] / [`WireError::BadVersion`] when the
    /// stream is not a v2 SPASM stream.
    pub fn of_wire_bytes(data: &[u8]) -> Result<Self, WireError> {
        if data.len() < HEADER_BYTES {
            return Err(WireError::Truncated { reading: "header" });
        }
        let word =
            |at: usize| u32::from_le_bytes([data[at], data[at + 1], data[at + 2], data[at + 3]]);
        if data[0..4] != MAGIC {
            return Err(WireError::BadMagic);
        }
        let version = word(4);
        if version != VERSION {
            return Err(WireError::BadVersion(version));
        }
        let mut wide = [0u8; 8];
        wide.copy_from_slice(&data[44..52]);
        let payload = data.len().saturating_sub(CHECKSUM_BYTES);
        Ok(MatrixFingerprint {
            crc: crc32(&data[..payload]),
            len: data.len() as u64,
            rows: word(8),
            cols: word(12),
            tile_size: word(16),
            n_instances: u64::from_le_bytes(wide),
        })
    }

    /// Dense row count recorded in the fingerprint.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Dense column count recorded in the fingerprint.
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Canonical stream length in bytes.
    pub fn stream_len(&self) -> u64 {
        self.len
    }

    /// CRC-32 of the canonical stream — handy for log lines.
    pub fn crc(&self) -> u32 {
        self.crc
    }

    /// A compact `crc:len` display token for logs and reports.
    pub fn token(&self) -> String {
        format!("{:08x}:{}", self.crc, self.len)
    }
}

impl SpasmMatrix {
    /// Computes the content fingerprint of this matrix's canonical v2
    /// serialisation (see [`MatrixFingerprint`]).
    ///
    /// Always equal to `MatrixFingerprint::of_wire_bytes(&self.to_bytes())`,
    /// but infallible, and it never builds the stream: the shape fields
    /// and the length come straight from the matrix, and the payload CRC
    /// is cached inside it. A matrix decoded by
    /// [`SpasmMatrix::from_bytes`] starts with the CRC the decoder
    /// verified. Otherwise the CRC is folded from per-tile segments: the
    /// CRC of the header, template and tile-directory sections, then per
    /// tile its records' CRC shifted in by `crc32_combine` algebra. The
    /// segments survive [`SpasmMatrix::spliced`] for every tile it does
    /// not re-encode, and [`SpasmMatrix::patch_values`] moves them by
    /// CRC-32 linearity (rewriting a 4-byte slot with `t` bytes after it
    /// in its segment XORs in the old/new difference shifted past those
    /// `t` bytes). Only a matrix with no segments yet (a fresh encode)
    /// pays one pass over the stream, on its first fingerprint.
    pub fn fingerprint(&self) -> MatrixFingerprint {
        MatrixFingerprint {
            crc: self.payload_crc(),
            len: self.wire_len() as u64,
            rows: self.rows(),
            cols: self.cols(),
            tile_size: self.tile_size(),
            n_instances: self.n_instances() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::submatrix::SubmatrixMap;
    use spasm_patterns::{DecompositionTable, TemplateSet};
    use spasm_sparse::Coo;

    fn encode(triplets: Vec<(u32, u32, f32)>) -> SpasmMatrix {
        let coo = Coo::from_triplets(16, 16, triplets).unwrap();
        let table = DecompositionTable::build(&TemplateSet::table_v_set(0));
        SpasmMatrix::encode(&SubmatrixMap::from_coo(&coo), &table, 16).unwrap()
    }

    #[test]
    fn fingerprint_matches_wire_bytes() {
        let m = encode(vec![(0, 0, 1.0), (3, 7, 2.0), (15, 15, -0.5)]);
        let direct = m.fingerprint();
        let from_wire = MatrixFingerprint::of_wire_bytes(&m.to_bytes()).unwrap();
        assert_eq!(direct, from_wire);
        assert_eq!(direct.rows(), 16);
        assert_eq!(direct.cols(), 16);
        assert_eq!(direct.stream_len(), m.to_bytes().len() as u64);
    }

    #[test]
    fn value_only_differences_change_the_fingerprint() {
        let a = encode(vec![(0, 0, 1.0), (3, 7, 2.0)]);
        let b = encode(vec![(0, 0, 1.0), (3, 7, 2.5)]);
        assert_ne!(a.to_bytes(), b.to_bytes());
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn identical_content_shares_a_fingerprint() {
        let a = encode(vec![(1, 2, 3.0), (9, 4, -1.0)]);
        let b = encode(vec![(1, 2, 3.0), (9, 4, -1.0)]);
        assert_eq!(a.to_bytes(), b.to_bytes());
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn rejects_foreign_and_legacy_streams() {
        let m = encode(vec![(0, 0, 1.0)]);
        assert_eq!(
            MatrixFingerprint::of_wire_bytes(&[0u8; 8]),
            Err(WireError::Truncated { reading: "header" })
        );
        let mut bad = m.to_bytes().to_vec();
        bad[0] = b'X';
        assert_eq!(
            MatrixFingerprint::of_wire_bytes(&bad),
            Err(WireError::BadMagic)
        );
        assert_eq!(
            MatrixFingerprint::of_wire_bytes(&m.to_bytes_v1()),
            Err(WireError::BadVersion(1))
        );
    }

    #[test]
    fn token_is_stable_per_content() {
        let m = encode(vec![(2, 2, 4.0)]);
        assert_eq!(m.fingerprint().token(), m.fingerprint().token());
        assert!(m.fingerprint().token().contains(':'));
    }
}
