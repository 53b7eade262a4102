//! Binary (wire/HBM) layout of the SPASM format.
//!
//! This is the byte stream a host would DMA into the accelerator's HBM
//! channels: a fixed header, the portfolio's template masks (the opcode
//! LUT content), the COO tile directory, then per tile the interleaved
//! position-encoding words and value quadruples, all little-endian.
//!
//! Layout:
//!
//! ```text
//! header   : magic "SPSM" | version u32 | rows u32 | cols u32 |
//!            tile_size u32 | nnz u64 | paddings u64 |
//!            n_templates u32 | n_tiles u32 | n_instances u64
//! templates: n_templates × u16 (padded to 4-byte alignment)
//! tiles    : n_tiles × (tile_row u32 | tile_col u32 | n_instances u32)
//! stream   : n_instances × (encoding u32 | 4 × f32)
//! checksum : crc32 u32 over all preceding bytes   (version ≥ 2 only)
//! ```
//!
//! Version 2 (the current writer) appends a CRC-32 over the header,
//! template, tile and stream sections, so corruption is detected before
//! any structural parsing trusts the bytes; version-1 streams (no
//! checksum) still decode. Deserialisation additionally validates the
//! header, directory consistency and field ranges, so a corrupted stream
//! is rejected rather than mis-executed.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::crc::{self, crc32};
use crate::encoding::PositionEncoding;
use crate::matrix::{SpasmMatrix, Tile};

/// Magic number opening every serialised SPASM stream.
pub const MAGIC: [u8; 4] = *b"SPSM";

/// Current wire-format version (written by [`SpasmMatrix::to_bytes`]).
pub const VERSION: u32 = 2;

/// Oldest wire-format version [`SpasmMatrix::from_bytes`] still decodes.
pub const MIN_VERSION: u32 = 1;

/// Size of the fixed header in bytes.
pub const HEADER_BYTES: usize = 52;

/// Size of the trailing checksum in bytes (version ≥ 2).
pub const CHECKSUM_BYTES: usize = 4;

/// Errors when decoding a serialised stream.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The stream does not start with the SPASM magic.
    BadMagic,
    /// Unsupported wire-format version.
    BadVersion(u32),
    /// The stream ended before the declared payload.
    Truncated {
        /// What was being read.
        reading: &'static str,
    },
    /// A header or directory field is inconsistent.
    Inconsistent(&'static str),
    /// The stream's trailing CRC-32 does not match its contents
    /// (version ≥ 2): the bytes were corrupted in flight or at rest.
    ChecksumMismatch {
        /// The checksum stored in the stream.
        stored: u32,
        /// The checksum computed over the received bytes.
        computed: u32,
    },
    /// A v3 container is missing a section the reader requires.
    MissingSection {
        /// The absent section's id.
        id: u32,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "stream does not start with the SPSM magic"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::Truncated { reading } => {
                write!(f, "stream truncated while reading {reading}")
            }
            WireError::Inconsistent(what) => write!(f, "inconsistent stream: {what}"),
            WireError::ChecksumMismatch { stored, computed } => write!(
                f,
                "stream checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            WireError::MissingSection { id } => {
                write!(f, "container is missing required section {id}")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl SpasmMatrix {
    /// Serialises the matrix into its wire/HBM byte layout (version 2,
    /// with a trailing CRC-32).
    ///
    /// # Examples
    ///
    /// ```
    /// use spasm_format::{SpasmMatrix, SubmatrixMap};
    /// use spasm_patterns::{DecompositionTable, TemplateSet};
    /// use spasm_sparse::Coo;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let coo = Coo::from_triplets(4, 4, vec![(1, 2, 3.0)])?;
    /// let table = DecompositionTable::build(&TemplateSet::table_v_set(0));
    /// let m = SpasmMatrix::encode(&SubmatrixMap::from_coo(&coo), &table, 4)?;
    /// let bytes = m.to_bytes();
    /// assert_eq!(SpasmMatrix::from_bytes(&bytes)?, m);
    /// # Ok(())
    /// # }
    /// ```
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.wire_len());
        let mut crc = u32::MAX;
        self.walk_sections(VERSION, &mut |chunk| {
            crc = crc::update(crc, chunk);
            buf.put_slice(chunk);
        });
        buf.put_u32_le(!crc);
        buf.freeze()
    }

    /// Serialises the matrix in the legacy version-1 layout (no trailing
    /// checksum). Kept for compatibility testing and for peers that have
    /// not upgraded; new streams should use [`SpasmMatrix::to_bytes`].
    pub fn to_bytes_v1(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.wire_len() - CHECKSUM_BYTES);
        self.walk_sections(1, &mut |chunk| buf.put_slice(chunk));
        buf.freeze()
    }

    /// The raw CRC register after the canonical v2 header, template and
    /// tile-directory sections: what the instance stream's records are
    /// folded onto. Streamed from the section walker, so no buffer is
    /// built.
    pub(crate) fn prefix_crc(&self) -> u32 {
        let mut crc = u32::MAX;
        let mut out = Chunker {
            buf: [0; CHUNK_BYTES],
            len: 0,
            sink: &mut |chunk: &[u8]| crc = crc::update(crc, chunk),
        };
        self.put_prefix(VERSION, &mut out);
        out.finish();
        crc
    }

    /// Byte offset of the instance stream: the header, the padded
    /// template masks and the tile directory come before it.
    pub(crate) fn stream_offset(&self) -> usize {
        let n_templates = self.template_masks().len();
        HEADER_BYTES + (n_templates + n_templates % 2) * 2 + self.tiles().len() * 12
    }

    /// Length of the v2 stream, checksum included.
    pub(crate) fn wire_len(&self) -> usize {
        self.stream_offset() + self.n_instances() * 20 + CHECKSUM_BYTES
    }

    /// Walks the header, template, tile and stream sections, with
    /// `version` stamped in the header, and hands their bytes to `sink`
    /// in chunks of [`CHUNK_BYTES`] (the last one shorter). This is the
    /// one definition of the canonical byte layout, with
    /// [`record_words`] for the stream: [`SpasmMatrix::to_bytes`]
    /// collects the chunks, and the fingerprint CRCs the sections before
    /// the stream as they arrive and each tile's records word by word.
    fn walk_sections(&self, version: u32, sink: &mut impl FnMut(&[u8])) {
        let mut out = Chunker {
            buf: [0; CHUNK_BYTES],
            len: 0,
            sink,
        };
        self.put_prefix(version, &mut out);
        for (&e, v) in self.encodings().iter().zip(self.values().chunks_exact(4)) {
            let mut record = [0u8; 20];
            for (k, w) in record_words(e, v).into_iter().enumerate() {
                record[4 * k..4 * k + 4].copy_from_slice(&w.to_le_bytes());
            }
            out.put(&record);
        }
        out.finish();
    }

    /// Puts the header, template and tile-directory sections: everything
    /// before the instance stream.
    fn put_prefix<F: FnMut(&[u8])>(&self, version: u32, out: &mut Chunker<'_, F>) {
        out.put(&MAGIC);
        out.put(&version.to_le_bytes());
        out.put(&self.rows().to_le_bytes());
        out.put(&self.cols().to_le_bytes());
        out.put(&self.tile_size().to_le_bytes());
        out.put(&(self.nnz() as u64).to_le_bytes());
        out.put(&self.paddings().to_le_bytes());
        out.put(&(self.template_masks().len() as u32).to_le_bytes());
        out.put(&(self.tiles().len() as u32).to_le_bytes());
        out.put(&(self.n_instances() as u64).to_le_bytes());
        for &mask in self.template_masks() {
            out.put(&mask.to_le_bytes());
        }
        if self.template_masks().len() % 2 == 1 {
            out.put(&[0, 0]); // alignment pad
        }
        for t in self.tiles() {
            let mut record = [0u8; 12];
            record[0..4].copy_from_slice(&t.tile_row.to_le_bytes());
            record[4..8].copy_from_slice(&t.tile_col.to_le_bytes());
            record[8..12].copy_from_slice(&(t.n_instances as u32).to_le_bytes());
            out.put(&record);
        }
    }

    /// Reconstructs a matrix from its wire layout (versions 1 and 2).
    ///
    /// For version-2 streams the trailing CRC-32 is verified over the
    /// declared payload before the template, tile and stream sections are
    /// parsed.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on bad magic/version, truncation, checksum
    /// mismatch, or any internal inconsistency (directory sums, field
    /// ranges).
    pub fn from_bytes(data: &[u8]) -> Result<SpasmMatrix, WireError> {
        fn need(data: &[u8], n: usize, reading: &'static str) -> Result<(), WireError> {
            if data.len() < n {
                Err(WireError::Truncated { reading })
            } else {
                Ok(())
            }
        }
        let full = data;
        let mut data = data;
        need(data, HEADER_BYTES, "header")?;
        let mut magic = [0u8; 4];
        data.copy_to_slice(&mut magic);
        if magic != MAGIC {
            return Err(WireError::BadMagic);
        }
        let version = data.get_u32_le();
        if !(MIN_VERSION..=VERSION).contains(&version) {
            return Err(WireError::BadVersion(version));
        }
        let rows = data.get_u32_le();
        let cols = data.get_u32_le();
        let tile_size = data.get_u32_le();
        let nnz = data.get_u64_le() as usize;
        let paddings = data.get_u64_le();
        let n_templates = data.get_u32_le() as usize;
        let n_tiles = data.get_u32_le() as usize;
        let n_instances64 = data.get_u64_le();

        // Sizes in u128 so hostile counts cannot overflow the arithmetic;
        // anything bigger than the buffer is simply truncated.
        let padded_templates = n_templates + n_templates % 2;
        let payload_len = HEADER_BYTES as u128
            + padded_templates as u128 * 2
            + n_tiles as u128 * 12
            + u128::from(n_instances64) * 20;
        if payload_len > full.len() as u128 {
            return Err(WireError::Truncated { reading: "payload" });
        }
        let payload_len = payload_len as usize;
        let n_instances = n_instances64 as usize;

        let mut verified_crc = None;
        if version >= 2 {
            need(full, payload_len + CHECKSUM_BYTES, "checksum")?;
            let stored = u32::from_le_bytes([
                full[payload_len],
                full[payload_len + 1],
                full[payload_len + 2],
                full[payload_len + 3],
            ]);
            let computed = crc32(&full[..payload_len]);
            if stored != computed {
                return Err(WireError::ChecksumMismatch { stored, computed });
            }
            verified_crc = Some(computed);
        }

        need(data, padded_templates * 2, "template masks")?;
        let mut templates = Vec::with_capacity(n_templates);
        let mut pad = 0u16;
        for i in 0..padded_templates {
            let m = data.get_u16_le();
            if i < n_templates {
                templates.push(m);
            } else {
                pad = m;
            }
        }

        need(data, n_tiles * 12, "tile directory")?;
        let mut tiles = Vec::with_capacity(n_tiles);
        let mut cursor = 0usize;
        for _ in 0..n_tiles {
            let tile_row = data.get_u32_le();
            let tile_col = data.get_u32_le();
            let count = data.get_u32_le() as usize;
            tiles.push(Tile {
                tile_row,
                tile_col,
                first_instance: cursor,
                n_instances: count,
            });
            cursor = cursor.saturating_add(count);
        }

        need(data, n_instances * 20, "instance stream")?;
        let mut encodings = Vec::with_capacity(n_instances);
        let mut values = Vec::with_capacity(n_instances * 4);
        for _ in 0..n_instances {
            encodings.push(PositionEncoding::from_bits(data.get_u32_le()));
            for _ in 0..4 {
                values.push(data.get_f32_le());
            }
        }

        // Every field re-serialises verbatim except the alignment pad,
        // which the writer always zeroes: only a zero pad makes the
        // verified CRC the canonical payload's.
        SpasmMatrix::from_raw_parts(
            rows,
            cols,
            tile_size,
            nnz,
            paddings,
            templates,
            tiles,
            encodings,
            values.into(),
            verified_crc.filter(|_| pad == 0),
        )
    }
}

/// One 20-byte stream record as the five little-endian words it is
/// written as: the position word, then the four value slots.
pub(crate) fn record_words(e: PositionEncoding, v: &[f32]) -> [u32; 5] {
    [
        e.bits(),
        v[0].to_bits(),
        v[1].to_bits(),
        v[2].to_bits(),
        v[3].to_bits(),
    ]
}

/// Bytes per chunk handed out by the section walker: a multiple of 8, so
/// the sliced CRC folds whole words until the last chunk.
const CHUNK_BYTES: usize = 8192;

/// Packs small writes into fixed-size chunks for a sink.
struct Chunker<'a, F: FnMut(&[u8])> {
    buf: [u8; CHUNK_BYTES],
    len: usize,
    sink: &'a mut F,
}

impl<F: FnMut(&[u8])> Chunker<'_, F> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        let end = self.len + bytes.len();
        if end < CHUNK_BYTES {
            self.buf[self.len..end].copy_from_slice(bytes);
            self.len = end;
        } else {
            self.spill(bytes);
        }
    }

    /// The slow path of [`Chunker::put`]: fills and flushes whole chunks.
    #[inline(never)]
    fn spill(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let n = bytes.len().min(CHUNK_BYTES - self.len);
            self.buf[self.len..self.len + n].copy_from_slice(&bytes[..n]);
            self.len += n;
            bytes = &bytes[n..];
            if self.len == CHUNK_BYTES {
                (self.sink)(&self.buf);
                self.len = 0;
            }
        }
    }

    fn finish(self) {
        if self.len > 0 {
            (self.sink)(&self.buf[..self.len]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::submatrix::SubmatrixMap;
    use spasm_patterns::{DecompositionTable, GridSize, Template, TemplateSet};
    use spasm_sparse::Coo;

    fn sample() -> SpasmMatrix {
        let mut t = vec![];
        for r in 0..4u32 {
            for c in 0..4u32 {
                t.push((r, c, (r * 4 + c + 1) as f32));
            }
        }
        t.push((10, 3, -2.5));
        t.push((3, 12, 7.0));
        let coo = Coo::from_triplets(16, 16, t).unwrap();
        let table = DecompositionTable::build(&TemplateSet::table_v_set(0));
        SpasmMatrix::encode(&SubmatrixMap::from_coo(&coo), &table, 8).unwrap()
    }

    /// Recomputes and restamps the trailing CRC of a mutated v2 buffer,
    /// so tests can exercise the structural validators behind it.
    fn restamp(b: &mut [u8]) {
        let payload = b.len() - CHECKSUM_BYTES;
        let crc = crc32(&b[..payload]).to_le_bytes();
        b[payload..].copy_from_slice(&crc);
    }

    #[test]
    fn round_trip() {
        let m = sample();
        let bytes = m.to_bytes();
        let back = SpasmMatrix::from_bytes(&bytes).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn writes_current_version() {
        let b = sample().to_bytes();
        assert_eq!(u32::from_le_bytes([b[4], b[5], b[6], b[7]]), VERSION);
        assert_eq!(VERSION, 2);
    }

    #[test]
    fn version_1_streams_still_decode() {
        let m = sample();
        let v1 = m.to_bytes_v1();
        assert_eq!(u32::from_le_bytes([v1[4], v1[5], v1[6], v1[7]]), 1);
        // No checksum trailer in v1.
        assert_eq!(v1.len() + CHECKSUM_BYTES, m.to_bytes().len());
        let back = SpasmMatrix::from_bytes(&v1).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn stream_size_matches_accounting() {
        let m = sample();
        let bytes = m.to_bytes();
        let expected = HEADER_BYTES
            + (m.template_masks().len() + m.template_masks().len() % 2) * 2
            + m.tiles().len() * 12
            + m.n_instances() * 20
            + CHECKSUM_BYTES;
        assert_eq!(bytes.len(), expected);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut b = sample().to_bytes().to_vec();
        b[0] = b'X';
        assert_eq!(SpasmMatrix::from_bytes(&b), Err(WireError::BadMagic));
    }

    #[test]
    fn bad_version_rejected() {
        let mut b = sample().to_bytes().to_vec();
        b[4] = 99;
        assert!(matches!(
            SpasmMatrix::from_bytes(&b),
            Err(WireError::BadVersion(99))
        ));
        let mut b0 = sample().to_bytes().to_vec();
        b0[4] = 0;
        assert!(matches!(
            SpasmMatrix::from_bytes(&b0),
            Err(WireError::BadVersion(0))
        ));
    }

    #[test]
    fn truncation_rejected_at_every_boundary() {
        let b = sample().to_bytes();
        for cut in [3usize, 20, 47, 50, 70, b.len() - 1] {
            let r = SpasmMatrix::from_bytes(&b[..cut.min(b.len() - 1)]);
            assert!(r.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn missing_checksum_is_truncation() {
        let m = sample();
        let b = m.to_bytes();
        let r = SpasmMatrix::from_bytes(&b[..b.len() - CHECKSUM_BYTES]);
        assert_eq!(
            r,
            Err(WireError::Truncated {
                reading: "checksum"
            })
        );
    }

    #[test]
    fn checksum_detects_stream_corruption() {
        let m = sample();
        let b = m.to_bytes().to_vec();
        // Flip one bit in each section past the magic/version and check
        // the CRC (or a header-derived truncation) catches it.
        for byte in [8usize, 40, HEADER_BYTES + 1, b.len() - CHECKSUM_BYTES - 3] {
            let mut c = b.clone();
            c[byte] ^= 0x10;
            let r = SpasmMatrix::from_bytes(&c);
            assert!(
                matches!(
                    r,
                    Err(WireError::ChecksumMismatch { .. })
                        | Err(WireError::Truncated { .. })
                        | Err(WireError::Inconsistent(_))
                ),
                "flip at {byte} gave {r:?}"
            );
        }
    }

    #[test]
    fn corrupt_directory_rejected_by_checksum() {
        let m = sample();
        let mut b = m.to_bytes().to_vec();
        let dir_off = HEADER_BYTES + (m.template_masks().len() + m.template_masks().len() % 2) * 2;
        b[dir_off + 8] = 0xFF;
        assert!(matches!(
            SpasmMatrix::from_bytes(&b),
            Err(WireError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn corrupt_directory_rejected_structurally() {
        // Restamp the CRC after corrupting the count, so the structural
        // validator (directory sums) is what rejects the stream.
        let m = sample();
        let mut b = m.to_bytes().to_vec();
        let dir_off = HEADER_BYTES + (m.template_masks().len() + m.template_masks().len() % 2) * 2;
        b[dir_off + 8] = 0xFF;
        restamp(&mut b);
        assert!(matches!(
            SpasmMatrix::from_bytes(&b),
            Err(WireError::Inconsistent(_)) | Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn out_of_range_t_idx_rejected() {
        let m = sample();
        let mut b = m.to_bytes().to_vec();
        // Declare a 15-template portfolio (the 16-slot padded layout is
        // unchanged) and point the first instance at t_idx 15.
        b[36] = 15; // n_templates, little-endian u32 at offset 36
        let stream_off = HEADER_BYTES + 16 * 2 + m.tiles().len() * 12;
        b[stream_off + 3] = 0xF0 | (b[stream_off + 3] & 0x0F);
        restamp(&mut b);
        assert_eq!(
            SpasmMatrix::from_bytes(&b),
            Err(WireError::Inconsistent("t_idx beyond portfolio"))
        );
    }

    #[test]
    fn hostile_instance_count_is_rejected_without_allocating() {
        // A header declaring ~10^18 instances must fail fast on
        // truncation, not overflow size arithmetic or try to allocate.
        let m = sample();
        let mut b = m.to_bytes().to_vec();
        b[44..52].copy_from_slice(&u64::MAX.to_le_bytes());
        restamp(&mut b);
        assert_eq!(
            SpasmMatrix::from_bytes(&b),
            Err(WireError::Truncated { reading: "payload" })
        );
    }

    /// A nonzero template alignment pad passes the decoder but is not
    /// what the writer emits, so its CRC must not seed the fingerprint.
    #[test]
    fn non_canonical_pad_is_not_seeded() {
        // Four rows plus one diagonal: an odd portfolio, so a pad word
        // follows the masks.
        let s = GridSize::S4;
        let mut templates: Vec<Template> = (0..4).map(|r| Template::row(s, r)).collect();
        templates.push(Template::diag(s, 0));
        let table = DecompositionTable::build(&TemplateSet::new(s, "odd", templates));
        let coo = Coo::from_triplets(8, 8, vec![(1, 2, 3.0), (6, 5, -1.0)]).unwrap();
        let m = SpasmMatrix::encode(&SubmatrixMap::from_coo(&coo), &table, 8).unwrap();
        let mut b = m.to_bytes().to_vec();
        let pad = HEADER_BYTES + 5 * 2;
        b[pad] = 0xA5;
        restamp(&mut b);
        let back = SpasmMatrix::from_bytes(&b).unwrap();
        assert_eq!(back, m);
        assert_ne!(
            crate::MatrixFingerprint::of_wire_bytes(&b).unwrap(),
            m.fingerprint()
        );
        assert_eq!(back.fingerprint(), m.fingerprint());
    }

    #[test]
    fn decoded_stream_executes_identically() {
        let m = sample();
        let back = SpasmMatrix::from_bytes(&m.to_bytes()).unwrap();
        let x: Vec<f32> = (0..16).map(|i| i as f32 * 0.5).collect();
        assert_eq!(m.spmv_alloc(&x).unwrap(), back.spmv_alloc(&x).unwrap());
    }
}
