//! The 32-bit position-encoding word.

use std::fmt;

use crate::error::FormatError;

/// Edge length of a local pattern: SPASM fixes 4×4 submatrices in the
/// shipped format (Section V-B).
pub const PATTERN_EDGE: u32 = 4;

/// Maximum tile edge length: the 13-bit submatrix index fields address
/// `2¹³` submatrices of 4 rows/columns each.
pub const MAX_TILE_SIZE: u32 = (1 << 13) * PATTERN_EDGE;

/// Submatrices per tile edge at `tile_size`.
///
/// # Errors
///
/// [`FormatError::InvalidTileSize`] unless `tile_size` is a positive
/// multiple of 4 at most [`MAX_TILE_SIZE`].
pub(crate) fn subs_per_tile(tile_size: u32) -> Result<u32, FormatError> {
    if tile_size == 0 || !tile_size.is_multiple_of(PATTERN_EDGE) || tile_size > MAX_TILE_SIZE {
        return Err(FormatError::InvalidTileSize(tile_size));
    }
    Ok(tile_size / PATTERN_EDGE)
}

/// One 32-bit position-encoding word, shared by a set of four values.
///
/// # Examples
///
/// ```
/// use spasm_format::PositionEncoding;
///
/// let pe = PositionEncoding::new(5, 3, true, false, 7);
/// assert_eq!(pe.c_idx(), 5);
/// assert_eq!(pe.r_idx(), 3);
/// assert!(pe.ce() && !pe.re());
/// assert_eq!(pe.t_idx(), 7);
/// assert_eq!(PositionEncoding::from_bits(pe.bits()), pe);
/// ```
///
/// Bit layout (LSB first):
///
/// | bits    | field   | meaning |
/// |---------|---------|---------|
/// | 0–12    | `c_idx` | column index of the 4×4 submatrix within the tile |
/// | 13–25   | `r_idx` | row index of the 4×4 submatrix within the tile |
/// | 26      | `CE`    | last instance of the current tile (switch the double-buffered x vector) |
/// | 27      | `RE`    | last instance of the current tile *row* (flush the partial-sum buffer) |
/// | 28–31   | `t_idx` | template identifier, index into the portfolio LUT |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PositionEncoding(u32);

impl PositionEncoding {
    const IDX_BITS: u32 = 13;
    const IDX_MASK: u32 = (1 << Self::IDX_BITS) - 1;
    const CE_BIT: u32 = 26;
    const RE_BIT: u32 = 27;
    const TID_SHIFT: u32 = 28;

    /// Packs the five fields into a word.
    ///
    /// # Panics
    ///
    /// Panics if `c_idx` or `r_idx` exceeds 13 bits or `t_idx` exceeds 4
    /// bits.
    pub fn new(c_idx: u32, r_idx: u32, ce: bool, re: bool, t_idx: u8) -> Self {
        assert!(c_idx <= Self::IDX_MASK, "c_idx {c_idx} exceeds 13 bits");
        assert!(r_idx <= Self::IDX_MASK, "r_idx {r_idx} exceeds 13 bits");
        assert!(t_idx < 16, "t_idx {t_idx} exceeds 4 bits");
        PositionEncoding(
            c_idx
                | (r_idx << Self::IDX_BITS)
                | ((ce as u32) << Self::CE_BIT)
                | ((re as u32) << Self::RE_BIT)
                | ((t_idx as u32) << Self::TID_SHIFT),
        )
    }

    /// Reinterprets a raw word (no validation needed: every bit pattern is
    /// a valid encoding).
    pub fn from_bits(bits: u32) -> Self {
        PositionEncoding(bits)
    }

    /// The raw 32-bit word.
    pub fn bits(self) -> u32 {
        self.0
    }

    /// Column index of the 4×4 submatrix within the tile.
    pub fn c_idx(self) -> u32 {
        self.0 & Self::IDX_MASK
    }

    /// Row index of the 4×4 submatrix within the tile.
    pub fn r_idx(self) -> u32 {
        (self.0 >> Self::IDX_BITS) & Self::IDX_MASK
    }

    /// Column-end flag: set on the last instance of a tile, telling the PE
    /// to switch to the prefetched x-vector segment.
    pub fn ce(self) -> bool {
        self.0 & (1 << Self::CE_BIT) != 0
    }

    /// Row-end flag: set on the last instance of the last tile of a tile
    /// row, telling the PE to flush its partial-sum buffer.
    pub fn re(self) -> bool {
        self.0 & (1 << Self::RE_BIT) != 0
    }

    /// Template identifier (index into the portfolio's opcode LUT).
    pub fn t_idx(self) -> u8 {
        (self.0 >> Self::TID_SHIFT) as u8
    }

    /// The same word with its CE and RE flags set to `ce` and `re`.
    pub(crate) fn with_flags(self, ce: bool, re: bool) -> Self {
        let flags = (1 << Self::CE_BIT) | (1 << Self::RE_BIT);
        PositionEncoding(
            self.0 & !flags | (ce as u32) << Self::CE_BIT | (re as u32) << Self::RE_BIT,
        )
    }
}

impl fmt::Display for PositionEncoding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pe(c={}, r={}, ce={}, re={}, t={})",
            self.c_idx(),
            self.r_idx(),
            self.ce() as u8,
            self.re() as u8,
            self.t_idx()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_fields() {
        let pe = PositionEncoding::new(0x1ABC, 0x0D5, true, false, 9);
        assert_eq!(pe.c_idx(), 0x1ABC);
        assert_eq!(pe.r_idx(), 0x0D5);
        assert!(pe.ce());
        assert!(!pe.re());
        assert_eq!(pe.t_idx(), 9);
        assert_eq!(PositionEncoding::from_bits(pe.bits()), pe);
    }

    #[test]
    fn extremes() {
        let pe = PositionEncoding::new(8191, 8191, true, true, 15);
        assert_eq!(pe.c_idx(), 8191);
        assert_eq!(pe.r_idx(), 8191);
        assert_eq!(pe.t_idx(), 15);
        let zero = PositionEncoding::new(0, 0, false, false, 0);
        assert_eq!(zero.bits(), 0);
    }

    #[test]
    #[should_panic(expected = "13 bits")]
    fn c_idx_overflow() {
        PositionEncoding::new(8192, 0, false, false, 0);
    }

    #[test]
    #[should_panic(expected = "4 bits")]
    fn t_idx_overflow() {
        PositionEncoding::new(0, 0, false, false, 16);
    }

    #[test]
    fn max_tile_size_matches_paper() {
        assert_eq!(MAX_TILE_SIZE, 32_768);
    }

    #[test]
    #[should_panic(expected = "13 bits")]
    fn r_idx_overflow() {
        PositionEncoding::new(0, 8192, false, false, 0);
    }

    #[test]
    fn fields_occupy_disjoint_bit_ranges() {
        // Each field at its maximum, alone, must produce exactly its own
        // bits — any overlap would corrupt a neighbouring field.
        assert_eq!(
            PositionEncoding::new(8191, 0, false, false, 0).bits(),
            0x0000_1FFF
        );
        assert_eq!(
            PositionEncoding::new(0, 8191, false, false, 0).bits(),
            0x03FF_E000
        );
        assert_eq!(PositionEncoding::new(0, 0, true, false, 0).bits(), 1 << 26);
        assert_eq!(PositionEncoding::new(0, 0, false, true, 0).bits(), 1 << 27);
        assert_eq!(
            PositionEncoding::new(0, 0, false, false, 15).bits(),
            0xF000_0000
        );
    }

    #[test]
    fn round_trip_boundary_grid() {
        // Cross product of per-field boundary values: every combination
        // must survive a pack → unpack → repack cycle unchanged.
        for &c in &[0u32, 1, 8190, 8191] {
            for &r in &[0u32, 1, 8190, 8191] {
                for ce in [false, true] {
                    for re in [false, true] {
                        for &t in &[0u8, 1, 14, 15] {
                            let pe = PositionEncoding::new(c, r, ce, re, t);
                            assert_eq!(
                                (pe.c_idx(), pe.r_idx(), pe.ce(), pe.re(), pe.t_idx()),
                                (c, r, ce, re, t)
                            );
                            assert_eq!(PositionEncoding::from_bits(pe.bits()), pe);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn from_bits_is_total_and_lossless() {
        // Every 32-bit word is a valid encoding; re-packing the decoded
        // fields reproduces the word bit for bit.
        for word in (0..=u32::MAX).step_by(16_777_259) {
            let pe = PositionEncoding::from_bits(word);
            let repacked =
                PositionEncoding::new(pe.c_idx(), pe.r_idx(), pe.ce(), pe.re(), pe.t_idx());
            assert_eq!(repacked.bits(), word);
        }
    }
}
