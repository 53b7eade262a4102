//! The SPASM sparse data format (Section III of the paper).
//!
//! A matrix is stored in two levels:
//!
//! 1. **Global composition** — the non-empty tiles, in COO order
//!    (`tileRowIdx`, `tileColIdx`), each owning a slice of the instance
//!    stream;
//! 2. **Local patterns** — per tile, a stream of *template pattern
//!    instances*: one 32-bit [`PositionEncoding`] word shared by four `f32`
//!    values.
//!
//! The position encoding packs five fields: 13-bit `c_idx` and `r_idx`
//! (coordinates of the 4×4 submatrix inside the tile), 1-bit `CE`/`RE` tile
//! boundary flags that drive the input-vector and partial-sum buffers, and
//! the 4-bit template identifier `t_idx`. The maximum tile size is
//! therefore `2¹³ · 4 = 32 768` rows or columns.
//!
//! # Example
//!
//! ```
//! use spasm_format::{SpasmMatrix, SubmatrixMap};
//! use spasm_patterns::{DecompositionTable, TemplateSet};
//! use spasm_sparse::Coo;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let coo = Coo::from_triplets(8, 8, vec![(0, 0, 1.0), (1, 1, 2.0), (5, 6, 3.0)])?;
//! let table = DecompositionTable::build(&TemplateSet::table_v_set(0));
//! let spasm = SpasmMatrix::encode(&SubmatrixMap::from_coo(&coo), &table, 8)?;
//! let y = spasm.spmv_alloc(&vec![1.0; 8])?;
//! assert_eq!(y[5], 3.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod crc;
mod encoding;
mod error;
mod fingerprint;
mod matrix;
mod serialize;
mod submatrix;
mod tiling;
mod wire3;

pub use crc::crc32;
pub use encoding::{PositionEncoding, MAX_TILE_SIZE, PATTERN_EDGE};
pub use error::FormatError;
pub use fingerprint::MatrixFingerprint;
pub use matrix::{SpasmMatrix, TemplateInstance, Tile};
pub use serialize::{WireError, CHECKSUM_BYTES, HEADER_BYTES, MAGIC, MIN_VERSION, VERSION};
pub use submatrix::{SubBlock, SubmatrixMap};
pub use tiling::{BlockInstances, TileStats, TilingSummary, TILE_LANES};
pub use wire3::{
    is_v3, Header3, SectionEntry, Wire3Reader, Wire3Writer, ALIGN3, DIR_ENTRY_BYTES, HEADER3_BYTES,
    VERSION3,
};
