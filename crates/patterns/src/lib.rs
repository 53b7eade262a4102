//! Local-pattern machinery of the SPASM framework (Sections II–IV of the
//! paper).
//!
//! A *local pattern* is the occupancy bitmask of a small `p × p` submatrix
//! (the paper focuses on `p = 4`, evaluating `p ∈ {2, 3, 4}` in Fig. 9).
//! A *template pattern* is a fixed-length (`p`-cell) shape — a row, column,
//! diagonal, anti-diagonal or 2×2 block — and a *portfolio* is the set of at
//! most 16 templates the hardware can decode (4-bit `t_idx`).
//!
//! This crate implements:
//!
//! * [`analysis`] — Algorithm 2: the local-pattern histogram of a matrix,
//!   built on the row-band block sweep every block pass shares;
//! * [`templates`] — template constructors and the ten candidate portfolios
//!   of Table V;
//! * [`decompose`] — Listing 1 (`find_best_decomp`) plus an equivalent but
//!   much faster whole-table dynamic program;
//! * [`selection`] — Algorithm 3: portfolio selection over the top-n
//!   patterns, including the "dynamic template patterns" mode of Fig. 10.
//!
//! # Example
//!
//! ```
//! use spasm_patterns::{GridSize, TemplateSet, DecompositionTable};
//!
//! let portfolio = TemplateSet::table_v_set(0); // 4 RW + 4 CW + 4 BW + 4 diag
//! let table = DecompositionTable::build(&portfolio);
//! // A full 4x4 row 0 decomposes into exactly one row template: no padding.
//! let d = table.decompose(0b1111).expect("row is coverable");
//! assert_eq!(d.paddings, 0);
//! assert_eq!(d.template_ids.len(), 1);
//! assert_eq!(portfolio.size(), GridSize::S4);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod decompose;
mod grid;
pub mod selection;
pub mod templates;

pub use analysis::PatternHistogram;
pub use decompose::{find_best_decomp, Decomposition, DecompositionTable};
pub use grid::{render_mask, GridSize, Mask};
pub use selection::{select_for_matrix_set, select_template_set, SelectionOutcome};
pub use templates::{Template, TemplateSet};
