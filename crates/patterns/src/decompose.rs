//! Local-pattern decomposition (step ③ of the workflow).
//!
//! [`find_best_decomp`] is a faithful transcription of the paper's Listing 1:
//! exhaustive search over all `2^n` template subsets, counting padded cells
//! with the `remain`/`overlap` bookkeeping of the original Python.
//!
//! The listing's padding arithmetic has a useful closed form: every slot of
//! every chosen template either covers a pattern cell for the first time or
//! is padding, so for a covering subset `S`,
//! `paddings = template_len·|S| − popcount(pattern)`. Minimising padding is
//! therefore a *minimum set cover*, which [`DecompositionTable`] solves for
//! all `2^(p²)` patterns at once with a dynamic program — the same answers
//! as Listing 1 at a tiny fraction of the cost (the equivalence is asserted
//! by tests and exploited for the multi-minute preprocessing budgets of
//! Table VIII).

use crate::grid::Mask;
use crate::templates::TemplateSet;

/// The result of decomposing one local pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decomposition {
    /// Chosen templates, as indices (`t_idx`) into the portfolio, in
    /// emission order.
    pub template_ids: Vec<u8>,
    /// Number of padded (zero-filled) value slots across the chosen
    /// template instances.
    pub paddings: u32,
}

impl Decomposition {
    /// Number of template instances used.
    pub fn instances(&self) -> usize {
        self.template_ids.len()
    }
}

/// Faithful port of the paper's Listing 1.
///
/// Iterates all `2^n` subsets of the portfolio, replays the
/// `remain`/`overlap` padding count, and returns the covering subset with
/// the fewest paddings (`None` if no subset covers the pattern — impossible
/// for portfolios built through [`TemplateSet::new`], which requires full
/// grid coverage, but kept for direct mask-list experimentation).
///
/// # Examples
///
/// ```
/// use spasm_patterns::find_best_decomp;
///
/// // Templates: row 0 and column 0 of the 4x4 grid.
/// let templates = [0b0000_0000_0000_1111u16, 0b0001_0001_0001_0001];
/// // An L-shape needs both templates; they overlap at cell (0,0), so one
/// // slot of the 8 is padding beyond the 7 distinct cells.
/// let l_shape = templates[0] | templates[1];
/// let d = find_best_decomp(l_shape, &templates).unwrap();
/// assert_eq!(d.instances(), 2);
/// assert_eq!(d.paddings, 1);
/// ```
///
/// The subset is returned in portfolio order, matching the `for t_id in
/// range(n)` application order of the listing.
pub fn find_best_decomp(pattern: Mask, templates: &[Mask]) -> Option<Decomposition> {
    let n = templates.len();
    assert!(n <= 16, "at most 16 templates (4-bit t_idx)");
    if pattern == 0 {
        return Some(Decomposition {
            template_ids: Vec::new(),
            paddings: 0,
        });
    }
    let mut best: Option<(u32, u32)> = None; // (paddings, subset bits)
    for subset in 1u32..(1 << n) {
        let mut remain = pattern;
        let mut overlap: Mask = 0;
        let mut paddings = 0u32;
        for (t_id, &t) in templates.iter().enumerate() {
            if subset & (1 << t_id) != 0 {
                let padding = (!remain | overlap) & t;
                overlap |= t;
                remain &= !t;
                paddings += padding.count_ones();
            }
        }
        if remain != 0 {
            continue; // subset does not cover the pattern
        }
        // Tie-break on fewer templates, then lower subset id, for
        // deterministic output.
        let better = match best {
            None => true,
            Some((bp, bs)) => {
                paddings < bp
                    || (paddings == bp && (subset.count_ones(), subset) < (bs.count_ones(), bs))
            }
        };
        if better {
            best = Some((paddings, subset));
        }
    }
    best.map(|(paddings, subset)| Decomposition {
        template_ids: (0..n as u8).filter(|t| subset & (1 << t) != 0).collect(),
        paddings,
    })
}

/// Precomputed optimal decompositions for *every* local pattern under one
/// portfolio.
///
/// `dp[m]` = minimum number of template instances whose union covers mask
/// `m`. Every cover of `m` contains a template covering `m`'s lowest set
/// cell, so `dp[m] = 1 + min dp[m & !t]` over just the templates holding
/// that cell — about `n / 4` candidates per state instead of `n`, which
/// puts the whole `2^(p²)`-state table at roughly `2^(p²) · n / 4` steps.
/// Decompositions are not stored: [`DecompositionTable::decompose`] walks
/// the table and picks each step on demand.
#[derive(Debug, Clone)]
pub struct DecompositionTable {
    template_len: u32,
    masks: Vec<Mask>,
    /// Minimal instance count per mask; `u8::MAX` marks "uncoverable".
    dp: Vec<u8>,
}

impl DecompositionTable {
    /// Builds the table for a portfolio.
    pub fn build(portfolio: &TemplateSet) -> Self {
        let masks: Vec<Mask> = portfolio.masks().collect();
        Self::build_raw(
            portfolio.size().template_len(),
            portfolio.size().cells(),
            &masks,
        )
    }

    /// Builds the table from raw template masks over a grid with
    /// `cell_count` cells; `template_len` is the slot count per instance.
    ///
    /// # Panics
    ///
    /// Panics if more than 16 templates are supplied or `cell_count > 16`.
    pub fn build_raw(template_len: u32, cell_count: u32, templates: &[Mask]) -> Self {
        assert!(templates.len() <= 16, "at most 16 templates (4-bit t_idx)");
        assert!(cell_count <= 16, "local patterns are at most 4x4");
        // The templates holding each cell.
        let holding: Vec<Vec<usize>> = (0..cell_count)
            .map(|cell| {
                templates
                    .iter()
                    .filter(|&&t| t & (1 << cell) != 0)
                    .map(|&t| t as usize)
                    .collect()
            })
            .collect();
        let states = 1usize << cell_count;
        let mut dp = vec![u8::MAX; states];
        dp[0] = 0;
        for m in 1..states {
            let rest = holding[m.trailing_zeros() as usize]
                .iter()
                .map(|&t| dp[m & !t])
                .min()
                .unwrap_or(u8::MAX);
            dp[m] = rest.saturating_add(1);
        }
        DecompositionTable {
            template_len,
            masks: templates.to_vec(),
            dp,
        }
    }

    /// The portfolio's template masks, in `t_idx` order.
    pub fn template_masks(&self) -> &[Mask] {
        &self.masks
    }

    /// Slots per template instance (`p`).
    pub fn template_len(&self) -> u32 {
        self.template_len
    }

    /// Minimum number of template instances covering `pattern`, or `None`
    /// if the portfolio cannot cover it.
    pub fn instance_count(&self, pattern: Mask) -> Option<u32> {
        match self.dp[pattern as usize] {
            u8::MAX => None,
            k => Some(k as u32),
        }
    }

    /// Number of padded slots in the optimal decomposition of `pattern`.
    pub fn padding_count(&self, pattern: Mask) -> Option<u32> {
        self.instance_count(pattern)
            .map(|k| k * self.template_len - pattern.count_ones())
    }

    /// The optimal decomposition of `pattern` (template ids in application
    /// order), or `None` if uncoverable.
    pub fn decompose(&self, pattern: Mask) -> Option<Decomposition> {
        let template_ids: Vec<u8> = self.template_ids(pattern)?.collect();
        let paddings = template_ids.len() as u32 * self.template_len - pattern.count_ones();
        Some(Decomposition {
            template_ids,
            paddings,
        })
    }

    /// The template ids of [`DecompositionTable::decompose`], yielded
    /// without allocating, or `None` if `pattern` is uncoverable.
    ///
    /// Each step applies the first template, in `t_idx` order, that
    /// touches the remaining mask and leaves a remainder one instance
    /// cheaper.
    pub fn template_ids(&self, pattern: Mask) -> Option<impl Iterator<Item = u8> + '_> {
        self.instance_count(pattern)?;
        let mut m = pattern;
        Some(std::iter::from_fn(move || {
            if m == 0 {
                return None;
            }
            // `m` is coverable and non-empty, so `dp[m] ≥ 1`.
            let need = self.dp[m as usize] - 1;
            let t = self
                .masks
                .iter()
                .position(|&t| m & t != 0 && self.dp[(m & !t) as usize] == need)?;
            m &= !self.masks[t];
            Some(t as u8)
        }))
    }

    /// Total paddings over a weighted pattern histogram — the inner loop of
    /// Algorithm 3. Patterns the portfolio cannot cover return `None`.
    pub fn weighted_paddings<'a>(
        &self,
        histogram: impl IntoIterator<Item = (&'a Mask, &'a u64)>,
    ) -> Option<u64> {
        let mut total = 0u64;
        for (&mask, &freq) in histogram {
            total += u64::from(self.padding_count(mask)?) * freq;
        }
        Some(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridSize;
    use crate::templates::{Template, TemplateSet};

    fn set0() -> TemplateSet {
        TemplateSet::table_v_set(0)
    }

    #[test]
    fn single_row_needs_one_template_no_padding() {
        let table = DecompositionTable::build(&set0());
        let row0: Mask = 0b1111;
        let d = table.decompose(row0).unwrap();
        assert_eq!(d.instances(), 1);
        assert_eq!(d.paddings, 0);
    }

    #[test]
    fn full_grid_needs_four_rows() {
        let table = DecompositionTable::build(&set0());
        let d = table.decompose(0xFFFF).unwrap();
        assert_eq!(d.instances(), 4);
        assert_eq!(d.paddings, 0);
    }

    #[test]
    fn single_cell_costs_three_paddings() {
        let table = DecompositionTable::build(&set0());
        let d = table.decompose(0b1).unwrap();
        assert_eq!(d.instances(), 1);
        assert_eq!(d.paddings, 3);
    }

    #[test]
    fn listing1_and_dp_agree_on_paddings() {
        let set = set0();
        let masks: Vec<Mask> = set.masks().collect();
        let table = DecompositionTable::build(&set);
        // Exhaustive agreement is too slow for Listing 1; sample a spread of
        // patterns including adversarial ones.
        let probes: Vec<Mask> = (0..=16)
            .flat_map(|k| {
                [
                    (1u32 << k) as u16,
                    0x8421,
                    0x1248,
                    0x9669,
                    0xF00F,
                    0x0FF0,
                    0x5A5A,
                ]
            })
            .chain((1..200).map(|i| (i * 331) as Mask))
            .filter(|&m| m != 0)
            .collect();
        for pattern in probes {
            let slow = find_best_decomp(pattern, &masks).expect("covering portfolio");
            let fast = table.decompose(pattern).expect("covering portfolio");
            assert_eq!(slow.paddings, fast.paddings, "pattern {pattern:#06x}");
        }
    }

    #[test]
    fn decomposition_covers_exactly() {
        let table = DecompositionTable::build(&set0());
        for pattern in [0x0001u16, 0x8421, 0xBEEF, 0xFFFF, 0x0F0F] {
            let d = table.decompose(pattern).unwrap();
            let union = d
                .template_ids
                .iter()
                .fold(0u16, |u, &t| u | table.template_masks()[t as usize]);
            assert_eq!(union & pattern, pattern, "every nz covered");
            let slots = d.instances() as u32 * 4;
            assert_eq!(d.paddings, slots - pattern.count_ones());
        }
    }

    #[test]
    fn empty_pattern_decomposes_to_nothing() {
        let table = DecompositionTable::build(&set0());
        let d = table.decompose(0).unwrap();
        assert!(d.template_ids.is_empty());
        assert_eq!(d.paddings, 0);
        assert_eq!(find_best_decomp(0, &[0b1111]).unwrap().instances(), 0);
    }

    #[test]
    fn uncoverable_pattern_returns_none() {
        // A raw template list that misses cell 15.
        let masks = [0b1111u16, 0b1111_0000, 0b1111_0000_0000];
        let table = DecompositionTable::build_raw(4, 16, &masks);
        assert!(table.decompose(1 << 15).is_none());
        assert!(find_best_decomp(1 << 15, &masks).is_none());
        assert!(table.instance_count(0b1).is_some());
    }

    #[test]
    fn diagonal_pattern_prefers_diagonal_template() {
        let table = DecompositionTable::build(&set0());
        let diag = Template::diag(GridSize::S4, 0).mask();
        let d = table.decompose(diag).unwrap();
        assert_eq!(d.instances(), 1);
        assert_eq!(d.paddings, 0);
    }

    #[test]
    fn anti_diagonal_pads_under_set0_but_not_set1() {
        let anti = Template::anti_diag(GridSize::S4, 3).mask();
        let t0 = DecompositionTable::build(&TemplateSet::table_v_set(0));
        let t1 = DecompositionTable::build(&TemplateSet::table_v_set(1));
        assert!(
            t0.padding_count(anti).unwrap() > 0,
            "set 0 lacks anti-diagonals"
        );
        assert_eq!(
            t1.padding_count(anti).unwrap(),
            0,
            "set 1 has anti-diagonals"
        );
    }

    #[test]
    fn weighted_paddings_sums() {
        let table = DecompositionTable::build(&set0());
        let hist: Vec<(Mask, u64)> = vec![(0b1111, 10), (0b1, 2)];
        let total = table
            .weighted_paddings(hist.iter().map(|(m, f)| (m, f)))
            .unwrap();
        assert_eq!(total, 6); // 10 full rows pad 0 each, 2 singles pad 3 each
    }
}
