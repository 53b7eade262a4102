//! Exhaustive check of the lowest-cell decomposition table against the
//! all-template dynamic program it replaced.
//!
//! The reference below is the earlier table construction:
//! `dp[m] = 1 + min dp[m & !t]` over *every* template touching
//! `m`, with the first minimising template stored as `choice[m]` and
//! decompositions read back by following `choice`. For each portfolio,
//! every mask's instance count and decomposition (template ids, their
//! order and the paddings) must be identical.

use spasm_patterns::selection::{greedy_custom_set, TopN};
use spasm_patterns::{
    Decomposition, DecompositionTable, GridSize, Mask, PatternHistogram, Template, TemplateSet,
};

struct Reference {
    template_len: u32,
    masks: Vec<Mask>,
    dp: Vec<u8>,
    choice: Vec<u8>,
}

impl Reference {
    fn build(template_len: u32, cell_count: u32, templates: &[Mask]) -> Self {
        let states = 1usize << cell_count;
        let mut dp = vec![u8::MAX; states];
        let mut choice = vec![0u8; states];
        dp[0] = 0;
        for m in 1..states {
            let mut best = u8::MAX;
            let mut pick = 0u8;
            for (t_id, &t) in templates.iter().enumerate() {
                if m as Mask & t == 0 {
                    continue;
                }
                let rest = dp[m & !(t as usize)];
                if rest != u8::MAX && rest + 1 < best {
                    best = rest + 1;
                    pick = t_id as u8;
                }
            }
            dp[m] = best;
            choice[m] = pick;
        }
        Reference {
            template_len,
            masks: templates.to_vec(),
            dp,
            choice,
        }
    }

    fn instance_count(&self, pattern: Mask) -> Option<u32> {
        match self.dp[pattern as usize] {
            u8::MAX => None,
            k => Some(k as u32),
        }
    }

    fn decompose(&self, pattern: Mask) -> Option<Decomposition> {
        self.instance_count(pattern)?;
        let mut ids = Vec::new();
        let mut m = pattern;
        while m != 0 {
            let t = self.choice[m as usize];
            ids.push(t);
            m &= !self.masks[t as usize];
        }
        let paddings = ids.len() as u32 * self.template_len - pattern.count_ones();
        Some(Decomposition {
            template_ids: ids,
            paddings,
        })
    }
}

/// Compares `table` with the reference on every mask of a `cell_count`
/// grid and returns how many masks are uncoverable.
fn assert_matches_reference(label: &str, table: &DecompositionTable, cell_count: u32) -> usize {
    let reference = Reference::build(table.template_len(), cell_count, table.template_masks());
    let mut uncoverable = 0;
    for m in 0..(1u32 << cell_count) {
        let m = m as Mask;
        assert_eq!(
            table.instance_count(m),
            reference.instance_count(m),
            "{label}: instance count of {m:#06x}"
        );
        assert_eq!(
            table.decompose(m),
            reference.decompose(m),
            "{label}: decomposition of {m:#06x}"
        );
        if reference.instance_count(m).is_none() {
            uncoverable += 1;
        }
    }
    uncoverable
}

#[test]
fn table_v_candidates_match_the_all_template_dp() {
    for set in TemplateSet::table_v_candidates() {
        let table = DecompositionTable::build(&set);
        assert_eq!(assert_matches_reference(set.name(), &table, 16), 0);
    }
}

#[test]
fn greedy_custom_portfolio_matches_the_all_template_dp() {
    let anti = |k| Template::anti_diag(GridSize::S4, k).mask();
    let h = PatternHistogram::from_counts(
        GridSize::S4,
        [
            (anti(0), 400),
            (anti(2), 120),
            (Template::block2(1, 1).mask(), 90),
            (0x8421, 60),
            (0x0F0F, 30),
            (0x0001, 10),
        ],
    );
    let out = greedy_custom_set(&h, TopN::All);
    assert!(out.set.len() > 4, "the greedy search grew past the rows");
    assert_eq!(assert_matches_reference("greedy", &out.table, 16), 0);
}

#[test]
fn a_raw_list_missing_cells_matches_the_all_template_dp() {
    // Rows 0–2 only: every mask touching row 3 is uncoverable.
    let masks = [0x000Fu16, 0x00F0, 0x0F00];
    let table = DecompositionTable::build_raw(4, 16, &masks);
    let uncoverable = assert_matches_reference("rows 0-2", &table, 16);
    assert_eq!(uncoverable, (1 << 16) - (1 << 12));
}

#[test]
fn smaller_grids_match_the_all_template_dp() {
    for size in [GridSize::S2, GridSize::S3] {
        let table = DecompositionTable::build(&TemplateSet::vectors(size));
        assert_eq!(
            assert_matches_reference(&size.to_string(), &table, size.cells()),
            0
        );
    }
}
