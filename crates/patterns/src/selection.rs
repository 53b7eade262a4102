//! Template pattern selection — workflow step ② (Algorithm 3).
//!
//! Given the local-pattern histogram of a matrix and a list of candidate
//! portfolios (Table V), picks the portfolio minimising the total number of
//! padded slots over the top-n patterns. Decomposing only the top-n
//! patterns is the paper's preprocessing optimisation: the dominant
//! patterns account for most blocks (Fig. 3), so the tail need not be
//! scored during selection.

use crate::analysis::PatternHistogram;
use crate::decompose::DecompositionTable;
use crate::templates::TemplateSet;

/// The outcome of Algorithm 3 for one matrix.
#[derive(Debug, Clone)]
pub struct SelectionOutcome {
    /// The winning portfolio.
    pub set: TemplateSet,
    /// Its precomputed decomposition table (reused by the encoder).
    pub table: DecompositionTable,
    /// Weighted paddings of the winner over the scored histogram.
    pub paddings: u64,
    /// Weighted paddings of every candidate, in candidate order — the
    /// series behind Fig. 10. `None` marks a portfolio that could not cover
    /// some scored pattern.
    pub candidate_paddings: Vec<Option<u64>>,
}

/// How many top patterns Algorithm 3 scores during selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopN {
    /// Score a fixed number of patterns.
    Count(usize),
    /// Score however many patterns are needed to reach this coverage
    /// fraction of all observed blocks.
    Coverage(f64),
    /// Score every observed pattern.
    All,
}

impl TopN {
    fn resolve(self, histogram: &PatternHistogram) -> usize {
        match self {
            TopN::Count(n) => n,
            TopN::Coverage(f) => histogram.n_for_coverage(f),
            TopN::All => histogram.distinct_patterns(),
        }
    }
}

/// Runs Algorithm 3: scores every candidate portfolio on the top-n
/// patterns of `histogram` and returns the one with the fewest weighted
/// paddings (ties broken by candidate order, matching the `<` comparison of
/// the algorithm).
///
/// # Examples
///
/// ```
/// use spasm_patterns::selection::TopN;
/// use spasm_patterns::{select_template_set, GridSize, PatternHistogram, TemplateSet};
///
/// // A histogram dominated by full rows: any set with row templates wins
/// // with zero paddings.
/// let h = PatternHistogram::from_counts(GridSize::S4, [(0b1111u16, 100)]);
/// let out = select_template_set(&h, &TemplateSet::table_v_candidates(), TopN::All);
/// assert_eq!(out.paddings, 0);
/// ```
///
/// # Panics
///
/// Panics if `candidates` is empty, if a candidate's grid size differs from
/// the histogram's, or if *no* candidate covers the scored patterns (cannot
/// happen for portfolios built via [`TemplateSet::new`]).
pub fn select_template_set(
    histogram: &PatternHistogram,
    candidates: &[TemplateSet],
    top_n: TopN,
) -> SelectionOutcome {
    assert!(
        !candidates.is_empty(),
        "need at least one candidate portfolio"
    );
    let n = top_n.resolve(histogram);
    let subset = histogram.top_n_histogram(n);

    for set in candidates {
        assert_eq!(
            set.size(),
            histogram.size(),
            "candidate {} targets a different grid size",
            set.name()
        );
    }
    // Candidates are independent: build and score their decomposition
    // tables in parallel (each table is a 65k-state lowest-cell dynamic
    // program).
    // Scores come back in candidate order for every thread count, so the
    // argmin below (first strict minimum wins) is deterministic.
    let scored = score_candidates(candidates, &subset);

    let mut best: Option<(usize, u64, DecompositionTable)> = None;
    let mut candidate_paddings = Vec::with_capacity(candidates.len());
    for (i, (paddings, table)) in scored.into_iter().enumerate() {
        candidate_paddings.push(paddings);
        if let Some(p) = paddings {
            let better = match &best {
                None => true,
                Some((_, bp, _)) => p < *bp,
            };
            if better {
                best = Some((i, p, table));
            }
        }
    }
    let (idx, paddings, table) =
        best.expect("at least one candidate must cover the scored patterns");
    SelectionOutcome {
        set: candidates[idx].clone(),
        table,
        paddings,
        candidate_paddings,
    }
}

/// Builds and scores every candidate's decomposition table, preserving
/// candidate order.
fn score_one(set: &TemplateSet, subset: &PatternHistogram) -> (Option<u64>, DecompositionTable) {
    let table = DecompositionTable::build(set);
    let paddings = table.weighted_paddings(subset.iter());
    (paddings, table)
}

#[cfg(feature = "parallel")]
fn score_candidates(
    candidates: &[TemplateSet],
    subset: &PatternHistogram,
) -> Vec<(Option<u64>, DecompositionTable)> {
    use rayon::prelude::*;
    candidates
        .par_iter()
        .map(|set| score_one(set, subset))
        .collect()
}

#[cfg(not(feature = "parallel"))]
fn score_candidates(
    candidates: &[TemplateSet],
    subset: &PatternHistogram,
) -> Vec<(Option<u64>, DecompositionTable)> {
    candidates
        .iter()
        .map(|set| score_one(set, subset))
        .collect()
}

/// Selects one portfolio for a *set* of expected input matrices — the
/// abstract's deployment model ("SPASM can optimize the pattern portfolio
/// for a particular set of expected input matrices").
///
/// Each matrix's histogram is normalised to per-mille shares before
/// merging so a large matrix cannot drown out a small one, then
/// Algorithm 3 runs on the merged histogram.
///
/// # Panics
///
/// Panics if `histograms` is empty, mixes grid sizes, or `candidates` is
/// empty.
pub fn select_for_matrix_set(
    histograms: &[PatternHistogram],
    candidates: &[TemplateSet],
    top_n: TopN,
) -> SelectionOutcome {
    assert!(!histograms.is_empty(), "need at least one matrix histogram");
    let size = histograms[0].size();
    let mut merged: std::collections::HashMap<crate::grid::Mask, u64> =
        std::collections::HashMap::new();
    for h in histograms {
        assert_eq!(h.size(), size, "histograms must share one grid size");
        let total = h.total_blocks().max(1);
        for (&mask, &freq) in h.iter() {
            // Per-mille share, rounded up so rare-but-present patterns
            // keep non-zero weight.
            let share = (freq * 1000).div_ceil(total);
            *merged.entry(mask).or_insert(0) += share;
        }
    }
    let merged = PatternHistogram::from_counts(size, merged);
    select_template_set(&merged, candidates, top_n)
}

/// Extension beyond the paper's ten fixed candidates: greedily grow a
/// custom portfolio from the full shape family, always keeping coverage.
///
/// Starts from the four row templates (guaranteeing coverage) and
/// repeatedly swaps in the shape — any row, column, diagonal, anti-diagonal
/// or block placement — that most reduces the weighted paddings of the
/// top-n histogram, until the 16-slot budget is full or no candidate
/// improves. This is the "customization of template patterns" the
/// framework exposes for workload-specific tuning.
pub fn greedy_custom_set(histogram: &PatternHistogram, top_n: TopN) -> SelectionOutcome {
    use crate::grid::GridSize;
    use crate::templates::Template;
    assert_eq!(
        histogram.size(),
        GridSize::S4,
        "custom portfolio search is defined for the 4x4 grid"
    );
    let s = GridSize::S4;
    let n = top_n.resolve(histogram);
    let subset = histogram.top_n_histogram(n);

    let mut pool: Vec<Template> = Vec::new();
    pool.extend((0..4).map(|r| Template::row(s, r)));
    pool.extend((0..4).map(|c| Template::col(s, c)));
    pool.extend((0..4).map(|k| Template::diag(s, k)));
    pool.extend((0..4).map(|k| Template::anti_diag(s, k)));
    pool.extend((0..4).flat_map(|r| (0..4).map(move |c| Template::block2(r, c))));

    // Rows guarantee coverage; grow greedily from there.
    let mut chosen: Vec<Template> = (0..4).map(|r| Template::row(s, r)).collect();
    let score = |ts: &[Template]| {
        let masks: Vec<_> = ts.iter().map(|t| t.mask()).collect();
        DecompositionTable::build_raw(4, 16, &masks)
            .weighted_paddings(subset.iter())
            .expect("row templates always cover")
    };
    let mut current = score(&chosen);
    while chosen.len() < TemplateSet::MAX_TEMPLATES {
        let mut best: Option<(u64, Template)> = None;
        for &cand in &pool {
            if chosen.contains(&cand) {
                continue;
            }
            let mut trial = chosen.clone();
            trial.push(cand);
            let p = score(&trial);
            if p < current && best.as_ref().is_none_or(|&(bp, _)| p < bp) {
                best = Some((p, cand));
            }
        }
        match best {
            Some((p, t)) => {
                chosen.push(t);
                current = p;
            }
            None => break,
        }
    }
    let set = TemplateSet::new(s, "greedy-custom", chosen);
    let table = DecompositionTable::build(&set);
    SelectionOutcome {
        set,
        table,
        paddings: current,
        candidate_paddings: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridSize;
    use crate::templates::Template;

    fn anti_mask(k: u32) -> u16 {
        Template::anti_diag(GridSize::S4, k).mask()
    }

    #[test]
    fn anti_diagonal_matrix_selects_an_anti_diagonal_set() {
        // Histogram dominated by anti-diagonal patterns, like c-73 in the
        // paper's ablation discussion.
        let h = PatternHistogram::from_counts(GridSize::S4, (0..4).map(|k| (anti_mask(k), 100)));
        let out = select_template_set(&h, &TemplateSet::table_v_candidates(), TopN::All);
        assert_eq!(out.paddings, 0);
        let has_anti = out
            .set
            .templates()
            .iter()
            .any(|t| matches!(t.kind(), crate::templates::TemplateKind::AntiDiag));
        assert!(
            has_anti,
            "winner {} should contain anti-diagonals",
            out.set.name()
        );
    }

    #[test]
    fn block_matrix_selects_zero_padding_set() {
        let block = Template::block2(0, 0).mask();
        let h = PatternHistogram::from_counts(GridSize::S4, [(block, 1000)]);
        let out = select_template_set(&h, &TemplateSet::table_v_candidates(), TopN::All);
        assert_eq!(out.paddings, 0);
    }

    #[test]
    fn candidate_paddings_align_with_candidates() {
        let h = PatternHistogram::from_counts(GridSize::S4, [(0b1, 10)]);
        let cands = TemplateSet::table_v_candidates();
        let out = select_template_set(&h, &cands, TopN::All);
        assert_eq!(out.candidate_paddings.len(), cands.len());
        // A single cell costs 3 paddings under every 16-template portfolio.
        for p in &out.candidate_paddings {
            assert_eq!(*p, Some(30));
        }
    }

    #[test]
    fn winner_is_minimal() {
        let h = PatternHistogram::from_counts(
            GridSize::S4,
            [(anti_mask(0), 50), (0xFFFF, 5), (0x8001, 3)],
        );
        let out = select_template_set(&h, &TemplateSet::table_v_candidates(), TopN::All);
        let min = out
            .candidate_paddings
            .iter()
            .flatten()
            .min()
            .copied()
            .unwrap();
        assert_eq!(out.paddings, min);
    }

    #[test]
    fn top_n_modes() {
        let h = PatternHistogram::from_counts(GridSize::S4, [(0xFFFF, 90), (0x1, 5), (0x2, 5)]);
        assert_eq!(TopN::Count(2).resolve(&h), 2);
        assert_eq!(TopN::Coverage(0.9).resolve(&h), 1);
        assert_eq!(TopN::All.resolve(&h), 3);
    }

    #[test]
    fn matrix_set_selection_balances_members() {
        // One huge diagonal-dominated matrix + one small anti-diagonal
        // one: per-mille normalisation keeps the small matrix's needs
        // visible, so the winner must cover both shapes without drowning
        // the minority member.
        let diag = Template::diag(GridSize::S4, 0).mask();
        let big = PatternHistogram::from_counts(GridSize::S4, [(diag, 1_000_000)]);
        let small = PatternHistogram::from_counts(GridSize::S4, (0..4).map(|k| (anti_mask(k), 10)));
        let out =
            select_for_matrix_set(&[big, small], &TemplateSet::table_v_candidates(), TopN::All);
        // Set 4 (RW+CW+diag+anti) covers both with zero padding; any
        // winner must achieve zero.
        assert_eq!(out.paddings, 0, "winner {}", out.set.name());
    }

    #[test]
    #[should_panic(expected = "at least one matrix")]
    fn empty_matrix_set_rejected() {
        select_for_matrix_set(&[], &TemplateSet::table_v_candidates(), TopN::All);
    }

    #[test]
    fn greedy_custom_beats_or_matches_rows_only() {
        let h = PatternHistogram::from_counts(GridSize::S4, (0..4).map(|k| (anti_mask(k), 100)));
        let out = greedy_custom_set(&h, TopN::All);
        assert_eq!(out.paddings, 0, "greedy should discover the anti-diagonals");
    }

    #[test]
    fn greedy_stays_within_budget() {
        let h = PatternHistogram::from_counts(
            GridSize::S4,
            (1u16..200).map(|m| (m, (m % 7 + 1) as u64)),
        );
        let out = greedy_custom_set(&h, TopN::Count(32));
        assert!(out.set.len() <= TemplateSet::MAX_TEMPLATES);
    }
}
