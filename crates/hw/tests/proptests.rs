//! Property tests: the accelerator's functional output equals the CSR
//! reference, and the perf model equals simulated cycles, for arbitrary
//! matrices, portfolios, tile sizes and hardware configurations.

use proptest::prelude::*;
use spasm_format::{SpasmMatrix, SubmatrixMap, TilingSummary};
use spasm_hw::{perf, Accelerator, HwConfig};
use spasm_patterns::{DecompositionTable, TemplateSet};
use spasm_sparse::{Coo, Csr, SpMv};

fn arb_case() -> impl Strategy<Value = (Coo, Vec<f32>, usize, u32)> {
    (8u32..96, 8u32..96)
        .prop_flat_map(|(rows, cols)| {
            let entry = (0..rows, 0..cols, (1i32..32).prop_map(|q| q as f32 * 0.25));
            let m = proptest::collection::vec(entry, 1..160)
                .prop_map(move |t| Coo::from_triplets(rows, cols, t).unwrap());
            let x = proptest::collection::vec(
                (-8i32..8).prop_map(|q| q as f32 * 0.5),
                cols as usize..=cols as usize,
            );
            (m, x)
        })
        .prop_flat_map(|(m, x)| {
            (
                Just(m),
                Just(x),
                0usize..10,
                prop_oneof![Just(8u32), Just(16), Just(64)],
            )
        })
}

fn arb_config() -> impl Strategy<Value = HwConfig> {
    prop_oneof![
        Just(HwConfig::spasm_4_1()),
        Just(HwConfig::spasm_3_4()),
        Just(HwConfig::spasm_3_2()),
        Just(HwConfig::new(1, 1, 200.0)),
        Just(HwConfig::new(2, 3, 300.0)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn simulator_matches_csr(
        (m, x, set_id, tile) in arb_case(),
        cfg in arb_config(),
    ) {
        let table = DecompositionTable::build(&TemplateSet::table_v_set(set_id));
        let map = SubmatrixMap::from_coo(&m);
        let spasm = SpasmMatrix::encode(&map, &table, tile).unwrap();

        let mut want = vec![0.25f32; m.rows() as usize];
        Csr::from(&m).spmv(&x, &mut want).unwrap();

        let mut got = vec![0.25f32; m.rows() as usize];
        let mut plan = Accelerator::new(cfg.clone()).prepare(&spasm).unwrap();
        let rep = plan.run(&x, &mut got).unwrap();
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert!((g - w).abs() <= 1e-3 * (1.0 + w.abs()), "row {i}: {g} vs {w}");
        }

        // Perf model equals the plan report.
        let summary = TilingSummary::analyze(&map, &table, tile).unwrap();
        prop_assert_eq!(perf::estimate_cycles(&summary, &cfg), rep.cycles);

        // Utilisations stay in (0, 1].
        prop_assert!(rep.compute_utilization > 0.0 && rep.compute_utilization <= 1.0);
        prop_assert!(rep.bandwidth_utilization > 0.0 && rep.bandwidth_utilization <= 1.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Class bucketing is a stable per-block permutation: within every
    /// `EXEC_BLOCK` chunk of a tile row's instance range the bucketed
    /// order visits each instance exactly once, opcode classes are
    /// contiguous and ascending, and equal-class instances keep their
    /// stream order (the tables wire v3 stores).
    #[test]
    fn bucketing_is_a_stable_block_permutation(
        (m, _x, set_id, tile) in arb_case(),
        cfg in arb_config(),
    ) {
        let table = DecompositionTable::build(&TemplateSet::table_v_set(set_id));
        let map = SubmatrixMap::from_coo(&m);
        let spasm = SpasmMatrix::encode(&map, &table, tile).unwrap();
        let plan = Accelerator::new(cfg).prepare(&spasm).unwrap();

        let order = plan.bucket_order();
        let classes = plan.opcode_classes();
        prop_assert_eq!(order.len(), classes.len());

        let mut covered = 0usize;
        let mut r = 0usize;
        while let Some((i0, i1)) = plan.instance_range(r) {
            let mut blk = i0;
            while blk < i1 {
                let end = (blk + spasm_hw::ExecutionPlan::EXEC_BLOCK).min(i1);
                let mut seen = vec![false; end - blk];
                let mut prev: Option<(u8, u32)> = None;
                for &gi in &order[blk..end] {
                    let g = gi as usize;
                    prop_assert!(
                        (blk..end).contains(&g),
                        "bucket index {g} escapes block {blk}..{end}"
                    );
                    prop_assert!(!seen[g - blk], "instance {g} bucketed twice");
                    seen[g - blk] = true;
                    let c = classes[g];
                    if let Some((pc, pg)) = prev {
                        prop_assert!(c >= pc, "classes not ascending within a block");
                        if c == pc {
                            prop_assert!(gi > pg, "equal-class order not stable");
                        }
                    }
                    prev = Some((c, gi));
                }
                covered += end - blk;
                blk = end;
            }
            r += 1;
        }
        prop_assert_eq!(covered, order.len(), "every instance bucketed exactly once");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The execution trace totals equal the perf model, its group
    /// timelines are gap-free, and the critical-group breakdown sums to
    /// the slowest group's busy cycles.
    #[test]
    fn trace_invariants((m, _x, set_id, tile) in arb_case(), cfg in arb_config()) {
        let table = DecompositionTable::build(&TemplateSet::table_v_set(set_id));
        let map = SubmatrixMap::from_coo(&m);
        let summary = TilingSummary::analyze(&map, &table, tile).unwrap();
        let trace = spasm_hw::ExecutionTrace::capture(&summary, &cfg);
        prop_assert_eq!(trace.total_cycles(), perf::estimate_cycles(&summary, &cfg));
        let (c, x, s) = trace.critical_group_breakdown();
        let max_busy = trace.per_group_busy().iter().copied().max().unwrap_or(0);
        prop_assert_eq!(c + x + s, max_busy);
        let b = trace.balance();
        prop_assert!((0.0..=1.0 + 1e-12).contains(&b));
    }
}
