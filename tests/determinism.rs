//! Determinism tests: every preprocessing output must be identical — to
//! the byte and to the bit — for every thread budget.
//!
//! The parallel layer only uses order-preserving fan-outs and reductions
//! that are associative and commutative, so `Parallelism::Serial` is the
//! oracle and any `Parallelism::Threads(n)` must reproduce it exactly.
//! These tests also pass in `--no-default-features` builds, where every
//! budget degenerates to serial execution.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spasm::patterns::{DecompositionTable, GridSize, PatternHistogram, TemplateSet};
use spasm::{explore_schedule, Parallelism, Pipeline, PipelineOptions};
use spasm_format::SubmatrixMap;
use spasm_hw::HwConfig;
use spasm_sparse::{Coo, Csr, SpMv};

fn random_coo(seed: u64, rows: u32, cols: u32, n_entries: usize) -> Coo {
    let mut rng = SmallRng::seed_from_u64(seed);
    let t: Vec<(u32, u32, f32)> = (0..n_entries)
        .map(|_| {
            (
                rng.gen_range(0..rows),
                rng.gen_range(0..cols),
                rng.gen_range(1..=64) as f32 * 0.25,
            )
        })
        .collect();
    Coo::from_triplets(rows, cols, t).unwrap()
}

fn pipeline(parallelism: Parallelism) -> Pipeline {
    Pipeline::with_options(PipelineOptions::default().parallelism(parallelism))
}

/// Runs `f` under an explicit worker budget (ambient, not via
/// `PipelineOptions`), for components below the pipeline front-end.
fn with_budget<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("vendored shim pool builder is infallible")
        .install(f)
}

#[test]
fn prepare_is_thread_count_invariant() {
    let m = random_coo(0xDE7_0001, 96, 96, 500);
    let serial = pipeline(Parallelism::Serial).prepare(&m).unwrap();
    for budget in [2usize, 8] {
        let par = pipeline(Parallelism::Threads(budget)).prepare(&m).unwrap();
        assert_eq!(par.selection.set.name(), serial.selection.set.name());
        assert_eq!(par.selection.paddings, serial.selection.paddings);
        assert_eq!(
            par.best, serial.best,
            "schedule winner drifted at {budget} threads"
        );
        assert_eq!(
            par.explored, serial.explored,
            "search trace drifted at {budget} threads"
        );
    }
}

#[test]
fn encoded_stream_is_byte_identical() {
    let m = random_coo(0xDE7_0002, 128, 72, 700);
    let serial = pipeline(Parallelism::Serial).prepare(&m).unwrap();
    let par = pipeline(Parallelism::Threads(8)).prepare(&m).unwrap();
    assert_eq!(
        serial.encoded.to_bytes().to_vec(),
        par.encoded.to_bytes().to_vec(),
        "serialized SPASM stream differs between serial and 8-thread preprocessing"
    );
}

#[test]
fn prepare_set_is_thread_count_invariant() {
    let set: Vec<Coo> = (0..6)
        .map(|i| random_coo(0xDE7_0100 + i, 64 + 8 * i as u32, 64, 300))
        .collect();
    let serial = pipeline(Parallelism::Serial).prepare_set(&set).unwrap();
    let par = pipeline(Parallelism::Threads(8)).prepare_set(&set).unwrap();
    assert_eq!(serial.len(), par.len());
    for (s, p) in serial.iter().zip(&par) {
        assert_eq!(s.selection.set.name(), p.selection.set.name());
        assert_eq!(s.best, p.best);
        assert_eq!(s.encoded.to_bytes().to_vec(), p.encoded.to_bytes().to_vec());
    }
}

#[test]
fn histogram_is_thread_count_invariant() {
    // The block sweep is serial; this pins that the histogram still
    // ignores the installed thread budget on a large input.
    let m = random_coo(0xDE7_0003, 1024, 1024, 40_000);
    let serial = with_budget(1, || PatternHistogram::analyze(&m, GridSize::S4));
    for budget in [2usize, 3, 8] {
        let par = with_budget(budget, || PatternHistogram::analyze(&m, GridSize::S4));
        assert_eq!(par, serial, "histogram drifted at {budget} threads");
    }
}

#[test]
fn explore_schedule_is_thread_count_invariant() {
    let m = random_coo(0xDE7_0004, 512, 512, 4_000);
    let map = SubmatrixMap::from_coo(&m);
    let table = DecompositionTable::build(&TemplateSet::table_v_set(0));
    let sizes = [256u32, 512, 1024, 2048, 4096];
    let configs = HwConfig::shipped();
    let (serial_choice, serial_trace) =
        with_budget(1, || explore_schedule(&map, &table, &sizes, &configs)).unwrap();
    for budget in [2usize, 8] {
        let (choice, trace) =
            with_budget(budget, || explore_schedule(&map, &table, &sizes, &configs)).unwrap();
        assert_eq!(choice, serial_choice, "winner drifted at {budget} threads");
        assert_eq!(trace, serial_trace, "trace drifted at {budget} threads");
    }
}

#[test]
fn schedule_tie_break_is_stable() {
    // With a single config repeated, many (tile, config) points tie on
    // predicted time; the argmin must still pick the lowest (tile size,
    // config index) pair under any budget.
    let m = random_coo(0xDE7_0005, 64, 64, 200);
    let map = SubmatrixMap::from_coo(&m);
    let table = DecompositionTable::build(&TemplateSet::table_v_set(0));
    let config = HwConfig::spasm_4_1();
    let configs = vec![config.clone(), config.clone(), config];
    let sizes = [1024u32, 1024, 1024];
    let (serial_choice, _) =
        with_budget(1, || explore_schedule(&map, &table, &sizes, &configs)).unwrap();
    let (par_choice, _) =
        with_budget(8, || explore_schedule(&map, &table, &sizes, &configs)).unwrap();
    assert_eq!(par_choice, serial_choice);
}

#[test]
fn parallel_csr_spmv_is_bit_exact() {
    let m = random_coo(0xDE7_0006, 300, 180, 2_500);
    let csr = Csr::from(&m);
    let x: Vec<f32> = (0..180).map(|i| ((i % 13) as f32) * 0.125 - 0.75).collect();

    let mut serial = vec![0.5f32; 300];
    csr.spmv(&x, &mut serial).unwrap();

    for budget in [1usize, 2, 7, 16] {
        let mut par = vec![0.5f32; 300];
        with_budget(budget, || csr.spmv_parallel(&x, &mut par)).unwrap();
        assert_eq!(
            par.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            serial.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "parallel CSR SpMV drifted at {budget} threads"
        );
    }
}

#[test]
fn skewed_csr_spmv_parallel_is_bit_exact() {
    // Power-law shape: row 0 is dense, a few heavy rows, a long tail of
    // empty rows — the case nnz-balanced partitioning exists for. Results
    // must still be bit-identical for every budget.
    let mut t: Vec<(u32, u32, f32)> = (0..400u32)
        .map(|c| (0, c, 0.25 * ((c % 7) as f32)))
        .collect();
    for r in 1..5u32 {
        for c in 0..60u32 {
            t.push((r, c * 6 % 400, 0.5));
        }
    }
    t.push((299, 399, 1.75)); // lone entry after a run of empty rows
    let m = Coo::from_triplets(300, 400, t).unwrap();
    let csr = Csr::from(&m);
    let x: Vec<f32> = (0..400).map(|i| ((i % 11) as f32) * 0.5 - 2.0).collect();

    let mut serial = vec![0.25f32; 300];
    csr.spmv(&x, &mut serial).unwrap();
    for budget in [1usize, 2, 7, 16, 300] {
        let mut par = vec![0.25f32; 300];
        with_budget(budget, || csr.spmv_parallel(&x, &mut par)).unwrap();
        assert_eq!(
            par.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            serial.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "skewed parallel CSR SpMV drifted at {budget} threads"
        );
    }
}

#[test]
fn plan_run_is_thread_count_invariant() {
    // Budget invariance: whatever worker budget is installed around it,
    // a plan run's y bits and ExecReport must match a serial run.
    let m = random_coo(0xDE7_0008, 220, 160, 1_800);
    let prepared = pipeline(Parallelism::Serial).prepare(&m).unwrap();
    let acc = prepared.accelerator();
    let x: Vec<f32> = (0..160).map(|i| ((i % 9) as f32) * 0.5 - 2.0).collect();

    let mut want = vec![0.5f32; 220];
    let mut serial = acc.prepare(&prepared.encoded).unwrap();
    let want_report = with_budget(1, || serial.run(&x, &mut want).cloned()).unwrap();
    let want_bits: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();

    for budget in [1usize, 2, 7, 16] {
        let mut plan = acc.prepare(&prepared.encoded).unwrap();
        let mut y = vec![0.5f32; 220];
        let report = with_budget(budget, || plan.run(&x, &mut y).cloned()).unwrap();
        assert_eq!(
            y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want_bits,
            "plan.run y drifted at {budget} threads"
        );
        assert_eq!(
            report, want_report,
            "ExecReport drifted at {budget} threads"
        );
    }
}

#[test]
fn plan_reuse_has_no_drift() {
    // One plan, 100 runs: identical bits every time (the scratch buffers
    // must be fully re-initialised per call).
    let m = random_coo(0xDE7_0009, 130, 130, 900);
    let prepared = pipeline(Parallelism::Serial).prepare(&m).unwrap();
    let mut plan = prepared.accelerator().prepare(&prepared.encoded).unwrap();
    let x: Vec<f32> = (0..130).map(|i| ((i % 5) as f32) * 0.25 - 0.5).collect();

    let mut first = vec![1.5f32; 130];
    let first_report = plan.run(&x, &mut first).unwrap().clone();
    let first_bits: Vec<u32> = first.iter().map(|v| v.to_bits()).collect();
    for i in 1..100 {
        let mut y = vec![1.5f32; 130];
        let report = plan.run(&x, &mut y).unwrap().clone();
        assert_eq!(
            y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            first_bits,
            "plan output drifted on reuse {i}"
        );
        assert_eq!(report, first_report, "report drifted on reuse {i}");
    }
}

#[test]
fn pipeline_execute_is_thread_count_invariant() {
    // A pipeline prepared under any budget must execute to the serial
    // bits.
    let m = random_coo(0xDE7_000A, 150, 150, 1_200);
    let x: Vec<f32> = (0..150).map(|i| ((i % 7) as f32) * 0.5 - 1.0).collect();

    let mut serial_prepared = pipeline(Parallelism::Serial).prepare(&m).unwrap();
    let mut want = vec![0.0f32; 150];
    serial_prepared.execute(&x, &mut want).unwrap();
    let want_bits: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();

    for budget in [2usize, 7, 16] {
        let mut prepared = pipeline(Parallelism::Threads(budget)).prepare(&m).unwrap();
        let mut y = vec![0.0f32; 150];
        prepared.execute(&x, &mut y).unwrap();
        assert_eq!(
            y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want_bits,
            "Prepared::execute drifted at {budget} threads"
        );
    }
}

#[test]
fn plan_run_batch_is_thread_count_invariant() {
    // Budget invariance for batches: the installed worker budget must not
    // move a bit of any (tile-row × lane-block) pair. Serial looped
    // plan.run is the oracle.
    let m = random_coo(0xDE7_000B, 180, 140, 1_500);
    let prepared = pipeline(Parallelism::Serial).prepare(&m).unwrap();
    let acc = prepared.accelerator();

    for batch in [1usize, 2, 3, 4, 5, 6, 7, 8, 12, 15, 16, 17] {
        let xs: Vec<Vec<f32>> = (0..batch)
            .map(|j| {
                (0..140)
                    .map(|i| (((i + 5 * j) % 9) as f32) * 0.5 - 2.0)
                    .collect()
            })
            .collect();
        let mut want = vec![vec![0.75f32; 180]; batch];
        let mut oracle = acc.prepare(&prepared.encoded).unwrap();
        for (xj, yj) in xs.iter().zip(want.iter_mut()) {
            with_budget(1, || oracle.run(xj, yj).map(|_| ())).unwrap();
        }
        let want_bits: Vec<Vec<u32>> = want
            .iter()
            .map(|y| y.iter().map(|v| v.to_bits()).collect())
            .collect();

        for budget in [1usize, 2, 7] {
            let mut plan = acc.prepare(&prepared.encoded).unwrap();
            let mut ys = vec![vec![0.75f32; 180]; batch];
            with_budget(budget, || plan.run_batch(&xs, &mut ys).map(|_| ())).unwrap();
            for (j, y) in ys.iter().enumerate() {
                assert_eq!(
                    y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    want_bits[j],
                    "run_batch vector {j} of {batch} drifted at {budget} threads"
                );
            }
        }
    }
}

#[test]
fn execute_batch_is_thread_count_invariant() {
    // The front-end batched path under the pipeline's own budget: serial
    // looped execute is the oracle for every budget and batch size.
    let m = random_coo(0xDE7_000C, 120, 120, 900);
    let mut serial_prepared = pipeline(Parallelism::Serial).prepare(&m).unwrap();

    for batch in [1usize, 2, 3, 4, 5, 6, 7, 8, 12, 15, 16, 17] {
        let xs: Vec<Vec<f32>> = (0..batch)
            .map(|j| {
                (0..120)
                    .map(|i| (((i + 7 * j) % 11) as f32) * 0.25 - 1.25)
                    .collect()
            })
            .collect();
        let mut want = vec![vec![0.0f32; 120]; batch];
        for (xj, yj) in xs.iter().zip(want.iter_mut()) {
            serial_prepared.execute_into(xj, yj).unwrap();
        }
        let want_bits: Vec<Vec<u32>> = want
            .iter()
            .map(|y| y.iter().map(|v| v.to_bits()).collect())
            .collect();

        for budget in [1usize, 2, 7] {
            let mut prepared = pipeline(Parallelism::Threads(budget)).prepare(&m).unwrap();
            let mut ys = vec![vec![0.0f32; 120]; batch];
            prepared.execute_batch_into(&xs, &mut ys).unwrap();
            for (j, y) in ys.iter().enumerate() {
                assert_eq!(
                    y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    want_bits[j],
                    "execute_batch vector {j} of {batch} drifted at {budget} threads"
                );
            }
        }
    }
}

#[test]
fn timings_record_the_budget() {
    let m = random_coo(0xDE7_0007, 64, 64, 200);
    let serial = pipeline(Parallelism::Serial).prepare(&m).unwrap();
    assert_eq!(serial.timings.threads, 1);
    assert!(!serial.timings.is_parallel());

    let par = pipeline(Parallelism::Threads(4)).prepare(&m).unwrap();
    if cfg!(feature = "parallel") {
        assert_eq!(par.timings.threads, 4);
        assert!(par.timings.is_parallel());
    } else {
        assert_eq!(par.timings.threads, 1);
    }
}
