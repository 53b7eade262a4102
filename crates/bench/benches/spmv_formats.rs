//! Benchmarks of host-side SpMV across storage formats and of the
//! simulated accelerator — the substrate behind the throughput figures.
//! Includes the row-partitioned parallel CSR kernel next to its serial
//! counterpart (bit-identical output; see `tests/determinism.rs`).
//!
//! Run with `cargo bench -p spasm-bench --bench spmv_formats`.

use spasm_bench::timing::{bench, report_speedup};
use spasm_format::{SpasmMatrix, SubmatrixMap};
use spasm_hw::{Accelerator, HwConfig};
use spasm_patterns::{DecompositionTable, TemplateSet};
use spasm_sparse::{Bsr, Csc, Csr, Dia, Ell, SpMv};
use spasm_workloads::{Scale, Workload};

fn main() {
    spasm_bench::smoke_from_args();
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "host threads: {threads} | parallel feature: {}",
        cfg!(feature = "parallel")
    );

    let m = Workload::Raefsky3.generate(Scale::Small);
    let n = m.cols() as usize;
    let x: Vec<f32> = (0..n).map(|i| (i % 13) as f32 * 0.25).collect();
    let rows = m.rows() as usize;

    let csr = Csr::from(&m);
    let csc = Csc::from(&m);
    let bsr = Bsr::from_coo(&m, 4).unwrap();
    let dia = Dia::from_coo(&m);
    let ell = Ell::from_coo(&m);
    let table = DecompositionTable::build(&TemplateSet::table_v_set(0));
    let spasm = SpasmMatrix::encode(&SubmatrixMap::from_coo(&m), &table, 1024).unwrap();

    println!("== host SpMV, {} nnz ==", m.nnz());
    macro_rules! row {
        ($name:literal, $m:expr) => {
            bench($name, || {
                let mut y = vec![0.0f32; rows];
                $m.spmv(&x, &mut y).unwrap();
                y
            })
        };
    }
    row!("coo", m);
    let csr_serial = row!("csr", csr);
    row!("csc", csc);
    row!("bsr4", bsr);
    row!("dia", dia);
    row!("ell", ell);
    bench("spasm_stream", || {
        let mut y = vec![0.0f32; rows];
        spasm.spmv(&x, &mut y).unwrap();
        y
    });

    let csr_parallel = bench("csr_parallel", || {
        let mut y = vec![0.0f32; rows];
        csr.spmv_parallel(&x, &mut y).unwrap();
        y
    });
    report_speedup("csr parallel kernel", &csr_serial, &csr_parallel);

    println!("\n== simulator, {} nnz ==", m.nnz());
    for cfg in HwConfig::shipped() {
        let acc = Accelerator::new(cfg.clone());
        bench(&cfg.name, || {
            let mut y = vec![0.0f32; rows];
            let mut plan = acc.prepare(&spasm).unwrap();
            plan.run(&x, &mut y).unwrap().clone()
        });
    }
}
