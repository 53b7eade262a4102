//! Sparse-DNN inference: a 2:4-pruned multi-layer perceptron whose layer
//! products run on the simulated SPASM accelerator with a DBB template
//! portfolio.
//!
//! The paper motivates flexible pattern portfolios partly with the
//! density-bound-block (DBB) patterns that structured pruning produces
//! (Section II-A). This example builds 2:4-pruned weight matrices,
//! extends the candidate portfolios with `TemplateSet::dbb`, and shows
//! the framework selecting it — reaching zero padding where the Table V
//! sets must pad.
//!
//! ```text
//! cargo run --release -p spasm --example sparse_dnn
//! ```

use rand::rngs::SmallRng;
use rand::SeedableRng;
use spasm::{Pipeline, PipelineOptions};
use spasm_patterns::TemplateSet;
use spasm_sparse::{Csr, SpMv};
use spasm_workloads::nm_pruned;

fn relu(v: &mut [f32]) {
    for x in v {
        *x = x.max(0.0);
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = SmallRng::seed_from_u64(2024);
    // A 3-layer MLP, all layers 2:4-pruned with paired rows (the DBB
    // layout structured-pruning kernels target).
    let dims = [512u32, 1024, 1024, 256];
    let weights: Vec<_> = dims
        .windows(2)
        .map(|d| nm_pruned(&mut rng, d[1], d[0], 2, 4, true))
        .collect();

    // Candidate portfolios: the paper's ten Table V sets plus the DBB
    // extension.
    let mut candidates = TemplateSet::table_v_candidates();
    candidates.push(TemplateSet::dbb());
    let options = PipelineOptions {
        candidates,
        ..PipelineOptions::default()
    };
    let pipeline = Pipeline::with_options(options);

    println!("layer  shape          nnz      portfolio   paddings  tile   config");
    let mut prepared_layers = Vec::new();
    for (i, w) in weights.iter().enumerate() {
        let p = pipeline.prepare(w)?;
        println!(
            "{:<6} {:>4}x{:<8} {:>8}  {:<11} {:>8}  {:>5}  {}",
            i,
            w.rows(),
            w.cols(),
            w.nnz(),
            p.selection.set.name(),
            p.encoded.paddings(),
            p.best.tile_size,
            p.best.config.name
        );
        prepared_layers.push(p);
    }

    // Inference on a batch of one input vector, accelerator vs host CSR.
    let x0: Vec<f32> = (0..dims[0])
        .map(|i| ((i % 17) as f32 - 8.0) * 0.1)
        .collect();

    let mut acc_act = x0.clone();
    let mut sim_seconds = 0.0;
    for p in &mut prepared_layers {
        let mut next = vec![0.0f32; p.encoded.rows() as usize];
        let exec = p.execute_into(&acc_act, &mut next)?;
        sim_seconds += exec.seconds;
        relu(&mut next);
        acc_act = next;
    }

    let mut ref_act = x0;
    for w in &weights {
        let mut next = vec![0.0f32; w.rows() as usize];
        Csr::from(w).spmv(&ref_act, &mut next)?;
        relu(&mut next);
        ref_act = next;
    }

    let max_err = acc_act
        .iter()
        .zip(&ref_act)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    println!("\nmax |accelerator - reference| over the output layer: {max_err:.2e}");
    println!("simulated inference time: {:.1} us", sim_seconds * 1e6);

    // The DBB portfolio's padding advantage over the best Table V set.
    let table_v_only = Pipeline::new();
    let p_v = table_v_only.prepare(&weights[0])?;
    let p_dbb = &prepared_layers[0];
    println!(
        "\nlayer-0 paddings: best Table V set ({}) = {}, with DBB portfolio ({}) = {}",
        p_v.selection.set.name(),
        p_v.encoded.paddings(),
        p_dbb.selection.set.name(),
        p_dbb.encoded.paddings()
    );
    Ok(())
}
