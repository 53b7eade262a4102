//! PageRank on a synthetic web-like graph, with the rank-propagation SpMV
//! running on the simulated SPASM accelerator.
//!
//! Graph matrices are SPASM's hardest class (scattered local patterns, cf.
//! mycielskian14 in Table II); this example shows the framework still
//! executes them correctly and reports the achieved efficiency.
//!
//! ```text
//! cargo run --release -p spasm --example pagerank
//! ```

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spasm::Pipeline;
use spasm_sparse::Coo;

/// Builds a random directed graph with preferential attachment so the
/// in-degree distribution is skewed like a real web graph, and returns its
/// column-stochastic transition matrix.
fn transition_matrix(n: u32, edges_per_node: usize, seed: u64) -> Coo {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut targets: Vec<u32> = Vec::new();
    let mut out_edges: Vec<(u32, u32)> = Vec::new();
    for v in 0..n {
        for _ in 0..edges_per_node {
            // Preferential attachment: half the time copy an existing
            // target, otherwise uniform.
            let t = if !targets.is_empty() && rng.gen_bool(0.5) {
                targets[rng.gen_range(0..targets.len())]
            } else {
                rng.gen_range(0..n)
            };
            if t != v {
                out_edges.push((v, t));
                targets.push(t);
            }
        }
    }
    // Column-stochastic: A[t][v] = 1/outdeg(v).
    let mut outdeg = vec![0usize; n as usize];
    for &(v, _) in &out_edges {
        outdeg[v as usize] += 1;
    }
    let triplets: Vec<(u32, u32, f32)> = out_edges
        .into_iter()
        .map(|(v, t)| (t, v, 1.0 / outdeg[v as usize] as f32))
        .collect();
    Coo::from_triplets(n, n, triplets).expect("edges in bounds")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 4096u32;
    let a = transition_matrix(n, 8, 42);
    println!("graph: {} nodes, {} edges", n, a.nnz());

    let mut prepared = Pipeline::new().prepare(&a)?;
    println!(
        "selected {} @ tile {}; padding rate {:.1}%",
        prepared.best.config.name,
        prepared.best.tile_size,
        prepared.encoded.padding_rate() * 100.0
    );

    let damping = 0.85f32;
    let mut rank = vec![1.0f32 / n as f32; n as usize];
    let mut simulated = 0.0f64;
    let mut iters = 0;
    loop {
        let mut contrib = vec![0.0f32; n as usize];
        let exec = prepared.execute_into(&rank, &mut contrib)?;
        simulated += exec.seconds;

        // Dangling mass: rank that flowed into nodes without out-edges
        // redistributes uniformly.
        let sum: f32 = contrib.iter().sum();
        let leaked = (1.0 - sum).max(0.0);
        let base = (1.0 - damping) / n as f32 + damping * leaked / n as f32;
        let mut delta = 0.0f32;
        for i in 0..n as usize {
            let new = base + damping * contrib[i];
            delta += (new - rank[i]).abs();
            rank[i] = new;
        }
        iters += 1;
        if delta < 1e-6 * n as f32 || iters >= 100 {
            break;
        }
    }

    // Cross-check the final propagation on the host with the
    // row-partitioned parallel CSR kernel (serial fallback without the
    // `parallel` feature).
    let csr = spasm_sparse::Csr::from(&a);
    let mut host = vec![0.0f32; n as usize];
    csr.spmv_parallel(&rank, &mut host)?;
    let mut accel = vec![0.0f32; n as usize];
    prepared.execute_into(&rank, &mut accel)?;
    let max_err = host
        .iter()
        .zip(&accel)
        .map(|(h, s)| (h - s).abs())
        .fold(0.0f32, f32::max);
    println!("max |host - accelerator| on final ranks: {max_err:.2e}");

    let mut top: Vec<(usize, f32)> = rank.iter().copied().enumerate().collect();
    top.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("converged in {iters} iterations; top-5 nodes:");
    for (node, score) in top.iter().take(5) {
        println!("  node {node:>5}: {score:.6}");
    }
    let total: f32 = rank.iter().sum();
    println!("rank mass: {total:.6} (should be ~1)");
    println!(
        "simulated accelerator time: {:.3} ms over {iters} SpMVs",
        simulated * 1e3
    );
    Ok(())
}
