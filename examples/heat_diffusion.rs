//! Heat diffusion: explicit time-stepping of the 2D heat equation on the
//! simulated SPASM accelerator.
//!
//! The 5-point Laplacian stencil is exactly the electromagnetics/stencil
//! class of the paper's workload suite (tmt_sym, t2em): its local patterns
//! are diagonal segments, and the framework picks a diagonal-bearing
//! portfolio. Thousands of time steps reuse one encoded matrix — the
//! amortisation scenario of Section V-E4.
//!
//! ```text
//! cargo run --release -p spasm --example heat_diffusion
//! ```

use spasm::Pipeline;
use spasm_sparse::Coo;

/// Builds `I + dt·L` for the 2D 5-point Laplacian on an `n × n` grid with
/// insulated boundaries — one explicit Euler step is then `u ← A·u`.
fn step_matrix(n: u32, dt: f32) -> Coo {
    let idx = |r: u32, c: u32| r * n + c;
    let mut t = Vec::new();
    for r in 0..n {
        for c in 0..n {
            let me = idx(r, c);
            let mut neighbours = Vec::new();
            if r > 0 {
                neighbours.push(idx(r - 1, c));
            }
            if r + 1 < n {
                neighbours.push(idx(r + 1, c));
            }
            if c > 0 {
                neighbours.push(idx(r, c - 1));
            }
            if c + 1 < n {
                neighbours.push(idx(r, c + 1));
            }
            t.push((me, me, 1.0 - dt * neighbours.len() as f32));
            for nb in neighbours {
                t.push((me, nb, dt));
            }
        }
    }
    Coo::from_triplets(n * n, n * n, t).expect("stencil in bounds")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 96u32;
    let dt = 0.2f32;
    let a = step_matrix(n, dt);
    println!(
        "heat step matrix: {}x{} ({} unknowns, {} non-zeros)",
        a.rows(),
        a.cols(),
        n * n,
        a.nnz()
    );

    let mut prepared = Pipeline::new().prepare(&a)?;
    println!(
        "portfolio {} @ tile {} on {} (padding {:.1}%)",
        prepared.selection.set.name(),
        prepared.best.tile_size,
        prepared.best.config.name,
        prepared.encoded.padding_rate() * 100.0
    );

    // A hot square in the centre.
    let mut u = vec![0.0f32; (n * n) as usize];
    for r in n * 3 / 8..n * 5 / 8 {
        for c in n * 3 / 8..n * 5 / 8 {
            u[(r * n + c) as usize] = 100.0;
        }
    }
    let initial_heat: f32 = u.iter().sum();

    let steps = 200;
    let mut simulated = 0.0f64;
    for _ in 0..steps {
        let mut next = vec![0.0f32; u.len()];
        let exec = prepared.execute_into(&u, &mut next)?;
        simulated += exec.seconds;
        u = next;
    }

    let final_heat: f32 = u.iter().sum();
    let peak = u.iter().copied().fold(0.0f32, f32::max);
    println!(
        "after {steps} steps: total heat {:.1} (was {:.1}, conservation error {:.2e}), peak {:.2}",
        final_heat,
        initial_heat,
        ((final_heat - initial_heat) / initial_heat).abs(),
        peak
    );
    assert!(
        ((final_heat - initial_heat) / initial_heat).abs() < 1e-3,
        "insulated boundaries must conserve heat"
    );
    println!(
        "simulated accelerator time: {:.3} ms for {steps} steps \
         ({:.1} us/step) — one preprocessing pass, thousands of reuses",
        simulated * 1e3,
        simulated * 1e6 / steps as f64
    );
    Ok(())
}
