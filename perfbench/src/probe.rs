//! The machine-speed reference kernel.
//!
//! A plain CSR SpMV over eight right-hand sides at once, on a matrix this
//! file generates itself. It calls no library code, so no change to the
//! repository can change its cost: it measures only how fast the host runs
//! right now. Every wall-clock metric is scaled by the probe's reference
//! time over the median of the samples a run takes at quiescent points
//! between its measured blocks (nothing queued, no plan threads alive).
//! The probe runs on one thread, as every timed call does.
//!
//! Sizes: 65 536 rows × 16 nonzeros per row gives 4 MiB of values plus
//! 4 MiB of column indices, and x and y hold 2 MiB each (8 lanes) — 12 MiB
//! in all, three times a 4 MiB per-core L2 and well inside a 300 MiB L3,
//! which is also where the benchmark's plans live. The eight lanes reuse
//! each matrix entry eight times, as the plan executor's fused batch
//! kernels do; on the reference host a single-lane probe of the same size
//! varied several times more from run to run.

use std::time::Instant;

/// Rows (and columns) of the probe matrix.
const N: usize = 1 << 16;
/// Nonzeros per row.
const PER_ROW: usize = 16;
/// Right-hand sides per pass.
const LANES: usize = 8;
/// SpMV passes per probe sample; the sample is their median.
const PASSES: usize = 3;

/// The constant adjusted timings are normalised to: a typical `probe_ms`
/// on the reference host (2 cores, 4 MiB L2 per core). Adjusted values
/// keep their units; only their scale depends on this choice.
pub const PROBE_REF_MS: f64 = 5.0;

pub struct Probe {
    row_ptr: Vec<u32>,
    cols: Vec<u32>,
    vals: Vec<f32>,
    x: Vec<f32>,
    y: Vec<f32>,
}

impl Probe {
    /// Builds the probe's data. Fixed content: it does not depend on the
    /// workload seed.
    pub fn new() -> Probe {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut row_ptr = Vec::with_capacity(N + 1);
        let mut cols = Vec::with_capacity(N * PER_ROW);
        let mut vals = Vec::with_capacity(N * PER_ROW);
        row_ptr.push(0u32);
        for r in 0..N {
            // Half the entries near the diagonal, half anywhere: a mix of
            // streamed and gathered x reads, like the served matrices.
            for k in 0..PER_ROW {
                let c = if k % 2 == 0 {
                    (r + (next() as usize % 64)) % N
                } else {
                    next() as usize % N
                };
                cols.push(c as u32);
                vals.push(((next() % 17) as f32 - 8.0) * 0.125);
            }
            row_ptr.push(cols.len() as u32);
        }
        let x = (0..N * LANES)
            .map(|i| ((i % 13) as f32 - 6.0) * 0.25)
            .collect();
        Probe {
            row_ptr,
            cols,
            vals,
            x,
            y: vec![0.0; N * LANES],
        }
    }

    /// One pass: `y = A·x` for every row.
    fn pass(&mut self) {
        for (r, out) in self.y.chunks_exact_mut(LANES).enumerate() {
            let (lo, hi) = (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize);
            let mut acc = [0.0f32; LANES];
            for (&c, &v) in self.cols[lo..hi].iter().zip(&self.vals[lo..hi]) {
                let x = &self.x[c as usize * LANES..][..LANES];
                for (a, xi) in acc.iter_mut().zip(x) {
                    *a += v * xi;
                }
            }
            out.copy_from_slice(&acc);
        }
        std::hint::black_box(&mut self.y);
    }

    /// One probe sample: the median of `PASSES` timed passes, in ms.
    pub fn sample(&mut self) -> f64 {
        let mut times = [0.0f64; PASSES];
        for t in &mut times {
            let t0 = Instant::now();
            self.pass();
            *t = t0.elapsed().as_secs_f64() * 1e3;
        }
        times.sort_by(f64::total_cmp);
        times[PASSES / 2]
    }
}
