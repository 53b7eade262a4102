//! Inputs from the seed, and the output checks shared by the workloads.

use spasm::IntegrityPolicy;
use spasm_sparse::Csr;

/// SplitMix64: the benchmark's own generator, so the inputs depend only on
/// `--seed` and this file.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// A dense vector with entries in `[-1, 1)`.
    pub fn vector(&mut self, len: usize) -> Vec<f32> {
        (0..len).map(|_| (self.unit() * 2.0 - 1.0) as f32).collect()
    }
}

/// Zipf(s = 1) over `n` ranks: rank `k` (0-based) has weight `1 / (k + 1)`.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cumulative: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / (k + 1) as f64;
                acc
            })
            .collect();
        for c in &mut cumulative {
            *c /= acc;
        }
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cumulative
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cumulative.len() - 1)
    }
}

pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// `y` agrees with `A·x` computed from the CSR reference, row by row,
/// within a relative f32 rounding allowance of `Σ|a_ij·x_j|`.
pub fn near_reference(golden: &Csr, x: &[f32], y: &[f32]) -> bool {
    (0..golden.rows()).all(|r| {
        let (mut exact, mut scale) = (0.0f64, 0.0f64);
        for (c, v) in golden.row(r) {
            let term = f64::from(v) * f64::from(x[c as usize]);
            exact += term;
            scale += term.abs();
        }
        (f64::from(y[r as usize]) - exact).abs() <= 1e-4 * scale + 1e-6
    })
}

/// Runs `f` under an explicit plan thread budget.
pub fn with_budget<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("the vendored pool builder is infallible")
        .install(f)
}

/// The sampled policy's own seed picks which rows it cross-checks. It is
/// fixed, not drawn from the workload seed, so every run verifies the same
/// rows and pays the same ladder cost.
const POLICY_SEED: u64 = 0x5A3D;

pub fn policy(sampled: bool) -> IntegrityPolicy {
    if sampled {
        IntegrityPolicy::sampled(4, POLICY_SEED)
    } else {
        IntegrityPolicy::off()
    }
}
