//! The simulated accelerator's front door ([`Accelerator::prepare`]) and
//! the vocabulary of an execution: errors, traffic and the report.

use std::fmt;

use spasm_format::SpasmMatrix;

use crate::config::HwConfig;
use crate::integrity::{HealthReport, IntegrityCheck};
use crate::plan::ExecutionPlan;
use crate::valu::OpcodeError;

/// Errors from running the simulator.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// An operand has the wrong length.
    DimensionMismatch {
        /// Expected length.
        expected: usize,
        /// Supplied length.
        actual: usize,
        /// Which operand.
        operand: &'static str,
    },
    /// One vector inside a batched call has the wrong length. Carries the
    /// batch index so a server coalescing independent requests can reject
    /// just the offending request instead of failing the whole batch.
    BatchDimensionMismatch {
        /// Index of the offending vector within the batch.
        vector: usize,
        /// Expected length.
        expected: usize,
        /// Supplied length.
        actual: usize,
        /// Which operand (`"x"` or `"y"`).
        operand: &'static str,
    },
    /// The matrix's portfolio contains a template the VALU cannot realise.
    Opcode(OpcodeError),
    /// The encoded stream violates a structural integrity invariant —
    /// see [`IntegrityCheck`] for which one. Raised when a plan is built
    /// (prepare, splice or wire-v3 thaw) from a stream that decoded but
    /// cannot be executed safely.
    Integrity {
        /// The tile row where the violation was detected.
        tile_row: u32,
        /// The violated invariant.
        check: IntegrityCheck,
    },
    /// A frozen plan's parts are mutually inconsistent and cannot be
    /// reassembled into an executable plan. Raised by
    /// [`ExecutionPlan::from_parts`] for hostile or corrupted inputs —
    /// never a panic — when a rule only parts can break fails (a stream
    /// invariant raises [`SimError::Integrity`] instead). The payload
    /// names the violated invariant.
    Plan(&'static str),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::DimensionMismatch {
                expected,
                actual,
                operand,
            } => {
                write!(
                    f,
                    "vector `{operand}` has length {actual}, expected {expected}"
                )
            }
            SimError::BatchDimensionMismatch {
                vector,
                expected,
                actual,
                operand,
            } => {
                write!(
                    f,
                    "batch vector {vector}: `{operand}` has length {actual}, expected {expected}"
                )
            }
            SimError::Opcode(e) => write!(f, "portfolio not realisable: {e}"),
            SimError::Integrity { tile_row, check } => {
                write!(f, "integrity check failed in tile row {tile_row}: {check}")
            }
            SimError::Plan(what) => write!(f, "inconsistent plan parts: {what}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<OpcodeError> for SimError {
    fn from(e: OpcodeError) -> Self {
        SimError::Opcode(e)
    }
}

/// Traffic moved over HBM during one SpMV, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Traffic {
    /// Matrix stream: 20 bytes per template instance.
    pub matrix: u64,
    /// x-vector segments loaded (tile_size × 4 per processed tile).
    pub x: u64,
    /// y sums (read + write, 8 bytes per element of worked tile rows).
    pub y: u64,
}

impl Traffic {
    /// Total bytes.
    pub fn total(self) -> u64 {
        self.matrix + self.x + self.y
    }
}

/// The amortised cycle model of one batched execution
/// ([`ExecutionPlan::run_batch`]): initialisation and the matrix stream are
/// paid once, the per-vector body repeats for every vector of the batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchReport {
    /// Vectors in the batch.
    pub vectors: usize,
    /// Whole-batch cycles: `INIT_CYCLES + vectors × (cycles − INIT_CYCLES)`.
    pub cycles: u64,
    /// Whole-batch wall-clock seconds at the configuration's clock.
    pub seconds: f64,
    /// `cycles / max(vectors, 1)` — the per-vector amortised cost.
    pub amortised_cycles_per_vector: f64,
    /// `seconds / max(vectors, 1)`.
    pub amortised_seconds_per_vector: f64,
    /// Whole-batch HBM traffic: the matrix stream moves once, the x and y
    /// traffic scale with the batch.
    pub traffic: Traffic,
}

/// The outcome of one simulated SpMV execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecReport {
    /// Total cycles, including initialisation and the y drain.
    pub cycles: u64,
    /// Wall-clock seconds at the configuration's clock.
    pub seconds: f64,
    /// Throughput by the paper's formula `(2·nnz + rows) / time`.
    pub gflops: f64,
    /// Achieved memory bandwidth (total traffic / time), GB/s.
    pub achieved_bandwidth_gbs: f64,
    /// Fraction of peak arithmetic throughput used.
    pub compute_utilization: f64,
    /// Fraction of the configuration's aggregate bandwidth used.
    pub bandwidth_utilization: f64,
    /// Busy cycles of each PE group (before init / y drain).
    pub per_group_cycles: Vec<u64>,
    /// HBM traffic breakdown.
    pub traffic: Traffic,
    /// Activity-based power estimate (watts); see
    /// [`HwConfig::power_estimate_w`].
    pub estimated_power_w: f64,
    /// Energy of this execution: estimated power × time (joules).
    pub energy_j: f64,
    /// Fault-tolerance bookkeeping for the most recent execution: faults
    /// injected, corruptions detected/corrected, fallbacks taken. All
    /// zeros (the default) for a clean run.
    pub health: HealthReport,
    /// Amortised batch pricing of the most recent execution, when it was a
    /// batch ([`ExecutionPlan::run_batch`] /
    /// `Prepared::execute_batch_into`); `None` after single-vector runs.
    pub batch: Option<BatchReport>,
}

impl ExecReport {
    /// The report of one priced execution: wall-clock time, the paper's
    /// GFLOP/s `flops / time`, achieved bandwidth, utilisations, power
    /// and energy, all derived from the cycles and traffic — the one place
    /// these are computed. Health is clean and no batch is stamped.
    pub(crate) fn priced(
        config: &HwConfig,
        per_group_cycles: Vec<u64>,
        cycles: u64,
        traffic: Traffic,
        flops: f64,
    ) -> Self {
        let seconds = config.cycles_to_seconds(cycles);
        let gflops = flops / seconds / 1e9;
        let achieved_bandwidth_gbs = traffic.total() as f64 / seconds / 1e9;
        let compute_utilization = gflops / config.peak_gflops();
        let estimated_power_w = config.power_estimate_w(compute_utilization);
        ExecReport {
            cycles,
            seconds,
            gflops,
            achieved_bandwidth_gbs,
            compute_utilization,
            bandwidth_utilization: achieved_bandwidth_gbs / config.bandwidth_gbs(),
            per_group_cycles,
            traffic,
            estimated_power_w,
            energy_j: estimated_power_w * seconds,
            health: HealthReport::default(),
            batch: None,
        }
    }
}

/// The simulated SPASM accelerator.
///
/// # Examples
///
/// ```
/// use spasm_format::{SpasmMatrix, SubmatrixMap};
/// use spasm_hw::{Accelerator, HwConfig};
/// use spasm_patterns::{DecompositionTable, TemplateSet};
/// use spasm_sparse::Coo;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let coo = Coo::from_triplets(4, 4, vec![(0, 0, 2.0), (3, 1, -1.0)])?;
/// let table = DecompositionTable::build(&TemplateSet::table_v_set(0));
/// let m = SpasmMatrix::encode(&SubmatrixMap::from_coo(&coo), &table, 4)?;
///
/// let acc = Accelerator::new(HwConfig::spasm_4_1());
/// let mut plan = acc.prepare(&m)?;
/// let mut y = vec![0.0f32; 4];
/// let report = plan.run(&[1.0, 2.0, 3.0, 4.0], &mut y)?;
/// assert_eq!(y, vec![2.0, 0.0, 0.0, -2.0]);
/// assert!(report.cycles > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Accelerator {
    config: HwConfig,
}

impl Accelerator {
    /// Builds an accelerator with the given configuration.
    pub fn new(config: HwConfig) -> Self {
        Accelerator { config }
    }

    /// The hardware configuration.
    pub fn config(&self) -> &HwConfig {
        &self.config
    }

    /// Builds a prepared [`ExecutionPlan`] for `matrix`: everything that
    /// depends only on `(matrix, config)` — pre-decoded instance stream,
    /// tile-row layout, LPT assignment, cycle pricing, scratch buffers —
    /// is computed once, so repeated [`ExecutionPlan::run`] calls only do
    /// the functional pass, every MAC through the VALU opcode datapath.
    ///
    /// # Errors
    ///
    /// * [`SimError::Opcode`] if the matrix's portfolio is not realisable;
    /// * [`SimError::Integrity`] if its stream violates a structural
    ///   invariant (a tile outside the matrix, a directory that does not
    ///   tile the stream, an encoding outside its tile or the portfolio).
    pub fn prepare(&self, matrix: &SpasmMatrix) -> Result<ExecutionPlan, SimError> {
        ExecutionPlan::build(self.config.clone(), matrix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing;
    use spasm_format::SubmatrixMap;
    use spasm_patterns::{DecompositionTable, TemplateSet};
    use spasm_sparse::{Coo, SpMv};

    fn encode(coo: &Coo, tile: u32) -> SpasmMatrix {
        let table = DecompositionTable::build(&TemplateSet::table_v_set(0));
        SpasmMatrix::encode(&SubmatrixMap::from_coo(coo), &table, tile).unwrap()
    }

    /// Prepares a plan for `m` on `cfg` and runs it once.
    fn run(
        cfg: &HwConfig,
        m: &SpasmMatrix,
        x: &[f32],
        y: &mut [f32],
    ) -> Result<ExecReport, SimError> {
        let mut plan = Accelerator::new(cfg.clone()).prepare(m)?;
        plan.run(x, y).cloned()
    }

    fn sample(n: u32) -> Coo {
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 2.0));
            t.push((i, (i * 7 + 3) % n, 0.5));
            if i + 1 < n {
                t.push((i + 1, i, -1.0));
            }
        }
        Coo::from_triplets(n, n, t).unwrap()
    }

    #[test]
    fn functional_result_matches_reference() {
        let coo = sample(100);
        let x: Vec<f32> = (0..100).map(|i| (i as f32) * 0.25 - 10.0).collect();
        let mut want = vec![0.5f32; 100];
        coo.spmv(&x, &mut want).unwrap();

        for tile in [16u32, 64, 256] {
            let m = encode(&coo, tile);
            let mut got = vec![0.5f32; 100];
            run(&HwConfig::spasm_4_1(), &m, &x, &mut got).unwrap();
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < 1e-3, "{g} vs {w}");
            }
        }
    }

    #[test]
    fn cycles_match_perf_model() {
        let coo = sample(200);
        let table = DecompositionTable::build(&TemplateSet::table_v_set(0));
        let map = SubmatrixMap::from_coo(&coo);
        for tile in [16u32, 64] {
            for cfg in HwConfig::shipped() {
                let m = SpasmMatrix::encode(&map, &table, tile).unwrap();
                let summary = spasm_format::TilingSummary::analyze(&map, &table, tile).unwrap();
                let est = crate::perf::estimate_cycles(&summary, &cfg);
                let mut y = vec![0.0f32; 200];
                let rep = run(&cfg, &m, &[1.0; 200], &mut y).unwrap();
                assert_eq!(rep.cycles, est, "tile {tile} cfg {}", cfg.name);
            }
        }
    }

    #[test]
    fn metrics_are_sane() {
        let coo = sample(256);
        let m = encode(&coo, 64);
        let cfg = HwConfig::spasm_4_1();
        let mut y = vec![0.0f32; 256];
        let rep = run(&cfg, &m, &[1.0; 256], &mut y).unwrap();
        // GFLOP/s by the paper's formula `(2·nnz + rows) / time`.
        let expect = (2.0 * coo.nnz() as f64 + coo.rows() as f64) / rep.seconds / 1e9;
        assert!((rep.gflops - expect).abs() < 1e-9);
        assert!(rep.gflops > 0.0 && rep.gflops <= cfg.peak_gflops());
        assert!(rep.compute_utilization > 0.0 && rep.compute_utilization <= 1.0);
        assert!(rep.bandwidth_utilization > 0.0 && rep.bandwidth_utilization <= 1.0);
        assert_eq!(rep.per_group_cycles.len(), cfg.num_pe_groups as usize);
        assert_eq!(rep.traffic.matrix, 20 * m.n_instances() as u64);
        assert!(rep.seconds > 0.0);
        // Power sits between static and static + dynamic, and energy is
        // consistent.
        assert!(rep.estimated_power_w >= crate::config::STATIC_POWER_W);
        assert!(
            rep.estimated_power_w <= crate::config::STATIC_POWER_W + crate::config::DYNAMIC_POWER_W
        );
        assert!((rep.energy_j - rep.estimated_power_w * rep.seconds).abs() < 1e-12);
    }

    #[test]
    fn dimension_checks() {
        let m = encode(&sample(16), 16);
        let cfg = HwConfig::spasm_3_2();
        let mut y = vec![0.0f32; 16];
        assert!(matches!(
            run(&cfg, &m, &[1.0; 4], &mut y),
            Err(SimError::DimensionMismatch { operand: "x", .. })
        ));
        let mut y_bad = vec![0.0f32; 4];
        assert!(matches!(
            run(&cfg, &m, &[1.0; 16], &mut y_bad),
            Err(SimError::DimensionMismatch { operand: "y", .. })
        ));
    }

    #[test]
    fn non_multiple_of_four_edges() {
        // 10x10: padded windows must not read out of bounds or corrupt y.
        let coo = Coo::from_triplets(10, 10, vec![(9, 9, 3.0), (0, 9, 1.0), (9, 0, 2.0)]).unwrap();
        let m = encode(&coo, 8);
        let x: Vec<f32> = (1..=10).map(|i| i as f32).collect();
        let mut want = vec![0.0f32; 10];
        coo.spmv(&x, &mut want).unwrap();
        let mut got = vec![0.0f32; 10];
        run(&HwConfig::spasm_4_1(), &m, &x, &mut got).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn empty_matrix_runs() {
        let m = encode(&Coo::new(8, 8), 8);
        let mut y = vec![0.0f32; 8];
        let rep = run(&HwConfig::spasm_4_1(), &m, &[1.0; 8], &mut y).unwrap();
        assert_eq!(y, vec![0.0; 8]);
        assert_eq!(rep.cycles, timing::INIT_CYCLES);
    }
}
