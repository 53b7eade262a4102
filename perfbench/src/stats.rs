//! Sample series, speed adjustment and the result record.

use std::time::{Duration, Instant};

use crate::probe::{Probe, PROBE_REF_MS};

/// How far each kind of timing follows the probe: a sample is scaled by
/// the speed factor raised to this power. The reference host switches
/// between a fast and a slow mode, minutes at a time, in which the probe
/// takes 2.5 or 5 ms; over 30-s runs of every workload in both modes, the
/// exponents that left the least run-to-run spread were these.
///
/// SpMV work (solver steps, request latency, throughput, the executor)
/// slows as much as the probe, which is an SpMV too.
pub const SPMV: f64 = 1.0;
/// The latency tail holds the steps and requests a passing neighbour
/// slowed for a moment, which the probe does not see: full scaling
/// stretched it in the fast mode.
pub const TAIL: f64 = 0.75;
/// Set-up (prepare, cold start) and structural deltas slow less.
pub const PREPARE: f64 = 0.75;
/// Values-only deltas, a copy-on-write patch, slow least.
pub const PATCH: f64 = 0.5;

/// Probe samples around a sample's time that set its speed factor: about
/// two seconds of blocks.
const NEAR: usize = 5;

/// Probe samples taken at quiescent points: before set-up and between
/// measured blocks, with the time each was taken.
///
/// A sample of a timing is adjusted by the factor near the time it was
/// taken: the probe's reference time over the median of the `NEAR` probe
/// samples closest to it in time, raised to the timing kind's exponent.
/// The median smooths the ±20% jitter of single probe samples; the window
/// follows the host when it changes speed in the middle of a run, which a
/// factor over the whole run did not (run-to-run spreads of 10–15%
/// instead of 5–10% on the same runs).
pub struct Meter {
    probe: Probe,
    samples: Vec<(Instant, f64)>,
}

impl Meter {
    pub fn new(mut probe: Probe) -> Meter {
        // Let the probe's pages fault in before its first sample counts.
        probe.sample();
        Meter {
            probe,
            samples: Vec::new(),
        }
    }

    /// Takes one probe sample; call only with nothing queued and no plan
    /// threads alive.
    pub fn probe(&mut self) {
        let ms = self.probe.sample();
        self.samples.push((Instant::now(), ms));
    }

    /// The speed factor at time `at`.
    pub fn factor_at(&self, at: Instant) -> f64 {
        let s = &self.samples;
        let i = s.partition_point(|&(t, _)| t < at);
        let mut near: Vec<(Duration, f64)> = s[i.saturating_sub(NEAR)..(i + NEAR).min(s.len())]
            .iter()
            .map(|&(t, ms)| (t.max(at) - t.min(at), ms))
            .collect();
        near.sort_by_key(|&(d, _)| d);
        near.truncate(NEAR);
        let near: Vec<f64> = near.iter().map(|&(_, ms)| ms).collect();
        PROBE_REF_MS / median(&near)
    }

    /// `series` with every sample scaled by the factor at its time raised
    /// to `exponent`: a timing kind's exponent for times, its negation for
    /// rates.
    pub fn adjust(&self, series: &Series, exponent: f64) -> Series {
        Series(
            series
                .0
                .iter()
                .map(|&(v, t)| (v * self.factor_at(t).powf(exponent), t))
                .collect(),
        )
    }

    /// The probe time: the machine, not the program.
    pub fn probe_ms(&self) -> f64 {
        let ms: Vec<f64> = self.samples.iter().map(|&(_, ms)| ms).collect();
        median(&ms)
    }

    pub fn probes(&self) -> usize {
        self.samples.len()
    }
}

/// Raw samples of one timing, each with the time it was recorded.
#[derive(Default, Clone)]
pub struct Series(Vec<(f64, Instant)>);

impl Series {
    pub fn push(&mut self, v: f64) {
        self.0.push((v, Instant::now()));
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().map(|&(v, _)| v).sum()
    }

    pub fn quantile(&self, q: f64) -> f64 {
        let values: Vec<f64> = self.0.iter().map(|&(v, _)| v).collect();
        quantile(&values, q)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

/// Linear-interpolated quantile; NaN for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The tail percentile reported as `p90_ms`. A tail percentile must have
/// ten samples beyond it and repeat within a tenth across runs; a 30 s
/// `solve` run holds about ten samples beyond p99, so p90 is used on every
/// workload and the metric means the same thing everywhere.
pub const TAIL_Q: f64 = 0.90;

/// One reported metric, with the sample count behind it and, for
/// speed-adjusted timings, the unadjusted value.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
    pub raw: Option<f64>,
}

#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            raw: None,
        });
    }

    /// `stat` of a series adjusted sample by sample with `exponent` (see
    /// [`Meter::adjust`]), together with its raw value.
    pub fn adjusted(
        &mut self,
        name: &str,
        unit: &'static str,
        series: &Series,
        meter: &Meter,
        exponent: f64,
        stat: impl Fn(&Series) -> f64,
    ) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value: stat(&meter.adjust(series, exponent)),
            unit,
            samples: series.len(),
            raw: Some(stat(series)),
        });
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// Every operation the benchmark issues ends in exactly one of these.
#[derive(Default, Debug, Clone, Copy)]
pub struct Ledger {
    pub attempted: u64,
    pub succeeded: u64,
    pub failed: u64,
    pub rejected: u64,
}

impl Ledger {
    pub fn balanced(&self) -> bool {
        self.attempted == self.succeeded + self.failed + self.rejected
    }

    pub fn absorb(&mut self, other: Ledger) {
        self.attempted += other.attempted;
        self.succeeded += other.succeeded;
        self.failed += other.failed;
        self.rejected += other.rejected;
    }

    pub fn ok(&mut self) {
        self.succeeded += 1;
    }

    pub fn fail(&mut self, why: &str) {
        self.failed += 1;
        eprintln!("perfbench: FAILED: {why}");
    }
}
