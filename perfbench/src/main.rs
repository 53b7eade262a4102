//! Wall-clock end-to-end benchmark of SPASM.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <solve|serve|serve_update> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a table of every metric (value, unit, sample count and, for
//! speed-adjusted timings, the raw value), then, as the last line, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! run is split into an untraced and a traced half and the metrics are the
//! per-layer ones, including the tracing overhead between the halves.
//! Exits non-zero when any output check fails. See `perfbench/README.md`.

mod common;
mod layers;
mod probe;
mod serve;
mod solve;
mod stats;
mod updates;

use std::process::ExitCode;
use std::time::Duration;

use stats::{Ledger, Meter, Report, Series, PATCH, PREPARE, SPMV, TAIL, TAIL_Q};
use updates::UpdateTimes;

/// Length of one measured block; a probe sample closes each block.
pub const BLOCK: Duration = Duration::from_millis(400);
/// Set-up runs once before the first block and again at the first
/// quiescent point this long after the previous one; its median over the
/// run is reported. Spread over the run, the repetitions see the same
/// host speed phases the blocks do.
pub const SETUP_EVERY: Duration = Duration::from_millis(1500);

pub struct Ctx {
    pub seed: u64,
    pub seconds: Duration,
    pub nproc: usize,
    pub meter: Meter,
    /// Cleared by any failed check that is not an individual operation.
    pub correct: bool,
}

/// End-to-end metrics: name and unit.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("gflops", "GFLOP/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("update_p50_ms", "ms"),
    ("update_struct_p50_ms", "ms"),
];

/// Per-layer metrics: name and unit.
const PER_LAYER: [(&str, &str); 36] = [
    ("prepare.analysis_ms", "ms"),
    ("prepare.selection_ms", "ms"),
    ("prepare.decomposition_ms", "ms"),
    ("prepare.schedule_ms", "ms"),
    ("prepare.encode_ms", "ms"),
    ("prepare.plan_ms", "ms"),
    ("store.load_ms", "ms"),
    ("store.ingest_wire_ms", "ms"),
    ("store.warmup_ms", "ms"),
    ("store.wire_bytes", "bytes"),
    ("exec.batch_ms", "ms"),
    ("exec.ns_per_nnz_rhs", "ns"),
    ("exec.model_ratio", "ratio"),
    ("exec.bytes_per_spmv", "bytes_computed"),
    ("fanout.speedup", "ratio"),
    ("verify.overhead_ratio", "ratio"),
    ("verify.fallbacks", "count"),
    ("serve.submit_us", "us"),
    ("serve.flush_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.batch_size_mean", "requests"),
    ("serve.deadline_flush_share", "share"),
    ("serve.overhead_share", "share"),
    ("update.values_ms", "ms"),
    ("update.structural_ms", "ms"),
    ("update.reprepare_ms", "ms"),
    ("update.reprepare_count", "count"),
    ("probe_ms", "ms"),
    ("raw.setup_s", "s"),
    ("raw.gflops", "GFLOP/s"),
    ("raw.p50_ms", "ms"),
    ("raw.p90_ms", "ms"),
    ("raw.update_p50_ms", "ms"),
    ("raw.update_struct_p50_ms", "ms"),
    ("trace.p50_ratio", "ratio"),
    ("trace.gflops_ratio", "ratio"),
];

/// Reports the median and tail latency percentile (see [`TAIL_Q`]) of
/// `samples`, in ms.
pub fn report_latency(report: &mut Report, samples: &Series, meter: &Meter) {
    report.adjusted("p50_ms", "ms", samples, meter, SPMV, Series::median);
    report.adjusted("p90_ms", "ms", samples, meter, TAIL, |s| s.quantile(TAIL_Q));
}

/// Reports delta latency: the end-to-end medians (all deltas, whose
/// median is a values-only patch, and the small structural ones) always,
/// and the split by outcome on traced runs.
pub fn report_updates(report: &mut Report, u: &UpdateTimes, meter: &Meter, traced: bool) {
    let s = &u.small_structural;
    report.adjusted("update_p50_ms", "ms", &u.all, meter, PATCH, Series::median);
    report.adjusted(
        "update_struct_p50_ms",
        "ms",
        s,
        meter,
        PREPARE,
        Series::median,
    );
    if traced {
        for (name, s, exponent) in [
            ("update.values_ms", &u.values, PATCH),
            ("update.structural_ms", &u.structural, PREPARE),
            ("update.reprepare_ms", &u.reprepare, PREPARE),
        ] {
            report.add(name, meter.adjust(s, exponent).median(), "ms", s.len());
        }
        let count = u.reprepare.len();
        report.add("update.reprepare_count", count as f64, "count", count);
    }
}

fn run_workload(name: &str, ctx: &mut Ctx, report: &mut Report, traced: bool) -> Ledger {
    match name {
        "solve" => solve::run(ctx, report, traced),
        "serve" => serve::run(ctx, report, traced, false),
        _ => serve::run(ctx, report, traced, true),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["solve", "serve", "serve_update"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        nproc,
        meter: Meter::new(probe::Probe::new()),
        correct: true,
    };
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} nproc {}",
        args.workload, args.seed, args.seconds, args.trace as u8, nproc
    );

    let (report, ledger, names) = if args.trace {
        ctx.seconds = Duration::from_secs_f64(args.seconds as f64 / 2.0);
        let mut plain = Report::default();
        let first = run_workload(&args.workload, &mut ctx, &mut plain, false);
        let mut traced = Report::default();
        let second = run_workload(&args.workload, &mut ctx, &mut traced, true);
        let value = |r: &Report, name: &str| r.get(name).map_or(f64::NAN, |m| m.value);
        let probes = ctx.meter.probes();
        traced.add("probe_ms", ctx.meter.probe_ms(), "ms", probes);
        for (name, unit) in END_TO_END {
            let m = plain
                .get(name)
                .expect("every end-to-end metric is reported");
            let raw = m.raw.unwrap_or(m.value);
            traced.add(&format!("raw.{name}"), raw, unit, m.samples);
        }
        traced.add(
            "trace.p50_ratio",
            value(&traced, "p50_ms") / value(&plain, "p50_ms"),
            "ratio",
            2,
        );
        traced.add(
            "trace.gflops_ratio",
            value(&traced, "gflops") / value(&plain, "gflops"),
            "ratio",
            2,
        );
        let mut ledger = first;
        ledger.absorb(second);
        (traced, ledger, &PER_LAYER[..])
    } else {
        let mut report = Report::default();
        let ledger = run_workload(&args.workload, &mut ctx, &mut report, false);
        (report, ledger, &END_TO_END[..])
    };

    for m in &report.metrics {
        let raw = m.raw.map_or(String::new(), |r| format!("  raw {r:.6}"));
        println!(
            "  {:<28} {:>14.6} {:<14} n={}{}",
            m.name, m.value, m.unit, m.samples, raw
        );
    }
    if !args.trace {
        println!(
            "  probe_ms {:.6} (n={})",
            ctx.meter.probe_ms(),
            ctx.meter.probes()
        );
    }
    println!(
        "  ops: attempted {} succeeded {} failed {} rejected {}",
        ledger.attempted, ledger.succeeded, ledger.failed, ledger.rejected
    );

    let mut correct = ctx.correct
        && ledger.attempted > 0
        && ledger.balanced()
        && ledger.failed + ledger.rejected == 0;
    let mut fields = Vec::new();
    for (name, unit) in names {
        match report.get(name) {
            Some(m) if m.value.is_finite() => {
                fields.push(format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    m.value
                ));
            }
            _ => {
                eprintln!("perfbench: metric {name} was not measured");
                correct = false;
            }
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.attempted,
        ledger.failed + ledger.rejected,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
