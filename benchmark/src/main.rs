//! The repository benchmark: two workloads against the monitor's public
//! API on a fixed corpus of `cps-sim` feeds; the seed draws the reads.
//!
//! ```text
//! repo-bench --workload <ingest_recover|history_scan> \
//!            --seed <n> --seconds <n> --trace <0|1> [--smoke]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` re-drives the
//! same inputs through each layer's public functions with spans and
//! prints the per-layer metrics. The last line of standard output is one
//! JSON object; a failed correctness gate exits with code 1 and prints no
//! metric. `--smoke` runs the same code at tiny scale.

mod feed;
mod queries;
mod redrive;
mod session;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Report, Sizing, Workload};

/// Scratch space for every run, inside the working directory.
const SCRATCH_DIR: &str = ".bench_tmp";
/// Where traced runs leave their spans.
const SPANS_DIR: &str = ".bench_spans";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 10;
    let mut trace = false;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        smoke,
    })
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn print_report(args: &Args, sizing: &Sizing, report: &Report) -> Result<(), String> {
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not a finite number", m.name));
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# workload={} seed={} seconds={} trace={} smoke={} commit={} nproc={} rustc=\"{}\" profile={} scale={:?} records={} attempted={} failed={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.smoke,
        env!("BENCH_COMMIT"),
        nproc,
        env!("BENCH_RUSTC"),
        env!("BENCH_PROFILE"),
        sizing.scale,
        report.feed_records,
        report.attempted,
        report.failed,
    );
    println!("# work: {}", report.work);
    let mut fields = Vec::with_capacity(report.metrics.len());
    for m in &report.metrics {
        println!("{:<32} {:>18} {:<12} {}", m.name, m.value, m.unit, m.note);
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            json_escape(m.name),
            m.value,
            json_escape(m.unit)
        ));
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        fields.join(", ")
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("repo-bench: {e}");
            eprintln!("usage: repo-bench --workload <ingest_recover|history_scan> --seed <n> --seconds <n> --trace <0|1> [--smoke]");
            return ExitCode::from(2);
        }
    };
    let sizing = Sizing::new(args.workload, args.seconds, args.smoke);
    let scratch = match feed::Scratch::new(&PathBuf::from(SCRATCH_DIR), args.workload.name()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("repo-bench: creating scratch directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = if args.trace {
        let spans =
            PathBuf::from(SPANS_DIR).join(format!("{}-{}", args.workload.name(), args.seed));
        workloads::run_traced(args.workload, args.seed, &sizing, &scratch, &spans)
    } else {
        workloads::run(args.workload, args.seed, &sizing, &scratch)
    };
    drop(scratch);
    let result = result.and_then(|report| {
        // A p99 needs ten samples beyond it; smoke runs are exempt.
        if !args.smoke && !args.trace && report.min_samples < stats::MIN_P99_SAMPLES {
            return Err(format!(
                "a p99 rests on only {} samples",
                report.min_samples
            ));
        }
        Ok(report)
    });
    match result.and_then(|report| print_report(&args, &sizing, &report)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repo-bench: correctness gate failed: {e}");
            ExitCode::FAILURE
        }
    }
}
