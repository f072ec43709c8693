//! `rh-perfbench` — the end-to-end and per-layer benchmark of the RowHammer
//! sweep simulator and its service. `run.py` in this directory builds it
//! (and `rh-cli`) and is the command to run; README.md explains the
//! workloads, the metrics and which layer each metric measures.
//!
//! ```text
//! rh-perfbench --workload <sweep-ddr4|sweep-default|serve-default>
//!              --seed N --seconds S --trace <0|1> --rh-cli PATH
//!              [--spans-out FILE]
//! ```
//!
//! With `--trace 0` the run is timed and reports the end-to-end metrics;
//! with `--trace 1` it splits a fixed set of jobs across the layers and
//! reports the per-layer metrics. Standard output ends with a metadata
//! line and then the result line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod check;
mod config;
mod pipeline;
mod service;
mod sys;
mod timed;
mod trace;

use config::{Workload, PARALLELISM};
use rh_cli::proto::jstr;
use rh_core::Kernel;
use std::path::PathBuf;
use std::process::ExitCode;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Self {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// The outcome of one run.
pub struct Run {
    pub metrics: Vec<Metric>,
    pub tally: check::Tally,
    /// Jobs measured (timed runs) or split (traced runs).
    pub jobs: u64,
    pub cells: u64,
    pub activations: u64,
    /// Extra report lines printed before the metadata.
    pub notes: Vec<String>,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    rh_cli: PathBuf,
    spans_out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut rh_cli = None;
    let mut spans_out = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds {value} must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value} must be 0 or 1")),
                })
            }
            "--rh-cli" => rh_cli = Some(PathBuf::from(value)),
            "--spans-out" => spans_out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        rh_cli: rh_cli.ok_or("--rh-cli is required")?,
        spans_out,
    })
}

fn run(args: &Args) -> Result<Run, String> {
    if args.trace {
        trace::run(
            args.workload,
            args.seed,
            &args.rh_cli,
            args.spans_out.as_deref(),
        )
    } else if args.workload == Workload::ServeDefault {
        timed::serve(args.workload, args.seed, args.seconds, &args.rh_cli)
    } else {
        timed::sweep(args.workload, args.seed, args.seconds)
    }
}

/// What two result files must agree on before their metrics compare.
fn metadata(args: &Args, run: &Run) -> String {
    format!(
        "{{\"meta\": {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"kernel\": {}, \
         \"available_parallelism\": {}, \"parallelism\": {PARALLELISM}, \"rustc\": {}, \
         \"git_revision\": {}, \"jobs\": {}, \"cells_per_job\": {}, \
         \"activations_per_cell\": {}}}}}",
        jstr(args.workload.name()),
        args.seed,
        u8::from(args.trace),
        jstr(Kernel::auto().name()),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        jstr(&sys::tool_version("rustc", &["--version"])),
        jstr(&sys::git_revision()),
        run.jobs,
        run.cells,
        run.activations,
    )
}

fn result_line(run: &Run) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(run.metrics.len());
    for m in &run.metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite ({})", m.name, m.value));
        }
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            jstr(&m.name),
            m.value,
            jstr(m.unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.tally.failed() == 0,
        run.tally.attempted(),
        run.tally.failed(),
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&args).and_then(|run| Ok((result_line(&run)?, run)));
    let (line, run) = match outcome {
        Ok(done) => done,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for m in &run.metrics {
        println!("{:<36} {:>18} {}", m.name, m.value, m.unit);
    }
    println!(
        "{} jobs, {} cells x {} activations each; {} of {} checked jobs failed",
        run.jobs,
        run.cells,
        run.activations,
        run.tally.failed(),
        run.tally.attempted()
    );
    for failure in run.tally.failures() {
        println!("FAILED {failure}");
    }
    for note in &run.notes {
        println!("{note}");
    }
    println!("{}", metadata(&args, &run));
    println!("{line}");
    ExitCode::SUCCESS
}
