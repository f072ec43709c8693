//! `rh-cli` — run the RowHammer mitigation sweep and print a JSON table.
//!
//! Thin binary shell: parsing lives in [`rh_cli::cli`] and the pipeline in
//! the library so both are unit-testable. See `rh-cli --help` for options.
//! Every document printed on stdout goes through [`json::print_document`],
//! so a closed stdout (`rh-cli sweep | head -c 10`) is an `error:` line and
//! exit 1, never a panic.

use rh_cli::cli::{
    parse_args, parse_cancel_args, parse_configure_args, parse_serve_args, parse_submit_args,
    parse_worker_args, CancelInvocation, ConfigureInvocation, Invocation, ServeInvocation,
    SubmitInvocation, WorkerInvocation, USAGE,
};
use rh_cli::{configure, json, run_cancel, run_serve, run_submit, run_sweep, run_worker};
use std::process::ExitCode;

/// Print a document on stdout; on a write error, report it and fail.
fn print_or_fail(document: &str) -> Result<(), ExitCode> {
    json::print_document(document).map_err(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}

/// `-h`/`--help` on any command: the usage text on stdout.
fn help() -> ExitCode {
    match print_or_fail(USAGE.trim_end()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}

fn run_configure_command(opts: &configure::ConfigureOptions) -> ExitCode {
    match configure::run_configure(opts) {
        Ok(report) => {
            if let Err(code) = print_or_fail(&configure::render_configure(&report)) {
                return code;
            }
            eprintln!(
                "configure: p = {} gives P_fail = {} over {} activations at HC_first {}",
                report.recommended_p, report.analytic_pfail, report.window, report.hc_first
            );
            if report.divergence >= 1e-9 {
                eprintln!(
                    "error: direct and dual closed forms diverged by {:e} at the \
                     recommendation (over the 1e-9 agreement contract)",
                    report.divergence
                );
                return ExitCode::FAILURE;
            }
            if let Some(v) = &report.validation {
                eprintln!(
                    "configure: validation {}/{} failures, band [{}, {}] vs analytic {}",
                    v.failures, v.trials, v.band_lo, v.band_hi, report.analytic_pfail
                );
                if !v.pass {
                    eprintln!(
                        "error: the mini-sweep's failure rate is inconsistent with the \
                         analytical prediction (model or engine drift — see \
                         docs/ARCHITECTURE.md, analytical cross-validation)"
                    );
                    return ExitCode::FAILURE;
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("configure") => match parse_configure_args(&args[1..]) {
            Ok(ConfigureInvocation::Help) => help(),
            Ok(ConfigureInvocation::Configure(opts)) => run_configure_command(&opts),
            Err(e) => {
                eprintln!("error: {e}\n\n{USAGE}");
                ExitCode::FAILURE
            }
        },
        Some("serve") => match parse_serve_args(&args[1..]) {
            Ok(ServeInvocation::Help) => help(),
            Ok(ServeInvocation::Serve(opts)) => match run_serve(*opts) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            },
            Err(e) => {
                eprintln!("error: {e}\n\n{USAGE}");
                ExitCode::FAILURE
            }
        },
        Some("worker") => match parse_worker_args(&args[1..]) {
            Ok(WorkerInvocation::Help) => help(),
            Ok(WorkerInvocation::Worker(opts)) => match run_worker(&opts) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            },
            Err(e) => {
                eprintln!("error: {e}\n\n{USAGE}");
                ExitCode::FAILURE
            }
        },
        Some("submit") => match parse_submit_args(&args[1..]) {
            Ok(SubmitInvocation::Help) => help(),
            Ok(SubmitInvocation::Submit(opts)) => match run_submit(&opts) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            },
            Err(e) => {
                eprintln!("error: {e}\n\n{USAGE}");
                ExitCode::FAILURE
            }
        },
        Some("cancel") => match parse_cancel_args(&args[1..]) {
            Ok(CancelInvocation::Help) => help(),
            Ok(CancelInvocation::Cancel(opts)) => match run_cancel(&opts) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            },
            Err(e) => {
                eprintln!("error: {e}\n\n{USAGE}");
                ExitCode::FAILURE
            }
        },
        Some("sweep") => match parse_args(&args[1..]) {
            Ok(Invocation::Help) => help(),
            Ok(Invocation::Sweep(a)) => match run_sweep(&a.config, a.threads) {
                Ok(out) => {
                    if let Err(code) = print_or_fail(&json::render(&out)) {
                        return code;
                    }
                    if out.para_monotone {
                        ExitCode::SUCCESS
                    } else {
                        eprintln!("error: PARA flip counts were not monotone in p");
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    eprintln!("error: {e}\n\n{USAGE}");
                    ExitCode::FAILURE
                }
            },
            Err(e) => {
                eprintln!("error: {e}\n\n{USAGE}");
                ExitCode::FAILURE
            }
        },
        Some("-h" | "--help") | None => help(),
        Some(other) => {
            eprintln!("error: unknown command '{other}'\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
