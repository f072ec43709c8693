//! `rh-cli` — run the RowHammer mitigation sweep and print a JSON table.
//!
//! Thin binary shell: parsing lives in [`rh_cli::cli`] and the pipeline in
//! the library so both are unit-testable. See `rh-cli --help` for options.

use rh_cli::cli::{
    parse_args, parse_cancel_args, parse_configure_args, parse_serve_args, parse_submit_args,
    parse_worker_args, CancelInvocation, ConfigureInvocation, Invocation, ServeInvocation,
    SubmitInvocation, WorkerInvocation, USAGE,
};
use rh_cli::{
    configure, json, run_cancel, run_serve, run_submit, run_sweep_with_kernel, run_worker,
};
use std::process::ExitCode;

fn run_configure_command(opts: &configure::ConfigureOptions) -> ExitCode {
    match configure::run_configure(opts) {
        Ok(report) => {
            let doc = configure::render_configure(&report);
            println!("{doc}");
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
            Ok(ConfigureInvocation::Help) => {
                print!("{USAGE}");
                ExitCode::SUCCESS
            }
            Ok(ConfigureInvocation::Configure(opts)) => run_configure_command(&opts),
            Err(e) => {
                eprintln!("error: {e}\n\n{USAGE}");
                ExitCode::FAILURE
            }
        },
        Some("serve") => match parse_serve_args(&args[1..]) {
            Ok(ServeInvocation::Help) => {
                print!("{USAGE}");
                ExitCode::SUCCESS
            }
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
            Ok(WorkerInvocation::Help) => {
                print!("{USAGE}");
                ExitCode::SUCCESS
            }
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
            Ok(SubmitInvocation::Help) => {
                print!("{USAGE}");
                ExitCode::SUCCESS
            }
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
            Ok(CancelInvocation::Help) => {
                print!("{USAGE}");
                ExitCode::SUCCESS
            }
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
            Ok(Invocation::Help) => {
                print!("{USAGE}");
                ExitCode::SUCCESS
            }
            Ok(Invocation::Sweep(a)) => match run_sweep_with_kernel(&a.config, a.threads, a.kernel)
            {
                Ok(out) => {
                    println!("{}", json::render(&out));
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
        Some("-h" | "--help") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("error: unknown command '{other}'\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
