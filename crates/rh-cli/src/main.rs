//! `rh-cli` — run the RowHammer mitigation sweep and print a JSON table.
//!
//! Thin binary shell: parsing lives in [`rh_cli::cli`] and the pipeline in
//! the library so both are unit-testable. See `rh-cli --help` for options.
//! Every document printed on stdout goes through [`json::print_document`],
//! so a closed stdout (`rh-cli sweep | head -c 10`) is an `error:` line and
//! exit 1, never a panic; every stderr line goes through [`note`], so a
//! closed stderr costs the message but not the exit code.

use rh_cli::cli::{
    parse_args, parse_cancel_args, parse_configure_args, parse_serve_args, parse_submit_args,
    parse_worker_args, CancelInvocation, CliArgs, ConfigureInvocation, Invocation, ServeInvocation,
    SubmitInvocation, WorkerInvocation, USAGE,
};
use rh_cli::{configure, json, run_cancel, run_serve, run_submit, run_sweep, run_worker};
use std::io::Write;
use std::process::ExitCode;

/// Write one line to stderr. A closed stderr is ignored: the exit code
/// still reports the outcome, where `eprintln!` would panic (exit 101).
fn note(line: &str) {
    let _ = writeln!(std::io::stderr().lock(), "{line}");
}

/// Report an error, followed by the usage text when the arguments were at
/// fault, and fail.
fn fail(e: &str, usage: bool) -> ExitCode {
    if usage {
        note(&format!("error: {e}\n\n{USAGE}"));
    } else {
        note(&format!("error: {e}"));
    }
    ExitCode::FAILURE
}

/// The exit code of a command that reports its own output.
fn done(outcome: Result<(), String>) -> ExitCode {
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&e, false),
    }
}

/// Print a document on stdout; on a write error, report it and fail.
fn print_or_fail(document: &str) -> Result<(), ExitCode> {
    json::print_document(document).map_err(|e| fail(&e, false))
}

/// `-h`/`--help` on any command: the usage text on stdout.
fn help() -> ExitCode {
    match print_or_fail(USAGE.trim_end()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}

fn run_configure_command(opts: &configure::ConfigureOptions) -> ExitCode {
    let report = match configure::run_configure(opts) {
        Ok(report) => report,
        Err(e) => return fail(&e, true),
    };
    if let Err(code) = print_or_fail(&configure::render_configure(&report)) {
        return code;
    }
    note(&format!(
        "configure: p = {} gives P_fail = {} over {} activations at HC_first {}",
        report.recommended_p, report.analytic_pfail, report.window, report.hc_first
    ));
    if report.divergence >= 1e-9 {
        return fail(
            &format!(
                "direct and dual closed forms diverged by {:e} at the recommendation \
                 (over the 1e-9 agreement contract)",
                report.divergence
            ),
            false,
        );
    }
    if let Some(v) = &report.validation {
        note(&format!(
            "configure: validation {}/{} failures, band [{}, {}] vs analytic {}",
            v.failures, v.trials, v.band_lo, v.band_hi, report.analytic_pfail
        ));
        if !v.pass {
            return fail(
                "the mini-sweep's failure rate is inconsistent with the analytical \
                 prediction (model or engine drift — see docs/ARCHITECTURE.md, \
                 analytical cross-validation)",
                false,
            );
        }
    }
    ExitCode::SUCCESS
}

fn run_sweep_command(args: &CliArgs) -> ExitCode {
    let out = match run_sweep(&args.config, args.threads) {
        Ok(out) => out,
        Err(e) => return fail(&e, true),
    };
    if let Err(code) = print_or_fail(&json::render(&out)) {
        return code;
    }
    if out.para_monotone {
        ExitCode::SUCCESS
    } else {
        fail("PARA flip counts were not monotone in p", false)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("configure") => match parse_configure_args(&args[1..]) {
            Ok(ConfigureInvocation::Help) => help(),
            Ok(ConfigureInvocation::Configure(opts)) => run_configure_command(&opts),
            Err(e) => fail(&e, true),
        },
        Some("serve") => match parse_serve_args(&args[1..]) {
            Ok(ServeInvocation::Help) => help(),
            Ok(ServeInvocation::Serve(opts)) => done(run_serve(*opts)),
            Err(e) => fail(&e, true),
        },
        Some("worker") => match parse_worker_args(&args[1..]) {
            Ok(WorkerInvocation::Help) => help(),
            Ok(WorkerInvocation::Worker(opts)) => done(run_worker(&opts)),
            Err(e) => fail(&e, true),
        },
        Some("submit") => match parse_submit_args(&args[1..]) {
            Ok(SubmitInvocation::Help) => help(),
            Ok(SubmitInvocation::Submit(opts)) => done(run_submit(&opts)),
            Err(e) => fail(&e, true),
        },
        Some("cancel") => match parse_cancel_args(&args[1..]) {
            Ok(CancelInvocation::Help) => help(),
            Ok(CancelInvocation::Cancel(opts)) => done(run_cancel(&opts)),
            Err(e) => fail(&e, true),
        },
        Some("sweep") => match parse_args(&args[1..]) {
            Ok(Invocation::Help) => help(),
            Ok(Invocation::Sweep(a)) => run_sweep_command(&a),
            Err(e) => fail(&e, true),
        },
        Some("-h" | "--help") | None => help(),
        Some(other) => fail(&format!("unknown command '{other}'"), true),
    }
}
