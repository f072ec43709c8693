//! Command-line parsing for the sweep driver.
//!
//! Lives in the library (rather than `main.rs`) so every parse and rejection
//! path is unit-testable. Parsing is purely syntactic; semantic validation
//! is shared with programmatic callers via [`SweepConfig::validate`].

use crate::configure::ConfigureOptions;
use crate::faults::FaultPlan;
use crate::serve::{CancelOptions, ServeOptions, SubmitOptions};
use crate::sweep::SweepConfig;
use crate::worker::WorkerOptions;
use rh_core::DataPattern;

pub const USAGE: &str = "\
rh-cli — RowHammer mitigation sweep (Kim et al., ISCA 2020 reproduction)

USAGE:
    rh-cli sweep [OPTIONS]
    rh-cli configure --hc <N> --window <N> --target-pfail <P>
                     [--validate] [--trials <N>] [--seed <N>]
    rh-cli serve [--workers <N>] [--listen <ADDR>] [--cache-capacity <N>]
                 [--checkpoint-dir <DIR>] [--shard-cells <N>] [--config-epoch <N>]
                 [--fallback-after-ms <MS>] [--speculate-after-ms <MS>]
                 [--fault-plan <PLAN>] [--max-pending-jobs <N>]
                 [--max-jobs-per-client <N>] [--max-cells-per-client <N>]
                 [--handshake-timeout-ms <MS>] [--auth-token-file <PATH>]
    rh-cli worker [--connect <ADDR>] [--fault-plan <PLAN>]
                  [--config-epoch <N>] [--retry <N>] [--backoff-ms <MS>]
                  [--auth-token-file <PATH>]
    rh-cli submit --connect <ADDR> [--timeout <SECS>]
                  [--job-deadline-ms <MS>] [--auth-token-file <PATH>]
    rh-cli cancel --connect <ADDR> --id <JOB> [--timeout <SECS>]
                  [--auth-token-file <PATH>]

SWEEP OPTIONS:
    --seed <N>              RNG seed for device + mitigations (default 0xC0FFEE)
    --activations <N>       activation budget per experiment cell (default 200000)
    --hc <A,B,...>          HC_first values to sweep (default 2000,4000,8000,16000)
    --sides <A,B,...>       many-sided aggressor counts, each >= 2 (default 2,4,8,16)
    --para-p <P1,P2,...>    PARA sampling probabilities (default 0.0,0.001,0.004,0.016)
    --data-pattern <P,...>  stored data patterns to sweep: legacy, solid,
                            checkerboard, rowstripe (default legacy; anything
                            beyond legacy adds per-result data_pattern and
                            1->0 / 0->1 flip-direction fields)
    --ecc <BITS>            enable on-die ECC with BITS cells per codeword
                            (corrects one flip per codeword; results then
                            report pre- and post-ECC flip counts; default off)
    --benign-fraction <F>   fraction of benign traffic mixed in (default 0.1)
    --refresh-interval <N>  auto-refresh (tREFW) period in activations,
                            0 disables (default 32000)
    --threads <N>           worker threads for cell execution; output is
                            byte-identical for any value (default: all cores)
    -h, --help              print this help

The victim-settle kernel is AVX2 where the CPU has it, else scalar; setting
RH_FORCE_SCALAR (to anything but empty or 0) forces scalar. Output is
byte-identical under either.

CONFIGURE OPTIONS:
    --hc <N>                device HC_first in activations (required, >= 2)
    --window <N>            attack window in activations (required,
                            at most 16777216 = 2^24)
    --target-pfail <P>      failure-probability budget over the window,
                            in (0, 1] (required)
    --validate              run a seeded mini-sweep through the simulator
                            and check the recommendation's failure rate
                            lands inside the analytical confidence band
                            (exit non-zero when it does not)
    --trials <N>            windows the mini-sweep simulates (default 400;
                            trials x window at most 268435456 = 2^28)
    --seed <N>              mini-sweep root seed (default 0xC0FFEE)

configure answers \"what PARA sampling rate do I need\" from the closed-form
failure model (rh-analysis): it prints the smallest p whose analytical
failure probability meets the target, as JSON in the same hand-rolled
style as sweep. Its Markov-dual cross-check takes (HC_first - 1) x
(window - 1) steps once the window fits a run; inputs needing more than
2147483648 = 2^31 are refused before any work. See docs/ARCHITECTURE.md,
\"Analytical cross-validation\".

SERVE OPTIONS:
    --workers <N>           local worker processes to spawn (default 2)
    --listen <ADDR>         also accept clients and workers over TCP
                            (e.g. 127.0.0.1:4242; port 0 for ephemeral);
                            without it, configs are read as jsonl on stdin
    --cache-capacity <N>    result-cache size in documents (default 128)
    --checkpoint-dir <DIR>  the one durable store, a checksummed per-cell
                            journal: a resubmit, even to a restarted
                            coordinator, runs only the cells not on disk;
                            damaged records are skipped and re-executed
    --shard-cells <N>       max simulations per shard lease (default 16):
                            a job's missing cells fold into simulations as
                            in sweep (cells that differ only in HC_first
                            under none/PARA/TRR run as one), cut into leases
                            of ceil(simulations / live workers), at most N,
                            so every worker gets a share of every job;
                            merged output is byte-identical at any N
    --config-epoch <N>      config generation; worker hellos announcing a
                            different epoch are rejected (default 0)
    --fallback-after-ms <MS> graceful degradation: a job stranded this long
                            with no live worker is executed in-process by
                            the submitting thread (default: off, fail fast)
    --speculate-after-ms <MS> floor of the straggler deadline; a lease with
                            no progress past max(floor, 16x the EWMA cell
                            time) is re-leased to another worker and the
                            duplicate results asserted bit-identical
                            (default 10000; 0 disables speculation)
    --fault-plan <PLAN>     coordinator-side fault injection; the useful
                            directives here are cancel-after-cells=N (cancel
                            the owning job after the Nth merged cell) and
                            slow-client=MS (delay every client reply)
    --max-pending-jobs <N>  admission bound: submits past N unfinished jobs
                            coordinator-wide get a clean reject naming
                            queue_full (default 64)
    --max-jobs-per-client <N> per-client concurrent unfinished-job quota;
                            excess submits are rejected with
                            client_job_quota (default 16)
    --max-cells-per-client <N> per-client quota on queued (not yet merged)
                            cells; rejects name client_cell_quota
                            (default 1000000)
    --handshake-timeout-ms <MS> how long a fresh TCP connection gets to
                            produce its first protocol line, which also
                            bounds the auth challenge (default 10000)
    --auth-token-file <PATH> shared secret file; when set, every TCP worker
                            hello and client session must prove knowledge
                            of the token (challenge/response, constant-time
                            compare) or be rejected; local stdio workers
                            spawned by this coordinator are exempt

WORKER OPTIONS:
    --connect <ADDR>        attach to a coordinator over TCP (default:
                            speak the jsonl protocol over stdio, as when
                            spawned by serve)
    --fault-plan <PLAN>     deterministic fault schedule, comma-separated
                            key=value directives: crash-after-cells=N,
                            stall-after-cells=N, stall-ms=MS, drop-line=N,
                            garble-line=N, delay-connect-ms=MS, seed=S
                            (see docs/ARCHITECTURE.md, failure model)
    --config-epoch <N>      config generation announced in the hello; must
                            match the coordinator's (default 0)
    --retry <N>             reconnect attempts after a failed connect or a
                            dropped connection, with seeded exponential
                            backoff; a coordinator 'reject' is never
                            retried (default 0)
    --backoff-ms <MS>       base of the reconnect backoff (default 200)
    --auth-token-file <PATH> shared secret file matching the coordinator's;
                            proven in the hello (required when the
                            coordinator was started with one)

SUBMIT OPTIONS:
    --connect <ADDR>        coordinator address (required)
    --timeout <SECS>        bound the connect and each response wait; on
                            expiry submit exits nonzero naming the deadline
                            (default: wait forever)
    --job-deadline-ms <MS>  stamp every submitted config with a deadline;
                            the coordinator cancels jobs that outlive it
                            and submit exits nonzero (default: none)
    --auth-token-file <PATH> shared secret file; the session opens with an
                            authenticated client hello before any submit

submit reads jsonl sweep configs from stdin ('{}' is the default sweep),
sends each to the coordinator, prints each returned merged document
verbatim on stdout (byte-identical to 'rh-cli sweep' of the same config),
and reports cache/worker metadata on stderr.

CANCEL OPTIONS:
    --connect <ADDR>        coordinator address (required)
    --id <JOB>              job id given at submit time (required)
    --timeout <SECS>        bound the connect and the acknowledgement wait
    --auth-token-file <PATH> shared secret file, as for submit

cancel asks the coordinator to kill one in-flight job: queued shards are
dropped, leased shards are abandoned mid-shard by their workers, and the
waiting submit fails with the cancellation message. Exits nonzero when the
job is unknown or already finished.
";

/// Fully parsed invocation: the sweep config plus the thread count, which
/// must not influence results (and is therefore kept out of the config).
#[derive(Debug, Clone)]
pub struct CliArgs {
    pub config: SweepConfig,
    pub threads: usize,
}

/// Outcome of parsing the arguments after `sweep`.
#[derive(Debug, Clone)]
pub enum Invocation {
    /// `-h`/`--help` appeared; print usage and exit successfully.
    Help,
    Sweep(CliArgs),
}

/// Outcome of parsing the arguments after `configure`.
#[derive(Debug, Clone)]
pub enum ConfigureInvocation {
    Help,
    Configure(ConfigureOptions),
}

/// Parse the arguments following the `configure` subcommand. Syntactic
/// errors are caught per flag; range checks that also guard programmatic
/// callers (hc >= 2, target in (0, 1]) live in
/// [`crate::configure::run_configure`].
pub fn parse_configure_args(args: &[String]) -> Result<ConfigureInvocation, String> {
    let mut hc_first = None;
    let mut window = None;
    let mut target_pfail = None;
    let mut opts = ConfigureOptions::default();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} requires a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--hc" => {
                let v = value(&mut i, "--hc")?;
                hc_first = Some(v.parse().map_err(|_| format!("invalid --hc '{v}'"))?);
            }
            "--window" => {
                let v = value(&mut i, "--window")?;
                window = Some(v.parse().map_err(|_| format!("invalid --window '{v}'"))?);
            }
            "--target-pfail" => {
                let v = value(&mut i, "--target-pfail")?;
                target_pfail = Some(
                    v.parse()
                        .map_err(|_| format!("invalid --target-pfail '{v}'"))?,
                );
            }
            "--validate" => opts.validate = true,
            "--trials" => {
                let v = value(&mut i, "--trials")?;
                opts.trials = v.parse().map_err(|_| format!("invalid --trials '{v}'"))?;
            }
            "--seed" => {
                let v = value(&mut i, "--seed")?;
                opts.seed = parse_u64_maybe_hex(&v).ok_or(format!("invalid --seed '{v}'"))?;
            }
            "-h" | "--help" => return Ok(ConfigureInvocation::Help),
            other => return Err(format!("unknown configure option '{other}'")),
        }
        i += 1;
    }
    opts.hc_first = hc_first.ok_or("configure requires --hc <N>")?;
    opts.window = window.ok_or("configure requires --window <N>")?;
    opts.target_pfail = target_pfail.ok_or("configure requires --target-pfail <P>")?;
    Ok(ConfigureInvocation::Configure(opts))
}

/// Read a shared-secret token file for `--auth-token-file`: the secret is
/// the file's contents with surrounding whitespace trimmed (so a trailing
/// newline from `echo` never silently changes the token). Empty files are
/// rejected — an empty shared secret authenticates nobody on purpose.
fn read_token_file(path: &str) -> Result<String, String> {
    let raw = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read --auth-token-file '{path}': {e}"))?;
    let token = raw.trim();
    if token.is_empty() {
        return Err(format!("--auth-token-file '{path}' is empty"));
    }
    Ok(token.to_string())
}

/// Outcome of parsing the arguments after `serve`.
#[derive(Debug, Clone)]
pub enum ServeInvocation {
    Help,
    Serve(Box<ServeOptions>),
}

/// Parse the arguments following the `serve` subcommand.
pub fn parse_serve_args(args: &[String]) -> Result<ServeInvocation, String> {
    let mut opts = ServeOptions::default();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} requires a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workers" => {
                let v = value(&mut i, "--workers")?;
                opts.workers = v.parse().map_err(|_| format!("invalid --workers '{v}'"))?;
            }
            "--listen" => opts.listen = Some(value(&mut i, "--listen")?),
            "--cache-capacity" => {
                let v = value(&mut i, "--cache-capacity")?;
                opts.cache_capacity = v
                    .parse()
                    .map_err(|_| format!("invalid --cache-capacity '{v}'"))?;
                if opts.cache_capacity == 0 {
                    return Err("--cache-capacity must be at least 1".to_string());
                }
            }
            "--checkpoint-dir" => {
                opts.checkpoint_dir = Some(value(&mut i, "--checkpoint-dir")?.into());
            }
            "--shard-cells" => {
                let v = value(&mut i, "--shard-cells")?;
                opts.shard_cells = v
                    .parse()
                    .map_err(|_| format!("invalid --shard-cells '{v}'"))?;
                if opts.shard_cells == 0 {
                    return Err("--shard-cells must be at least 1".to_string());
                }
            }
            "--config-epoch" => {
                let v = value(&mut i, "--config-epoch")?;
                opts.config_epoch = v
                    .parse()
                    .map_err(|_| format!("invalid --config-epoch '{v}'"))?;
            }
            "--fallback-after-ms" => {
                let v = value(&mut i, "--fallback-after-ms")?;
                let ms: u64 = v
                    .parse()
                    .map_err(|_| format!("invalid --fallback-after-ms '{v}'"))?;
                opts.fallback_after = Some(std::time::Duration::from_millis(ms));
            }
            "--speculate-after-ms" => {
                let v = value(&mut i, "--speculate-after-ms")?;
                let ms: u64 = v
                    .parse()
                    .map_err(|_| format!("invalid --speculate-after-ms '{v}'"))?;
                // 0 disables speculation outright rather than meaning
                // "speculate instantly" — an instant deadline would
                // duplicate every lease.
                opts.speculate_after = (ms > 0).then(|| std::time::Duration::from_millis(ms));
            }
            "--fault-plan" => {
                opts.fault_plan = FaultPlan::parse(&value(&mut i, "--fault-plan")?)?;
            }
            "--max-pending-jobs" => {
                let v = value(&mut i, "--max-pending-jobs")?;
                opts.max_pending_jobs = v
                    .parse()
                    .map_err(|_| format!("invalid --max-pending-jobs '{v}'"))?;
                if opts.max_pending_jobs == 0 {
                    return Err("--max-pending-jobs must be at least 1".to_string());
                }
            }
            "--max-jobs-per-client" => {
                let v = value(&mut i, "--max-jobs-per-client")?;
                opts.max_jobs_per_client = v
                    .parse()
                    .map_err(|_| format!("invalid --max-jobs-per-client '{v}'"))?;
                if opts.max_jobs_per_client == 0 {
                    return Err("--max-jobs-per-client must be at least 1".to_string());
                }
            }
            "--max-cells-per-client" => {
                let v = value(&mut i, "--max-cells-per-client")?;
                opts.max_cells_per_client = v
                    .parse()
                    .map_err(|_| format!("invalid --max-cells-per-client '{v}'"))?;
                if opts.max_cells_per_client == 0 {
                    return Err("--max-cells-per-client must be at least 1".to_string());
                }
            }
            "--handshake-timeout-ms" => {
                let v = value(&mut i, "--handshake-timeout-ms")?;
                let ms: u64 = v
                    .parse()
                    .map_err(|_| format!("invalid --handshake-timeout-ms '{v}'"))?;
                if ms == 0 {
                    return Err(
                        "--handshake-timeout-ms must be at least 1 (a zero deadline \
                         would reject every connection before its first line)"
                            .to_string(),
                    );
                }
                opts.handshake_timeout = std::time::Duration::from_millis(ms);
            }
            "--auth-token-file" => {
                opts.auth_token = Some(read_token_file(&value(&mut i, "--auth-token-file")?)?);
            }
            "-h" | "--help" => return Ok(ServeInvocation::Help),
            other => return Err(format!("unknown serve option '{other}'")),
        }
        i += 1;
    }
    if opts.workers == 0 && opts.listen.is_none() && opts.fallback_after.is_none() {
        return Err(
            "a coordinator with --workers 0 and no --listen could never execute anything \
             (give it local workers, a listener for TCP workers to attach to, or \
             --fallback-after-ms for in-process execution)"
                .to_string(),
        );
    }
    Ok(ServeInvocation::Serve(Box::new(opts)))
}

/// Outcome of parsing the arguments after `worker`.
#[derive(Debug, Clone)]
pub enum WorkerInvocation {
    Help,
    Worker(Box<WorkerOptions>),
}

/// Parse the arguments following the `worker` subcommand.
pub fn parse_worker_args(args: &[String]) -> Result<WorkerInvocation, String> {
    let mut opts = WorkerOptions::default();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} requires a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--connect" => opts.connect = Some(value(&mut i, "--connect")?),
            "--fault-plan" => {
                opts.fault_plan = FaultPlan::parse(&value(&mut i, "--fault-plan")?)?;
            }
            "--config-epoch" => {
                let v = value(&mut i, "--config-epoch")?;
                opts.config_epoch = v
                    .parse()
                    .map_err(|_| format!("invalid --config-epoch '{v}'"))?;
            }
            "--retry" => {
                let v = value(&mut i, "--retry")?;
                opts.retries = v.parse().map_err(|_| format!("invalid --retry '{v}'"))?;
            }
            "--backoff-ms" => {
                let v = value(&mut i, "--backoff-ms")?;
                opts.backoff_base_ms = v
                    .parse()
                    .map_err(|_| format!("invalid --backoff-ms '{v}'"))?;
                if opts.backoff_base_ms == 0 {
                    return Err("--backoff-ms must be at least 1".to_string());
                }
            }
            "--auth-token-file" => {
                opts.auth_token = Some(read_token_file(&value(&mut i, "--auth-token-file")?)?);
            }
            "-h" | "--help" => return Ok(WorkerInvocation::Help),
            other => return Err(format!("unknown worker option '{other}'")),
        }
        i += 1;
    }
    Ok(WorkerInvocation::Worker(Box::new(opts)))
}

/// Outcome of parsing the arguments after `submit`.
#[derive(Debug, Clone)]
pub enum SubmitInvocation {
    Help,
    Submit(SubmitOptions),
}

/// Parse the arguments following the `submit` subcommand.
pub fn parse_submit_args(args: &[String]) -> Result<SubmitInvocation, String> {
    let mut connect = None;
    let mut timeout = None;
    let mut deadline_ms = None;
    let mut auth_token = None;
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} requires a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--connect" => connect = Some(value(&mut i, "--connect")?),
            "--timeout" => {
                let v = value(&mut i, "--timeout")?;
                let secs: u64 = v.parse().map_err(|_| format!("invalid --timeout '{v}'"))?;
                if secs == 0 {
                    return Err("--timeout must be at least 1 second".to_string());
                }
                timeout = Some(std::time::Duration::from_secs(secs));
            }
            "--job-deadline-ms" => {
                let v = value(&mut i, "--job-deadline-ms")?;
                let ms: u64 = v
                    .parse()
                    .map_err(|_| format!("invalid --job-deadline-ms '{v}'"))?;
                if ms == 0 {
                    return Err(
                        "--job-deadline-ms must be at least 1 (omit the flag for no deadline)"
                            .to_string(),
                    );
                }
                deadline_ms = Some(ms);
            }
            "--auth-token-file" => {
                auth_token = Some(read_token_file(&value(&mut i, "--auth-token-file")?)?);
            }
            "-h" | "--help" => return Ok(SubmitInvocation::Help),
            other => return Err(format!("unknown submit option '{other}'")),
        }
        i += 1;
    }
    let connect = connect.ok_or("submit requires --connect <ADDR>")?;
    Ok(SubmitInvocation::Submit(SubmitOptions {
        connect,
        timeout,
        deadline_ms,
        auth_token,
    }))
}

/// Outcome of parsing the arguments after `cancel`.
#[derive(Debug, Clone)]
pub enum CancelInvocation {
    Help,
    Cancel(CancelOptions),
}

/// Parse the arguments following the `cancel` subcommand.
pub fn parse_cancel_args(args: &[String]) -> Result<CancelInvocation, String> {
    let mut connect = None;
    let mut id = None;
    let mut timeout = None;
    let mut auth_token = None;
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} requires a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--connect" => connect = Some(value(&mut i, "--connect")?),
            "--id" => id = Some(value(&mut i, "--id")?),
            "--timeout" => {
                let v = value(&mut i, "--timeout")?;
                let secs: u64 = v.parse().map_err(|_| format!("invalid --timeout '{v}'"))?;
                if secs == 0 {
                    return Err("--timeout must be at least 1 second".to_string());
                }
                timeout = Some(std::time::Duration::from_secs(secs));
            }
            "--auth-token-file" => {
                auth_token = Some(read_token_file(&value(&mut i, "--auth-token-file")?)?);
            }
            "-h" | "--help" => return Ok(CancelInvocation::Help),
            other => return Err(format!("unknown cancel option '{other}'")),
        }
        i += 1;
    }
    let connect = connect.ok_or("cancel requires --connect <ADDR>")?;
    let id = id.ok_or("cancel requires --id <JOB>")?;
    Ok(CancelInvocation::Cancel(CancelOptions {
        connect,
        id,
        timeout,
        auth_token,
    }))
}

/// Parse a comma-separated list, skipping empty items (so trailing commas
/// are tolerated); an *effectively empty* list is rejected here because no
/// flag taking a list accepts zero values.
fn parse_list<T: std::str::FromStr>(s: &str, flag: &str) -> Result<Vec<T>, String> {
    let values: Result<Vec<T>, String> = s
        .split(',')
        .map(str::trim)
        .filter(|x| !x.is_empty())
        .map(|x| {
            x.parse::<T>()
                .map_err(|_| format!("invalid value '{x}' for {flag}"))
        })
        .collect();
    let values = values?;
    if values.is_empty() {
        return Err(format!("{flag} requires at least one value"));
    }
    Ok(values)
}

/// Parse a u64 in decimal or `0x` hexadecimal.
pub fn parse_u64_maybe_hex(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// Parse the arguments following the `sweep` subcommand. Syntactic errors
/// are caught per flag; semantic cross-field validation is delegated to
/// [`SweepConfig::validate`] so the CLI and programmatic callers reject
/// exactly the same configs with the same messages.
pub fn parse_args(args: &[String]) -> Result<Invocation, String> {
    let mut cfg = SweepConfig::default();
    let mut threads = default_threads();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} requires a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                let v = value(&mut i, "--seed")?;
                cfg.seed = parse_u64_maybe_hex(&v).ok_or(format!("invalid --seed '{v}'"))?;
            }
            "--activations" => {
                let v = value(&mut i, "--activations")?;
                cfg.activations = v
                    .parse()
                    .map_err(|_| format!("invalid --activations '{v}'"))?;
            }
            "--hc" => cfg.hc_firsts = parse_list(&value(&mut i, "--hc")?, "--hc")?,
            "--sides" => cfg.sides = parse_list(&value(&mut i, "--sides")?, "--sides")?,
            "--para-p" => {
                cfg.para_probabilities = parse_list(&value(&mut i, "--para-p")?, "--para-p")?;
            }
            "--data-pattern" => {
                // Parsed by hand (not via parse_list) so the rejection
                // message names the valid patterns, not just the bad token.
                let v = value(&mut i, "--data-pattern")?;
                let patterns: Result<Vec<DataPattern>, String> = v
                    .split(',')
                    .map(str::trim)
                    .filter(|x| !x.is_empty())
                    .map(str::parse)
                    .collect();
                cfg.data_patterns = patterns?;
                if cfg.data_patterns.is_empty() {
                    return Err("--data-pattern requires at least one value".to_string());
                }
            }
            "--ecc" => {
                let v = value(&mut i, "--ecc")?;
                let bits: u32 = v.parse().map_err(|_| format!("invalid --ecc '{v}'"))?;
                if bits == 0 {
                    return Err(
                        "--ecc codeword size must be at least 1 cell (omit the flag to \
                         disable ECC)"
                            .to_string(),
                    );
                }
                cfg.ecc_codeword_bits = bits;
            }
            "--benign-fraction" => {
                let v = value(&mut i, "--benign-fraction")?;
                cfg.benign_fraction = v
                    .parse()
                    .map_err(|_| format!("invalid --benign-fraction '{v}'"))?;
            }
            "--refresh-interval" => {
                let v = value(&mut i, "--refresh-interval")?;
                cfg.auto_refresh_interval = v
                    .parse()
                    .map_err(|_| format!("invalid --refresh-interval '{v}'"))?;
            }
            "--threads" => {
                let v = value(&mut i, "--threads")?;
                threads = v.parse().map_err(|_| format!("invalid --threads '{v}'"))?;
                if threads == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
            }
            "-h" | "--help" => return Ok(Invocation::Help),
            other => return Err(format!("unknown option '{other}'")),
        }
        i += 1;
    }
    cfg.validate()?;
    Ok(Invocation::Sweep(CliArgs {
        config: cfg,
        threads,
    }))
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CliArgs, String> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        match parse_args(&owned)? {
            Invocation::Sweep(a) => Ok(a),
            Invocation::Help => panic!("unexpected help invocation for {args:?}"),
        }
    }

    #[test]
    fn defaults_when_no_flags() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.config.seed, 0xC0FFEE);
        assert_eq!(a.config.auto_refresh_interval, 32_000);
        assert_eq!(a.config.data_patterns, vec![DataPattern::Legacy]);
        assert_eq!(a.config.ecc_codeword_bits, 0);
        assert!(!a.config.extended_victim_model());
        assert!(a.threads >= 1);
    }

    #[test]
    fn data_pattern_and_ecc_flags_parse() {
        let a = parse(&["--data-pattern", "legacy, rowstripe ,solid", "--ecc", "128"]).unwrap();
        assert_eq!(
            a.config.data_patterns,
            vec![
                DataPattern::Legacy,
                DataPattern::RowStripe,
                DataPattern::Solid
            ]
        );
        assert_eq!(a.config.ecc_codeword_bits, 128);
        assert!(a.config.extended_victim_model());
    }

    #[test]
    fn unknown_data_pattern_is_rejected_naming_the_valid_set() {
        let err = parse(&["--data-pattern", "legacy,zebra"]).unwrap_err();
        assert!(err.contains("unknown data pattern 'zebra'"), "got '{err}'");
        assert!(err.contains("rowstripe"), "error must list the valid set");
    }

    #[test]
    fn zero_and_oversized_ecc_codewords_are_rejected() {
        let err = parse(&["--ecc", "0"]).unwrap_err();
        assert!(err.contains("at least 1"), "got '{err}'");
        let err = parse(&["--ecc", "8193"]).unwrap_err();
        assert!(err.contains("exceeds"), "got '{err}'");
        assert!(parse(&["--ecc", "x"]).is_err());
        assert!(parse(&["--ecc"]).is_err());
        assert!(parse(&["--data-pattern", ","]).is_err());
        assert!(parse(&["--data-pattern"]).is_err());
    }

    #[test]
    fn parses_all_flags() {
        let a = parse(&[
            "--seed",
            "0xBEEF",
            "--activations",
            "5000",
            "--hc",
            "100,200",
            "--sides",
            "2,8",
            "--para-p",
            "0.01,0.001",
            "--benign-fraction",
            "0.25",
            "--refresh-interval",
            "0",
            "--threads",
            "3",
        ])
        .unwrap();
        assert_eq!(a.config.seed, 0xBEEF);
        assert_eq!(a.config.activations, 5000);
        assert_eq!(a.config.hc_firsts, vec![100, 200]);
        assert_eq!(a.config.sides, vec![2, 8]);
        assert_eq!(a.config.para_probabilities, vec![0.01, 0.001], "raw order");
        assert_eq!(a.config.benign_fraction, 0.25);
        assert_eq!(a.config.auto_refresh_interval, 0);
        assert_eq!(a.threads, 3);
    }

    #[test]
    fn hex_and_decimal_seeds() {
        assert_eq!(parse_u64_maybe_hex("0xff"), Some(255));
        assert_eq!(parse_u64_maybe_hex("0XFF"), Some(255));
        assert_eq!(parse_u64_maybe_hex("255"), Some(255));
        assert_eq!(parse_u64_maybe_hex("0x"), None);
        assert_eq!(parse_u64_maybe_hex("zz"), None);
        assert_eq!(parse_u64_maybe_hex("-1"), None);
        assert_eq!(
            parse_u64_maybe_hex("0xffffffffffffffff"),
            Some(u64::MAX),
            "full 64-bit range"
        );
        assert_eq!(parse_u64_maybe_hex("0x10000000000000000"), None, "overflow");
    }

    #[test]
    fn list_parsing_tolerates_spacing_and_trailing_commas() {
        let a = parse(&["--hc", " 100 , 200 ,"]).unwrap();
        assert_eq!(a.config.hc_firsts, vec![100, 200]);
    }

    #[test]
    fn help_flag_wins_over_other_arguments() {
        for args in [&["-h"][..], &["--help"], &["--hc", "100", "--help"]] {
            let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            assert!(matches!(parse_args(&owned), Ok(Invocation::Help)));
        }
    }

    #[test]
    fn para_p_kept_raw_normalization_happens_at_plan_time() {
        // Dedup/sort is owned by SweepConfig::normalized, not the parser,
        // so the reported config and executed grid can never disagree.
        let a = parse(&["--para-p", "0.01,0.0,0.01,0.001"]).unwrap();
        assert_eq!(a.config.para_probabilities, vec![0.01, 0.0, 0.01, 0.001]);
        let n = a.config.normalized();
        assert_eq!(n.para_probabilities, vec![0.0, 0.001, 0.01]);
    }

    #[test]
    fn rejection_paths_have_clear_errors() {
        for (args, needle) in [
            (
                &["--activations", "0"][..],
                "activations must be at least 1",
            ),
            (&["--activations", "x"], "--activations"),
            (&["--seed", "0x"], "--seed"),
            (&["--seed"], "requires a value"),
            (&["--hc", ","], "at least one value"),
            (&["--hc", "1,zero"], "invalid value 'zero'"),
            (&["--hc", "0"], "positive"),
            (&["--sides", "1"], "at least 2"),
            (&["--sides", ""], "at least one value"),
            (&["--para-p", ","], "at least one value"),
            (&["--para-p", "1.5"], "[0, 1]"),
            (&["--para-p", "nope"], "invalid value 'nope'"),
            (&["--benign-fraction", "2.0"], "[0, 1]"),
            (&["--refresh-interval", "-1"], "--refresh-interval"),
            (&["--threads", "0"], "--threads"),
            (&["--threads", "many"], "--threads"),
            (&["--frobnicate"], "unknown option"),
            // The settle kernel follows the CPU; there is no flag for it.
            (&["--kernel", "scalar"], "unknown option '--kernel'"),
        ] {
            let err = parse(args).expect_err(&format!("{args:?} must be rejected"));
            assert!(
                err.contains(needle),
                "error for {args:?} was '{err}', expected to mention '{needle}'"
            );
        }
    }

    #[test]
    fn serve_args_parse_and_reject() {
        match parse_serve_args(&[]).unwrap() {
            ServeInvocation::Serve(o) => {
                assert_eq!(o.workers, 2);
                assert_eq!(o.listen, None);
                assert_eq!(o.cache_capacity, crate::cache::DEFAULT_CAPACITY);
                assert!(o.checkpoint_dir.is_none());
            }
            ServeInvocation::Help => panic!("unexpected help"),
        }
        let owned: Vec<String> = [
            "--workers",
            "0",
            "--listen",
            "127.0.0.1:0",
            "--cache-capacity",
            "7",
            "--checkpoint-dir",
            "/tmp/ckpt",
            "--shard-cells",
            "4",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        match parse_serve_args(&owned).unwrap() {
            ServeInvocation::Serve(o) => {
                assert_eq!(o.workers, 0);
                assert_eq!(o.listen.as_deref(), Some("127.0.0.1:0"));
                assert_eq!(o.cache_capacity, 7);
                assert_eq!(
                    o.checkpoint_dir.as_deref(),
                    Some(std::path::Path::new("/tmp/ckpt"))
                );
                assert_eq!(o.shard_cells, 4);
            }
            ServeInvocation::Help => panic!("unexpected help"),
        }
        for bad in [
            // A pool of zero local workers with nowhere for TCP workers to
            // attach can never make progress.
            &["--workers", "0"][..],
            &["--workers", "x"],
            &["--cache-capacity", "0"],
            &["--shard-cells", "0"],
            &["--bogus"],
            // No second durable store: --checkpoint-dir is the only one.
            &["--cache-dir", "/tmp/rhcache"],
        ] {
            let owned: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(
                parse_serve_args(&owned).is_err(),
                "{bad:?} must be rejected"
            );
        }
        // Each worker runs the settle kernel its own CPU picks.
        let owned: Vec<String> = ["--kernel", "auto"].iter().map(|s| s.to_string()).collect();
        assert_eq!(
            parse_serve_args(&owned).unwrap_err(),
            "unknown serve option '--kernel'"
        );
    }

    #[test]
    fn worker_and_submit_args_parse_and_reject() {
        match parse_worker_args(&[]).unwrap() {
            WorkerInvocation::Worker(o) => {
                assert_eq!(o.connect, None);
                assert!(o.fault_plan.is_empty());
            }
            WorkerInvocation::Help => panic!("unexpected help"),
        }
        let owned: Vec<String> = ["--connect", "127.0.0.1:9"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        match parse_worker_args(&owned).unwrap() {
            WorkerInvocation::Worker(o) => {
                assert_eq!(o.connect.as_deref(), Some("127.0.0.1:9"));
            }
            WorkerInvocation::Help => panic!("unexpected help"),
        }
        for bad in [
            &["--bogus"][..],
            // `--fault-plan crash-after-cells=N` is the one way to
            // schedule a crash.
            &["--exit-after-cells", "3"],
        ] {
            let owned: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            let err = parse_worker_args(&owned).unwrap_err();
            assert!(err.contains("unknown worker option"), "{bad:?}: {err}");
        }

        let owned: Vec<String> = ["--connect", "127.0.0.1:9"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        match parse_submit_args(&owned).unwrap() {
            SubmitInvocation::Submit(o) => assert_eq!(o.connect, "127.0.0.1:9"),
            SubmitInvocation::Help => panic!("unexpected help"),
        }
        // submit without a coordinator address is meaningless.
        assert!(parse_submit_args(&[]).is_err());
        assert!(parse_submit_args(&["--bogus".to_string()]).is_err());
        assert!(matches!(
            parse_submit_args(&["--help".to_string()]),
            Ok(SubmitInvocation::Help)
        ));
    }

    #[test]
    fn chaos_flags_parse_and_reject() {
        let owned: Vec<String> = [
            "--config-epoch",
            "7",
            "--fallback-after-ms",
            "250",
            "--speculate-after-ms",
            "400",
            "--fault-plan",
            "cancel-after-cells=2",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        match parse_serve_args(&owned).unwrap() {
            ServeInvocation::Serve(o) => {
                assert_eq!(o.config_epoch, 7);
                assert_eq!(
                    o.fallback_after,
                    Some(std::time::Duration::from_millis(250))
                );
                assert_eq!(
                    o.speculate_after,
                    Some(std::time::Duration::from_millis(400))
                );
                assert_eq!(o.fault_plan.cancel_after_cells(), Some(2));
            }
            ServeInvocation::Help => panic!("unexpected help"),
        }
        // --speculate-after-ms 0 disables speculation entirely.
        let owned: Vec<String> = ["--speculate-after-ms", "0"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        match parse_serve_args(&owned).unwrap() {
            ServeInvocation::Serve(o) => assert_eq!(o.speculate_after, None),
            ServeInvocation::Help => panic!("unexpected help"),
        }
        // --fallback-after-ms makes a workerless, listenerless coordinator
        // viable (it degrades to in-process execution).
        let owned: Vec<String> = ["--workers", "0", "--fallback-after-ms", "1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(parse_serve_args(&owned).is_ok());
        // A malformed fault plan is rejected at parse time with the bad
        // directive named.
        let owned: Vec<String> = ["--fault-plan", "explode-now=1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = parse_serve_args(&owned).unwrap_err();
        assert!(err.contains("explode-now"), "got '{err}'");

        let owned: Vec<String> = [
            "--connect",
            "127.0.0.1:9",
            "--fault-plan",
            "crash-after-cells=3,drop-line=2",
            "--config-epoch",
            "9",
            "--retry",
            "4",
            "--backoff-ms",
            "50",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        match parse_worker_args(&owned).unwrap() {
            WorkerInvocation::Worker(o) => {
                assert_eq!(
                    o.fault_plan,
                    FaultPlan::parse("crash-after-cells=3,drop-line=2").unwrap()
                );
                assert_eq!(o.config_epoch, 9);
                assert_eq!(o.retries, 4);
                assert_eq!(o.backoff_base_ms, 50);
            }
            WorkerInvocation::Help => panic!("unexpected help"),
        }
        assert!(parse_worker_args(&["--backoff-ms".into(), "0".into()]).is_err());
        assert!(parse_worker_args(&["--fault-plan".into(), "drop-line=0".into()]).is_err());

        let owned: Vec<String> = ["--connect", "127.0.0.1:9", "--timeout", "5"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        match parse_submit_args(&owned).unwrap() {
            SubmitInvocation::Submit(o) => {
                assert_eq!(o.timeout, Some(std::time::Duration::from_secs(5)));
            }
            SubmitInvocation::Help => panic!("unexpected help"),
        }
        assert!(parse_submit_args(&[
            "--connect".into(),
            "127.0.0.1:9".into(),
            "--timeout".into(),
            "0".into()
        ])
        .is_err());
    }

    /// Write a token file into a scratch dir and return its path.
    fn token_file(tag: &str, contents: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("rh-cli-token-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("token");
        std::fs::write(&path, contents).unwrap();
        path
    }

    #[test]
    fn job_manager_serve_flags_parse_and_reject() {
        let token = token_file("serve", "sekrit\n");
        let owned: Vec<String> = [
            "--max-pending-jobs",
            "3",
            "--max-jobs-per-client",
            "2",
            "--max-cells-per-client",
            "500",
            "--handshake-timeout-ms",
            "1500",
            "--auth-token-file",
            token.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        match parse_serve_args(&owned).unwrap() {
            ServeInvocation::Serve(o) => {
                assert_eq!(o.max_pending_jobs, 3);
                assert_eq!(o.max_jobs_per_client, 2);
                assert_eq!(o.max_cells_per_client, 500);
                assert_eq!(o.handshake_timeout, std::time::Duration::from_millis(1500));
                assert_eq!(o.auth_token.as_deref(), Some("sekrit"), "token is trimmed");
            }
            ServeInvocation::Help => panic!("unexpected help"),
        }
        // Defaults: admission on with generous bounds, no auth.
        match parse_serve_args(&[]).unwrap() {
            ServeInvocation::Serve(o) => {
                assert_eq!(o.max_pending_jobs, 64);
                assert_eq!(o.max_jobs_per_client, 16);
                assert_eq!(o.handshake_timeout, std::time::Duration::from_secs(10));
                assert_eq!(o.auth_token, None);
            }
            ServeInvocation::Help => panic!("unexpected help"),
        }
        for bad in [
            &["--max-pending-jobs", "0"][..],
            &["--max-pending-jobs", "x"],
            &["--max-jobs-per-client", "0"],
            &["--max-cells-per-client", "0"],
            // A zero handshake deadline would reject every connection.
            &["--handshake-timeout-ms", "0"],
            &["--auth-token-file", "/nonexistent/rh-token"],
        ] {
            let owned: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(
                parse_serve_args(&owned).is_err(),
                "{bad:?} must be rejected"
            );
        }
        // An empty (or whitespace-only) token file authenticates nobody.
        let empty = token_file("serve-empty", " \n");
        let owned: Vec<String> = ["--auth-token-file", empty.to_str().unwrap()]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = parse_serve_args(&owned).unwrap_err();
        assert!(err.contains("empty"), "got '{err}'");
    }

    #[test]
    fn target_lease_ms_is_refused_as_unknown() {
        let owned: Vec<String> = ["--target-lease-ms", "1500"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(
            parse_serve_args(&owned).unwrap_err(),
            "unknown serve option '--target-lease-ms'"
        );
    }

    #[test]
    fn auth_deadline_and_cancel_flags_parse_and_reject() {
        let token = token_file("client", "hunter2");
        // Worker side: the token lands in WorkerOptions.
        let owned: Vec<String> = [
            "--connect",
            "127.0.0.1:9",
            "--auth-token-file",
            token.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        match parse_worker_args(&owned).unwrap() {
            WorkerInvocation::Worker(o) => assert_eq!(o.auth_token.as_deref(), Some("hunter2")),
            WorkerInvocation::Help => panic!("unexpected help"),
        }
        // Submit side: deadline and token.
        let owned: Vec<String> = [
            "--connect",
            "127.0.0.1:9",
            "--job-deadline-ms",
            "2500",
            "--auth-token-file",
            token.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        match parse_submit_args(&owned).unwrap() {
            SubmitInvocation::Submit(o) => {
                assert_eq!(o.deadline_ms, Some(2500));
                assert_eq!(o.auth_token.as_deref(), Some("hunter2"));
            }
            SubmitInvocation::Help => panic!("unexpected help"),
        }
        // Defaults stay off.
        let owned: Vec<String> = ["--connect", "127.0.0.1:9"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        match parse_submit_args(&owned).unwrap() {
            SubmitInvocation::Submit(o) => {
                assert_eq!(o.deadline_ms, None);
                assert_eq!(o.auth_token, None);
            }
            SubmitInvocation::Help => panic!("unexpected help"),
        }
        assert!(parse_submit_args(&[
            "--connect".into(),
            "127.0.0.1:9".into(),
            "--job-deadline-ms".into(),
            "0".into()
        ])
        .is_err());

        // Cancel verb.
        let owned: Vec<String> = [
            "--connect",
            "127.0.0.1:9",
            "--id",
            "job-42",
            "--timeout",
            "5",
            "--auth-token-file",
            token.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        match parse_cancel_args(&owned).unwrap() {
            CancelInvocation::Cancel(o) => {
                assert_eq!(o.connect, "127.0.0.1:9");
                assert_eq!(o.id, "job-42");
                assert_eq!(o.timeout, Some(std::time::Duration::from_secs(5)));
                assert_eq!(o.auth_token.as_deref(), Some("hunter2"));
            }
            CancelInvocation::Help => panic!("unexpected help"),
        }
        // Both --connect and --id are mandatory; bad flags are named.
        assert!(parse_cancel_args(&[]).is_err());
        assert!(parse_cancel_args(&["--connect".into(), "127.0.0.1:9".into()]).is_err());
        assert!(parse_cancel_args(&["--id".into(), "job-42".into()]).is_err());
        assert!(parse_cancel_args(&["--bogus".into()]).is_err());
        assert!(matches!(
            parse_cancel_args(&["--help".to_string()]),
            Ok(CancelInvocation::Help)
        ));
    }

    #[test]
    fn nan_para_p_is_rejected() {
        // f64::from_str accepts "NaN"; range validation must still catch it.
        let err = parse(&["--para-p", "NaN"]).unwrap_err();
        assert!(err.contains("[0, 1]"), "got '{err}'");
    }
}
