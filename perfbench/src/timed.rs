//! The timed (untraced) runs that produce the end-to-end metrics: a closed
//! loop with one client, each job sent when the previous document arrived.

use crate::check::{check_digest, check_served, sweep_invariants, Tally};
use crate::config::{job_seed, Workload};
use crate::pipeline::{cells_per_job, setup_time, sweep_job};
use crate::service::Service;
use crate::sys::{median, peak_rss_kib};
use crate::{Metric, Run};
use rh_cli::{ResultEnvelope, SweepConfig};
use std::path::Path;
use std::time::{Duration, Instant};

/// Fewest timed jobs per run, however short `--seconds` is. Peak memory is
/// read when this many jobs are done: a service keeps every document it
/// served in its result cache, so read at the end of the run, its peak
/// would grow with the number of jobs the run fits in, and a faster
/// program would read as a larger one.
const MIN_JOBS: u64 = 3;

/// Service starts a traced run times back to back; their median is
/// `serve.start_s`. A single start is too noisy to compare across runs.
pub const SERVICE_STARTS: usize = 15;

/// Service starts a timed `serve-default` run makes before its first job.
/// It makes [`STARTS_PER_GAP`] more after every job, so the starts sample
/// the whole run rather than its first fraction of a second; their median
/// is `setup_s`.
const FIRST_STARTS: usize = 9;
const STARTS_PER_GAP: usize = 4;

/// Run jobs `0, 1, ...` of `w` at seeds derived from `seed` until `seconds`
/// have passed (and at least [`MIN_JOBS`]), handing each to `job`.
fn closed_loop(w: Workload, seed: u64, seconds: f64, mut job: impl FnMut(u64, SweepConfig)) -> u64 {
    let started = Instant::now();
    let mut jobs = 0;
    while jobs < MIN_JOBS || started.elapsed().as_secs_f64() < seconds {
        job(jobs, w.config(job_seed(seed, jobs)));
        jobs += 1;
    }
    jobs
}

/// The spread of a run's times of `what`, for the report: quartiles, and
/// the highest percentile with at least ten samples beyond it when there is
/// one.
fn time_note(what: &str, times: &[Duration]) -> String {
    let mut secs: Vec<f64> = times.iter().map(Duration::as_secs_f64).collect();
    secs.sort_by(f64::total_cmp);
    let n = secs.len();
    let at = |q: f64| secs[((n - 1) as f64 * q).round() as usize];
    let mut note = format!(
        "{what} over {n}: min {:.6} q1 {:.6} median {:.6} q3 {:.6} max {:.6}",
        at(0.0),
        at(0.25),
        at(0.5),
        at(0.75),
        at(1.0)
    );
    if n > 20 {
        let rank = n - 10;
        note += &format!(
            " p{:.0} {:.6}",
            100.0 * rank as f64 / n as f64,
            secs[rank - 1]
        );
    }
    note
}

/// End-to-end metrics from the successful jobs' wall times.
fn end_to_end(
    times: &[Duration],
    acts_per_job: u64,
    setup: &[Duration],
    rss_kib: u64,
    tally: &Tally,
) -> Result<Vec<Metric>, String> {
    if times.is_empty() {
        return Err(format!("no job succeeded: {}", tally.failures().join("; ")));
    }
    let secs: Vec<f64> = times.iter().map(Duration::as_secs_f64).collect();
    let setup: Vec<f64> = setup.iter().map(Duration::as_secs_f64).collect();
    Ok(vec![
        Metric::new("job_s", "s", median(&secs)),
        Metric::new(
            "acts_per_s",
            "1/s",
            (acts_per_job * secs.len() as u64) as f64 / secs.iter().sum::<f64>(),
        ),
        Metric::new("setup_s", "s", median(&setup)),
        Metric::new("peak_rss_mb", "MB", rss_kib as f64 / 1024.0),
        Metric::new("ok_frac", "ratio", tally.ok_frac()),
    ])
}

/// `sweep-ddr4` / `sweep-default`: in-process sweeps on two threads, each
/// job cold (its tables built and its pages first touched inside the job).
pub fn sweep(w: Workload, seed: u64, seconds: f64) -> Result<Run, String> {
    let mut tally = Tally::default();
    let canary = w.config(w.canary_seed());
    let (out, doc) = sweep_job(&canary)?;
    tally.record(
        "canary",
        sweep_invariants(&out).and_then(|()| check_digest(&doc, w.canary_digest())),
    );
    let cells = cells_per_job(&canary)?;

    let mut times = Vec::new();
    let mut setup = Vec::new();
    let mut setup_error = None;
    let mut rss_kib = Err("the run ended before its peak memory was read".to_string());
    let jobs = closed_loop(w, seed, seconds, |j, cfg| {
        let started = Instant::now();
        let result = sweep_job(&cfg);
        let elapsed = started.elapsed();
        let outcome = result.and_then(|(out, _doc)| {
            times.push(elapsed);
            sweep_invariants(&out)
        });
        tally.record(&format!("job {j}"), outcome);
        match setup_time(&cfg) {
            Ok(t) => setup.push(t),
            Err(e) => setup_error = Some(e),
        }
        if j + 1 == MIN_JOBS {
            rss_kib = peak_rss_kib("self");
        }
    });
    if let Some(e) = setup_error {
        return Err(format!("set-up timing failed: {e}"));
    }
    let metrics = end_to_end(&times, cells * canary.activations, &setup, rss_kib?, &tally)?;
    Ok(Run {
        metrics,
        tally,
        jobs,
        cells,
        activations: canary.activations,
        notes: vec![time_note("job_s", &times)],
    })
}

/// Start the service `count` times, keeping the last one running; returns
/// it with every start time.
pub fn start_service(rh_cli: &Path, count: usize) -> Result<(Service, Vec<Duration>), String> {
    let mut starts = Vec::with_capacity(count);
    loop {
        let (service, took) = Service::start(rh_cli)?;
        starts.push(took);
        if starts.len() >= count {
            return Ok((service, starts));
        }
        service.stop()?;
    }
}

/// `serve-default`: the default jobs through one long-lived `rh-cli serve
/// --workers 2`, after one untimed warm-up job (the canary).
pub fn serve(w: Workload, seed: u64, seconds: f64, rh_cli: &Path) -> Result<Run, String> {
    let mut tally = Tally::default();
    let (mut service, mut starts) = start_service(rh_cli, FIRST_STARTS)?;
    // What went wrong with the service itself rather than with a job: a
    // failed start between jobs, unreadable peak memory (a coordinator that
    // died is a zombie without one), an unclean exit. Counted as one failed
    // check, never an aborted run.
    let mut service_errors: Vec<String> = Vec::new();
    let canary = w.config(w.canary_seed());
    let cells = cells_per_job(&canary)?;
    let warm_up = service
        .request(&Service::submit_line("warm-up", &canary))
        .and_then(|reply| ResultEnvelope::decode(&reply));

    let mut served: Vec<(SweepConfig, Result<ResultEnvelope, String>)> = Vec::new();
    let mut times = Vec::new();
    // Share of each job's cells its busiest worker executed: the adaptive
    // lease sizer's balance, which sets how parallel a served job is.
    let mut shares = Vec::new();
    let mut rss_kib = Err("the run ended before its peak memory was read".to_string());
    let jobs = closed_loop(w, seed, seconds, |j, cfg| {
        let line = Service::submit_line(&format!("job-{j}"), &cfg);
        let started = Instant::now();
        let outcome = service
            .request(&line)
            .and_then(|reply| ResultEnvelope::decode(&reply));
        let elapsed = started.elapsed();
        if let Ok(env) = &outcome {
            times.push(elapsed);
            let busiest = env.workers.iter().map(|w| w.cells).max().unwrap_or(0);
            shares.push(busiest as f64 / env.executed_cells.max(1) as f64);
        }
        served.push((cfg, outcome));
        if j + 1 == MIN_JOBS {
            let own = peak_rss_kib("self");
            rss_kib = match service.peak_rss_kib() {
                Ok(kib) => own.map(|own| own + kib),
                Err(e) => {
                    service_errors.push(format!("peak memory: {e}"));
                    own
                }
            };
        }
        // More service starts between jobs, outside the timed interval.
        for _ in 0..STARTS_PER_GAP {
            match Service::start(rh_cli).and_then(|(probe, took)| {
                probe.stop()?;
                Ok(took)
            }) {
                Ok(took) => starts.push(took),
                Err(e) => service_errors.push(format!("start between jobs: {e}")),
            }
        }
    });
    if let Err(e) = service.stop() {
        service_errors.push(format!("stop: {e}"));
    }
    tally.record(
        "service",
        match service_errors.first() {
            None => Ok(()),
            Some(first) => Err(format!(
                "{} errors, the first {first}",
                service_errors.len()
            )),
        },
    );

    // Output checks, after the service has stopped.
    tally.record(
        "warm-up",
        warm_up.and_then(|env| {
            let (out, doc) = sweep_job(&canary)?;
            sweep_invariants(&out)?;
            check_digest(&env.document, w.canary_digest())?;
            check_served(&env, &doc, cells)
        }),
    );
    for (j, (cfg, outcome)) in served.into_iter().enumerate() {
        let checked = outcome.and_then(|env| {
            let (out, doc) = sweep_job(&cfg)?;
            sweep_invariants(&out)?;
            check_served(&env, &doc, cells)
        });
        tally.record(&format!("job {j}"), checked);
    }
    let metrics = end_to_end(
        &times,
        cells * canary.activations,
        &starts,
        rss_kib?,
        &tally,
    )?;
    shares.sort_by(f64::total_cmp);
    let busiest = format!(
        "busiest worker's share of a job's cells: min {:.3} median {:.3} max {:.3}",
        shares[0],
        median(&shares),
        shares[shares.len() - 1],
    );
    Ok(Run {
        metrics,
        tally,
        jobs,
        cells,
        activations: canary.activations,
        notes: vec![
            time_note("job_s", &times),
            time_note("service start_s", &starts),
            busiest,
        ],
    })
}
