//! Output checks, all made outside timed intervals. Each check returns a
//! `Result`; [`Tally::record`] counts a failed check against the run and
//! the run goes on, so a bad document, a refused submit or a cache hit
//! shows up as a failed job — never as an aborted run or a silent pass.

use rh_cli::{ResultEnvelope, SweepOutput};

/// Jobs attempted and failed in one run.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

/// Failure messages kept for the run's report; the count is exact beyond it.
const KEPT_FAILURES: usize = 8;

impl Tally {
    /// Count one job, failed when any of its checks failed.
    pub fn record(&mut self, job: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.failures.len() < KEPT_FAILURES {
                self.failures.push(format!("{job}: {e}"));
            }
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Share of attempted jobs whose output passed every check.
    pub fn ok_frac(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// FNV-1a 64 of a document's bytes.
pub fn digest(doc: &str) -> u64 {
    doc.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

pub fn check_digest(doc: &str, expected: u64) -> Result<(), String> {
    let got = digest(doc);
    if got == expected {
        Ok(())
    } else {
        Err(format!(
            "document digest {got:#018x} differs from the recorded {expected:#018x}"
        ))
    }
}

/// The sweep's own invariants: PARA monotone in `p`, the flip-direction
/// split partitions the flips, and ECC never shows more flips than occurred.
pub fn sweep_invariants(out: &SweepOutput) -> Result<(), String> {
    if !out.para_monotone {
        return Err("PARA sweep is not monotone".to_string());
    }
    for r in out.grid.iter().chain(&out.para_sweep) {
        let cell = format!("{}/{}/{}", r.hc_first, r.workload, r.mitigation);
        if r.flips_1to0 + r.flips_0to1 != r.total_flips {
            return Err(format!(
                "{cell}: flips_1to0 {} + flips_0to1 {} != total_flips {}",
                r.flips_1to0, r.flips_0to1, r.total_flips
            ));
        }
        if let Some(post) = r.post_ecc_flips {
            if post > r.total_flips {
                return Err(format!(
                    "{cell}: post_ecc_flips {post} > total_flips {}",
                    r.total_flips
                ));
            }
        }
    }
    Ok(())
}

/// A timed serve job is good when it was executed afresh — every cell, not
/// from the cache — and its document is byte-identical to the in-process
/// sweep of the same config.
pub fn check_served(env: &ResultEnvelope, reference: &str, cells: u64) -> Result<(), String> {
    if env.served_from_cache {
        return Err("timed job was served from cache".to_string());
    }
    if env.executed_cells != cells {
        return Err(format!(
            "executed_cells {} != {cells} planned cells",
            env.executed_cells
        ));
    }
    if env.document != reference {
        let at = env
            .document
            .bytes()
            .zip(reference.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(env.document.len().min(reference.len()));
        return Err(format!(
            "served document differs from the in-process sweep at byte {at}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rh_cli::proto::jstr;
    use rh_cli::run_sweep;
    use rh_core::Geometry;

    fn tiny_sweep() -> (SweepOutput, String) {
        let cfg = rh_cli::SweepConfig {
            activations: 2_000,
            hc_firsts: vec![500],
            sides: vec![4],
            ecc_codeword_bits: 64,
            geometry: Geometry::tiny(64),
            ..rh_cli::SweepConfig::default()
        };
        let out = run_sweep(&cfg, 1).expect("tiny sweep runs");
        let doc = rh_cli::json::render(&out);
        (out, doc)
    }

    /// A result line as the coordinator writes it, built by hand so the
    /// tests do not depend on every field of `ResultEnvelope`.
    fn envelope(cached: bool, executed: u64, document: &str) -> String {
        format!(
            "{{\"type\":\"result\",\"id\":\"j\",\"config_hash\":\"0x00000000000000ff\",\
             \"seed\":1,\"served_from_cache\":{cached},\"coalesced\":false,\
             \"cache_hits\":0,\"executed_cells\":{executed},\"checkpoint_cells\":0,\
             \"workers\":[{{\"worker\":\"local-0\",\"kernel\":\"scalar\",\"cells\":{executed}}}],\
             \"document\":{}}}",
            jstr(document)
        )
    }

    /// Run one served reply through decode and check the way the serve
    /// workload does, counting it in `tally`. Reject and error lines decode
    /// to `Err`, naming the reason.
    fn settle(tally: &mut Tally, line: &str, reference: &str, cells: u64) {
        let outcome =
            ResultEnvelope::decode(line).and_then(|env| check_served(&env, reference, cells));
        tally.record("job", outcome);
    }

    #[test]
    fn a_good_sweep_and_a_good_served_job_pass() {
        let (out, doc) = tiny_sweep();
        sweep_invariants(&out).expect("real sweep passes its invariants");
        let cells = (out.grid.len() + out.para_sweep.len()) as u64;
        let mut tally = Tally::default();
        settle(&mut tally, &envelope(false, cells, &doc), &doc, cells);
        assert_eq!((tally.attempted(), tally.failed()), (1, 0));
        assert_eq!(tally.ok_frac(), 1.0);
    }

    #[test]
    fn a_corrupted_served_document_counts_as_failed() {
        let (out, doc) = tiny_sweep();
        let cells = (out.grid.len() + out.para_sweep.len()) as u64;
        let corrupted = doc.replacen("\"total_flips\": ", "\"total_flips\": 1", 1);
        assert_ne!(corrupted, doc);
        let mut tally = Tally::default();
        settle(&mut tally, &envelope(false, cells, &corrupted), &doc, cells);
        settle(&mut tally, &envelope(false, cells, &doc), &doc, cells);
        assert_eq!((tally.attempted(), tally.failed()), (2, 1));
        assert!(
            tally.failures()[0].contains("differs"),
            "{:?}",
            tally.failures()
        );
        assert_eq!(tally.ok_frac(), 0.5);
    }

    #[test]
    fn a_sweep_breaking_its_invariants_counts_as_failed() {
        let mut tally = Tally::default();
        let (mut out, _) = tiny_sweep();
        out.grid[0].flips_0to1 += 1;
        tally.record("split", sweep_invariants(&out));
        let (mut out, _) = tiny_sweep();
        let total = out.grid[1].total_flips;
        out.grid[1].post_ecc_flips = Some(total + 1);
        tally.record("ecc", sweep_invariants(&out));
        let (mut out, _) = tiny_sweep();
        out.para_monotone = false;
        tally.record("para", sweep_invariants(&out));
        assert_eq!((tally.attempted(), tally.failed()), (3, 3));
    }

    #[test]
    fn a_digest_mismatch_counts_as_failed() {
        let (_, doc) = tiny_sweep();
        let mut tally = Tally::default();
        tally.record("canary", check_digest(&doc, digest(&doc)));
        tally.record("canary", check_digest(&doc, digest(&doc) ^ 1));
        assert_eq!((tally.attempted(), tally.failed()), (2, 1));
        assert!(tally.failures()[0].contains("digest"));
    }

    #[test]
    fn rejected_and_errored_submits_count_as_failed() {
        let (_, doc) = tiny_sweep();
        let mut tally = Tally::default();
        settle(
            &mut tally,
            "{\"type\":\"reject\",\"reason\":\"queue_full\"}",
            &doc,
            1,
        );
        settle(
            &mut tally,
            "{\"type\":\"error\",\"id\":\"j\",\"message\":\"worker died\"}",
            &doc,
            1,
        );
        settle(&mut tally, "not json", &doc, 1);
        assert_eq!((tally.attempted(), tally.failed()), (3, 3));
        assert!(tally.failures()[0].contains("queue_full"));
        assert!(tally.failures()[1].contains("worker died"));
    }

    #[test]
    fn a_timed_job_served_from_cache_counts_as_failed() {
        let (out, doc) = tiny_sweep();
        let cells = (out.grid.len() + out.para_sweep.len()) as u64;
        let mut tally = Tally::default();
        settle(&mut tally, &envelope(true, 0, &doc), &doc, cells);
        settle(&mut tally, &envelope(false, cells - 1, &doc), &doc, cells);
        assert_eq!((tally.attempted(), tally.failed()), (2, 2));
        assert!(tally.failures()[0].contains("cache"));
        assert!(tally.failures()[1].contains("executed_cells"));
    }

    #[test]
    fn kept_failure_messages_are_bounded_but_the_count_is_exact() {
        let mut tally = Tally::default();
        for _ in 0..100 {
            tally.record("job", Err("bad".to_string()));
        }
        assert_eq!(tally.failed(), 100);
        assert_eq!(tally.failures().len(), KEPT_FAILURES);
        assert_eq!(tally.ok_frac(), 0.0);
    }
}
