//! Deterministic fault injection for the distributed sweep service.
//!
//! Chaos testing is only useful when a failure reproduces: a flaky "kill a
//! worker at some point" harness proves nothing when the bytes diverge once
//! in fifty runs. A [`FaultPlan`] is therefore a *parsed, seeded schedule*
//! of faults — every trigger point is a deterministic function of the spec
//! string, so `--fault-plan crash-after-cells=5` crashes the worker at the
//! same protocol instant on every run, and the chaos suite in CI is a real
//! regression test instead of a dice roll.
//!
//! The spec is a comma-separated list of `key=value` directives:
//!
//! | directive | side | effect |
//! |---|---|---|
//! | `seed=N` | worker | seeds the kept length of a garbled line |
//! | `crash-after-cells=N` | worker | drop the connection after streaming the N-th cell |
//! | `stall-after-cells=N` | worker | sleep `stall-ms` once, after the N-th cell |
//! | `stall-ms=MS` | worker | duration of the injected stall (default 1000) |
//! | `drop-line=N` | worker | silently drop the N-th outgoing protocol line |
//! | `garble-line=N` | worker | corrupt the N-th outgoing protocol line |
//! | `cancel-after-cells=N` | coordinator | cancel a job the moment its N-th cell merges |
//! | `slow-client=MS` | coordinator | stall each client reply by MS (a slow-reading client) |
//!
//! Line counts cover every line the worker sends (hello, cells,
//! shard_done, fail, cancel_ack) in stream order, so the numbering is the
//! same on every run. Garbled
//! lines are rewritten to start with `#`, which can never begin valid JSON
//! — a garble must always look like corruption to the peer, never decode as
//! a *different* valid message (that would silently poison the merge
//! instead of exercising the recovery path).

use rh_core::{derive_seed, SplitMix64};
use std::time::Duration;

/// Default injected stall duration when `stall-ms` is omitted.
const DEFAULT_STALL_MS: u64 = 1_000;

/// What to do after a cell result has been streamed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellFate {
    /// No fault scheduled here.
    Continue,
    /// Sleep this long, then continue — a straggler, not a corpse.
    Stall(Duration),
    /// Drop the connection mid-shard, exactly like a crash.
    Crash,
}

/// What to do with an outgoing protocol line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LineFate {
    /// Send the line unmodified.
    Send,
    /// Pretend the line was lost in transit.
    Drop,
    /// Send this corrupted replacement instead.
    Garble(String),
}

/// A parsed, seeded schedule of injectable faults. Counters live inside, so
/// a plan is consumed by one connection; clone it to reuse the schedule.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    seed: u64,
    crash_after_cells: Option<u64>,
    stall_after_cells: Option<u64>,
    stall_millis: Option<u64>,
    drop_lines: Vec<u64>,
    garble_lines: Vec<u64>,
    cancel_after_cells: Option<u64>,
    slow_client_millis: u64,
    // Runtime counters (1-based: the first cell/line is number 1).
    cells_streamed: u64,
    lines_written: u64,
}

impl FaultPlan {
    /// Parse a `--fault-plan` spec string. An empty spec is an empty plan.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for directive in spec.split(',').map(str::trim).filter(|d| !d.is_empty()) {
            let (key, value) = directive.split_once('=').ok_or_else(|| {
                format!("fault-plan: directive '{directive}' is not of the form key=value")
            })?;
            let num = |what: &str| -> Result<u64, String> {
                value.trim().parse::<u64>().map_err(|_| {
                    format!("fault-plan: {what} wants an unsigned integer, got '{value}'")
                })
            };
            match key.trim() {
                "seed" => plan.seed = num("seed")?,
                "crash-after-cells" => plan.crash_after_cells = Some(num("crash-after-cells")?),
                "stall-after-cells" => plan.stall_after_cells = Some(num("stall-after-cells")?),
                "stall-ms" => plan.stall_millis = Some(num("stall-ms")?),
                "drop-line" => plan.drop_lines.push(num("drop-line")?),
                "garble-line" => plan.garble_lines.push(num("garble-line")?),
                "cancel-after-cells" => plan.cancel_after_cells = Some(num("cancel-after-cells")?),
                "slow-client" => plan.slow_client_millis = num("slow-client")?,
                other => {
                    return Err(format!(
                        "fault-plan: unknown directive '{other}' (expected seed, \
                         crash-after-cells, stall-after-cells, stall-ms, drop-line, \
                         garble-line, cancel-after-cells, slow-client)"
                    ))
                }
            }
        }
        for zero in [
            "crash-after-cells",
            "stall-after-cells",
            "cancel-after-cells",
        ] {
            let v = match zero {
                "crash-after-cells" => plan.crash_after_cells,
                "stall-after-cells" => plan.stall_after_cells,
                _ => plan.cancel_after_cells,
            };
            if v == Some(0) {
                return Err(format!("fault-plan: {zero} must be at least 1"));
            }
        }
        if plan.drop_lines.contains(&0) || plan.garble_lines.contains(&0) {
            return Err("fault-plan: line numbers are 1-based; 0 never fires".to_string());
        }
        Ok(plan)
    }

    /// True when no fault directive is scheduled (a bare `seed=` counts as
    /// empty: it seeds nothing).
    pub fn is_empty(&self) -> bool {
        self.crash_after_cells.is_none()
            && self.stall_after_cells.is_none()
            && self.drop_lines.is_empty()
            && self.garble_lines.is_empty()
            && self.cancel_after_cells.is_none()
            && self.slow_client_millis == 0
    }

    /// Account one streamed cell and report the scheduled fate. If a stall
    /// and a crash share a trigger count, the stall wins — schedule them at
    /// distinct counts to combine them.
    pub fn on_cell(&mut self) -> CellFate {
        self.cells_streamed += 1;
        if self.stall_after_cells == Some(self.cells_streamed) {
            return CellFate::Stall(Duration::from_millis(
                self.stall_millis.unwrap_or(DEFAULT_STALL_MS),
            ));
        }
        if self.crash_after_cells == Some(self.cells_streamed) {
            return CellFate::Crash;
        }
        CellFate::Continue
    }

    /// Account one outgoing protocol line and report its fate.
    pub fn on_line(&mut self, line: &str) -> LineFate {
        self.lines_written += 1;
        let n = self.lines_written;
        if self.drop_lines.contains(&n) {
            return LineFate::Drop;
        }
        if self.garble_lines.contains(&n) {
            let mut rng = SplitMix64::new(derive_seed(self.seed, &[n]));
            // Keep a seeded-length prefix of the original so the corruption
            // looks like a real torn/garbled transport line, but lead with
            // '#': no JSON document starts with it, so the peer can never
            // mistake the garble for a different valid message.
            let keep = if line.is_empty() {
                0
            } else {
                (rng.next_u64() as usize) % line.len()
            };
            return LineFate::Garble(format!("#garbled#{}", &line[..keep.min(line.len())]));
        }
        LineFate::Send
    }

    /// Coordinator side: cancel a job the moment its N-th cell merges —
    /// replays the mid-job `cancel` teardown without a second client.
    pub fn cancel_after_cells(&self) -> Option<u64> {
        self.cancel_after_cells
    }

    /// Coordinator side: delay before each client reply, simulating a
    /// client that drains its socket slowly (per-connection threads must
    /// keep other clients unaffected).
    pub fn slow_client_delay(&self) -> Option<Duration> {
        (self.slow_client_millis > 0).then(|| Duration::from_millis(self.slow_client_millis))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_spec_is_an_empty_plan() {
        let plan = FaultPlan::parse("").unwrap();
        assert!(plan.is_empty());
        assert_eq!(plan, FaultPlan::default());
    }

    #[test]
    fn full_spec_round_trips_every_directive() {
        let plan = FaultPlan::parse(
            "seed=7, crash-after-cells=5, stall-after-cells=2, stall-ms=250, \
             drop-line=3, garble-line=4, cancel-after-cells=6, slow-client=20",
        )
        .unwrap();
        assert!(!plan.is_empty());
        assert_eq!(plan.cancel_after_cells(), Some(6));
        assert_eq!(plan.slow_client_delay(), Some(Duration::from_millis(20)));
    }

    #[test]
    fn job_manager_directives_parse_individually() {
        let plan = FaultPlan::parse("cancel-after-cells=2").unwrap();
        assert_eq!(plan.cancel_after_cells(), Some(2));
        let err = FaultPlan::parse("cancel-after-cells=0").unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let plan = FaultPlan::parse("slow-client=15").unwrap();
        assert_eq!(plan.slow_client_delay(), Some(Duration::from_millis(15)));
        assert_eq!(
            FaultPlan::parse("slow-client=0")
                .unwrap()
                .slow_client_delay(),
            None
        );
    }

    #[test]
    fn unknown_and_malformed_directives_are_rejected_with_names() {
        let err = FaultPlan::parse("explode=1").unwrap_err();
        assert!(err.contains("unknown directive 'explode'"), "{err}");
        for named in ["cancel-after-cells", "slow-client"] {
            assert!(err.contains(named), "valid set must name {named}: {err}");
        }
        let err = FaultPlan::parse("crash-after-cells").unwrap_err();
        assert!(err.contains("key=value"), "{err}");
        let err = FaultPlan::parse("stall-ms=soon").unwrap_err();
        assert!(err.contains("unsigned integer"), "{err}");
        let err = FaultPlan::parse("crash-after-cells=0").unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = FaultPlan::parse("drop-line=0").unwrap_err();
        assert!(err.contains("1-based"), "{err}");
    }

    #[test]
    fn cell_schedule_fires_at_exact_counts() {
        let mut plan =
            FaultPlan::parse("crash-after-cells=3,stall-after-cells=2,stall-ms=5").unwrap();
        assert_eq!(plan.on_cell(), CellFate::Continue);
        assert_eq!(plan.on_cell(), CellFate::Stall(Duration::from_millis(5)));
        assert_eq!(plan.on_cell(), CellFate::Crash);
        assert_eq!(plan.on_cell(), CellFate::Continue);
    }

    #[test]
    fn line_schedule_drops_and_garbles_deterministically() {
        let spec = "seed=42,drop-line=2,garble-line=3";
        let mut a = FaultPlan::parse(spec).unwrap();
        let mut b = FaultPlan::parse(spec).unwrap();
        let line = r#"{"type":"cell","job":1}"#;
        assert_eq!(a.on_line(line), LineFate::Send);
        assert_eq!(a.on_line(line), LineFate::Drop);
        let LineFate::Garble(garbled) = a.on_line(line) else {
            panic!("third line must garble");
        };
        assert!(garbled.starts_with('#'), "garble must never parse as JSON");
        // Same spec, same stream → byte-identical garbling.
        b.on_line(line);
        b.on_line(line);
        assert_eq!(b.on_line(line), LineFate::Garble(garbled));
    }
}
