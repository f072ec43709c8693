//! Host facts the benchmark reads: peak resident memory from `/proc`
//! (Linux only), tool versions, and order statistics.

use std::process::Command;

/// Peak resident set (`VmHWM`) of `pid` (`"self"` or a number) in KiB.
pub fn peak_rss_kib(pid: &str) -> Result<u64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{path} has no VmHWM line"))
}

/// PIDs of the live children of `parent`, from each process's `stat` line.
pub fn children_of(parent: u32) -> Vec<u32> {
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    entries
        .filter_map(|entry| entry.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| {
            std::fs::read_to_string(format!("/proc/{pid}/stat"))
                .ok()
                .and_then(|stat| parent_pid(&stat))
                == Some(parent)
        })
        .collect()
}

/// The parent PID field of a `/proc/<pid>/stat` line. The command name
/// before it is parenthesised and may itself hold spaces or parentheses.
fn parent_pid(stat: &str) -> Option<u32> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    after_comm.split_whitespace().nth(1)?.parse().ok()
}

/// First line of `cmd args` on success, else `"unknown"`.
pub fn tool_version(cmd: &str, args: &[&str]) -> String {
    first_line(Command::new(cmd).args(args))
}

/// The checkout's git revision, or `"unknown"` outside a git repository.
/// The search for a repository stops at the working directory, so a
/// checkout copied below some other repository does not report that one.
pub fn git_revision() -> String {
    let mut git = Command::new("git");
    git.args(["rev-parse", "--short", "HEAD"]);
    if let Some(parent) = std::env::current_dir()
        .ok()
        .as_deref()
        .and_then(|d| d.parent())
    {
        git.env("GIT_CEILING_DIRECTORIES", parent);
    }
    first_line(&mut git)
}

fn first_line(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|s| s.lines().next().map(|l| l.trim().to_string()))
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parent_pid_survives_odd_command_names() {
        assert_eq!(parent_pid("42 (rh-cli) S 7 42 42 0"), Some(7));
        assert_eq!(parent_pid("42 (a) b (c)) R 9 1 1"), Some(9));
        assert_eq!(parent_pid("garbage"), None);
    }

    #[test]
    fn own_peak_rss_is_readable() {
        assert!(peak_rss_kib("self").expect("Linux /proc") > 0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
