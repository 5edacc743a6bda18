//! What the host says about this process: `/proc` readers and the `env`
//! block recorded with every result.

use std::fs;
use std::process::Command;

/// Clock ticks per second of the `utime`/`stime` fields of
/// `/proc/<pid>/stat`. `USER_HZ` is 100 on every Linux ABI.
const TICKS_PER_SEC: f64 = 100.0;

/// Peak resident set size in MB from the text of `/proc/<pid>/status`
/// (the `VmHWM` line, in kB).
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `(user, system)` CPU seconds from the text of `/proc/<pid>/stat`. The
/// command name (field 2) may hold spaces and parentheses, so fields are
/// counted from the last `)`: `utime` and `stime` are fields 14 and 15.
pub fn parse_cpu_secs(stat: &str) -> Option<(f64, f64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3 (state); utime is 11 fields further on.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime / TICKS_PER_SEC, stime / TICKS_PER_SEC))
}

/// One-minute load average from the text of `/proc/loadavg`.
pub fn parse_loadavg1(loadavg: &str) -> Option<f64> {
    loadavg.split_whitespace().next()?.parse().ok()
}

/// Peak RSS of this process in MB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_mb(&s))
        .unwrap_or(0.0)
}

/// `(user, system)` CPU seconds of this process so far.
pub fn cpu_secs() -> (f64, f64) {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_cpu_secs(&s))
        .unwrap_or((0.0, 0.0))
}

/// The host's one-minute load average.
pub fn loadavg1() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| parse_loadavg1(&s))
        .unwrap_or(0.0)
}

/// Where and how a result was measured; recorded with every result because
/// both measurement traps met while sizing the workloads (a busy second
/// core, a debug build) are invisible in the numbers themselves.
#[derive(Debug, Clone)]
pub struct Env {
    pub nproc: usize,
    pub loadavg1: f64,
    pub profile: &'static str,
    pub commit: String,
}

impl Env {
    pub fn capture() -> Env {
        Env {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            loadavg1: loadavg1(),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            commit: git_commit(),
        }
    }

    /// Warnings to print before measuring on this host.
    pub fn warnings(&self) -> Vec<String> {
        let mut w = Vec::new();
        if self.loadavg1 > 0.5 {
            w.push(format!(
                "loadavg1 is {:.2} (> 0.5): another process is using the CPU, wall metrics will be noisy",
                self.loadavg1
            ));
        }
        if self.profile != "release" {
            w.push("debug build: wall metrics are 10-50x off, build with --release".to_string());
        }
        w
    }
}

/// Short commit hash of the checkout, or `unknown` outside a git repository
/// (the benchmark driver's checkout is not one).
fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_in_kb() {
        let status =
            "Name:\ttetribench\nVmPeak:\t  300000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(50.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tx\n"), None);
    }

    #[test]
    fn cpu_fields_are_counted_after_the_command_name() {
        // A command name with a space and a ')' in it must not shift fields.
        let stat =
            "4242 (a b) c) S 1 4242 4242 0 -1 4194304 500 0 0 0 1234 56 0 0 20 0 1 0 100 0 0";
        assert_eq!(parse_cpu_secs(stat), Some((12.34, 0.56)));
        assert_eq!(parse_cpu_secs("garbage"), None);
        assert_eq!(parse_cpu_secs("1 (x) S 1 2"), None);
    }

    #[test]
    fn loadavg_takes_the_first_field() {
        assert_eq!(parse_loadavg1("0.42 0.50 0.78 2/85 5616\n"), Some(0.42));
        assert_eq!(parse_loadavg1(""), None);
    }
}
