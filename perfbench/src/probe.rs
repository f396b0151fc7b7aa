//! Memory and page-fault probes read from `/proc/self`, outside the
//! program under test.

use std::fs;

/// Resident size and cumulative minor page faults of this process.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    pub rss_kib: i64,
    pub minor_faults: u64,
}

impl Sample {
    pub fn now() -> Sample {
        Sample {
            rss_kib: status_kib("VmRSS").unwrap_or(0) as i64,
            minor_faults: minor_faults().unwrap_or(0),
        }
    }
}

/// A `kB` field of `/proc/self/status`, such as `VmRSS` or `VmHWM`.
pub fn status_kib(field: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Field 10 (`minflt`) of `/proc/self/stat`.  The command name in field 2
/// may hold spaces, so fields are counted after its closing parenthesis.
fn minor_faults() -> Option<u64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // After the command come state (field 3), ppid, pgrp, session, tty_nr,
    // tpgid, flags, then minflt (field 10).
    after_comm.split_whitespace().nth(7)?.parse().ok()
}
