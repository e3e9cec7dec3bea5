//! What the run cost the host rather than the program: page faults and
//! kernel time, read from `/proc/self/stat` (no libc).
//!
//! A buffer that is handed back to the allocator and mapped again costs
//! minor faults and system time that no span inside the program sees; the
//! drivers record both per run as [`names::HOST_MINOR_FAULTS`] and
//! [`names::HOST_SYS_MS`] — on rank 0's lane, with the other process-wide
//! rows — so a traced run shows them next to its spans.

use crate::{names, TraceCollector};

/// Scheduler ticks per second in `/proc/self/stat` (`USER_HZ`, 100 on every
/// Linux ABI; reading it properly would need `sysconf`).
const TICKS_PER_SEC: u64 = 100;

/// Cumulative host-side usage of this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostUsage {
    /// Minor page faults so far (field 10).
    pub(crate) minor_faults: u64,
    /// System CPU time so far, ms (field 15).
    pub(crate) sys_ms: u64,
}

impl HostUsage {
    /// Read the counters now; `None` where `/proc/self/stat` does not exist
    /// or does not parse.
    pub fn now() -> Option<HostUsage> {
        parse(&std::fs::read_to_string("/proc/self/stat").ok()?)
    }

    /// Record on `lane` what the process used since `self` was read.
    pub fn record_since(self, collector: &TraceCollector, lane: usize) {
        if let Some(now) = HostUsage::now() {
            collector.record_count(
                lane,
                names::HOST_MINOR_FAULTS,
                now.minor_faults.saturating_sub(self.minor_faults),
            );
            collector.record_count(
                lane,
                names::HOST_SYS_MS,
                now.sys_ms.saturating_sub(self.sys_ms),
            );
        }
    }
}

/// Fields 10 and 15 of a `/proc/<pid>/stat` line. Field 2 (the command
/// name) may itself contain spaces and parentheses, so count from the last
/// `)`: what follows starts at field 3.
fn parse(stat: &str) -> Option<HostUsage> {
    let mut fields = stat[stat.rfind(')')? + 1..].split_ascii_whitespace();
    let minor_faults = fields.nth(10 - 3)?.parse().ok()?;
    let sys_ticks: u64 = fields.nth(15 - 10 - 1)?.parse().ok()?;
    Some(HostUsage {
        minor_faults,
        sys_ms: sys_ticks * 1000 / TICKS_PER_SEC,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_fields_10_and_15_past_a_hostile_command_name() {
        let line = "4242 (a b) c) S 1 4242 4242 0 -1 4194560 777 0 3 0 120 45 0 0 20 0 3 0 100 \
                    1000 10 18446744073709551615";
        assert_eq!(
            parse(line),
            Some(HostUsage {
                minor_faults: 777,
                sys_ms: 450
            })
        );
        assert_eq!(parse("no parenthesis here"), None);
        assert_eq!(parse("1 (x) S 1 2"), None);
    }

    #[test]
    fn faults_taken_between_two_reads_show_up() {
        let Some(before) = HostUsage::now() else {
            return; // not Linux
        };
        // Touch 8 MiB of fresh pages.
        let v = vec![1u8; 8 << 20];
        std::hint::black_box(&v);
        let after = HostUsage::now().unwrap();
        assert!(after.minor_faults > before.minor_faults);
        assert!(after.sys_ms >= before.sys_ms);
    }
}
