//! `/proc` readers: memory, thread and CPU-time accounting of this process
//! and of the `serve_demo` child.

/// The fields of `/proc/<pid>/status` the benchmark reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Status {
    /// Peak resident set size (`VmHWM`), kB.
    pub vm_hwm_kb: u64,
    /// Current resident set size (`VmRSS`), kB.
    pub vm_rss_kb: u64,
    pub threads: u64,
    pub voluntary_ctxt_switches: u64,
    pub nonvoluntary_ctxt_switches: u64,
}

impl Status {
    pub fn ctxt_switches(&self) -> u64 {
        self.voluntary_ctxt_switches + self.nonvoluntary_ctxt_switches
    }
}

/// Parse the text of `/proc/<pid>/status`. Unknown lines are skipped; a
/// field that is absent stays 0 (kernel threads have no `Vm*` lines).
pub fn parse_status(text: &str) -> Status {
    let mut s = Status::default();
    for line in text.lines() {
        let Some((key, rest)) = line.split_once(':') else {
            continue;
        };
        let Some(value) = rest
            .split_whitespace()
            .next()
            .and_then(|v| v.parse::<u64>().ok())
        else {
            continue;
        };
        match key {
            "VmHWM" => s.vm_hwm_kb = value,
            "VmRSS" => s.vm_rss_kb = value,
            "Threads" => s.threads = value,
            "voluntary_ctxt_switches" => s.voluntary_ctxt_switches = value,
            "nonvoluntary_ctxt_switches" => s.nonvoluntary_ctxt_switches = value,
            _ => {}
        }
    }
    s
}

/// User and system CPU time of a process, in clock ticks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuTicks {
    pub utime: u64,
    pub stime: u64,
}

impl CpuTicks {
    /// Ticks spent between `earlier` and `self`.
    pub fn since(&self, earlier: CpuTicks) -> CpuTicks {
        CpuTicks {
            utime: self.utime.saturating_sub(earlier.utime),
            stime: self.stime.saturating_sub(earlier.stime),
        }
    }

    /// System share of the CPU time, in `[0, 1]` (0 when no tick elapsed).
    pub fn sys_share(&self) -> f64 {
        let total = self.utime + self.stime;
        if total == 0 {
            0.0
        } else {
            self.stime as f64 / total as f64
        }
    }
}

/// Parse the text of `/proc/<pid>/stat`: `utime` and `stime` are fields 14
/// and 15, counted after the parenthesised command name (which may itself
/// contain spaces and parentheses, hence the split at the *last* `)`).
pub fn parse_stat(text: &str) -> Option<CpuTicks> {
    let after_comm = &text[text.rfind(')')? + 1..];
    // `after_comm` starts at field 3 (state).
    let mut fields = after_comm.split_whitespace().skip(11);
    Some(CpuTicks {
        utime: fields.next()?.parse().ok()?,
        stime: fields.next()?.parse().ok()?,
    })
}

/// `/proc/<pid>/status` of a live process.
pub fn status_of(pid: u32) -> std::io::Result<Status> {
    std::fs::read_to_string(format!("/proc/{pid}/status")).map(|t| parse_status(&t))
}

/// `/proc/self/status`.
pub fn self_status() -> Status {
    status_of(std::process::id()).unwrap_or_default()
}

/// CPU ticks of this process (all threads) so far.
pub fn self_cpu() -> CpuTicks {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|t| parse_stat(&t))
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse_and_unknown_lines_are_skipped() {
        let text = "Name:\tserve_demo\nUmask:\t0022\nState:\tS (sleeping)\nVmPeak:\t  999 kB\n\
                    VmHWM:\t   52312 kB\nVmRSS:\t   41000 kB\nThreads:\t7\n\
                    voluntary_ctxt_switches:\t120\nnonvoluntary_ctxt_switches:\t5\n";
        let s = parse_status(text);
        assert_eq!(
            s,
            Status {
                vm_hwm_kb: 52312,
                vm_rss_kb: 41000,
                threads: 7,
                voluntary_ctxt_switches: 120,
                nonvoluntary_ctxt_switches: 5,
            }
        );
        assert_eq!(s.ctxt_switches(), 125);
        assert_eq!(parse_status("garbage\nThreads: x\n"), Status::default());
    }

    #[test]
    fn stat_survives_a_hostile_command_name() {
        let text = "4242 (a b) c) S 1 4242 4242 0 -1 4194304 100 0 0 0 37 12 0 0 20 0 3 0 1000 1 2";
        assert_eq!(
            parse_stat(text),
            Some(CpuTicks {
                utime: 37,
                stime: 12
            })
        );
        assert_eq!(parse_stat("no parenthesis"), None);
        assert_eq!(parse_stat("1 (x) S 1 2"), None);
    }

    #[test]
    fn cpu_share_and_difference() {
        let a = CpuTicks {
            utime: 10,
            stime: 5,
        };
        let b = CpuTicks {
            utime: 40,
            stime: 15,
        };
        let d = b.since(a);
        assert_eq!(
            d,
            CpuTicks {
                utime: 30,
                stime: 10
            }
        );
        assert_eq!(d.sys_share(), 0.25);
        assert_eq!(CpuTicks::default().sys_share(), 0.0);
    }

    #[test]
    fn this_process_is_readable() {
        let s = self_status();
        assert!(s.vm_hwm_kb > 0 && s.threads >= 1, "{s:?}");
    }
}
