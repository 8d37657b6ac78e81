//! Process CPU time and peak resident memory from `/proc/self`.

/// Clock ticks per second of the `utime`/`stime` fields (`USER_HZ`). Linux
/// fixes this at 100 for every architecture it exposes `/proc` on, and
/// reading `sysconf(_SC_CLK_TCK)` would need libc.
const USER_HZ: f64 = 100.0;

/// User and system CPU seconds consumed by the process so far.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuTimes {
    /// Seconds spent in user mode.
    pub user_s: f64,
    /// Seconds spent in kernel mode.
    pub sys_s: f64,
}

impl CpuTimes {
    /// User + system seconds.
    pub fn total_s(self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// Parses the contents of `/proc/<pid>/stat`. The command name (field 2)
/// may itself contain spaces and parentheses, so fields are counted from
/// the last `)`.
pub fn parse_stat(stat: &str) -> Option<CpuTimes> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(CpuTimes {
        user_s: utime as f64 / USER_HZ,
        sys_s: stime as f64 / USER_HZ,
    })
}

/// Parses `VmHWM` (peak resident set, KiB) out of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// CPU times of this process.
pub fn cpu_times() -> Result<CpuTimes, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("read /proc/self/stat: {e}"))?;
    parse_stat(&stat).ok_or_else(|| "unparseable /proc/self/stat".to_string())
}

/// Peak resident set of this process, MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    parse_vm_hwm_kib(&status)
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_survive_hostile_command_names() {
        let stat = "4242 (sbx bench) x) R 1 4242 4242 0 -1 4194304 900 0 0 0 \
                    1234 56 0 0 20 0 2 0 100 1000000 500 18446744073709551615";
        assert_eq!(
            parse_stat(stat),
            Some(CpuTimes {
                user_s: 12.34,
                sys_s: 0.56
            })
        );
        assert_eq!(parse_stat("no parens here"), None);
        assert_eq!(parse_stat("1 (x) R 1 2"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tsbx\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(204_800));
        assert_eq!(parse_vm_hwm_kib("Name:\tsbx\n"), None);
    }

    #[test]
    fn live_proc_files_parse() {
        assert!(cpu_times().expect("stat").total_s() >= 0.0);
        assert!(peak_rss_mib().expect("status") > 0.0);
    }
}
