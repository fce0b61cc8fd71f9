//! Process CPU time and peak resident memory, read from `/proc` (CPU time
//! from the process CPU clock where there is one).

/// `/proc/<pid>/stat` counts CPU in clock ticks of `USER_HZ`, which is
/// 100 on every Linux ABI this runs on (`getconf CLK_TCK`).
const TICKS_PER_SECOND: f64 = 100.0;

/// User plus system CPU seconds from the text of `/proc/<pid>/stat`,
/// all threads, exited ones included. The command name (field 2) may
/// hold spaces and parentheses, so fields are counted from the last
/// `)`: state is the first after it, `utime` the 12th, `stime` the
/// 13th.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SECOND)
}

/// `VmHWM` (peak resident set) in megabytes from the text of
/// `/proc/<pid>/status`.
pub fn parse_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_ascii_whitespace();
    let kb: u64 = parts.next()?.parse().ok()?;
    (parts.next()? == "kB").then_some(kb as f64 / 1024.0)
}

/// CPU seconds this process has used so far: the process CPU clock
/// (nanoseconds), or `/proc/self/stat` (10 ms ticks) where there is none.
/// A segment of the serve workloads lasts 20 to 90 ms, so ticks would
/// not do.
pub fn cpu_seconds() -> f64 {
    crate::sched::process_cpu_seconds().unwrap_or_else(|| {
        let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
        parse_cpu_seconds(&stat).expect("/proc/self/stat has utime and stime")
    })
}

/// Peak resident set of this process so far, MB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    parse_peak_rss_mb(&status).expect("/proc/self/status has VmHWM")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_fields_counted_from_the_last_paren() {
        let stat = "11475 (cat) R 11470 11475 11470 0 -1 4194304 81 0 0 0 \
                    123 45 0 0 20 0 1 0 183722 2703360 305 18446744073709551615";
        assert_eq!(parse_cpu_seconds(stat), Some(1.68));
        // A hostile command name must not shift the fields.
        let stat = "7 (a b) c) 9) S 1 7 7 0 -1 0 0 0 0 0 250 50 0 0 20 0 3 0 1 1 1 1";
        assert_eq!(parse_cpu_seconds(stat), Some(3.0));
        assert_eq!(parse_cpu_seconds("garbage"), None);
        assert_eq!(parse_cpu_seconds("1 (x) R 1 2"), None);
    }

    #[test]
    fn peak_rss_parsed_in_mb() {
        let status = "Name:\tcat\nVmPeak:\t    2640 kB\nVmHWM:\t    1844 kB\nVmRSS:\t    1800 kB\n";
        assert_eq!(parse_peak_rss_mb(status), Some(1844.0 / 1024.0));
        assert_eq!(parse_peak_rss_mb("Name:\tcat\n"), None);
        assert_eq!(parse_peak_rss_mb("VmHWM:\t12 pages\n"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..40_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() >= before);
        assert!(peak_rss_mb() > 0.5);
    }
}
