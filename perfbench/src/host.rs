//! Host-side process measurements read from procfs (Linux).

/// Kernel clock ticks per second of `/proc/self/stat` times (`USER_HZ`,
/// 100 on every Linux architecture this benchmark targets).
const USER_HZ: f64 = 100.0;

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 when
/// procfs is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User plus system CPU seconds this process has used so far, across all
/// of its threads, or 0 when procfs is unavailable.
#[must_use]
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let Some(after) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / USER_HZ
}

/// CPU time and wall time of a measured phase, for the thread-pinning
/// guard.
#[derive(Debug, Clone, Copy)]
pub struct CpuWall {
    cpu0: f64,
    wall0: std::time::Instant,
}

impl CpuWall {
    /// Starts measuring.
    #[must_use]
    pub fn start() -> Self {
        CpuWall {
            cpu0: cpu_s(),
            wall0: std::time::Instant::now(),
        }
    }

    /// `(cpu_s, wall_s)` since [`CpuWall::start`].
    #[must_use]
    pub fn read(&self) -> (f64, f64) {
        (cpu_s() - self.cpu0, self.wall0.elapsed().as_secs_f64())
    }
}
