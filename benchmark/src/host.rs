//! What the harness reads from the host: `/proc` counters for CPU
//! time, memory high-water marks and hypervisor steal, and the
//! environment block every result carries.

use std::fs;

use drmap_service::json::Json;

/// Kernel clock ticks per second in `/proc/*/stat` (`USER_HZ`, 100 on
/// every Linux ABI this runs on).
const TICKS_PER_S: f64 = 100.0;

/// Host-wide CPU time by state, summed over CPUs, in clock ticks.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    /// Ticks not idle and not waiting for I/O.
    pub busy: u64,
    /// Ticks the hypervisor ran something else while a vCPU was runnable.
    pub steal: u64,
    /// All ticks.
    pub total: u64,
}

impl CpuTimes {
    /// The aggregate `cpu` line of `/proc/stat` (zeros where unreadable).
    pub fn now() -> Self {
        let text = fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = text
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice]
        let get = |i: usize| fields.get(i).copied().unwrap_or(0);
        let total: u64 = (0..8).map(get).sum();
        CpuTimes {
            busy: total - get(3) - get(4),
            steal: get(7),
            total,
        }
    }

    /// `(busy share, steal share)` of all CPU time since `earlier`.
    pub fn shares_since(&self, earlier: &CpuTimes) -> (f64, f64) {
        let total = self.total.saturating_sub(earlier.total).max(1) as f64;
        (
            self.busy.saturating_sub(earlier.busy) as f64 / total,
            self.steal.saturating_sub(earlier.steal) as f64 / total,
        )
    }
}

/// What a [`Meter`] saw between its start and its stop.
#[derive(Debug, Clone, Copy, Default)]
pub struct Metered {
    /// CPU seconds this process consumed.
    pub own_cpu_s: f64,
    /// Share of all CPU time the host was busy.
    pub busy: f64,
    /// Share of all CPU time stolen by the hypervisor.
    pub steal: f64,
}

/// A stopwatch over the host's and this process's CPU counters.
#[derive(Debug, Clone, Copy)]
pub struct Meter {
    host: CpuTimes,
    own_cpu_s: f64,
}

impl Meter {
    /// Start metering now.
    pub fn start() -> Self {
        Meter {
            host: CpuTimes::now(),
            own_cpu_s: cpu_seconds("self"),
        }
    }

    /// What happened since the start.
    pub fn stop(&self) -> Metered {
        let (busy, steal) = CpuTimes::now().shares_since(&self.host);
        Metered {
            own_cpu_s: cpu_seconds("self") - self.own_cpu_s,
            busy,
            steal,
        }
    }
}

/// `proc` is `self` or a pid.
fn status_kb(proc: &str, field: &str) -> Option<u64> {
    let text = fs::read_to_string(format!("/proc/{proc}/status")).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Peak resident set (`VmHWM`) of a process, MB; 0 where unreadable.
pub fn peak_rss_mb(proc: &str) -> f64 {
    status_kb(proc, "VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// User + system CPU seconds a process (all its threads) has consumed.
pub fn cpu_seconds(proc: &str) -> f64 {
    let Ok(text) = fs::read_to_string(format!("/proc/{proc}/stat")) else {
        return 0.0;
    };
    // The command name may contain spaces; fields resume after its ')'.
    let after = text.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    // After the name: state is field 0, utime field 11, stime field 12.
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / TICKS_PER_S
}

/// Threads of this process right now.
pub fn own_threads() -> u64 {
    status_kb("self", "Threads").unwrap_or(0)
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Threads that generate load: at most two, at most the CPUs there are.
pub fn load_threads() -> usize {
    nproc().min(2)
}

/// The environment block: a number without it is noise.
pub fn environment(commit: &str, rustc: &str, extra: Vec<(&'static str, Json)>) -> Json {
    let mut pairs = vec![
        ("nproc", Json::num_usize(nproc())),
        ("commit", Json::str(commit)),
        ("rustc", Json::str(rustc)),
        ("os", Json::str(std::env::consts::OS)),
        ("arch", Json::str(std::env::consts::ARCH)),
    ];
    pairs.extend(extra);
    Json::obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mb("self") > 0.0);
        assert!(own_threads() >= 1);
        assert!(nproc() >= 1 && (1..=2).contains(&load_threads()));
        let before = CpuTimes::now();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        let (busy, steal) = CpuTimes::now().shares_since(&before);
        assert!((0.0..=1.0).contains(&busy) && (0.0..=1.0).contains(&steal));
        assert!(cpu_seconds("self") >= 0.0);
        assert_eq!(peak_rss_mb("0"), 0.0);
    }
}
