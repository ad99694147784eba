//! The host fingerprint the report records, the process's CPU clock and
//! its peak resident memory.

use std::time::{Duration, Instant};

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// (L2, L3) cache sizes in bytes of the caches CPU 0 sees, as sysfs lists
/// them; 0 when unknown.
pub fn cache_sizes() -> (u64, u64) {
    let (mut l2, mut l3) = (0, 0);
    let Ok(dir) = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache") else {
        return (0, 0);
    };
    for index in dir.flatten() {
        let read = |name: &str| std::fs::read_to_string(index.path().join(name)).ok();
        let (Some(level), Some(size)) = (read("level"), read("size").and_then(|s| parse_size(&s)))
        else {
            continue;
        };
        match level.trim() {
            "2" => l2 = size,
            "3" => l3 = size,
            _ => {}
        }
    }
    (l2, l3)
}

/// A sysfs cache size such as `2048K` or `30M`, in bytes.
fn parse_size(s: &str) -> Option<u64> {
    let s = s.trim();
    let (digits, scale) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().map(|n| n * scale)
}

/// Peak resident set size of this process image in bytes: `VmHWM` of
/// `/proc/self/status`, which starts afresh at exec. (`getrusage`'s
/// `ru_maxrss` survives exec, so under `cargo run` it reports the peak of
/// cargo itself whenever that is higher.)
pub fn peak_rss_bytes() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib * 1024)
}

/// CPU time consumed so far by every thread of this process, live or
/// exited (`CLOCK_PROCESS_CPUTIME_ID`).
pub fn process_cpu() -> Duration {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` with the 64-bit
    // Linux layout, and clock_gettime writes only within it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    Duration::new(
        u64::try_from(ts.sec).unwrap_or(0),
        u32::try_from(ts.nsec).unwrap_or(0),
    )
}

/// Wall and process-CPU time elapsed since [`Stopwatch::start`].
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu: Duration,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            cpu: process_cpu(),
            wall: Instant::now(),
        }
    }

    /// (wall, CPU) since the start.
    pub fn read(&self) -> (Duration, Duration) {
        let wall = self.wall.elapsed();
        (wall, process_cpu().saturating_sub(self.cpu))
    }
}

#[cfg(test)]
mod tests {
    use super::parse_size;

    #[test]
    fn sysfs_cache_sizes_parse() {
        assert_eq!(parse_size("48K\n"), Some(48 << 10));
        assert_eq!(parse_size("30M"), Some(30 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("K"), None);
    }
}
