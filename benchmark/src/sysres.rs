//! What the process cost the host: CPU seconds, peak memory, bytes sent
//! to the block layer, bytes on disk.

use std::path::Path;

/// `struct rusage` of 64-bit Linux: two `timeval`s, then fourteen longs
/// of which `ru_maxrss` is the first.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

fn rusage_self() -> RUsage {
    let mut ru = RUsage::default();
    // SAFETY: `ru` is a live, writable `struct rusage`-sized and -aligned
    // value (144 bytes of i64s on 64-bit Linux); RUSAGE_SELF is 0. On
    // failure the kernel writes nothing and the zeros stand.
    unsafe { getrusage(0, &mut ru) };
    ru
}

/// User + system CPU seconds of the whole process so far (client
/// threads, daemon threads and mesh event loops alike).
pub fn cpu_seconds() -> f64 {
    let ru = rusage_self();
    (ru.utime[0] + ru.stime[0]) as f64 + (ru.utime[1] + ru.stime[1]) as f64 / 1e6
}

/// Peak resident set size in MiB (`ru_maxrss` is KiB on Linux).
pub fn rss_peak_mb() -> f64 {
    rusage_self().maxrss as f64 / 1024.0
}

/// Bytes this process caused to be sent to the storage layer
/// (`write_bytes` of `/proc/self/io`); 0 where the file is unreadable.
pub fn disk_write_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/io")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("write_bytes: ")?.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
