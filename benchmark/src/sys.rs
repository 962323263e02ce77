//! Host facts std does not expose: CPU affinity, per-thread CPU time and
//! context switches from `/proc`, peak RSS, and an allocation counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fs;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

const MASK_WORDS: usize = 16;

/// Pins the calling thread — and every thread it later spawns — to the
/// highest-numbered CPU it may run on, and returns that CPU. On the 2-vCPU
/// hosts this runs on, an unpinned client/server pair is bimodal (cross-core
/// wake-ups in the VM); the highest CPU is the one least likely to take the
/// host's interrupts.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the size passed.
    if unsafe { sched_getaffinity(0, MASK_WORDS * 8, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..MASK_WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the size passed; pid 0 is the caller.
    (unsafe { sched_setaffinity(0, MASK_WORDS * 8, one.as_ptr()) } == 0).then_some(cpu)
}

/// `comm`, `utime` and `stime` (clock ticks) from a `/proc/.../stat` line.
/// `comm` may itself contain spaces and parentheses, so it is cut at the
/// last `)`.
pub fn parse_stat(line: &str) -> Option<(&str, u64, u64)> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    let comm = line.get(open + 1..close)?;
    let mut rest = line.get(close + 1..)?.split_ascii_whitespace();
    // After `)`: state is field 3 of the line, utime field 14, stime field 15.
    let utime = rest.nth(11)?.parse().ok()?;
    let stime = rest.next()?.parse().ok()?;
    Some((comm, utime, stime))
}

/// On-CPU nanoseconds: the first field of a `/proc/.../schedstat` line.
pub fn parse_schedstat(line: &str) -> Option<u64> {
    line.split_ascii_whitespace().next()?.parse().ok()
}

/// The number after `key` (e.g. `"VmHWM:"`) in `/proc/.../status` text.
pub fn parse_status(text: &str, key: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_ascii_whitespace().next()?.parse().ok()
}

/// Thread ids of this process whose name starts with `prefix`.
pub fn threads_named(prefix: &str) -> Vec<u32> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut tids: Vec<u32> = dir
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
        .filter(|tid| {
            fs::read_to_string(format!("/proc/self/task/{tid}/stat"))
                .ok()
                .and_then(|s| parse_stat(&s).map(|(comm, _, _)| comm.starts_with(prefix)))
                .unwrap_or(false)
        })
        .collect();
    tids.sort_unstable();
    tids
}

/// CPU nanoseconds the thread whose `/proc` directory is `path` has run:
/// `schedstat` where the kernel keeps it, else the 10 ms ticks of `stat`.
fn cpu_ns_at(path: &str) -> u64 {
    if let Some(ns) = fs::read_to_string(format!("{path}/schedstat"))
        .ok()
        .and_then(|s| parse_schedstat(&s))
    {
        return ns;
    }
    fs::read_to_string(format!("{path}/stat"))
        .ok()
        .and_then(|s| parse_stat(&s).map(|(_, u, s)| (u + s) * 10_000_000))
        .unwrap_or(0)
}

pub fn threads_cpu_ns(tids: &[u32]) -> u64 {
    tids.iter()
        .map(|tid| cpu_ns_at(&format!("/proc/self/task/{tid}")))
        .sum()
}

pub fn self_cpu_ns() -> u64 {
    cpu_ns_at("/proc/thread-self")
}

pub fn threads_voluntary_switches(tids: &[u32]) -> u64 {
    tids.iter()
        .filter_map(|tid| fs::read_to_string(format!("/proc/self/task/{tid}/status")).ok())
        .filter_map(|s| parse_status(&s, "voluntary_ctxt_switches:"))
        .sum()
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status(&s, "VmHWM:"))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the client thread so that only the server's allocations count.
    static EXCLUDED: Cell<bool> = const { Cell::new(false) };
}

/// The system allocator plus two counters that run only while a traced
/// request is in flight; otherwise one relaxed load per allocation.
pub struct CountingAlloc;

fn count(size: usize) {
    // Relaxed: statistics read after the counted requests have been answered.
    if COUNTING.load(Ordering::Relaxed) && !EXCLUDED.try_with(Cell::get).unwrap_or(true) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `count` allocates nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Excludes the calling thread's allocations from the counters.
pub fn exclude_this_thread_from_alloc_counts() {
    EXCLUDED.with(|e| e.set(true));
}

pub fn set_alloc_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes)` counted so far.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_awkward_comm_parses() {
        let line = "4242 (sec-net-0) S 1 4242 4242 0 -1 4194304 100 0 0 0 17 5 0 0 20 0 3 0 \
                    156007 13115392 2487 18446744073709551615";
        assert_eq!(parse_stat(line), Some(("sec-net-0", 17, 5)));
        let odd = "7 (a b) c) R 1 7 7 0 -1 0 0 0 0 0 3 4 0 0 20 0 1 0 1 1 1 1";
        assert_eq!(parse_stat(odd), Some(("a b) c", 3, 4)));
        assert_eq!(parse_stat("7 (short) R 1 2"), None);
        assert_eq!(parse_stat("garbage"), None);
    }

    #[test]
    fn schedstat_and_status_fields_parse() {
        assert_eq!(parse_schedstat("29835198 1607828 55\n"), Some(29_835_198));
        assert_eq!(parse_schedstat(""), None);
        let status = "Name:\tx\nVmHWM:\t    1752 kB\nvoluntary_ctxt_switches:\t12\n";
        assert_eq!(parse_status(status, "VmHWM:"), Some(1752));
        assert_eq!(parse_status(status, "voluntary_ctxt_switches:"), Some(12));
        assert_eq!(parse_status(status, "VmPeak:"), None);
    }

    #[test]
    fn live_proc_files_are_readable_and_named_threads_are_found() {
        assert!(peak_rss_mb() > 0.0);
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let t = std::thread::Builder::new()
            .name("sec-probe-7".into())
            .spawn(move || rx.recv().ok())
            .unwrap();
        // The name is set by the new thread itself just before it runs the
        // closure, so poll until it shows.
        let mut found = Vec::new();
        for _ in 0..1000 {
            found = threads_named("sec-probe-");
            if !found.is_empty() {
                break;
            }
            std::thread::yield_now();
        }
        assert_eq!(found.len(), 1);
        let _ = threads_cpu_ns(&found);
        drop(tx);
        t.join().unwrap();
    }
}
