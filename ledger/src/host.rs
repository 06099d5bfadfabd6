//! What the ledger knows about the machine it runs on: CPU pinning, the
//! frozen reference kernel every timing is normalised against, and the
//! `/proc` counters (peak RSS, context switches, process CPU time).
//!
//! Std-only and Linux/glibc-only. The four libc calls are declared by
//! hand: the workspace vendors no `libc` crate, and std links the C
//! library anyway.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The reference kernel's time on this box while the host is quiet, in
/// milliseconds. Fixed once; every normalised timing is "what the
/// workload would have cost had the reference kernel run at this speed".
pub const REF_NOMINAL_MS: f64 = 3.5;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// Words in the affinity mask: room for 1024 CPUs, the kernel's default.
const MASK_WORDS: usize = 16;

/// Pins the calling thread — and every thread it spawns afterwards — to
/// the highest CPU its affinity mask allows, and returns that CPU. Must
/// run before any runtime is created so node threads inherit the mask.
/// `None` when the kernel refuses; the run then proceeds unpinned.
pub fn pin_to_highest_cpu() -> Option<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the size passed.
    let got = unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) };
    if got != 0 {
        return None;
    }
    let cpu = (0..MASK_WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut only = [0u64; MASK_WORDS];
    only[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `only` is a live buffer of exactly the size passed.
    let set = unsafe { sched_setaffinity(0, size_of_val(&only), only.as_ptr()) };
    (set == 0).then_some(cpu)
}

/// Hands the allocator's free memory back to the kernel
/// (`malloc_trim(0)`, every arena). Called after each fleet is torn
/// down, so the next one is built on a trimmed heap, as the first was.
/// Without it, whether a dying fleet's memory is reused depends on which
/// arena each chunk went back to: `peak_rss_mb` on rt-read-large read
/// 393 MB in nine runs and 455 MB in the tenth.
pub fn release_freed_memory() {
    // SAFETY: `malloc_trim` takes the allocator's own locks and only
    // releases pages of chunks that are already free.
    unsafe {
        malloc_trim(0);
    }
}

/// CPU time the whole process has consumed, in microseconds.
pub fn process_cpu_us() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `timespec`-shaped value.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.sec as f64 * 1e6 + ts.nsec as f64 / 1e3
}

// FROZEN. The reference kernel below may never be edited: every number
// the ledger has ever reported was divided by its running time, and
// `REF_NOMINAL_MS` was measured against exactly this code. It calls
// nothing from the repository. It is allocation- and cache-heavy on
// purpose: the slow phases of this host leave a register-only spin loop
// untouched (< 4 %) and slow code shaped like this by up to 1.6x, which
// is the disturbance the normalisation has to see.
fn reference_kernel() -> u64 {
    let mut acc = 0u64;
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for round in 0..6u64 {
        let mut map: BTreeMap<u64, String> = BTreeMap::new();
        for i in 0..1500u64 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let key = x >> 20;
            map.insert(key, format!("member-{key:x}-{round}-{i}"));
        }
        let entries: Vec<(u64, String)> = map.into_iter().collect();
        let mut by_name = entries.clone();
        by_name.sort_by(|a, b| a.1.cmp(&b.1));
        acc = acc
            .wrapping_add(by_name[by_name.len() / 2].0)
            .wrapping_add(entries.len() as u64);
    }
    acc
}

/// Runs the reference kernel once and returns its wall time in
/// milliseconds.
pub fn reference_ms() -> f64 {
    let t0 = Instant::now();
    black_box(reference_kernel());
    t0.elapsed().as_secs_f64() * 1e3
}

fn status_kb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .unwrap_or(0.0)
}

/// The process's peak resident set (`VmHWM`), in megabytes.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// The process's current resident set (`VmRSS`), in kilobytes.
pub fn rss_kb() -> f64 {
    status_kb("VmRSS:")
}

/// Voluntary plus involuntary context switches, summed over every
/// thread of the process.
pub fn ctx_switches() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("status")).ok())
        .map(|status| {
            status
                .lines()
                .filter(|l| l.contains("ctxt_switches:"))
                .filter_map(|l| l.rsplit(':').next()?.trim().parse::<u64>().ok())
                .sum::<u64>()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The kernel is frozen: its result is pinned, so an edit to its
    /// arithmetic or its sizes fails here.
    #[test]
    fn reference_kernel_is_the_frozen_one() {
        assert_eq!(reference_kernel(), 55_893_949_389_144);
        assert!(reference_ms() > 0.0);
    }

    #[test]
    fn proc_counters_read() {
        assert!(peak_rss_mb() > 0.0);
        assert!(rss_kb() > 0.0);
        assert!(process_cpu_us() > 0.0);
    }
}
