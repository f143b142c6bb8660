//! Host-side counters, read process-wide.
//!
//! Total CPU time (user + sys) comes from `CLOCK_PROCESS_CPUTIME_ID` at
//! nanosecond resolution; the kernel part alone (`stime`) comes from
//! `/proc/self/stat` in clock ticks. Both cover every thread of the
//! process, including the engine's simulated-thread OS threads after
//! they have been reaped. `utime` + `stime` would give the total too,
//! but in 10 ms ticks: the end-to-end CPU metric is a quantile of
//! per-batch costs, and one tick is 2-4% of a batch. Peak memory is
//! `VmHWM` from `/proc/self/status`. The `*_ctxt_switches` lines of
//! `/proc/self/status` are deliberately not used: they count the main
//! thread only, which barely runs while the engine's threads hand the
//! scheduler token among themselves.

use std::time::Instant;

/// Kernel clock ticks per second for `/proc/self/stat` times
/// (`USER_HZ`, 100 on every mainstream Linux target).
const TICKS_PER_S: f64 = 100.0;

/// Process-wide kernel-mode CPU time (`stime`) in seconds.
fn sys_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs /proc/self/stat readable");
    // The command name (field 2) is parenthesised and may contain
    // spaces; the fields after the last ')' start at field 3 (`state`),
    // so `stime`, field 15, is the 13th of them.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
    let ticks: u64 = rest
        .split_ascii_whitespace()
        .nth(12)
        .and_then(|f| f.parse().ok())
        .expect("numeric stime field");
    ticks as f64 / TICKS_PER_S
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// Process-wide CPU time (user + sys, every thread including exited
/// ones) in seconds, at nanosecond resolution.
fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and the clock id is a constant Linux
    // defines; clock_gettime writes only through the pointer it gets.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Bits in the kernel's `cpu_set_t` (glibc's `CPU_SETSIZE`).
const CPU_SETSIZE: usize = 1024;

/// The CPUs the calling thread may run on, in ascending order.
pub fn allowed_cpus() -> Result<Vec<usize>, String> {
    let mut mask = [0u64; CPU_SETSIZE / 64];
    // SAFETY: `mask` is a live, writable array of exactly
    // `size_of_val(&mask)` bytes, the layout of a `cpu_set_t`; pid 0
    // names the calling thread, and the kernel writes at most that many
    // bytes through the pointer.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err("sched_getaffinity failed".into());
    }
    Ok((0..CPU_SETSIZE)
        .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .collect())
}

/// Pins the calling thread, and so every thread it spawns afterwards,
/// to `cpu`.
pub fn pin_to(cpu: usize) -> Result<(), String> {
    let mut mask = [0u64; CPU_SETSIZE / 64];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, fully initialised array of exactly
    // `size_of_val(&mask)` bytes, the layout of a `cpu_set_t`; pid 0
    // names the calling thread, and the kernel only reads the mask.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!("sched_setaffinity to CPU {cpu} failed"))
    }
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("procfs /proc/self/status readable");
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb as f64 / 1024.0
}

/// Wall and process CPU time elapsed over one measured interval.
#[derive(Clone, Copy, Debug, Default)]
pub struct Span {
    pub wall_s: f64,
    /// User + sys.
    pub cpu_s: f64,
    pub sys_s: f64,
}

/// An open interval; [`Stopwatch::stop`] closes it into a [`Span`].
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
    sys: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            sys: sys_cpu_s(),
            cpu: process_cpu_s(),
            wall: Instant::now(),
        }
    }

    pub fn stop(self) -> Span {
        let wall_s = self.wall.elapsed().as_secs_f64();
        Span {
            wall_s,
            cpu_s: process_cpu_s() - self.cpu,
            sys_s: sys_cpu_s() - self.sys,
        }
    }
}
