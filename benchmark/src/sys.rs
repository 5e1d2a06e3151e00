//! The operating-system facts the benchmark reads or sets: CPU affinity,
//! the descriptor limit, process CPU time and resident memory. Linux
//! only. The FFI is declared here (the workspace vendors no `libc`) and
//! is the only `unsafe` in the crate besides the counting allocator.
#![allow(unsafe_code)]

use std::ffi::{c_int, c_long};

/// `cpu_set_t`: 1024 CPUs as a bit mask.
type CpuSet = [u64; 16];

#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

#[repr(C)]
struct Timespec {
    sec: c_long,
    nsec: c_long,
}

const RLIMIT_NOFILE: c_int = 7;
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

extern "C" {
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
    fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
}

/// Pins the calling thread (and every thread it later spawns) to the
/// highest-numbered CPU it is allowed to run on, and returns that CPU.
///
/// A depth-1 connection never has client and server runnable at once;
/// left unpinned, the scheduler's choice of one core or two moves the
/// echo round trip by 2x between runs.
///
/// # Errors
/// The kernel refused to report or set the affinity mask.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a valid, writable cpu_set_t of the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..1024usize)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or_else(|| "affinity mask allows no CPU".to_string())?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a valid cpu_set_t of the size passed and is only
    // read by the call.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity({cpu}) refused: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// Makes sure this process may hold `need` descriptors, raising the soft
/// limit towards the hard one when it is lower.
///
/// # Errors
/// The hard limit is below `need`, or the limit could not be read or set.
pub fn ensure_nofile(need: u64) -> Result<u64, String> {
    let mut lim = RLimit { cur: 0, max: 0 };
    // SAFETY: `lim` is a valid, writable rlimit struct.
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
        return Err(format!(
            "getrlimit(RLIMIT_NOFILE) failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    if lim.cur >= need {
        return Ok(lim.cur);
    }
    if lim.max < need {
        return Err(format!(
            "RLIMIT_NOFILE hard limit {} is below the {need} descriptors this workload holds",
            lim.max
        ));
    }
    lim.cur = need;
    // SAFETY: `lim` is a valid rlimit struct, only read by the call.
    if unsafe { setrlimit(RLIMIT_NOFILE, &lim) } != 0 {
        return Err(format!(
            "setrlimit(RLIMIT_NOFILE, {need}) refused: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(need)
}

/// User plus system CPU time of the whole process so far, in seconds.
/// Both ends of every connection live in this process, so work moved
/// from client to server (or back) cannot hide from it.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec; the clock id is a
    // constant every Linux kernel supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is always readable");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// One `kB` field of `/proc/self/status` (`VmRSS`, `VmHWM`), in kilobytes.
///
/// # Errors
/// The file or the field is missing or malformed.
pub fn status_kb(field: &str) -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .ok_or_else(|| format!("/proc/self/status has no {field} line"))
}
