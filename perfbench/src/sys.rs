//! Process accounting read from the OS: CPU time, peak RSS, core count.

use std::os::raw::{c_int, c_long};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` as Linux and the BSDs lay it out.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [c_long; 14],
}

extern "C" {
    // std already links libc.
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    fn sysconf(name: c_int) -> c_long;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: c_int = 2;

const RUSAGE_SELF: c_int = 0;
const RUSAGE_CHILDREN: c_int = -1;

/// User plus system CPU seconds of `who`; 0 if the call fails.
fn cpu_s(who: c_int) -> f64 {
    let mut raw = Rusage::default();
    // SAFETY: `raw` is a properly sized, writable `struct rusage`.
    if unsafe { getrusage(who, &mut raw) } != 0 {
        return 0.0;
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    secs(&raw.utime) + secs(&raw.stime)
}

/// This process's own CPU seconds.
pub fn self_cpu_s() -> f64 {
    cpu_s(RUSAGE_SELF)
}

/// CPU seconds of every reaped child. (`getrusage`'s peak RSS is no use
/// for spawned children: Linux folds the spawning process's own peak into
/// it at `exec`, so peaks are read from `/proc` instead.)
pub fn children_cpu_s() -> f64 {
    cpu_s(RUSAGE_CHILDREN)
}

/// User plus system CPU seconds a live process has used so far, from
/// `/proc/<pid>/stat` (clock-tick resolution); `None` once it is gone.
pub fn process_cpu_s(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 = fields.get(11)?.parse::<f64>().ok()? + fields.get(12)?.parse::<f64>().ok()?;
    // SAFETY: sysconf has no preconditions.
    let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1) as f64;
    Some(ticks / hz)
}

/// A process's `VmHWM` (peak resident set of its current image) in KiB,
/// from `/proc/<pid>/status`; `None` once it is gone.
pub fn vm_hwm_kib(pid: u32) -> Option<u64> {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The checkout's git commit, or `none` outside a git repository.
pub fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "none".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_reads_plausible_values() {
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(self_cpu_s() > 0.0);
        assert!(vm_hwm_kib(std::process::id()).unwrap() > 0);
        assert!(process_cpu_s(std::process::id()).is_some());
        assert!(cores() >= 1);
    }
}
