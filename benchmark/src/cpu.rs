//! CPU time of this process, and the CPU time the hypervisor took from
//! the machine.
//!
//! On a shared virtual machine the hypervisor deschedules the virtual
//! CPUs for stretches of milliseconds while other tenants run. Wall time
//! counts those stretches; this process's CPU time does not, because the
//! guest kernel accounts them as stolen time instead.

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID`: CPU time of every thread of the process.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time this process has used so far, over all its threads, in
/// seconds.
pub fn process_s() -> f64 {
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `t` is a valid, writable `struct timespec`, and the clock
    // id is one Linux always supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    t.sec as f64 + t.nsec as f64 * 1e-9
}

/// Stolen time of all CPUs so far, in the kernel's clock ticks (10 ms
/// each), from the `cpu` line of `/proc/stat`; 0 where that file is
/// missing.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_cpu_time_advances_with_work() {
        let start = process_s();
        let t = std::time::Instant::now();
        let mut x = 1u64;
        while process_s() - start < 0.02 {
            assert!(t.elapsed().as_secs() < 10, "CPU time stood still");
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
    }
}
