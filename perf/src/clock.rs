//! The clock behind every host-time metric: CPU time of the benchmark's
//! one thread, not wall time.
//!
//! The sandbox is a shared virtual machine; with the hypervisor stealing
//! up to 40% of the cycles, wall-clock medians of the same commit moved
//! by 20-35% between runs a minute apart, CPU-time medians by about a
//! third of that. Nothing timed here sleeps or waits for I/O, so on a
//! quiet machine the two clocks agree.

use std::time::Duration;

/// CPU time consumed so far by the calling thread.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn thread_cpu() -> Duration {
    /// `struct timespec` of 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `clock_gettime` is the C library's (std links it), `ts` is a
    // valid, writable `struct timespec` with the 64-bit Linux layout this
    // function is compiled for, and the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock exists on every Linux");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Without a thread CPU clock, fall back to wall time since first use.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn thread_cpu() -> Duration {
    use std::sync::OnceLock;
    use std::time::Instant;
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed()
}

/// Run `f`; return its result and the CPU seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = thread_cpu();
    let out = f();
    (out, (thread_cpu() - t0).as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work_and_not_with_sleep() {
        let ((), slept) = timed(|| std::thread::sleep(Duration::from_millis(30)));
        let (sum, worked) =
            timed(|| (0..20_000_000u64).fold(0u64, |a, b| a ^ b.wrapping_mul(a | 1)));
        std::hint::black_box(sum);
        assert!(worked > 0.0);
        if cfg!(all(target_os = "linux", target_pointer_width = "64")) {
            assert!(slept < 0.02, "sleeping consumed {slept} s of CPU");
        }
    }
}
