//! The host clock the benchmark measures with.

/// CPU time consumed by the whole process (every thread, including ones
/// that have exited) — unlike wall time, it excludes the time the machine
/// gave to other tenants.
pub fn process_cpu() -> std::time::Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the C layout of a
    // 64-bit Linux target, and the clock id is a constant the kernel
    // accepts; the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    std::time::Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}
