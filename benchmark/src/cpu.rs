//! Process CPU time: the host cost of the simulation on every thread,
//! which, unlike wall time, a shared machine's scheduler and hypervisor
//! steal cannot stretch.
//!
//! Linux's process CPU clock is not exact for a multi-threaded process:
//! it brings only the calling thread's run time up to date, and takes
//! the other running threads' from their last scheduler tick (4 ms at
//! HZ=250). A worker pool's thread still finishing its last job when a
//! slot step returns would have its time billed to the next step. The
//! clock here sums the per-thread CPU clocks instead, each of which the
//! kernel brings up to date when read.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// Low bits of a per-thread CPU clock id: `CPUCLOCK_SCHED` (2) with
/// `CPUCLOCK_PERTHREAD_MASK` (4).
const THREAD_SCHED_CLOCK: i32 = 6;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

fn clock_ns(clock_id: i32) -> Option<u64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

/// The CPU clock id of thread `tid` (the kernel's `MAKE_THREAD_CPUCLOCK`).
fn thread_clock(tid: i32) -> i32 {
    (!tid << 3) | THREAD_SCHED_CLOCK
}

/// CPU nanoseconds consumed so far by the threads of this process that
/// are alive now. Differences are exact across any span in which no
/// thread exits.
pub fn process_cpu_ns() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return clock_ns(CLOCK_PROCESS_CPUTIME_ID).expect("the process CPU clock exists on Linux");
    };
    tasks
        .filter_map(|t| t.ok()?.file_name().to_str()?.parse::<i32>().ok())
        // A thread that exited since the listing has no clock left.
        .filter_map(|tid| clock_ns(thread_clock(tid)))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(n: u64) -> u64 {
        let mut x = 0u64;
        for i in 0..n {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        x
    }

    #[test]
    fn cpu_time_advances_with_work() {
        let t0 = process_cpu_ns();
        let x = spin(5_000_000);
        assert!(process_cpu_ns() > t0, "{x}");
    }

    #[test]
    fn counts_a_running_thread_up_to_the_read() {
        // The reading thread sleeps between its reads, so what they
        // differ by is the other thread's time.
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = stop.clone();
        let worker = std::thread::spawn(move || {
            let mut x = 0;
            while !flag.load(std::sync::atomic::Ordering::Relaxed) {
                x = spin(1000);
            }
            x
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        let t0 = process_cpu_ns();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let t1 = process_cpu_ns();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        worker.join().unwrap();
        assert!(t1 - t0 >= 5_000_000, "{} ns", t1 - t0);
    }
}
