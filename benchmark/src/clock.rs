//! The clocks every timing is read from.
//!
//! End-to-end timings are CPU time: the CPU time every thread of the
//! process but the host-speed sampler spent inside the timed call (see
//! `HostSpeed::stamp`). On this benchmark's one-worker configuration that
//! is the call's latency on a core of its own. Wall
//! time is read too, and printed beside it, but it also counts the time a
//! thread waits for the shared host to run it.

use crate::report::Samples;
use std::ffi::{c_int, c_long, c_ulong};
use std::time::{Duration, Instant};

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    fn pthread_self() -> c_ulong;
    fn pthread_getcpuclockid(thread: c_ulong, clock: *mut c_int) -> c_int;
    fn sched_getcpu() -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
}

/// Keeps the calling thread, and every thread it starts from now on, on
/// the CPU it runs on now, so that the reference kernels (see `speed.rs`)
/// times the same virtual CPU as the work it is compared with. Returns
/// whether the pinning took.
pub fn pin_to_this_cpu() -> bool {
    // SAFETY: `sched_getcpu` has no preconditions.
    let Ok(cpu) = usize::try_from(unsafe { sched_getcpu() }) else {
        return false;
    };
    // A `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    let Some(word) = mask.get_mut(cpu / 64) else {
        return false;
    };
    *word |= 1 << (cpu % 64);
    // SAFETY: `mask` is a valid `cpu_set_t` of the size passed, and pid 0
    // names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// A clock of CPU time.
#[derive(Clone, Copy)]
pub struct CpuClock(c_int);

impl CpuClock {
    /// The CPU time of every thread of this process, those that have
    /// exited included (`CLOCK_PROCESS_CPUTIME_ID`). Exact when read by
    /// the thread doing the work; a thread running on another core is only
    /// counted up to the scheduler's last tick.
    pub const PROCESS: CpuClock = CpuClock(2);

    /// The calling thread's CPU time, exact from whichever thread reads it.
    pub fn this_thread() -> CpuClock {
        let mut id: c_int = 0;
        // SAFETY: `pthread_self` has no preconditions, and `id` is a valid,
        // writable `clockid_t`.
        let rc = unsafe { pthread_getcpuclockid(pthread_self(), &mut id) };
        assert_eq!(rc, 0, "pthread_getcpuclockid failed");
        CpuClock(id)
    }

    pub fn read(self) -> Duration {
        let mut t = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `t` is a valid, writable `struct timespec`.
        let rc = unsafe { clock_gettime(self.0, &mut t) };
        assert_eq!(rc, 0, "clock_gettime({}) failed", self.0);
        Duration::new(t.tv_sec as u64, t.tv_nsec as u32)
    }
}

/// A reading of a CPU clock and of the wall clock.
#[derive(Clone, Copy)]
pub struct Stamp {
    pub wall: Instant,
    pub cpu: Duration,
}

impl Stamp {
    pub fn on(clock: CpuClock) -> Self {
        Stamp {
            wall: Instant::now(),
            cpu: clock.read(),
        }
    }

    /// CPU milliseconds since `earlier`.
    pub fn cpu_ms_since(&self, earlier: &Stamp) -> f64 {
        (self.cpu - earlier.cpu).as_secs_f64() * 1e3
    }

    /// Wall milliseconds since `earlier`.
    pub fn wall_ms_since(&self, earlier: &Stamp) -> f64 {
        self.wall.duration_since(earlier.wall).as_secs_f64() * 1e3
    }
}

/// The CPU and wall times (ms) of a series of timed calls, each with the
/// wall-clock span it ran in (which `HostSpeed::scale` reads).
#[derive(Default)]
pub struct Timings {
    pub cpu: Samples,
    pub wall: Samples,
    pub spans: Vec<(Instant, Instant)>,
}

impl Timings {
    /// Records the call that ran from `start` to `end`.
    pub fn push(&mut self, start: &Stamp, end: &Stamp) {
        self.push_ms(end.cpu_ms_since(start), start.wall, end.wall);
    }

    /// Records a call that took `cpu` ms of CPU time from `from` to `to`.
    pub fn push_ms(&mut self, cpu: f64, from: Instant, to: Instant) {
        self.cpu.push(cpu);
        self.wall.push(to.duration_since(from).as_secs_f64() * 1e3);
        self.spans.push((from, to));
    }

    pub fn len(&self) -> usize {
        self.cpu.len()
    }
}
