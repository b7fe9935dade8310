//! Host-speed calibration.
//!
//! The benchmark host is a virtual machine on a shared server, and its
//! speed changes with the other tenants' load, from one second to the
//! next: the same round can take 1.5× more CPU time a few seconds later.
//! Two fixed reference kernels, timed every [`INTERVAL`] on a sampler
//! thread, measure that speed:
//!
//! * the **core** kernel, dense Cholesky factorizations of a fixed
//!   128 × 128 matrix, the arithmetic the detectors' solvers are made of.
//!   Its 256 KiB stay in the core's own L2 cache, so it times the core;
//! * the **cache** kernel, one read per cache line over 8 MiB, past the
//!   core's 2 MiB L2 and inside the shared L3, so it times the memory
//!   system the other tenants share.
//!
//! The two slow down by different amounts, and so does the benchmark's own
//! code: in the host's slow state the core kernel takes about 1.8× its
//! fast time, the cache kernel about 1.2×, the median detection round
//! 1.4× to 1.55× and a set-up 1.2× to 1.45×. So each timed call is divided
//! by a blend of the two slowdowns, `core^w · cache^(1−w)`, with `w` the
//! call's compute share: [`ROUND_SHARE`] for rounds and [`SETUP_SHARE`]
//! for set-ups, the shares that left the least spread across runs in both
//! states (see `README.md`, Noise). The slowdowns are the kernels' times
//! over [`CORE_MS`] and [`CACHE_MS`], their times in the baseline host's
//! fast state, and each call uses the median blend of the samples taken
//! while it ran plus the [`AROUND`] before it and after it.
//!
//! The kernels are this module's own code, so a change to the detection
//! crates never changes them. Every thread of the process runs on one CPU
//! (see `clock::pin_to_this_cpu`), so the sampler times the core the
//! workload runs on: it takes that core for the length of a sample, and
//! its CPU time is left out of every timed call (see [`HostSpeed::stamp`]).

use crate::clock::{CpuClock, Stamp, Timings};
use crate::report::{Report, Samples};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The core kernel's CPU time on the baseline host, in its fast state.
pub const CORE_MS: f64 = 0.6;
/// The cache kernel's CPU time on the baseline host, in its fast state.
pub const CACHE_MS: f64 = 0.8;

/// Compute share of a detection round: its weight on the core kernel.
pub const ROUND_SHARE: f64 = 0.75;
/// Compute share of a set-up, which builds and audits matrices.
pub const SETUP_SHARE: f64 = 0.5;

/// Wall time between two samples. It keeps the kernels' own cost to about
/// 2% of a run.
const INTERVAL: Duration = Duration::from_millis(100);

/// Kernel samples on each side of a timed call that, with those taken
/// during it, set its host speed.
const AROUND: usize = 2;

/// Order of the factorized matrix.
const N: usize = 128;
/// Factorizations per sample, after one that only warms the caches.
const REPEATS: usize = 2;
/// Words the cache kernel sweeps: 8 MiB.
const SWEEP_WORDS: usize = 1 << 20;
/// One word per 64-byte cache line.
const LINE_WORDS: usize = 8;

/// One sample: when it ended, and each kernel's CPU time (ms).
#[derive(Clone, Copy)]
struct Sample {
    at: Instant,
    core_ms: f64,
    cache_ms: f64,
}

impl Sample {
    /// How much slower than the baseline fast state the host ran, for
    /// code with compute share `share`.
    fn slowdown(&self, share: f64) -> f64 {
        (self.core_ms / CORE_MS).powf(share) * (self.cache_ms / CACHE_MS).powf(1.0 - share)
    }
}

type Log = Arc<Mutex<Vec<Sample>>>;

/// The reference kernels and the thread that times them.
pub struct HostSpeed {
    samples: Log,
    stop: Arc<AtomicBool>,
    sampler: Option<JoinHandle<()>>,
    /// The sampler thread's CPU clock.
    clock: CpuClock,
}

impl HostSpeed {
    /// Starts the sampler thread, once it has taken its first sample.
    pub fn start() -> Self {
        let samples: Log = Arc::default();
        let stop = Arc::new(AtomicBool::new(false));
        let (started, clock) = mpsc::channel();
        let sampler = std::thread::spawn({
            let (samples, stop) = (Arc::clone(&samples), Arc::clone(&stop));
            move || {
                let mut core = Core::new();
                let sweep: Vec<u64> = (0..SWEEP_WORDS as u64).collect();
                let clock = CpuClock::this_thread();
                let mut started = Some(started);
                while !stop.load(Ordering::Acquire) {
                    let core_ms = core.time(clock);
                    let cache_ms = time_sweep(&sweep, clock);
                    samples
                        .lock()
                        .expect("no sampler panics holding the log")
                        .push(Sample {
                            at: Instant::now(),
                            core_ms,
                            cache_ms,
                        });
                    if let Some(tx) = started.take() {
                        let _ = tx.send(clock);
                    }
                    std::thread::park_timeout(INTERVAL);
                }
            }
        });
        let clock = clock.recv().expect("the sampler takes its first sample");
        HostSpeed {
            samples,
            stop,
            sampler: Some(sampler),
            clock,
        }
    }

    /// Reads the wall clock and the CPU time of every thread of the process
    /// but the sampler. The sampler's clock is read on both sides of the
    /// process's, and again if it ran in between, so the two agree.
    pub fn stamp(&self) -> Stamp {
        loop {
            let before = self.clock.read();
            let process = CpuClock::PROCESS.read();
            if self.clock.read() == before {
                return Stamp {
                    wall: Instant::now(),
                    cpu: process.saturating_sub(before),
                };
            }
        }
    }

    /// The CPU times of `t`, each divided by the median slowdown, for
    /// compute share `share`, of the samples taken while it ran and the
    /// [`AROUND`] taken before it and after it.
    pub fn scale(&self, t: &Timings, share: f64) -> Samples {
        let k = self
            .samples
            .lock()
            .expect("no sampler panics holding the log");
        t.cpu
            .values()
            .iter()
            .zip(&t.spans)
            .map(|(&cpu, &(from, to))| {
                let lo = k.partition_point(|s| s.at < from).saturating_sub(AROUND);
                let hi = (k.partition_point(|s| s.at <= to) + AROUND).min(k.len());
                let local: Samples = k[lo..hi].iter().map(|s| s.slowdown(share)).collect();
                cpu / local.p50()
            })
            .collect()
    }

    /// Prints the run's median time of each kernel.
    pub fn report(&self, report: &mut Report) {
        let k = self
            .samples
            .lock()
            .expect("no sampler panics holding the log");
        let core: Samples = k.iter().map(|s| s.core_ms).collect();
        let cache: Samples = k.iter().map(|s| s.cache_ms).collect();
        report.metric("host.core_ms", core.p50(), "ms", core.len());
        report.metric("host.cache_ms", cache.p50(), "ms", cache.len());
    }
}

impl Drop for HostSpeed {
    /// Stops the sampler and waits for it to end.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(sampler) = self.sampler.take() {
            sampler.thread().unpark();
            let _ = sampler.join();
        }
    }
}

/// The cache kernel: the CPU time (ms) of one read per cache line of
/// `sweep`, on `clock`, the calling thread's.
fn time_sweep(sweep: &[u64], clock: CpuClock) -> f64 {
    let start = clock.read();
    let sum = sweep
        .iter()
        .step_by(LINE_WORDS)
        .fold(0u64, |a, &w| a.wrapping_add(w));
    black_box(sum);
    (clock.read() - start).as_secs_f64() * 1e3
}

/// The core kernel.
struct Core {
    /// A symmetric positive definite matrix, row-major.
    spd: Vec<f64>,
    /// Its Cholesky factor, rebuilt by every factorization.
    chol: Vec<f64>,
}

impl Core {
    fn new() -> Self {
        let mut spd = vec![0.0; N * N];
        for i in 0..N {
            for j in 0..N {
                spd[i * N + j] = 1.0 / (1.0 + i.abs_diff(j) as f64);
            }
            spd[i * N + i] += N as f64;
        }
        Core {
            spd,
            chol: vec![0.0; N * N],
        }
    }

    fn factorize(&mut self) {
        let (a, l) = (&self.spd, &mut self.chol);
        for j in 0..N {
            let mut d = a[j * N + j];
            for k in 0..j {
                d -= l[j * N + k] * l[j * N + k];
            }
            let d = d.sqrt();
            l[j * N + j] = d;
            for i in j + 1..N {
                let mut s = a[i * N + j];
                for k in 0..j {
                    s -= l[i * N + k] * l[j * N + k];
                }
                l[i * N + j] = s / d;
            }
        }
        black_box(&self.chol);
    }

    /// One sample: the CPU time (ms) of [`REPEATS`] factorizations on
    /// `clock`, the calling thread's.
    fn time(&mut self, clock: CpuClock) -> f64 {
        self.factorize();
        let start = clock.read();
        for _ in 0..REPEATS {
            self.factorize();
        }
        (clock.read() - start).as_secs_f64() * 1e3
    }
}
