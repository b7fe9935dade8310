//! A work-stealing shard worker pool — std-only, in the style of a
//! crossbeam deque without the dependency.
//!
//! The cluster coordinator hands the pool one task per shard each epoch.
//! Tasks are seeded round-robin into **bounded per-worker deques**
//! (capacity = backpressure: a seeder that outruns the workers stalls and
//! yields instead of queueing unboundedly); each worker drains its own
//! deque LIFO and, when empty, **steals** FIFO from the other workers'
//! deques, so one giant shard cannot idle the rest of the pool.
//!
//! Fault isolation is per task: a task that panics is caught
//! ([`std::panic::catch_unwind`]) and reported as
//! [`TaskOutcome::Panicked`] without poisoning the pool, and every task's
//! wall-clock is measured against an optional deadline so the caller can
//! mark just that shard degraded ([`TaskRun::deadline_missed`]). The pool
//! itself always returns one [`TaskRun`] per submitted task, in submission
//! order.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Pool sizing and fault-detection knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolConfig {
    /// Worker threads. `0` means one per task (capped at 16); any value is
    /// clamped to the task count, so a 1-task epoch never spawns idle
    /// threads.
    pub workers: usize,
    /// Per-worker deque capacity (the backpressure bound). `0` is treated
    /// as 1.
    pub queue_capacity: usize,
    /// Wall-clock budget per task; a task running longer completes but is
    /// flagged [`TaskRun::deadline_missed`].
    pub deadline: Option<Duration>,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            workers: 0,
            queue_capacity: 4,
            deadline: None,
        }
    }
}

/// How one task finished.
#[derive(Debug)]
pub enum TaskOutcome<T> {
    /// The task returned a value.
    Done(T),
    /// The task panicked; the payload's message (when it is a string) is
    /// preserved. Other tasks are unaffected.
    Panicked {
        /// Panic payload rendered to text.
        message: String,
    },
}

impl<T> TaskOutcome<T> {
    /// The value, if the task completed.
    pub fn value(&self) -> Option<&T> {
        match self {
            TaskOutcome::Done(v) => Some(v),
            TaskOutcome::Panicked { .. } => None,
        }
    }
}

/// Execution record of one task.
#[derive(Debug)]
pub struct TaskRun<T> {
    /// The task's result or panic.
    pub outcome: TaskOutcome<T>,
    /// Wall-clock spent inside the task.
    pub elapsed_ms: f64,
    /// Index of the worker that ran it.
    pub worker: usize,
    /// `true` when the running worker stole the task from another worker's
    /// deque.
    pub stolen: bool,
    /// `true` when `elapsed` exceeded [`PoolConfig::deadline`].
    pub deadline_missed: bool,
    /// Depth of the deque this task landed in when it was seeded (1 = it
    /// was alone) — the per-task view of queue pressure.
    pub seed_depth: usize,
}

impl<T> TaskRun<T> {
    /// `true` when the task finished cleanly within its deadline.
    pub fn healthy(&self) -> bool {
        matches!(self.outcome, TaskOutcome::Done(_)) && !self.deadline_missed
    }
}

/// Pool-level execution statistics for one [`run_tasks`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads actually spawned.
    pub workers: usize,
    /// Tasks executed after being stolen from another worker's deque.
    pub steals: usize,
    /// Times the seeder found every deque full and had to yield.
    pub backpressure_stalls: usize,
    /// Largest single-deque depth observed at seed time.
    pub max_queue_depth: usize,
}

struct Queues {
    locals: Vec<Mutex<VecDeque<usize>>>,
    capacity: usize,
}

impl Queues {
    /// Seeds `task` into `preferred`'s deque, or the shallowest other
    /// deque; `None` (backpressure) when every deque is at capacity.
    /// Returns the post-push depth on success.
    fn try_push(&self, preferred: usize, task: usize) -> Option<usize> {
        let order =
            std::iter::once(preferred).chain((0..self.locals.len()).filter(|&w| w != preferred));
        for w in order {
            let mut q = self.locals[w].lock().expect("queue lock");
            if q.len() < self.capacity {
                q.push_back(task);
                return Some(q.len());
            }
        }
        None
    }

    /// Owner pop: LIFO from the worker's own deque.
    fn pop_own(&self, worker: usize) -> Option<usize> {
        self.locals[worker].lock().expect("queue lock").pop_back()
    }

    /// Steal: FIFO from the next non-empty victim after `thief`.
    fn steal(&self, thief: usize) -> Option<usize> {
        let n = self.locals.len();
        for off in 1..n {
            let victim = (thief + off) % n;
            if let Some(task) = self.locals[victim].lock().expect("queue lock").pop_front() {
                return Some(task);
            }
        }
        None
    }
}

/// Runs `tasks` across a scoped work-stealing worker pool and returns one
/// [`TaskRun`] per task, in submission order, plus pool statistics.
///
/// Workers never outnumber tasks; zero tasks return immediately; a single
/// task (or a single worker) still goes through the queue so the
/// fault-isolation path is identical at every size. Panics inside tasks
/// are contained per task.
pub fn run_tasks<T, F>(tasks: Vec<F>, config: PoolConfig) -> (Vec<TaskRun<T>>, PoolStats)
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = tasks.len();
    if n == 0 {
        return (Vec::new(), PoolStats::default());
    }
    // Clamp: requested parallelism never exceeds the number of work
    // items.
    let workers = match config.workers {
        0 => n.min(16),
        w => w.min(n),
    };
    let queues = Queues {
        locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
        capacity: config.queue_capacity.max(1),
    };
    let cells: Vec<Mutex<Option<F>>> = tasks.into_iter().map(|f| Mutex::new(Some(f))).collect();
    // Mutex rather than OnceLock: the latter would demand `T: Sync`, and
    // each slot is written exactly once anyway.
    let slots: Vec<Mutex<Option<TaskRun<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let seeding_done = AtomicBool::new(false);
    let steals = AtomicUsize::new(0);
    let stalls = AtomicUsize::new(0);
    let max_depth = AtomicUsize::new(0);
    let mut seed_depths = vec![0usize; n];

    std::thread::scope(|scope| {
        for w in 0..workers {
            let queues = &queues;
            let cells = &cells;
            let slots = &slots;
            let seeding_done = &seeding_done;
            let steals = &steals;
            let deadline = config.deadline;
            scope.spawn(move || loop {
                let (task, stolen) = match queues.pop_own(w) {
                    Some(t) => (t, false),
                    None => match queues.steal(w) {
                        Some(t) => {
                            steals.fetch_add(1, Ordering::Relaxed);
                            (t, true)
                        }
                        None => {
                            if seeding_done.load(Ordering::Acquire) {
                                // One last sweep: the seeder may have
                                // pushed between our miss and its flag.
                                match queues.pop_own(w).or_else(|| queues.steal(w)) {
                                    Some(t) => (t, false),
                                    None => break,
                                }
                            } else {
                                std::thread::yield_now();
                                continue;
                            }
                        }
                    },
                };
                let Some(f) = cells[task].lock().expect("task cell").take() else {
                    continue; // already claimed (cannot happen, but harmless)
                };
                let start = Instant::now();
                let outcome = match catch_unwind(AssertUnwindSafe(f)) {
                    Ok(v) => TaskOutcome::Done(v),
                    Err(payload) => TaskOutcome::Panicked {
                        // `&*payload`, not `&payload`: the latter would
                        // coerce the Box itself into `dyn Any` and defeat
                        // the downcasts.
                        message: panic_message(&*payload),
                    },
                };
                let elapsed = start.elapsed();
                *slots[task].lock().expect("result slot") = Some(TaskRun {
                    outcome,
                    elapsed_ms: elapsed.as_secs_f64() * 1e3,
                    worker: w,
                    stolen,
                    deadline_missed: deadline.is_some_and(|d| elapsed > d),
                    seed_depth: 0, // patched in after the scope ends
                });
            });
        }

        // Seed round-robin with backpressure: all deques full ⇒ stall and
        // yield until the workers drain something.
        for (task, depth_slot) in seed_depths.iter_mut().enumerate() {
            let preferred = task % workers;
            loop {
                if let Some(depth) = queues.try_push(preferred, task) {
                    max_depth.fetch_max(depth, Ordering::Relaxed);
                    *depth_slot = depth;
                    break;
                }
                stalls.fetch_add(1, Ordering::Relaxed);
                std::thread::yield_now();
            }
        }
        seeding_done.store(true, Ordering::Release);
    });

    let runs: Vec<TaskRun<T>> = slots
        .into_iter()
        .zip(seed_depths)
        .map(|(s, depth)| {
            let mut run = s
                .into_inner()
                .expect("result slot lock")
                .expect("every task slot is filled before the scope ends");
            run.seed_depth = depth;
            run
        })
        .collect();
    let stats = PoolStats {
        workers,
        steals: steals.load(Ordering::Relaxed),
        backpressure_stalls: stalls.load(Ordering::Relaxed),
        max_queue_depth: max_depth.load(Ordering::Relaxed),
    };
    (runs, stats)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn cfg(workers: usize) -> PoolConfig {
        PoolConfig {
            workers,
            queue_capacity: 4,
            deadline: None,
        }
    }

    #[test]
    fn results_arrive_in_submission_order() {
        let tasks: Vec<_> = (0..37).map(|i| move || i * 10).collect();
        let (runs, stats) = run_tasks(tasks, cfg(4));
        assert_eq!(runs.len(), 37);
        assert_eq!(stats.workers, 4);
        for (i, run) in runs.iter().enumerate() {
            assert_eq!(run.outcome.value(), Some(&(i * 10)));
            assert!(run.healthy());
        }
    }

    #[test]
    fn zero_tasks_is_a_noop() {
        let tasks: Vec<fn() -> u32> = Vec::new();
        let (runs, stats) = run_tasks(tasks, cfg(8));
        assert!(runs.is_empty());
        assert_eq!(stats, PoolStats::default());
    }

    #[test]
    fn one_task_clamps_the_pool_to_one_worker() {
        let (runs, stats) = run_tasks(vec![|| 7u32], cfg(8));
        assert_eq!(stats.workers, 1, "workers must be clamped to task count");
        assert_eq!(runs[0].outcome.value(), Some(&7));
        assert_eq!(runs[0].worker, 0);
        assert!(!runs[0].stolen, "a single worker has nobody to steal from");
    }

    #[test]
    fn panic_is_isolated_to_its_task() {
        let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("injected worker fault")),
            Box::new(|| 3),
        ];
        let (runs, _) = run_tasks(tasks, cfg(2));
        assert_eq!(runs[0].outcome.value(), Some(&1));
        assert_eq!(runs[2].outcome.value(), Some(&3));
        match &runs[1].outcome {
            TaskOutcome::Panicked { message } => {
                assert!(message.contains("injected worker fault"), "{message}");
            }
            other => panic!("expected a panic outcome, got {other:?}"),
        }
        assert!(!runs[1].healthy());
    }

    #[test]
    fn deadline_miss_is_flagged_not_fatal() {
        let config = PoolConfig {
            workers: 2,
            queue_capacity: 4,
            deadline: Some(Duration::from_millis(5)),
        };
        let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![
            Box::new(|| {
                std::thread::sleep(Duration::from_millis(30));
                1
            }),
            Box::new(|| 2),
        ];
        let (runs, _) = run_tasks(tasks, config);
        assert!(runs[0].deadline_missed, "slow task must be flagged");
        assert_eq!(runs[0].outcome.value(), Some(&1), "but still completes");
        assert!(!runs[0].healthy());
        assert!(runs[1].healthy());
    }

    #[test]
    fn skewed_tasks_get_stolen() {
        // Worker 0's deque is seeded with slow tasks; the other workers
        // finish instantly and must steal to keep the pool busy.
        let slow = AtomicU32::new(0);
        let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> = (0..32)
            .map(|i| {
                let slow = &slow;
                let f: Box<dyn FnOnce() -> u32 + Send> = Box::new(move || {
                    if i % 4 == 0 {
                        std::thread::sleep(Duration::from_millis(10));
                        slow.fetch_add(1, Ordering::Relaxed);
                    }
                    i
                });
                f
            })
            .collect();
        let (runs, stats) = run_tasks(tasks, cfg(4));
        assert_eq!(runs.len(), 32);
        assert!(
            stats.steals > 0,
            "skewed load must trigger stealing: {stats:?}"
        );
        assert!(runs.iter().any(|r| r.stolen));
    }

    #[test]
    fn backpressure_bounds_queue_depth() {
        let config = PoolConfig {
            workers: 2,
            queue_capacity: 1,
            deadline: None,
        };
        let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> = (0..64)
            .map(|i| {
                let f: Box<dyn FnOnce() -> u32 + Send> = Box::new(move || {
                    std::thread::sleep(Duration::from_micros(200));
                    i
                });
                f
            })
            .collect();
        let (runs, stats) = run_tasks(tasks, config);
        assert_eq!(runs.len(), 64);
        assert!(
            stats.max_queue_depth <= 1,
            "capacity 1 must bound every deque: {stats:?}"
        );
        for (i, run) in runs.iter().enumerate() {
            assert_eq!(run.outcome.value(), Some(&(i as u32)));
        }
    }

    #[test]
    fn zero_worker_config_defaults_to_task_count() {
        let tasks: Vec<_> = (0..3).map(|i| move || i).collect();
        let (_, stats) = run_tasks(tasks, cfg(0));
        assert_eq!(stats.workers, 3);
    }
}
