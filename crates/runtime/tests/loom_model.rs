//! Loom model check of the seeding handshake in `foces_runtime::run_tasks`,
//! the work-stealing pool under both `detect_parallel` and the cluster's
//! shard fan-out.
//!
//! The production shape is: one seeder pushes task indices round-robin
//! into bounded per-worker `Mutex<VecDeque>`s, stalling (yield) while
//! every deque is full, then stores `seeding_done` with `Release`. Each
//! worker pops its own deque, steals from the others, and once an
//! `Acquire` load sees `seeding_done` makes one last sweep before it
//! exits. The soundness of the scheme reduces to two claims that loom can
//! check over every interleaving:
//!
//! 1. **Exactly once**: every task runs, and none runs twice;
//! 2. **No early exit**: no worker leaves while a task is still queued —
//!    after `seeding_done` the deques only shrink, so a worker whose last
//!    sweep came up empty must find every deque empty.
//!
//! Build only under `RUSTFLAGS="--cfg loom"` (the CI `soundness` job):
//!
//! ```sh
//! RUSTFLAGS="--cfg loom" cargo test -p foces-runtime --test loom_model --release
//! ```
#![cfg(loom)]

use loom::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use loom::sync::{Arc, Mutex};
use loom::thread;
use std::collections::VecDeque;

/// The pool's bounded per-worker deques.
struct Queues {
    locals: Vec<Mutex<VecDeque<usize>>>,
    capacity: usize,
}

impl Queues {
    /// Seeds into `preferred`'s deque or the first other one with room;
    /// `false` when every deque is full (backpressure).
    fn try_push(&self, preferred: usize, task: usize) -> bool {
        let order =
            std::iter::once(preferred).chain((0..self.locals.len()).filter(|&w| w != preferred));
        for w in order {
            let mut q = self.locals[w].lock().unwrap();
            if q.len() < self.capacity {
                q.push_back(task);
                return true;
            }
        }
        false
    }

    /// Owner pop (LIFO), else a FIFO steal from the next non-empty victim.
    fn pop_or_steal(&self, worker: usize) -> Option<usize> {
        if let Some(task) = self.locals[worker].lock().unwrap().pop_back() {
            return Some(task);
        }
        let n = self.locals.len();
        (1..n).find_map(|off| self.locals[(worker + off) % n].lock().unwrap().pop_front())
    }

    fn all_empty(&self) -> bool {
        self.locals.iter().all(|q| q.lock().unwrap().is_empty())
    }
}

/// Runs the seeding handshake under loom: the model's main thread seeds
/// `tasks` tasks into `workers` deques of `capacity`, as `run_tasks` does.
fn model_seeding_handshake(workers: usize, tasks: usize, capacity: usize) {
    loom::model(move || {
        let queues = Arc::new(Queues {
            locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            capacity,
        });
        let runs: Arc<Vec<AtomicUsize>> =
            Arc::new((0..tasks).map(|_| AtomicUsize::new(0)).collect());
        let seeding_done = Arc::new(AtomicBool::new(false));
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let queues = Arc::clone(&queues);
                let runs = Arc::clone(&runs);
                let seeding_done = Arc::clone(&seeding_done);
                thread::spawn(move || loop {
                    let task = match queues.pop_or_steal(w) {
                        Some(task) => task,
                        None if seeding_done.load(Ordering::Acquire) => {
                            // One last sweep: the seeder may have pushed
                            // between our miss and its flag.
                            match queues.pop_or_steal(w) {
                                Some(task) => task,
                                None => {
                                    assert!(queues.all_empty(), "worker {w} left a task queued");
                                    break;
                                }
                            }
                        }
                        None => {
                            thread::yield_now();
                            continue;
                        }
                    };
                    runs[task].fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        for task in 0..tasks {
            while !queues.try_push(task % workers, task) {
                thread::yield_now();
            }
        }
        seeding_done.store(true, Ordering::Release);
        for h in handles {
            h.join().unwrap();
        }
        for (task, count) in runs.iter().enumerate() {
            assert_eq!(count.load(Ordering::Relaxed), 1, "task {task} run count");
        }
    });
}

#[test]
fn full_deques_stall_the_seeder_without_losing_or_repeating_work() {
    // Three tasks into two deques of one slot: the third push waits for a
    // worker to drain.
    model_seeding_handshake(2, 3, 1);
}

#[test]
fn more_workers_than_tasks_terminate_without_losing_work() {
    // The idle worker spins on steals until the flag, then exits.
    model_seeding_handshake(3, 2, 4);
}
