//! A std-only thread pool: a fixed set of persistent workers taking tasks
//! from one FIFO queue.
//!
//! No external crates (the testkit precedent). The only operation is
//! [`ThreadPool::run_all`]: a caller hands over a batch of independent
//! tasks and blocks until all of them finished. Every sweep cell is one
//! such task, so there is nothing to order between tasks and no reason to
//! steal. A batch owns its result slots, so a panic in one batch is
//! re-raised to that batch's caller and never to a concurrent one, and a
//! panicking task never wedges or kills a worker.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};

type Task = Box<dyn FnOnce() + Send + 'static>;

struct Shared {
    queue: Mutex<Queue>,
    /// Signalled when tasks are queued or the pool shuts down.
    ready: Condvar,
}

struct Queue {
    tasks: VecDeque<Task>,
    shutdown: bool,
}

/// The worker pool.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.workers.len())
            .finish()
    }
}

impl ThreadPool {
    /// Creates a pool with `threads` workers; `0` selects the machine's
    /// available parallelism.
    #[must_use]
    pub fn new(threads: usize) -> ThreadPool {
        let threads = if threads == 0 {
            default_parallelism()
        } else {
            threads
        };
        heap::pin_mmap_threshold();
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                tasks: VecDeque::new(),
                shutdown: false,
            }),
            ready: Condvar::new(),
        });
        let workers = (0..threads)
            .map(|index| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("vericomp-pipeline-{index}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning a pool worker")
            })
            .collect();
        ThreadPool { shared, workers }
    }

    /// Number of worker threads.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Runs a batch of independent tasks to completion and returns their
    /// results in submission order. The tasks are queued in order behind
    /// any other batch's, and the caller wakes once, when the last of
    /// them finished.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of the first task, in submission order, that
    /// panicked. The other tasks of the batch still run to completion.
    pub fn run_all<T: Send + 'static>(
        &self,
        tasks: Vec<Box<dyn FnOnce() -> T + Send + 'static>>,
    ) -> Vec<T> {
        let n = tasks.len();
        let batch = Arc::new(Batch {
            state: Mutex::new(BatchState {
                results: (0..n).map(|_| None).collect(),
                pending: n,
            }),
            done: Condvar::new(),
        });
        {
            let mut queue = self.shared.queue.lock().expect("pool queue lock");
            for (i, task) in tasks.into_iter().enumerate() {
                let batch = Arc::clone(&batch);
                queue.tasks.push_back(Box::new(move || {
                    batch.finish(i, catch_unwind(AssertUnwindSafe(task)));
                }));
            }
        }
        self.shared.ready.notify_all();
        let mut out = Vec::with_capacity(n);
        for result in batch.wait() {
            match result.expect("every task stored its result") {
                Ok(value) => out.push(value),
                Err(payload) => resume_unwind(payload),
            }
        }
        out
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.queue.lock().expect("pool queue lock").shutdown = true;
        self.shared.ready.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// The result slots of one [`ThreadPool::run_all`] call.
struct Batch<T> {
    state: Mutex<BatchState<T>>,
    /// Signalled once, by the task that finishes the batch.
    done: Condvar,
}

struct BatchState<T> {
    results: Vec<Option<thread::Result<T>>>,
    /// Tasks not yet finished.
    pending: usize,
}

impl<T> Batch<T> {
    fn finish(&self, index: usize, result: thread::Result<T>) {
        let mut state = self.state.lock().expect("pool batch lock");
        state.results[index] = Some(result);
        state.pending -= 1;
        if state.pending == 0 {
            self.done.notify_one();
        }
    }

    fn wait(&self) -> Vec<Option<thread::Result<T>>> {
        let mut state = self.state.lock().expect("pool batch lock");
        while state.pending != 0 {
            state = self.done.wait(state).expect("pool batch wait");
        }
        std::mem::take(&mut state.results)
    }
}

/// Keeps the resident set of a pool's work a function of the work alone.
///
/// Each worker allocates from its own glibc arena. By default glibc
/// raises its mmap threshold every time a large mmapped block is freed,
/// so after the first run large buffers are carved out of those arenas
/// instead, and how much of them stays resident depends on which worker
/// ran which job. A process that runs one pipeline after another (a
/// search per configuration, a rebuild per edit) then sees its peak
/// resident set drift by several MiB between runs of identical work.
/// Pinning the threshold at glibc's default keeps large buffers in mmap,
/// returned to the OS as soon as they are freed.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
mod heap {
    use std::ffi::c_int;

    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }

    /// `M_MMAP_THRESHOLD` from glibc's `<malloc.h>`.
    const M_MMAP_THRESHOLD: c_int = -3;

    /// glibc's initial mmap threshold, 128 KiB.
    const DEFAULT_MMAP_THRESHOLD: c_int = 128 * 1024;

    /// Pins the mmap threshold, once per process.
    pub(super) fn pin_mmap_threshold() {
        static PIN: std::sync::Once = std::sync::Once::new();
        // SAFETY: `mallopt` takes no pointers and takes the allocator's
        // own lock; it only changes where future allocations come from.
        PIN.call_once(|| unsafe {
            mallopt(M_MMAP_THRESHOLD, DEFAULT_MMAP_THRESHOLD);
        });
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
mod heap {
    pub(super) fn pin_mmap_threshold() {}
}

fn default_parallelism() -> usize {
    thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
}

fn worker_loop(shared: &Shared) {
    loop {
        let task = {
            let mut queue = shared.queue.lock().expect("pool queue lock");
            loop {
                if let Some(task) = queue.tasks.pop_front() {
                    break task;
                }
                if queue.shutdown {
                    return;
                }
                queue = shared.ready.wait(queue).expect("pool condvar wait");
            }
        };
        // `run_all` wraps every task in `catch_unwind`, so this never
        // unwinds into the worker.
        task();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn run_all_preserves_order_and_runs_everything() {
        let pool = ThreadPool::new(4);
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..64usize)
            .map(|i| Box::new(move || i * 2) as Box<dyn FnOnce() -> usize + Send>)
            .collect();
        let out = pool.run_all(tasks);
        assert_eq!(out, (0..64usize).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_pool_works() {
        let pool = ThreadPool::new(1);
        let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> = (0..8u32)
            .map(|i| Box::new(move || i + 1) as Box<dyn FnOnce() -> u32 + Send>)
            .collect();
        assert_eq!(pool.run_all(tasks), (1..=8).collect::<Vec<_>>());
    }

    #[test]
    fn panics_propagate_without_wedging() {
        let pool = ThreadPool::new(2);
        let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("deliberate test panic")),
            Box::new(|| 3),
        ];
        let result = catch_unwind(AssertUnwindSafe(|| pool.run_all(tasks)));
        assert!(result.is_err());
        // pool still usable afterwards
        let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![Box::new(|| 7)];
        assert_eq!(pool.run_all(tasks), vec![7]);
    }

    #[test]
    fn a_panicking_batch_does_not_leak_into_a_concurrent_one() {
        let pool = ThreadPool::new(2);
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        thread::scope(|s| {
            // batch A: one task panics, the other holds a worker until
            // the test releases it, so A is still running while B runs
            let a = s.spawn(|| {
                let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![
                    Box::new(|| panic!("batch A's own panic")),
                    Box::new(move || {
                        started_tx.send(()).expect("test thread listens");
                        release_rx.recv().expect("test thread releases");
                        2
                    }),
                ];
                catch_unwind(AssertUnwindSafe(|| pool.run_all(tasks)))
            });
            started_rx.recv().expect("batch A's second task started");
            // the one free worker runs B after A's panicking task; B's
            // outcome is checked only after A is released, so a failure
            // here cannot leave A blocked
            let b: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![Box::new(|| 7)];
            let b = catch_unwind(AssertUnwindSafe(|| pool.run_all(b)));
            release_tx.send(()).expect("batch A waits for the release");
            let a = a.join().expect("A's caller returns");
            assert_eq!(b.ok(), Some(vec![7]), "B received a panic");
            let payload = a.expect_err("A's caller gets A's panic");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"batch A's own panic"));
        });
    }
}
