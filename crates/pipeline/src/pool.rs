//! A std-only work-stealing thread pool and a dependency-aware job graph.
//!
//! No external crates (the testkit precedent): workers keep per-thread
//! LIFO deques, steal FIFO from each other when empty, and fall back to a
//! shared injector queue fed by non-worker threads. Tasks spawned *from
//! inside* a worker (job-graph continuations) go to that worker's own
//! deque, which keeps a node's compile → analyze chain hot on one core
//! while idle workers steal whole other nodes.
//!
//! The [`JobGraph`] on top schedules jobs with explicit dependencies:
//! a job runs once all of its dependencies completed, so the compile /
//! validate / analyze stages of *independent* nodes overlap freely while
//! each node's stages stay ordered. Panics inside jobs are caught,
//! forwarded to the caller of [`JobGraph::run`] / [`ThreadPool::run_all`],
//! and never wedge the pool.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};

type Task = Box<dyn FnOnce() + Send + 'static>;

struct Shared {
    /// Per-worker deques. Owners push/pop the back (LIFO, cache-warm);
    /// thieves steal from the front (FIFO, oldest work first).
    queues: Vec<Mutex<VecDeque<Task>>>,
    /// Queue fed by threads outside the pool.
    injector: Mutex<VecDeque<Task>>,
    /// Sleeping-worker wakeup: the mutex guards `sleep_epoch`.
    sleep: Mutex<SleepState>,
    wakeup: Condvar,
    /// First panic payload observed in a task, replayed to the waiter.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

struct SleepState {
    /// Bumped on every submission so sleepers re-scan instead of missing
    /// work enqueued between their scan and their wait.
    epoch: u64,
    shutdown: bool,
}

thread_local! {
    /// `(pool identity, worker index)` of the current thread, if it is a
    /// pool worker — routes nested spawns to the worker's own deque.
    static WORKER: std::cell::Cell<Option<(usize, usize)>> =
        const { std::cell::Cell::new(None) };
}

/// The work-stealing thread pool.
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
            queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Mutex::new(VecDeque::new()),
            sleep: Mutex::new(SleepState {
                epoch: 0,
                shutdown: false,
            }),
            wakeup: Condvar::new(),
            panic: Mutex::new(None),
        });
        let workers = (0..threads)
            .map(|index| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("vericomp-pipeline-{index}"))
                    .spawn(move || worker_loop(&shared, index))
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

    /// Submits one task. From a worker thread it lands on that worker's
    /// own deque; from outside on the shared injector.
    pub fn spawn(&self, task: impl FnOnce() + Send + 'static) {
        let task: Task = Box::new(task);
        let me = WORKER.with(std::cell::Cell::get);
        let pool_id = Arc::as_ptr(&self.shared) as usize;
        match me {
            Some((id, index)) if id == pool_id => {
                self.shared.queues[index]
                    .lock()
                    .expect("pool queue lock")
                    .push_back(task);
            }
            _ => {
                self.shared
                    .injector
                    .lock()
                    .expect("pool injector lock")
                    .push_back(task);
            }
        }
        let mut sleep = self.shared.sleep.lock().expect("pool sleep lock");
        sleep.epoch += 1;
        drop(sleep);
        self.shared.wakeup.notify_all();
    }

    /// Runs a batch of independent tasks to completion and returns their
    /// results in submission order.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic raised by any task.
    pub fn run_all<T: Send + 'static>(
        &self,
        tasks: Vec<Box<dyn FnOnce() -> T + Send + 'static>>,
    ) -> Vec<T> {
        let n = tasks.len();
        let results: Arc<Mutex<Vec<Option<T>>>> =
            Arc::new(Mutex::new((0..n).map(|_| None).collect()));
        let done = Arc::new(Latch::new(n));
        for (i, task) in tasks.into_iter().enumerate() {
            let results = Arc::clone(&results);
            let done = Arc::clone(&done);
            let shared = Arc::clone(&self.shared);
            self.spawn(move || {
                // Count down even on panic so the waiter never wedges; the
                // payload is replayed below.
                let outcome = catch_unwind(AssertUnwindSafe(task));
                match outcome {
                    Ok(v) => results.lock().expect("pool results lock")[i] = Some(v),
                    Err(payload) => {
                        shared
                            .panic
                            .lock()
                            .expect("pool panic lock")
                            .get_or_insert(payload);
                    }
                }
                // The waiter may resume the instant the count hits zero,
                // racing with this closure's teardown — release our clone
                // of the results first.
                drop(results);
                done.count_down();
            });
        }
        done.wait();
        self.replay_panic();
        let mut slots = results.lock().expect("pool results lock");
        slots
            .iter_mut()
            .map(|v| v.take().expect("every task stored its result"))
            .collect()
    }

    fn replay_panic(&self) {
        let payload = self.shared.panic.lock().expect("pool panic lock").take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut sleep = self.shared.sleep.lock().expect("pool sleep lock");
            sleep.shutdown = true;
        }
        self.shared.wakeup.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
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

fn worker_loop(shared: &Arc<Shared>, index: usize) {
    let pool_id = Arc::as_ptr(shared) as usize;
    WORKER.with(|w| w.set(Some((pool_id, index))));
    loop {
        if let Some(task) = find_task(shared, index) {
            // A panicking task must not kill the worker: the payload is
            // stashed for the thread that awaits the batch.
            if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
                shared
                    .panic
                    .lock()
                    .expect("pool panic lock")
                    .get_or_insert(payload);
            }
            continue;
        }
        // Nothing found: sleep until a submission bumps the epoch.
        let sleep = shared.sleep.lock().expect("pool sleep lock");
        if sleep.shutdown {
            return;
        }
        let epoch = sleep.epoch;
        // Re-check under the lock epoch: work enqueued since the scan
        // bumped the epoch and we skip the wait.
        drop(sleep);
        if has_visible_work(shared, index) {
            continue;
        }
        let mut sleep = shared.sleep.lock().expect("pool sleep lock");
        while sleep.epoch == epoch && !sleep.shutdown {
            sleep = shared.wakeup.wait(sleep).expect("pool condvar wait");
        }
        if sleep.shutdown {
            return;
        }
    }
}

fn has_visible_work(shared: &Shared, index: usize) -> bool {
    if !shared.queues[index]
        .lock()
        .expect("pool queue lock")
        .is_empty()
    {
        return true;
    }
    if !shared
        .injector
        .lock()
        .expect("pool injector lock")
        .is_empty()
    {
        return true;
    }
    shared
        .queues
        .iter()
        .any(|q| !q.lock().expect("pool queue lock").is_empty())
}

fn find_task(shared: &Shared, index: usize) -> Option<Task> {
    // 1. own deque, LIFO
    if let Some(t) = shared.queues[index]
        .lock()
        .expect("pool queue lock")
        .pop_back()
    {
        return Some(t);
    }
    // 2. injector
    if let Some(t) = shared
        .injector
        .lock()
        .expect("pool injector lock")
        .pop_front()
    {
        return Some(t);
    }
    // 3. steal FIFO from the others, starting after ourselves
    let n = shared.queues.len();
    for off in 1..n {
        let victim = (index + off) % n;
        if let Some(t) = shared.queues[victim]
            .lock()
            .expect("pool queue lock")
            .pop_front()
        {
            return Some(t);
        }
    }
    None
}

/// A countdown latch: `wait` blocks until `count_down` was called `n`
/// times.
struct Latch {
    remaining: Mutex<usize>,
    zero: Condvar,
}

impl Latch {
    fn new(n: usize) -> Latch {
        Latch {
            remaining: Mutex::new(n),
            zero: Condvar::new(),
        }
    }

    fn count_down(&self) {
        let mut r = self.remaining.lock().expect("latch lock");
        *r -= 1;
        if *r == 0 {
            self.zero.notify_all();
        }
    }

    fn wait(&self) {
        let mut r = self.remaining.lock().expect("latch lock");
        while *r != 0 {
            r = self.zero.wait(r).expect("latch wait");
        }
    }
}

/// Identifier of a job inside a [`JobGraph`].
pub type JobId = usize;

struct JobEntry {
    task: Mutex<Option<Task>>,
    /// Dependencies not yet completed.
    pending: AtomicUsize,
    dependents: Vec<JobId>,
}

/// A dependency graph of jobs executed on a [`ThreadPool`].
///
/// Jobs are closures; edges are declared at [`JobGraph::add`] time and must
/// point backwards (to already-added jobs), which makes cycles impossible
/// by construction.
#[derive(Default)]
pub struct JobGraph {
    jobs: Vec<(Option<Task>, Vec<JobId>)>,
}

impl std::fmt::Debug for JobGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobGraph")
            .field("jobs", &self.jobs.len())
            .finish()
    }
}

impl JobGraph {
    /// An empty graph.
    #[must_use]
    pub fn new() -> JobGraph {
        JobGraph::default()
    }

    /// Number of jobs added so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the graph has no jobs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Adds a job depending on `deps` (all returned by earlier `add`
    /// calls) and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if a dependency id is not an earlier job.
    pub fn add(&mut self, deps: &[JobId], task: impl FnOnce() + Send + 'static) -> JobId {
        let id = self.jobs.len();
        for &d in deps {
            assert!(d < id, "job dependencies must point backwards");
        }
        self.jobs.push((Some(Box::new(task)), deps.to_vec()));
        id
    }

    /// Executes the whole graph on `pool`, returning when every job
    /// completed.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic raised by any job.
    pub fn run(self, pool: &ThreadPool) {
        let n = self.jobs.len();
        if n == 0 {
            return;
        }
        let mut entries: Vec<JobEntry> = self
            .jobs
            .iter()
            .map(|(_, deps)| JobEntry {
                task: Mutex::new(None),
                pending: AtomicUsize::new(deps.len()),
                dependents: Vec::new(),
            })
            .collect();
        for (id, (task, deps)) in self.jobs.into_iter().enumerate() {
            *entries[id].task.lock().expect("job slot lock") = task;
            for d in deps {
                entries[d].dependents.push(id);
            }
        }
        let entries = Arc::new(entries);
        let done = Arc::new(Latch::new(n));

        // Seed the initially ready jobs; completions cascade from there.
        // The closures must be 'static while the pool is only borrowed, so
        // they requeue dependents through a non-owning handle instead.
        let handle = ThreadPoolRef {
            shared: Arc::clone(&pool.shared),
        };
        let ready: Vec<JobId> = (0..n)
            .filter(|&id| entries[id].pending.load(Ordering::SeqCst) == 0)
            .collect();
        for id in ready {
            spawn_job(&handle, &entries, &done, id);
        }
        done.wait();
        pool.replay_panic();
    }
}

/// A non-owning handle to a pool's shared state, used by in-flight jobs to
/// requeue newly ready dependents without borrowing the `ThreadPool`.
struct ThreadPoolRef {
    shared: Arc<Shared>,
}

impl ThreadPoolRef {
    fn spawn(&self, task: impl FnOnce() + Send + 'static) {
        let task: Task = Box::new(task);
        let me = WORKER.with(std::cell::Cell::get);
        let pool_id = Arc::as_ptr(&self.shared) as usize;
        match me {
            Some((id, index)) if id == pool_id => {
                self.shared.queues[index]
                    .lock()
                    .expect("pool queue lock")
                    .push_back(task);
            }
            _ => {
                self.shared
                    .injector
                    .lock()
                    .expect("pool injector lock")
                    .push_back(task);
            }
        }
        let mut sleep = self.shared.sleep.lock().expect("pool sleep lock");
        sleep.epoch += 1;
        drop(sleep);
        self.shared.wakeup.notify_all();
    }
}

fn spawn_job(pool: &ThreadPoolRef, entries: &Arc<Vec<JobEntry>>, done: &Arc<Latch>, id: JobId) {
    let entries2 = Arc::clone(entries);
    let done2 = Arc::clone(done);
    let shared = Arc::clone(&pool.shared);
    pool.spawn(move || {
        let task = entries2[id]
            .task
            .lock()
            .expect("job slot lock")
            .take()
            .expect("a job runs exactly once");
        // Panic containment mirrors run_all: mark completion regardless.
        if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
            shared
                .panic
                .lock()
                .expect("pool panic lock")
                .get_or_insert(payload);
        }
        for &dep in &entries2[id].dependents {
            if entries2[dep].pending.fetch_sub(1, Ordering::SeqCst) == 1 {
                let pool = ThreadPoolRef {
                    shared: Arc::clone(&shared),
                };
                spawn_job(&pool, &entries2, &done2, dep);
            }
        }
        done2.count_down();
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

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
    fn job_graph_respects_dependencies() {
        let pool = ThreadPool::new(4);
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut g = JobGraph::new();
        // diamond per "node", several independent nodes
        for node in 0..8u32 {
            let o = Arc::clone(&order);
            let a = g.add(&[], move || o.lock().unwrap().push((node, 0)));
            let o = Arc::clone(&order);
            let b = g.add(&[a], move || o.lock().unwrap().push((node, 1)));
            let o = Arc::clone(&order);
            let c = g.add(&[a], move || o.lock().unwrap().push((node, 2)));
            let o = Arc::clone(&order);
            g.add(&[b, c], move || o.lock().unwrap().push((node, 3)));
        }
        g.run(&pool);
        let order = order.lock().unwrap();
        assert_eq!(order.len(), 32);
        for node in 0..8u32 {
            let pos = |stage: u32| {
                order
                    .iter()
                    .position(|&(n, s)| n == node && s == stage)
                    .expect("every stage ran")
            };
            assert!(pos(0) < pos(1));
            assert!(pos(0) < pos(2));
            assert!(pos(1) < pos(3));
            assert!(pos(2) < pos(3));
        }
    }

    #[test]
    fn stages_of_independent_chains_overlap_on_one_pass() {
        // Smoke: a 2-stage pipeline over many items completes with the
        // expected per-item ordering even under heavy stealing.
        let pool = ThreadPool::new(8);
        let hits = Arc::new(AtomicU64::new(0));
        let mut g = JobGraph::new();
        for _ in 0..100 {
            let h = Arc::clone(&hits);
            let a = g.add(&[], move || {
                h.fetch_add(1, Ordering::SeqCst);
            });
            let h = Arc::clone(&hits);
            g.add(&[a], move || {
                h.fetch_add(1000, Ordering::SeqCst);
            });
        }
        g.run(&pool);
        assert_eq!(hits.load(Ordering::SeqCst), 100 + 100 * 1000);
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
}
