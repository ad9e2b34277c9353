//! Shared-memory parallel substrate: a persistent worker pool plus the force
//! accumulator every work unit owns.
//!
//! One ownership rule: a work unit — a rank, or one lane of a rank whose
//! cells are split over the pool — owns exactly one [`ForceAccumulator`] for
//! its whole lifetime, sized on first use and reduced after each sweep, the way
//! each node of a multi-cell MD code keeps its own force array.
//!
//! * [`ThreadPool`] — a small persistent pool. [`ThreadPool::for_each_mut`]
//!   hands task `i` the `i`-th element of a slice and is the one place a
//!   task index becomes a `&mut`. Dispatching performs no heap allocation:
//!   the caller publishes a raw pointer to a borrowed closure under a mutex,
//!   bumps an epoch, and blocks (while cooperating on the task counter) until
//!   every worker has drained the shared atomic task queue, so the borrow
//!   never escapes the call frame.
//! * [`ForceAccumulator`] — scratch that is *never* bulk-zeroed between uses.
//!   A per-slot stamp array marks which entries belong to the current use
//!   epoch; the first touch of a slot overwrites instead of accumulating and
//!   records the slot in a dirty list, so both the merge into the global
//!   force array and the logical reset are O(touched), not O(N). Each
//!   accumulator counts its own buffer growth, which lets tests assert that
//!   steady-state steps allocate nothing.

use crate::engine::{LinkRows, VisitStats};
use sc_geom::Vec3;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Raw pointer to the borrowed job closure. The `'static` bound is a lie we
/// tell the type system; [`ThreadPool::run`] guarantees the pointee outlives
/// every dereference by blocking until all workers finish the epoch.
type Job = *const (dyn Fn(usize) + Sync + 'static);

struct JobSlot(Job);
// SAFETY: the pointee is `Sync` and only dereferenced while the publishing
// caller is blocked inside `run`, keeping the borrow alive.
unsafe impl Send for JobSlot {}

struct PoolState {
    job: Option<JobSlot>,
    tasks: usize,
    epoch: u64,
    running: usize,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    work: Condvar,
    done: Condvar,
    next: AtomicUsize,
}

/// Persistent barrier-synced worker pool with zero-allocation job dispatch.
///
/// `lanes` is the number of parallel execution lanes: the calling thread is
/// always lane 0 and `lanes − 1` workers are spawned. With one lane the pool
/// degenerates to inline serial execution (no threads, no synchronisation).
pub struct ThreadPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
    lanes: usize,
}

impl ThreadPool {
    /// Builds a pool with `lanes` parallel lanes (clamped to ≥ 1).
    pub fn new(lanes: usize) -> Self {
        let lanes = lanes.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                job: None,
                tasks: 0,
                epoch: 0,
                running: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            next: AtomicUsize::new(0),
        });
        let workers = (1..lanes)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sc-md-lane-{w}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool { shared, workers, lanes }
    }

    /// Pool sized to the host's available parallelism.
    pub fn auto() -> Self {
        Self::new(std::thread::available_parallelism().map(usize::from).unwrap_or(1))
    }

    /// Number of parallel lanes (callers partition work into this many
    /// tasks for a statically balanced split).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Calls `f(i, &mut items[i])` exactly once for every index, distributing
    /// the calls over all lanes, and returns after the last one finished.
    /// Each task owns its element for the call; performs no heap allocation.
    pub fn for_each_mut<T: Send>(&self, items: &mut [T], f: impl Fn(usize, &mut T) + Sync) {
        let slots = LaneSlots(items.as_mut_ptr());
        // SAFETY: `run` claims each index in `0..items.len()` exactly once,
        // so every element is borrowed by one task at a time, and it returns
        // only after the last task did — within the `items` borrow.
        self.run(items.len(), &|i| f(i, unsafe { &mut *slots.get(i) }));
    }

    /// Calls `job(i)` exactly once for every `i in 0..tasks`, distributing
    /// the calls over all lanes. Task indices are claimed dynamically from a
    /// shared counter; the caller participates as lane 0 and returns only
    /// after every task has finished. Performs no heap allocation.
    fn run(&self, tasks: usize, job: &(dyn Fn(usize) + Sync)) {
        if self.workers.is_empty() || tasks <= 1 {
            for i in 0..tasks {
                job(i);
            }
            return;
        }
        // SAFETY: extends the borrow to 'static for storage only; `run`
        // blocks below until `running == 0`, so no worker touches the
        // pointer after this frame ends.
        let job_ptr: Job = unsafe { std::mem::transmute(job as *const (dyn Fn(usize) + Sync)) };
        {
            let mut st = self.shared.state.lock().unwrap();
            debug_assert!(st.running == 0 && st.job.is_none());
            // The counter reset is ordered before the workers' epoch read by
            // the mutex release/acquire pair.
            self.shared.next.store(0, Ordering::Relaxed);
            st.job = Some(JobSlot(job_ptr));
            st.tasks = tasks;
            st.running = self.workers.len();
            st.epoch = st.epoch.wrapping_add(1);
            self.shared.work.notify_all();
        }
        loop {
            let i = self.shared.next.fetch_add(1, Ordering::Relaxed);
            if i >= tasks {
                break;
            }
            job(i);
        }
        let mut st = self.shared.state.lock().unwrap();
        while st.running > 0 {
            st = self.shared.done.wait(st).unwrap();
        }
        st.job = None;
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            self.shared.work.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    let mut seen_epoch = 0u64;
    loop {
        let (job, tasks) = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    seen_epoch = st.epoch;
                    break (st.job.as_ref().expect("job set with epoch").0, st.tasks);
                }
                st = shared.work.wait(st).unwrap();
            }
        };
        // SAFETY: the publishing caller blocks until `running` hits zero,
        // which happens strictly after the last dereference below.
        let f = unsafe { &*job };
        loop {
            let i = shared.next.fetch_add(1, Ordering::Relaxed);
            if i >= tasks {
                break;
            }
            f(i);
        }
        let mut st = shared.state.lock().unwrap();
        st.running -= 1;
        if st.running == 0 {
            shared.done.notify_one();
        }
    }
}

/// The base pointer of a slice whose elements pool tasks index disjointly.
struct LaneSlots<T>(*mut T);
// SAFETY: tasks index disjoint elements; synchronisation is provided by the
// pool's dispatch/completion protocol.
unsafe impl<T: Send> Sync for LaneSlots<T> {}

impl<T> LaneSlots<T> {
    /// Pointer to element `i`. Accessing it through a method (rather than the
    /// field) keeps closures capturing the whole `Sync` wrapper instead of
    /// the bare pointer under RFC 2229 disjoint capture.
    ///
    /// # Safety
    /// `i` must be in bounds of the slice this was created from, and no two
    /// tasks may use the same index concurrently.
    unsafe fn get(&self, i: usize) -> *mut T {
        self.0.add(i)
    }
}

/// A work unit's force/energy/virial scratch with dirty-slot tracking.
///
/// Slots are stamped with the accumulator's use epoch: the first [`add`] to
/// a slot in an epoch *overwrites* the stale value and records the slot in
/// the dirty list, so [`begin`] never zeroes the O(N) force array and
/// [`merge_into`] walks only the dirty list.
///
/// [`add`]: ForceAccumulator::add
/// [`begin`]: ForceAccumulator::begin
/// [`merge_into`]: ForceAccumulator::merge_into
#[derive(Default)]
pub struct ForceAccumulator {
    forces: Vec<Vec3>,
    stamp: Vec<u32>,
    dirty: Vec<u32>,
    epoch: u32,
    /// Buffer growths since construction.
    grown: u64,
    /// Accumulated potential energy for this use.
    pub energy: f64,
    /// Accumulated virial for this use.
    pub virial: f64,
    /// Tuple-search statistics for this use.
    pub stats: VisitStats,
    /// The chain visitor's link-row buffers, kept with the accumulator the
    /// chains are applied to so they are reused wherever it is.
    pub(crate) links: LinkRows,
}

impl ForceAccumulator {
    /// Starts a use over `n` slots: bumps the epoch (invalidating every
    /// stamped slot at once), resets the scalar tallies, and grows the buffer
    /// to cover `n` slots — never shrinking it, and counting a growth as an
    /// allocation event. O(1) except on growth or epoch wrap.
    pub fn begin(&mut self, n: usize) {
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
        self.dirty.clear();
        self.energy = 0.0;
        self.virial = 0.0;
        self.stats = VisitStats::default();
        if self.forces.len() < n {
            self.forces.resize(n, Vec3::ZERO);
            self.stamp.resize(n, 0);
            self.grown += 1;
        }
    }

    /// Adds `f` to `slot`, first-touch-overwriting stale contents.
    #[inline]
    pub fn add(&mut self, slot: u32, f: Vec3) {
        let s = slot as usize;
        if self.stamp[s] == self.epoch {
            self.forces[s] += f;
        } else {
            self.stamp[s] = self.epoch;
            self.forces[s] = f;
            self.dirty.push(slot);
        }
    }

    /// Subtracts `f` from `slot` (convenience for action–reaction pairs).
    #[inline]
    pub fn sub(&mut self, slot: u32, f: Vec3) {
        self.add(slot, -f);
    }

    /// Number of distinct slots touched this epoch.
    pub fn touched(&self) -> usize {
        self.dirty.len()
    }

    /// Adds every touched slot into `out` (dirty-list order, deterministic
    /// for a fixed task → lane assignment), ending the use: link-row buffers
    /// that grew during it count as an allocation event.
    pub fn merge_into(&mut self, out: &mut [Vec3]) {
        for &slot in &self.dirty {
            out[slot as usize] += self.forces[slot as usize];
        }
        self.grown += u64::from(self.links.settle());
    }

    /// Number of buffer growths since construction. Flat across steps ⇔ the
    /// steady state performs no scratch allocation.
    pub fn allocation_events(&self) -> u64 {
        self.grown
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn pool_covers_every_task_exactly_once() {
        let pool = ThreadPool::new(4);
        assert_eq!(pool.lanes(), 4);
        let hits: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        for round in 0..50 {
            pool.run(hits.len(), &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), round + 1, "task {i}");
            }
        }
    }

    #[test]
    fn single_lane_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        let mut sum = 0u64;
        let cell = std::sync::Mutex::new(&mut sum);
        pool.run(10, &|i| {
            **cell.lock().unwrap() += i as u64;
        });
        assert_eq!(sum, 45);
    }

    /// Every index is handed exactly once per call, with its own element —
    /// element `i` remembers `i` and counts only calls that name it.
    #[test]
    fn for_each_mut_hands_every_task_its_own_element_once() {
        for lanes in [1, 2, 4] {
            let pool = ThreadPool::new(lanes);
            let mut items: Vec<[u64; 2]> = (0..257).map(|i| [i, 0]).collect();
            for round in 1..=50 {
                pool.for_each_mut(&mut items, |i, item| {
                    if item[0] == i as u64 {
                        item[1] += 1;
                    }
                });
                assert!(items.iter().all(|item| item[1] == round), "{lanes} lanes, round {round}");
            }
        }
    }

    #[test]
    fn accumulator_first_touch_overwrites_stale_state() {
        let mut acc = ForceAccumulator::default();
        acc.begin(8);
        acc.add(3, Vec3::new(1.0, 0.0, 0.0));
        acc.add(3, Vec3::new(1.0, 0.0, 0.0));
        acc.add(5, Vec3::new(0.0, 2.0, 0.0));
        assert_eq!(acc.touched(), 2);
        let mut out = vec![Vec3::ZERO; 8];
        acc.merge_into(&mut out);
        assert_eq!(out[3], Vec3::new(2.0, 0.0, 0.0));
        assert_eq!(out[5], Vec3::new(0.0, 2.0, 0.0));
        // The next use sees clean slots without any bulk zeroing.
        acc.begin(8);
        acc.add(3, Vec3::new(0.5, 0.0, 0.0));
        let mut out2 = vec![Vec3::ZERO; 8];
        acc.merge_into(&mut out2);
        assert_eq!(out2[3], Vec3::new(0.5, 0.0, 0.0));
        assert_eq!(acc.allocation_events(), 1, "reuse must not allocate");
    }

    #[test]
    fn accumulator_counts_its_own_growth() {
        let mut acc = ForceAccumulator::default();
        acc.begin(4);
        acc.begin(16);
        assert_eq!(acc.allocation_events(), 2);
        acc.begin(8);
        assert_eq!(acc.allocation_events(), 2, "shrinking reuse is free");
    }

    #[test]
    fn parallel_accumulation_matches_serial() {
        let n = 256usize;
        let tasks = 64usize;
        let pool = ThreadPool::new(3);
        let lanes_n = pool.lanes();
        let mut lanes: Vec<ForceAccumulator> =
            (0..lanes_n).map(|_| ForceAccumulator::default()).collect();
        pool.for_each_mut(&mut lanes, |t, acc| {
            acc.begin(n);
            let lo = t * tasks / lanes_n;
            let hi = (t + 1) * tasks / lanes_n;
            for task in lo..hi {
                for k in 0..n {
                    if (task + k) % 3 == 0 {
                        acc.add(k as u32, Vec3::new(1.0, -1.0, 0.5));
                        acc.energy += 1.0;
                    }
                }
            }
        });
        let mut out = vec![Vec3::ZERO; n];
        let mut energy = 0.0;
        for acc in &mut lanes {
            acc.merge_into(&mut out);
            energy += acc.energy;
        }
        let mut expect = vec![Vec3::ZERO; n];
        let mut expect_e = 0.0;
        for task in 0..tasks {
            for (k, slot) in expect.iter_mut().enumerate() {
                if (task + k) % 3 == 0 {
                    *slot += Vec3::new(1.0, -1.0, 0.5);
                    expect_e += 1.0;
                }
            }
        }
        assert_eq!(out, expect);
        assert_eq!(energy, expect_e);
    }
}
