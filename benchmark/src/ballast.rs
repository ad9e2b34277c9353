//! Ballast: one spinning thread per hardware thread, scheduled under Linux's
//! `SCHED_IDLE` so that it runs only where nothing else wants to.
//!
//! The benchmark runs in two-vCPU guests whose vCPUs share a core. Two
//! states of the machine change the same binary's speed by more than any
//! bound: whether the sibling vCPU is busy (5184 silica atoms step in 33.7 ms
//! beside an idle sibling, 43.8 ms beside a busy one), and whether a vCPU had
//! halted before a thread was woken on it (the BSP executor wakes its pool
//! several times per 0.4 ms step: 1500 to 2300 steps/s between runs without
//! ballast, 2100 to 2400 with). Which state a run meets depends on the
//! neighbouring guests. With ballast every run meets the same one: sibling
//! busy, vCPU awake. The numbers are those of a fully loaded machine.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Puts the calling thread under `SCHED_IDLE`; false where that is not
/// possible.
#[cfg(target_os = "linux")]
fn yield_to_everything() -> bool {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `sched_setscheduler(2)` reads one `struct sched_param` (a
    // single int) through the pointer, which points at a live local; pid 0
    // names the calling thread. Lowering one's own priority needs no
    // privilege, and a refusal is reported through the return value.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn yield_to_everything() -> bool {
    false
}

/// Spins until dropped.
pub struct Ballast {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl Ballast {
    pub fn start() -> Ballast {
        let stop = Arc::new(AtomicBool::new(false));
        let lanes = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        let threads = (0..lanes)
            .filter_map(|lane| {
                let stop = Arc::clone(&stop);
                std::thread::Builder::new()
                    .name(format!("ballast-{lane}"))
                    .spawn(move || {
                        // At normal priority the spinner would take time
                        // from the measured threads: better none at all.
                        if !yield_to_everything() {
                            eprintln!("ballast-{lane}: SCHED_IDLE refused, running without");
                            return;
                        }
                        // Plain integer work, no `spin_loop` hint: inside a
                        // guest a run of PAUSEs can hand the vCPU back to
                        // the host, which is what ballast is there to prevent.
                        let mut x = lane as u64;
                        // Relaxed: the flag publishes nothing else.
                        while !stop.load(Ordering::Relaxed) {
                            for _ in 0..4096 {
                                x = black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
                            }
                        }
                    })
                    .ok()
            })
            .collect();
        Ballast { stop, threads }
    }
}

impl Drop for Ballast {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            // A ballast thread has nothing to report and cannot panic.
            let _ = t.join();
        }
    }
}
