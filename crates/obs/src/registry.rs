//! The lock-free metrics registry: atomic counters, gauges, fixed-bucket
//! histograms and per-phase time accumulators.
//!
//! Design points:
//!
//! - **Hot path is lock-free.** Handle types ([`Counter`], [`Gauge`],
//!   [`Histogram`]) operate on pre-registered atomics with
//!   `Relaxed` ordering; the registry mutex is taken only at registration
//!   time (once per metric, at setup).
//! - **Disabled mode is free.** [`Registry::disabled`] carries no
//!   allocation at all — every handle it hands out is an empty shell whose
//!   operations compile to a branch on a `None`. A run can therefore wire
//!   metrics unconditionally.
//! - **Registration is idempotent.** Asking for the same name twice returns
//!   a handle to the same underlying cell, so independently-constructed
//!   components can share a series.

use crate::phase::{Phase, PhaseBreakdown};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A shared, clonable handle to one metrics registry (or to the disabled
/// no-op registry). Cloning is cheap and all clones observe the same data.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Option<Arc<Inner>>,
}

#[derive(Debug)]
struct Inner {
    /// Identity label stamped onto every snapshot taken from this registry
    /// (`None` for an unlabeled registry). The job service uses this to
    /// route per-job telemetry: each job gets `Registry::labeled(job_id)`
    /// and exporters carry the label through, so multiplexed jobs stay
    /// distinguishable in one sink.
    label: Option<String>,
    /// Nanoseconds accumulated per phase slot.
    phase_ns: [AtomicU64; Phase::COUNT],
    counters: Mutex<Vec<(String, Arc<AtomicU64>)>>,
    /// Gauges store `f64::to_bits` in the atomic.
    gauges: Mutex<Vec<(String, Arc<AtomicU64>)>>,
    histograms: Mutex<Vec<(String, Arc<HistogramCore>)>>,
    /// Heap allocations performed by the registry itself (one per first
    /// registration of a metric name). Steady-state operation adds none.
    allocations: AtomicU64,
}

impl Inner {
    fn new(label: Option<String>) -> Self {
        Inner {
            label,
            phase_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            counters: Mutex::new(Vec::new()),
            gauges: Mutex::new(Vec::new()),
            histograms: Mutex::new(Vec::new()),
            allocations: AtomicU64::new(0),
        }
    }
}

impl Registry {
    /// A live registry that records everything fed to it.
    pub fn new() -> Self {
        Registry { inner: Some(Arc::new(Inner::new(None))) }
    }

    /// A live registry whose snapshots carry an identity `label` — one per
    /// job in the job service, so exporters can tell multiplexed series
    /// apart. Otherwise identical to [`Registry::new`].
    pub fn labeled(label: impl Into<String>) -> Self {
        Registry { inner: Some(Arc::new(Inner::new(Some(label.into())))) }
    }

    /// The identity label, if this registry was built with
    /// [`Registry::labeled`].
    pub fn label(&self) -> Option<&str> {
        self.inner.as_ref()?.label.as_deref()
    }

    /// The no-op registry: hands out inert handles, performs no allocation,
    /// and never reads the clock. This is the [`Default`].
    pub fn disabled() -> Self {
        Registry { inner: None }
    }

    /// Whether this handle points at a live registry.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Register (or look up) a monotonic counter by name.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.cell(name, CellKind::Counter))
    }

    /// Register (or look up) a last-value gauge by name.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(self.cell(name, CellKind::Gauge))
    }

    fn cell(&self, name: &str, kind: CellKind) -> Option<Arc<AtomicU64>> {
        let inner = self.inner.as_ref()?;
        let mut map = match kind {
            CellKind::Counter => inner.counters.lock().unwrap(),
            CellKind::Gauge => inner.gauges.lock().unwrap(),
        };
        if let Some((_, cell)) = map.iter().find(|(n, _)| n == name) {
            return Some(cell.clone());
        }
        let cell = Arc::new(AtomicU64::new(0));
        map.push((name.to_string(), cell.clone()));
        inner.allocations.fetch_add(1, Ordering::Relaxed);
        Some(cell)
    }

    /// Register (or look up) a fixed-bucket histogram. `bounds` are the
    /// inclusive upper edges of the finite buckets, strictly ascending; an
    /// implicit overflow bucket catches everything above the last bound. If
    /// the name already exists, the existing histogram is returned and
    /// `bounds` is ignored.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        let Some(inner) = self.inner.as_ref() else {
            return Histogram(None);
        };
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "histogram bounds must ascend");
        let mut map = inner.histograms.lock().unwrap();
        if let Some((_, core)) = map.iter().find(|(n, _)| n == name) {
            return Histogram(Some(core.clone()));
        }
        let core = Arc::new(HistogramCore::new(bounds));
        map.push((name.to_string(), core.clone()));
        inner.allocations.fetch_add(1, Ordering::Relaxed);
        Histogram(Some(core))
    }

    /// Add an externally-measured duration (in seconds) to a phase slot.
    pub fn record_phase(&self, phase: Phase, secs: f64) {
        if let Some(inner) = &self.inner {
            if secs > 0.0 {
                inner.phase_ns[phase.index()].fetch_add((secs * 1e9) as u64, Ordering::Relaxed);
            }
        }
    }

    /// Seconds accumulated in one phase slot.
    pub fn phase_s(&self, phase: Phase) -> f64 {
        match &self.inner {
            Some(inner) => inner.phase_ns[phase.index()].load(Ordering::Relaxed) as f64 / 1e9,
            None => 0.0,
        }
    }

    /// The full per-phase time breakdown recorded so far.
    pub fn phases(&self) -> PhaseBreakdown {
        let mut p = PhaseBreakdown::new();
        for phase in Phase::ALL {
            p.set(phase, self.phase_s(phase));
        }
        p
    }

    /// Heap allocations the registry itself has performed (one per first
    /// registration). A disabled registry always reports 0; an enabled one
    /// stops growing once every metric is registered, so a flat reading
    /// across steps certifies an allocation-free steady state.
    pub fn allocation_events(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.allocations.load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// Take a consistent point-in-time copy of everything recorded, with
    /// series sorted by name for deterministic export.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot {
            label: self.label().map(str::to_string),
            phases: self.phases(),
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
        };
        let Some(inner) = &self.inner else { return snap };
        for (name, cell) in inner.counters.lock().unwrap().iter() {
            snap.counters.push((name.clone(), cell.load(Ordering::Relaxed)));
        }
        for (name, cell) in inner.gauges.lock().unwrap().iter() {
            snap.gauges.push((name.clone(), f64::from_bits(cell.load(Ordering::Relaxed))));
        }
        for (name, core) in inner.histograms.lock().unwrap().iter() {
            snap.histograms.push(core.snapshot(name));
        }
        snap.counters.sort_by(|a, b| a.0.cmp(&b.0));
        snap.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        snap.histograms.sort_by(|a, b| a.name.cmp(&b.name));
        snap
    }
}

enum CellKind {
    Counter,
    Gauge,
}

/// A monotonic counter handle. Inert when obtained from a disabled registry.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for an inert handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// A last-value gauge handle holding an `f64`. Inert when obtained from a
/// disabled registry.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// Overwrite the gauge value.
    pub fn set(&self, value: f64) {
        if let Some(cell) = &self.0 {
            cell.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0.0 for an inert handle).
    pub fn get(&self) -> f64 {
        self.0.as_ref().map_or(0.0, |cell| f64::from_bits(cell.load(Ordering::Relaxed)))
    }
}

#[derive(Debug)]
struct HistogramCore {
    /// Inclusive upper edges of the finite buckets, ascending.
    bounds: Vec<f64>,
    /// One count per finite bucket plus a trailing overflow bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

impl HistogramCore {
    fn new(bounds: &[f64]) -> Self {
        HistogramCore {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    fn observe(&self, value: f64) {
        let idx = self.bounds.iter().position(|&b| value <= b).unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(cur) + value).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    fn snapshot(&self, name: &str) -> HistogramSnapshot {
        HistogramSnapshot {
            name: name.to_string(),
            bounds: self.bounds.clone(),
            counts: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
        }
    }
}

/// A fixed-bucket histogram handle. Inert when obtained from a disabled
/// registry.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<HistogramCore>>);

impl Histogram {
    /// Record one observation.
    pub fn observe(&self, value: f64) {
        if let Some(core) = &self.0 {
            core.observe(value);
        }
    }

    /// Number of observations recorded so far (0 for an inert handle).
    pub fn count(&self) -> u64 {
        self.0.as_ref().map_or(0, |core| core.count.load(Ordering::Relaxed))
    }
}

/// Point-in-time copy of a registry's contents, ready for export.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Identity label of the registry the snapshot came from (`None` for an
    /// unlabeled registry). Exporters include it as a `job` label / field
    /// only when present, so unlabeled output is byte-identical to before.
    pub label: Option<String>,
    /// Per-phase accumulated seconds.
    pub phases: PhaseBreakdown,
    /// `(name, value)` for every counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Every histogram, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Series name.
    pub name: String,
    /// Inclusive upper edges of the finite buckets.
    pub bounds: Vec<f64>,
    /// Counts per bucket; one longer than `bounds` (trailing overflow).
    pub counts: Vec<u64>,
    /// Total number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_record() {
        let reg = Registry::new();
        let c = reg.counter("steps");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Idempotent registration: same cell.
        assert_eq!(reg.counter("steps").get(), 5);
        let g = reg.gauge("temp");
        g.set(1.5);
        assert_eq!(g.get(), 1.5);
        g.set(-2.0);
        assert_eq!(reg.gauge("temp").get(), -2.0);
    }

    #[test]
    fn disabled_registry_is_inert_and_allocation_free() {
        let reg = Registry::disabled();
        assert!(!reg.enabled());
        let c = reg.counter("never");
        c.add(100);
        assert_eq!(c.get(), 0);
        reg.gauge("g").set(3.0);
        reg.histogram("h", &[1.0]).observe(0.5);
        reg.record_phase(Phase::Eval, 1.0);
        assert_eq!(reg.allocation_events(), 0);
        let snap = reg.snapshot();
        assert!(snap.counters.is_empty() && snap.histograms.is_empty());
        assert_eq!(snap.phases.total_s(), 0.0);
    }

    #[test]
    fn allocation_events_stop_after_registration() {
        let reg = Registry::new();
        reg.counter("a");
        reg.gauge("b");
        reg.histogram("c", &[1.0, 2.0]);
        let after_setup = reg.allocation_events();
        assert_eq!(after_setup, 3);
        for _ in 0..100 {
            reg.counter("a").inc();
            reg.gauge("b").set(1.0);
            reg.histogram("c", &[1.0, 2.0]).observe(1.5);
            reg.record_phase(Phase::Eval, 1e-6);
        }
        assert_eq!(reg.allocation_events(), after_setup);
    }

    #[test]
    fn labeled_registry_stamps_snapshots() {
        let reg = Registry::labeled("job-7");
        assert!(reg.enabled());
        assert_eq!(reg.label(), Some("job-7"));
        reg.counter("steps").inc();
        let snap = reg.snapshot();
        assert_eq!(snap.label.as_deref(), Some("job-7"));
        // Unlabeled and disabled registries stay label-free.
        assert_eq!(Registry::new().label(), None);
        assert_eq!(Registry::new().snapshot().label, None);
        assert_eq!(Registry::disabled().label(), None);
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper_edges() {
        let reg = Registry::new();
        let h = reg.histogram("lat", &[1.0, 2.0, 4.0]);
        for v in [0.5, 1.0, 1.0001, 2.0, 3.9, 4.0, 4.0001, 100.0] {
            h.observe(v);
        }
        let snap = reg.snapshot();
        let hs = &snap.histograms[0];
        assert_eq!(hs.name, "lat");
        // ≤1: {0.5, 1.0}; ≤2: {1.0001, 2.0}; ≤4: {3.9, 4.0}; overflow: {4.0001, 100}.
        assert_eq!(hs.counts, vec![2, 2, 2, 2]);
        assert_eq!(hs.count, 8);
        assert!((hs.sum - 116.4002).abs() < 1e-9);
    }

    #[test]
    fn counters_sum_exactly_across_threads() {
        let reg = Registry::new();
        let c = reg.counter("work");
        let h = reg.histogram("obs", &[10.0, 100.0]);
        std::thread::scope(|scope| {
            for lane in 0..8 {
                let c = c.clone();
                let h = h.clone();
                scope.spawn(move || {
                    for i in 0..10_000u64 {
                        c.inc();
                        if i % 100 == 0 {
                            h.observe(lane as f64);
                        }
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
        assert_eq!(h.count(), 800);
        let snap = reg.snapshot();
        assert_eq!(snap.counters, vec![("work".to_string(), 80_000)]);
        assert_eq!(snap.histograms[0].counts.iter().sum::<u64>(), 800);
    }
}
