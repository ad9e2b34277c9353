//! Event-level tracing: bounded per-sink ring buffers of [`TraceEvent`]s,
//! a cross-thread/cross-rank merge, and a Chrome Trace Format exporter
//! (`chrome://tracing` / Perfetto loadable).
//!
//! The metrics [`crate::Registry`] answers *how much* time each phase
//! costs; this module answers *when* and *on which rank*. The paper's
//! claims are about the distribution of work and waiting across ranks over
//! time (Eq. 29/30 cost decomposition, the compute/comm crossover, the
//! Fig. 9 strong-scaling efficiencies), so the taxonomy traced here is the
//! same fixed [`Phase`] set the registry aggregates, plus communication
//! events (send/recv with epoch + channel + bytes) and recovery markers
//! (checkpoint / rollback / fault).
//!
//! Design points, mirroring the registry:
//!
//! - **The hot path is bounded.** A [`TraceSink`] writes into its own
//!   lock-guarded ring of events, pre-sized when the sink is created, so
//!   emitting never allocates. Every sink is written by one thread (the
//!   engine's), so its lock is contended only while a reader copies the
//!   ring out. When the ring is full, the oldest event is dropped (and
//!   counted).
//! - **Disabled mode is free.** [`Tracer::disabled`] hands out inert sinks
//!   that perform no allocation and never read the clock, so engines can
//!   instrument unconditionally.
//! - **Merging is offline.** [`Tracer::events`] copies every registered
//!   ring and sorts by `(step, rank, timestamp)` — the merge key that makes
//!   per-rank timelines comparable even though each thread's ring fills at
//!   its own rate. Each ring is copied under its lock, so a snapshot taken
//!   mid-run holds whole events only.

use crate::json::Json;
use crate::phase::Phase;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default ring capacity per sink, in events.
pub const DEFAULT_CAPACITY: usize = 16_384;

/// A communication channel class, matching the distributed engine's
/// message taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommChannel {
    /// Owner migration of atoms between rank sub-boxes.
    Migrate,
    /// Halo/ghost-atom export (the import-volume observable, Eq. 31).
    Ghosts,
    /// Reverse partial-force reduction.
    Forces,
}

impl CommChannel {
    /// Stable lower-case name used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            CommChannel::Migrate => "migrate",
            CommChannel::Ghosts => "ghosts",
            CommChannel::Forces => "forces",
        }
    }
}

/// What one trace event records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A phase interval (`dur_ns` spans it).
    Phase(Phase),
    /// A message sent to `peer` (instantaneous).
    Send {
        /// Channel class of the message (a batched frame reports the
        /// channel of its first section).
        channel: CommChannel,
        /// Destination rank.
        peer: u32,
        /// Payload wire bytes.
        bytes: u64,
        /// Per-channel sections packed in this wire unit (1 for a bare
        /// message, ≥ 1 for an aggregated frame).
        sections: u16,
        /// Validated-exchange epoch the message was stamped with.
        epoch: u64,
    },
    /// A message received from `peer` (instantaneous).
    Recv {
        /// Channel class of the message (a batched frame reports the
        /// channel of its first section).
        channel: CommChannel,
        /// Source rank.
        peer: u32,
        /// Payload wire bytes.
        bytes: u64,
        /// Per-channel sections packed in this wire unit (1 for a bare
        /// message, ≥ 1 for an aggregated frame).
        sections: u16,
        /// Validated-exchange epoch the message was stamped with.
        epoch: u64,
    },
    /// A checkpoint was saved.
    Checkpoint,
    /// A rollback-and-replay recovery fired.
    Rollback,
    /// A fault was detected (transport or invariant).
    Fault,
    /// A peer rank's health state changed (deadline-watchdog transition:
    /// 0 = healthy, 1 = suspect, 2 = dead).
    Health {
        /// The rank whose health changed.
        peer: u32,
        /// The new state code (0 healthy / 1 suspect / 2 dead).
        state: u8,
    },
    /// The runtime re-decomposed the rank grid onto the surviving ranks
    /// after a rank was declared dead (crash recovery).
    Redecompose {
        /// The rank excluded from the new decomposition.
        rank: u32,
    },
}

/// One timestamped event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Nanoseconds since the owning [`Tracer`]'s epoch.
    pub t_ns: u64,
    /// Interval length in nanoseconds (0 for instantaneous events).
    pub dur_ns: u64,
    /// Simulation step the event belongs to.
    pub step: u64,
    /// Rank (process lane in the distributed engine; 0 serially).
    pub rank: u32,
    /// Thread/lane id within the rank.
    pub lane: u32,
    /// What happened.
    pub kind: EventKind,
}

/// One sink's history: the newest events, at most the tracer's capacity,
/// and the count of older ones dropped to make room.
#[derive(Debug)]
struct Ring {
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

#[derive(Debug)]
struct TracerInner {
    epoch: Instant,
    /// Events per ring, at least 1.
    capacity: usize,
    /// Every ring ever handed out. Readers lock this list first and then
    /// one ring at a time; a sink locks only its own ring.
    rings: Mutex<Vec<Arc<Mutex<Ring>>>>,
}

/// A shared, clonable handle to one trace collection (or to the inert
/// disabled tracer). Hand [`Tracer::sink`] to each thread/rank; collect
/// with [`Tracer::events`], during or after the run.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl Tracer {
    /// A live tracer whose sinks hold [`DEFAULT_CAPACITY`]-event rings.
    pub fn new() -> Self {
        Tracer::with_capacity(DEFAULT_CAPACITY)
    }

    /// A live tracer with `capacity` events of ring storage per sink.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                epoch: Instant::now(),
                capacity: capacity.max(1),
                rings: Mutex::new(Vec::new()),
            })),
        }
    }

    /// The no-op tracer: hands out inert sinks, performs no allocation, and
    /// never reads the clock. This is the [`Default`].
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// Whether this handle points at a live tracer.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Nanoseconds since the tracer's epoch (0 when disabled — the clock is
    /// not read).
    pub fn now_ns(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.epoch.elapsed().as_nanos() as u64,
            None => 0,
        }
    }

    /// Creates a new sink writing into its own ring, tagged with
    /// `(rank, lane)`. Allocates the ring once here; emitting through the
    /// sink never allocates.
    pub fn sink(&self, rank: u32, lane: u32) -> TraceSink {
        let Some(inner) = &self.inner else {
            return TraceSink::disabled();
        };
        let events = VecDeque::with_capacity(inner.capacity);
        let ring = Arc::new(Mutex::new(Ring { events, dropped: 0 }));
        inner.rings.lock().unwrap().push(ring.clone());
        TraceSink { core: Some((inner.clone(), ring)), rank, lane }
    }

    /// Total events dropped to ring wraparound across every sink.
    pub fn dropped(&self) -> u64 {
        match &self.inner {
            Some(inner) => {
                inner.rings.lock().unwrap().iter().map(|r| r.lock().unwrap().dropped).sum()
            }
            None => 0,
        }
    }

    /// Merges every sink's ring into one event list sorted by
    /// `(step, rank, t_ns, lane)` — the cross-thread/cross-rank timeline.
    /// Safe while producers run: each ring is copied whole under its lock,
    /// and a sink emitting meanwhile waits for that copy.
    pub fn events(&self) -> Vec<TraceEvent> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for ring in inner.rings.lock().unwrap().iter() {
            out.extend(ring.lock().unwrap().events.iter().copied());
        }
        out.sort_by_key(|e| (e.step, e.rank, e.t_ns, e.lane));
        out
    }
}

/// An event writer bound to one ring, for one producing thread. Inert when
/// obtained from a disabled tracer: every emit is a branch on `None`, with
/// no allocation and no clock read.
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    core: Option<(Arc<TracerInner>, Arc<Mutex<Ring>>)>,
    rank: u32,
    lane: u32,
}

impl TraceSink {
    /// An inert sink (what a disabled tracer hands out).
    pub fn disabled() -> Self {
        TraceSink::default()
    }

    /// Whether this sink writes into a live ring.
    pub fn enabled(&self) -> bool {
        self.core.is_some()
    }

    /// The rank this sink is tagged with.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Nanoseconds since the owning tracer's epoch (0 when disabled — the
    /// clock is not read).
    pub fn now_ns(&self) -> u64 {
        match &self.core {
            Some((inner, _)) => inner.epoch.elapsed().as_nanos() as u64,
            None => 0,
        }
    }

    /// Emits a fully-specified event (rank/lane are overridden with this
    /// sink's tags). A full ring drops its oldest event, counted.
    pub fn emit(&self, mut ev: TraceEvent) {
        if let Some((inner, ring)) = &self.core {
            ev.rank = self.rank;
            ev.lane = self.lane;
            let mut ring = ring.lock().unwrap();
            if ring.events.len() == inner.capacity {
                ring.events.pop_front();
                ring.dropped += 1;
            }
            ring.events.push_back(ev);
        }
    }

    /// Emits a phase interval that started at `start_ns` (from
    /// [`TraceSink::now_ns`]) and lasted `dur_ns`.
    pub fn phase(&self, step: u64, phase: Phase, start_ns: u64, dur_ns: u64) {
        self.emit(TraceEvent {
            t_ns: start_ns,
            dur_ns,
            step,
            rank: 0,
            lane: 0,
            kind: EventKind::Phase(phase),
        });
    }

    /// Emits a phase interval of `secs` seconds that ends now. A disabled
    /// sink reads no clock.
    pub fn phase_ended(&self, step: u64, phase: Phase, secs: f64) {
        let dur_ns = (secs * 1e9) as u64;
        self.phase(step, phase, self.now_ns().saturating_sub(dur_ns), dur_ns);
    }

    /// Emits an instantaneous marker (checkpoint / rollback / fault / comm)
    /// stamped with the current time.
    pub fn instant(&self, step: u64, kind: EventKind) {
        if self.enabled() {
            self.emit(TraceEvent { t_ns: self.now_ns(), dur_ns: 0, step, rank: 0, lane: 0, kind });
        }
    }

    /// Emits a send event for a wire unit of `sections` per-channel
    /// sections (1 for a bare message).
    #[allow(clippy::too_many_arguments)]
    pub fn send(
        &self,
        step: u64,
        channel: CommChannel,
        peer: u32,
        bytes: u64,
        sections: u16,
        epoch: u64,
    ) {
        self.instant(step, EventKind::Send { channel, peer, bytes, sections, epoch });
    }

    /// Emits a receive event for a wire unit of `sections` per-channel
    /// sections (1 for a bare message).
    #[allow(clippy::too_many_arguments)]
    pub fn recv(
        &self,
        step: u64,
        channel: CommChannel,
        peer: u32,
        bytes: u64,
        sections: u16,
        epoch: u64,
    ) {
        self.instant(step, EventKind::Recv { channel, peer, bytes, sections, epoch });
    }
}

/// Renders a merged event list in Chrome Trace Format — an object with a
/// `traceEvents` array loadable by `chrome://tracing` and Perfetto. Phase
/// intervals become complete (`"X"`) events, everything else becomes
/// instant (`"i"`) events; ranks map to `pid`, lanes to `tid`, and
/// process-name metadata rows label each rank.
pub fn chrome_trace(events: &[TraceEvent]) -> Json {
    let mut rows: Vec<Json> = Vec::with_capacity(events.len() + 8);
    let mut ranks: Vec<u32> = events.iter().map(|e| e.rank).collect();
    ranks.sort_unstable();
    ranks.dedup();
    for rank in ranks {
        rows.push(Json::Obj(vec![
            ("name".into(), Json::str("process_name")),
            ("ph".into(), Json::str("M")),
            ("pid".into(), Json::num(rank as f64)),
            ("tid".into(), Json::num(0.0)),
            ("args".into(), Json::Obj(vec![("name".into(), Json::str(format!("rank {rank}")))])),
        ]));
    }
    for ev in events {
        let us = |ns: u64| Json::num(ns as f64 / 1e3);
        let base = |name: String, ph: &str| {
            vec![
                ("name".to_string(), Json::str(name)),
                ("ph".to_string(), Json::str(ph)),
                ("ts".to_string(), us(ev.t_ns)),
                ("pid".to_string(), Json::num(ev.rank as f64)),
                ("tid".to_string(), Json::num(ev.lane as f64)),
            ]
        };
        let step = ("step".to_string(), Json::num(ev.step as f64));
        rows.push(match ev.kind {
            EventKind::Phase(p) => {
                let mut fields = base(p.name().to_string(), "X");
                fields.push(("dur".to_string(), us(ev.dur_ns)));
                fields.push(("cat".to_string(), Json::str("phase")));
                fields.push(("args".to_string(), Json::Obj(vec![step])));
                Json::Obj(fields)
            }
            EventKind::Send { channel, peer, bytes, sections, epoch }
            | EventKind::Recv { channel, peer, bytes, sections, epoch } => {
                let dir = if matches!(ev.kind, EventKind::Send { .. }) { "send" } else { "recv" };
                let mut fields = base(format!("{dir} {}", channel.name()), "i");
                fields.push(("s".to_string(), Json::str("t")));
                fields.push(("cat".to_string(), Json::str("comm")));
                fields.push((
                    "args".to_string(),
                    Json::Obj(vec![
                        step,
                        ("channel".to_string(), Json::str(channel.name())),
                        ("peer".to_string(), Json::num(peer as f64)),
                        ("bytes".to_string(), Json::num(bytes as f64)),
                        ("sections".to_string(), Json::num(sections as f64)),
                        ("epoch".to_string(), Json::num(epoch as f64)),
                    ]),
                ));
                Json::Obj(fields)
            }
            EventKind::Checkpoint | EventKind::Rollback | EventKind::Fault => {
                let name = match ev.kind {
                    EventKind::Checkpoint => "checkpoint",
                    EventKind::Rollback => "rollback",
                    _ => "fault",
                };
                let mut fields = base(name.to_string(), "i");
                fields.push(("s".to_string(), Json::str("g")));
                fields.push(("cat".to_string(), Json::str("recovery")));
                fields.push(("args".to_string(), Json::Obj(vec![step])));
                Json::Obj(fields)
            }
            EventKind::Health { peer, state } => {
                let name = match state {
                    0 => "healthy",
                    1 => "suspect",
                    _ => "dead",
                };
                let mut fields = base(format!("rank {peer} {name}"), "i");
                fields.push(("s".to_string(), Json::str("g")));
                fields.push(("cat".to_string(), Json::str("health")));
                fields.push((
                    "args".to_string(),
                    Json::Obj(vec![
                        step,
                        ("peer".to_string(), Json::num(peer as f64)),
                        ("state".to_string(), Json::str(name)),
                    ]),
                ));
                Json::Obj(fields)
            }
            EventKind::Redecompose { rank } => {
                let label = format!("re-decompose (lost rank {rank})");
                let mut fields = base(label, "i");
                fields.push(("s".to_string(), Json::str("g")));
                fields.push(("cat".to_string(), Json::str("recovery")));
                fields.push((
                    "args".to_string(),
                    Json::Obj(vec![step, ("lost_rank".to_string(), Json::num(rank as f64))]),
                ));
                Json::Obj(fields)
            }
        });
    }
    Json::Obj(vec![
        ("displayTimeUnit".to_string(), Json::str("ms")),
        ("traceEvents".to_string(), Json::Arr(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase_ev(step: u64, t_ns: u64, phase: Phase) -> TraceEvent {
        TraceEvent { t_ns, dur_ns: 10, step, rank: 0, lane: 0, kind: EventKind::Phase(phase) }
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let tr = Tracer::disabled();
        assert!(!tr.enabled());
        let sink = tr.sink(0, 0);
        assert!(!sink.enabled());
        sink.phase(1, Phase::Eval, 0, 100);
        sink.send(1, CommChannel::Ghosts, 2, 64, 1, 1);
        sink.instant(1, EventKind::Checkpoint);
        assert_eq!(sink.now_ns(), 0, "disabled sink must not read the clock");
        assert_eq!(tr.now_ns(), 0);
        assert!(tr.events().is_empty());
        assert_eq!(tr.dropped(), 0);
    }

    #[test]
    fn events_round_trip_through_the_ring() {
        let tr = Tracer::new();
        let sink = tr.sink(3, 1);
        sink.phase(7, Phase::Enumerate, 100, 50);
        sink.send(7, CommChannel::Forces, 5, 4096, 3, 7);
        sink.recv(7, CommChannel::Migrate, 2, 128, 1, 7);
        sink.instant(8, EventKind::Rollback);
        let evs = tr.events();
        assert_eq!(evs.len(), 4);
        assert_eq!(evs[0].kind, EventKind::Phase(Phase::Enumerate));
        assert_eq!(evs[0].t_ns, 100);
        assert_eq!(evs[0].dur_ns, 50);
        assert_eq!(evs[0].rank, 3);
        assert_eq!(evs[0].lane, 1);
        assert_eq!(
            evs[1].kind,
            EventKind::Send {
                channel: CommChannel::Forces,
                peer: 5,
                bytes: 4096,
                sections: 3,
                epoch: 7
            }
        );
        assert_eq!(
            evs[2].kind,
            EventKind::Recv {
                channel: CommChannel::Migrate,
                peer: 2,
                bytes: 128,
                sections: 1,
                epoch: 7
            }
        );
        assert_eq!(evs[3].kind, EventKind::Rollback);
        assert_eq!(evs[3].step, 8);
    }

    #[test]
    fn health_and_redecompose_events_round_trip() {
        let tr = Tracer::new();
        let sink = tr.sink(0, 0);
        sink.instant(4, EventKind::Health { peer: 6, state: 1 });
        sink.instant(5, EventKind::Health { peer: 6, state: 2 });
        sink.instant(5, EventKind::Redecompose { rank: 6 });
        let evs = tr.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].kind, EventKind::Health { peer: 6, state: 1 });
        assert_eq!(evs[1].kind, EventKind::Health { peer: 6, state: 2 });
        assert_eq!(evs[2].kind, EventKind::Redecompose { rank: 6 });
        // The chrome exporter labels the transitions for the timeline.
        let doc = chrome_trace(&evs).to_string();
        assert!(doc.contains("rank 6 suspect"), "{doc}");
        assert!(doc.contains("rank 6 dead"), "{doc}");
        assert!(doc.contains("re-decompose (lost rank 6)"), "{doc}");
    }

    #[test]
    fn wraparound_drops_oldest_and_counts_them() {
        let tr = Tracer::with_capacity(8);
        let sink = tr.sink(0, 0);
        for i in 0..20u64 {
            sink.phase(i, Phase::Eval, i * 10, 1);
        }
        assert_eq!(tr.dropped(), 12, "capacity 8, 20 written ⇒ 12 dropped");
        let evs = tr.events();
        assert_eq!(evs.len(), 8, "only the newest `capacity` events survive");
        // The survivors are exactly the 12..19 tail, in order.
        let steps: Vec<u64> = evs.iter().map(|e| e.step).collect();
        assert_eq!(steps, (12..20).collect::<Vec<_>>());
    }

    #[test]
    fn emitting_stays_bounded_in_steady_state() {
        // The ring is pre-sized at sink creation and never grows past its
        // capacity, so pushing never reallocates. We can't count
        // allocations directly here, but we can assert the ring accepts
        // unbounded writes and stays bounded.
        let tr = Tracer::with_capacity(4);
        let sink = tr.sink(0, 0);
        for i in 0..10_000u64 {
            sink.phase(i, Phase::Bin, i, 1);
        }
        assert_eq!(tr.events().len(), 4);
        assert_eq!(tr.dropped(), 9_996);
    }

    #[test]
    fn merge_orders_across_sinks_with_non_monotonic_cross_thread_timestamps() {
        let tr = Tracer::new();
        let a = tr.sink(0, 0);
        let b = tr.sink(1, 0);
        // Thread B's clock reads interleave non-monotonically with A's:
        // B emits step-1 events with *earlier* t_ns than A's step-1 events,
        // and A emits a step-2 event with an earlier t_ns than B's step-1.
        a.emit(phase_ev(1, 500, Phase::Eval));
        b.emit(TraceEvent { rank: 1, ..phase_ev(1, 100, Phase::Eval) });
        a.emit(phase_ev(2, 50, Phase::Bin));
        b.emit(TraceEvent { rank: 1, ..phase_ev(1, 400, Phase::Reduce) });
        a.emit(phase_ev(1, 200, Phase::Bin));
        let evs = tr.events();
        let key: Vec<(u64, u32, u64)> = evs.iter().map(|e| (e.step, e.rank, e.t_ns)).collect();
        // Sorted by (step, rank, t_ns): all step-1 first (rank 0 then rank
        // 1, each rank's events time-ordered), then step 2.
        assert_eq!(key, vec![(1, 0, 200), (1, 0, 500), (1, 1, 100), (1, 1, 400), (2, 0, 50)]);
    }

    #[test]
    fn concurrent_writers_lose_no_events_below_capacity() {
        let tr = Tracer::with_capacity(100_000);
        std::thread::scope(|scope| {
            for lane in 0..8u32 {
                let sink = tr.sink(0, lane);
                scope.spawn(move || {
                    for i in 0..1_000u64 {
                        sink.phase(i, Phase::Compute, i, 1);
                    }
                });
            }
        });
        assert_eq!(tr.events().len(), 8_000);
        assert_eq!(tr.dropped(), 0);
    }

    #[test]
    fn a_snapshot_taken_mid_write_returns_whole_events() {
        const WRITTEN: u64 = 200_000;
        const CAPACITY: usize = 4096;
        let tr = Tracer::with_capacity(CAPACITY);
        let sink = tr.sink(0, 0);
        // The writer pauses halfway until the reader has taken its first
        // snapshot, so the reader's loop overlaps the second half. The
        // reader waits before it asserts, so a failure cannot strand the
        // writer at the barrier.
        let halfway = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                for i in 0..WRITTEN {
                    if i == WRITTEN / 2 {
                        halfway.wait();
                    }
                    let kind = EventKind::Send {
                        channel: CommChannel::Ghosts,
                        peer: i as u32,
                        bytes: i,
                        sections: 1,
                        epoch: i,
                    };
                    sink.emit(TraceEvent { t_ns: i, dur_ns: i, step: i, rank: 0, lane: 0, kind });
                }
            });
            let mut first = true;
            loop {
                let finished = writer.is_finished();
                let evs = tr.events();
                if std::mem::take(&mut first) {
                    halfway.wait();
                }
                assert!(evs.len() <= CAPACITY);
                for ev in &evs {
                    let EventKind::Send { peer, bytes, epoch, .. } = ev.kind else {
                        panic!("not a send: {ev:?}");
                    };
                    let i = ev.step;
                    assert_eq!([ev.t_ns, ev.dur_ns, bytes, epoch, peer as u64], [i; 5], "{ev:?}");
                }
                assert!(evs.windows(2).all(|w| w[1].step == w[0].step + 1), "gap in a snapshot");
                if finished {
                    break;
                }
            }
        });
        assert_eq!(tr.events().len() as u64 + tr.dropped(), WRITTEN);
    }

    #[test]
    fn chrome_trace_format_is_loadable_json() {
        let tr = Tracer::new();
        let s0 = tr.sink(0, 0);
        let s1 = tr.sink(1, 0);
        s0.phase(1, Phase::Eval, 1000, 500);
        s1.send(1, CommChannel::Ghosts, 0, 64, 2, 1);
        s1.instant(2, EventKind::Checkpoint);
        let doc = chrome_trace(&tr.events());
        let text = doc.to_string();
        let parsed = Json::parse(&text).unwrap();
        let rows = parsed.get("traceEvents").unwrap().as_array().unwrap();
        // 2 metadata rows (one per rank) + 3 events.
        assert_eq!(rows.len(), 5);
        let phase_row = rows.iter().find(|r| r.get("ph").unwrap().as_str() == Some("X")).unwrap();
        assert_eq!(phase_row.get("name").unwrap().as_str(), Some("eval"));
        assert_eq!(phase_row.get("ts").unwrap().as_f64(), Some(1.0));
        assert_eq!(phase_row.get("dur").unwrap().as_f64(), Some(0.5));
        let send_row =
            rows.iter().find(|r| r.get("name").unwrap().as_str() == Some("send ghosts")).unwrap();
        assert_eq!(send_row.get("ph").unwrap().as_str(), Some("i"));
        assert_eq!(send_row.get("args").unwrap().get("bytes").unwrap().as_f64(), Some(64.0));
        assert_eq!(send_row.get("args").unwrap().get("sections").unwrap().as_f64(), Some(2.0));
    }
}
