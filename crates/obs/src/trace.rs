//! Event-level tracing: bounded, lock-free per-thread ring buffers of
//! [`TraceEvent`]s, a cross-thread/cross-rank merge, and a Chrome Trace
//! Format exporter (`chrome://tracing` / Perfetto loadable).
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
//! - **The hot path is lock-free and bounded.** A [`TraceSink`] writes into
//!   its own fixed-capacity ring of atomic words: a write claims a slot
//!   with one `fetch_add` and stores eight words — no locks, no heap, no
//!   waiting. When the ring wraps, the oldest events are overwritten (and
//!   counted as dropped); emitting never blocks.
//! - **Disabled mode is free.** [`Tracer::disabled`] hands out inert sinks
//!   that perform no allocation and never read the clock, so engines can
//!   instrument unconditionally.
//! - **Merging is offline.** [`Tracer::events`] snapshots every registered
//!   ring and sorts by `(step, rank, timestamp)` — the merge key that makes
//!   per-rank timelines comparable even though each thread's ring fills at
//!   its own rate. Slots that are mid-overwrite at snapshot time are
//!   detected by a per-slot sequence word and skipped, never torn.

use crate::json::Json;
use crate::phase::Phase;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Words of ring storage per event (see the encoding in `encode`).
const WORDS: usize = 8;

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

    fn code(self) -> u64 {
        match self {
            CommChannel::Migrate => 0,
            CommChannel::Ghosts => 1,
            CommChannel::Forces => 2,
        }
    }

    fn from_code(code: u64) -> Option<CommChannel> {
        match code {
            0 => Some(CommChannel::Migrate),
            1 => Some(CommChannel::Ghosts),
            2 => Some(CommChannel::Forces),
            _ => None,
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
    /// The runtime re-decomposed the rank grid: either onto a surviving
    /// rank set after a rank was declared dead (`lost`), or as an adaptive
    /// load-balance refit with every rank retained.
    Redecompose {
        /// `lost`: the rank excluded from the new decomposition.
        /// Otherwise: the rank count of the refit grid.
        rank: u32,
        /// Whether a rank was lost (crash recovery) as opposed to an
        /// adaptive rebalance.
        lost: bool,
    },
}

/// One timestamped event, as decoded from a ring.
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

const TAG_PHASE: u64 = 0;
const TAG_SEND: u64 = 1;
const TAG_RECV: u64 = 2;
const TAG_CHECKPOINT: u64 = 3;
const TAG_ROLLBACK: u64 = 4;
const TAG_FAULT: u64 = 5;
const TAG_HEALTH: u64 = 6;
const TAG_REDECOMP: u64 = 7;

/// Encodes an event into ring words `w1..w7` (`w0` is the sequence word,
/// written by the ring itself).
fn encode(ev: &TraceEvent) -> [u64; WORDS - 1] {
    // Word 4 layout: tag in bits 56..63, code in 48..55, the send/recv
    // section count in 32..47, peer in 0..31.
    let (tag, code, peer, bytes, epoch, sections) = match ev.kind {
        EventKind::Phase(p) => (TAG_PHASE, p.index() as u64, 0, 0, 0, 0),
        EventKind::Send { channel, peer, bytes, epoch, sections } => {
            (TAG_SEND, channel.code(), peer, bytes, epoch, sections)
        }
        EventKind::Recv { channel, peer, bytes, epoch, sections } => {
            (TAG_RECV, channel.code(), peer, bytes, epoch, sections)
        }
        EventKind::Checkpoint => (TAG_CHECKPOINT, 0, 0, 0, 0, 0),
        EventKind::Rollback => (TAG_ROLLBACK, 0, 0, 0, 0, 0),
        EventKind::Fault => (TAG_FAULT, 0, 0, 0, 0, 0),
        EventKind::Health { peer, state } => (TAG_HEALTH, state as u64, peer, 0, 0, 0),
        EventKind::Redecompose { rank, lost } => (TAG_REDECOMP, lost as u64, rank, 0, 0, 0),
    };
    [
        ev.t_ns,
        ev.dur_ns,
        ev.step,
        (ev.rank as u64) << 32 | ev.lane as u64,
        tag << 56 | code << 48 | (sections as u64) << 32 | peer as u64,
        bytes,
        epoch,
    ]
}

fn decode(words: &[u64; WORDS - 1]) -> Option<TraceEvent> {
    let tag = words[4] >> 56;
    let code = (words[4] >> 48) & 0xff;
    let sections = ((words[4] >> 32) & 0xffff) as u16;
    let peer = (words[4] & 0xffff_ffff) as u32;
    let kind = match tag {
        TAG_PHASE => EventKind::Phase(Phase::from_index(code as usize)?),
        TAG_SEND => EventKind::Send {
            channel: CommChannel::from_code(code)?,
            peer,
            bytes: words[5],
            sections,
            epoch: words[6],
        },
        TAG_RECV => EventKind::Recv {
            channel: CommChannel::from_code(code)?,
            peer,
            bytes: words[5],
            sections,
            epoch: words[6],
        },
        TAG_CHECKPOINT => EventKind::Checkpoint,
        TAG_ROLLBACK => EventKind::Rollback,
        TAG_FAULT => EventKind::Fault,
        TAG_HEALTH => {
            if code > 2 {
                return None;
            }
            EventKind::Health { peer, state: code as u8 }
        }
        TAG_REDECOMP => EventKind::Redecompose { rank: peer, lost: code != 0 },
        _ => return None,
    };
    Some(TraceEvent {
        t_ns: words[0],
        dur_ns: words[1],
        step: words[2],
        rank: (words[3] >> 32) as u32,
        lane: (words[3] & 0xffff_ffff) as u32,
        kind,
    })
}

/// One bounded ring of events. All slot storage is atomic words, so writers
/// never lock and concurrent snapshots are data-race-free; a per-slot
/// sequence word detects (and skips) slots caught mid-overwrite.
#[derive(Debug)]
struct RingCore {
    capacity: usize,
    /// `capacity * WORDS` atomic words; slot `i` occupies
    /// `words[i*WORDS .. (i+1)*WORDS]`, word 0 holding `seq + 1`.
    words: Box<[AtomicU64]>,
    /// Total events ever claimed (monotonic; `min(written, capacity)` are
    /// live, the rest were overwritten — dropped oldest-first).
    written: AtomicU64,
}

impl RingCore {
    fn new(capacity: usize) -> Self {
        let n = capacity.max(1) * WORDS;
        RingCore {
            capacity: capacity.max(1),
            words: (0..n).map(|_| AtomicU64::new(0)).collect(),
            written: AtomicU64::new(0),
        }
    }

    fn push(&self, ev: &TraceEvent) {
        let seq = self.written.fetch_add(1, Ordering::Relaxed);
        let base = (seq as usize % self.capacity) * WORDS;
        // Invalidate the slot first so a concurrent snapshot never pairs the
        // new sequence word with stale payload words.
        self.words[base].store(0, Ordering::Release);
        for (i, w) in encode(ev).iter().enumerate() {
            self.words[base + 1 + i].store(*w, Ordering::Relaxed);
        }
        self.words[base].store(seq + 1, Ordering::Release);
    }

    fn dropped(&self) -> u64 {
        self.written.load(Ordering::Relaxed).saturating_sub(self.capacity as u64)
    }

    /// Snapshot the live events, oldest first. Slots claimed but not yet
    /// fully written (or overwritten mid-read) fail the sequence check and
    /// are skipped.
    fn snapshot(&self, out: &mut Vec<TraceEvent>) {
        let written = self.written.load(Ordering::Acquire);
        let live = written.min(self.capacity as u64);
        for seq in (written - live)..written {
            let base = (seq as usize % self.capacity) * WORDS;
            if self.words[base].load(Ordering::Acquire) != seq + 1 {
                continue;
            }
            let mut payload = [0u64; WORDS - 1];
            for (i, w) in payload.iter_mut().enumerate() {
                *w = self.words[base + 1 + i].load(Ordering::Relaxed);
            }
            // Re-check the sequence word: if it moved, the slot was being
            // overwritten while we read it.
            if self.words[base].load(Ordering::Acquire) != seq + 1 {
                continue;
            }
            if let Some(ev) = decode(&payload) {
                out.push(ev);
            }
        }
    }
}

#[derive(Debug)]
struct TracerInner {
    epoch: Instant,
    capacity: usize,
    /// Every ring ever handed out; locked only at sink creation.
    rings: Mutex<Vec<Arc<RingCore>>>,
}

/// A shared, clonable handle to one trace collection (or to the inert
/// disabled tracer). Hand [`Tracer::sink`] to each thread/rank; collect
/// with [`Tracer::events`] once the producers are quiescent.
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
                capacity,
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

    /// Creates a new per-thread sink writing into its own ring, tagged with
    /// `(rank, lane)`. Allocates the ring once here; emitting through the
    /// sink never allocates.
    pub fn sink(&self, rank: u32, lane: u32) -> TraceSink {
        let Some(inner) = &self.inner else {
            return TraceSink::disabled();
        };
        let ring = Arc::new(RingCore::new(inner.capacity));
        inner.rings.lock().unwrap().push(ring.clone());
        TraceSink { core: Some((inner.clone(), ring)), rank, lane }
    }

    /// Total events dropped to ring wraparound across every sink.
    pub fn dropped(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.rings.lock().unwrap().iter().map(|r| r.dropped()).sum(),
            None => 0,
        }
    }

    /// Merges every sink's ring into one event list sorted by
    /// `(step, rank, t_ns, lane)` — the cross-thread/cross-rank timeline.
    /// Call when producers are quiescent (between steps or after a run);
    /// slots being overwritten concurrently are skipped, not torn.
    pub fn events(&self) -> Vec<TraceEvent> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for ring in inner.rings.lock().unwrap().iter() {
            ring.snapshot(&mut out);
        }
        out.sort_by_key(|e| (e.step, e.rank, e.t_ns, e.lane));
        out
    }
}

/// A per-thread event writer bound to one ring. Inert when obtained from a
/// disabled tracer: every emit is a branch on `None`, with no allocation
/// and no clock read.
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    core: Option<(Arc<TracerInner>, Arc<RingCore>)>,
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
    /// sink's tags).
    pub fn emit(&self, mut ev: TraceEvent) {
        if let Some((_, ring)) = &self.core {
            ev.rank = self.rank;
            ev.lane = self.lane;
            ring.push(&ev);
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
            EventKind::Redecompose { rank, lost } => {
                let (label, cat, key) = if lost {
                    (format!("re-decompose (lost rank {rank})"), "recovery", "lost_rank")
                } else {
                    (format!("re-decompose (rebalance, {rank} ranks)"), "rebalance", "ranks")
                };
                let mut fields = base(label, "i");
                fields.push(("s".to_string(), Json::str("g")));
                fields.push(("cat".to_string(), Json::str(cat)));
                fields.push((
                    "args".to_string(),
                    Json::Obj(vec![step, (key.to_string(), Json::num(rank as f64))]),
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
        sink.instant(5, EventKind::Redecompose { rank: 6, lost: true });
        sink.instant(6, EventKind::Redecompose { rank: 8, lost: false });
        let evs = tr.events();
        assert_eq!(evs.len(), 4);
        assert_eq!(evs[0].kind, EventKind::Health { peer: 6, state: 1 });
        assert_eq!(evs[1].kind, EventKind::Health { peer: 6, state: 2 });
        assert_eq!(evs[2].kind, EventKind::Redecompose { rank: 6, lost: true });
        assert_eq!(evs[3].kind, EventKind::Redecompose { rank: 8, lost: false });
        // The chrome exporter labels the transitions for the timeline.
        let doc = chrome_trace(&evs).to_string();
        assert!(doc.contains("rank 6 suspect"), "{doc}");
        assert!(doc.contains("rank 6 dead"), "{doc}");
        assert!(doc.contains("re-decompose (lost rank 6)"), "{doc}");
        assert!(doc.contains("re-decompose (rebalance, 8 ranks)"), "{doc}");
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
    fn emitting_never_allocates_or_blocks_in_steady_state() {
        // The ring is fully pre-allocated at sink creation; pushing is a
        // fetch_add plus word stores. We can't count allocations directly
        // here, but we can assert the ring accepts unbounded writes and
        // stays bounded.
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
