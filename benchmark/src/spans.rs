//! The harness's own span recorder: spans around every call into a layer,
//! held in memory and written as a Chrome trace when the run ends.

use sc_obs::json::Json;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span in the same recording.
    pub parent: Option<usize>,
    /// Thread lane (0 = the harness thread, 1.. = serve clients).
    pub tid: u32,
    /// The repeat or job the span belongs to.
    pub repeat: u32,
}

/// Handle returned by [`Recorder::begin`]; `None` when recording is off.
pub type SpanId = Option<usize>;

/// A single-threaded span recorder. Recording off costs one branch.
pub struct Recorder {
    epoch: Instant,
    tid: u32,
    on: bool,
    repeat: u32,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant, tid: u32, on: bool) -> Self {
        Recorder { epoch, tid, on, repeat: 0, open: Vec::new(), spans: Vec::new() }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Sets the repeat/job id stamped on spans begun from now on.
    pub fn set_repeat(&mut self, repeat: u32) {
        self.repeat = repeat;
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &str) -> SpanId {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
            tid: self.tid,
            repeat: self.repeat,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes a span (and any span left open inside it).
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let now = self.now_us();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_us = now;
            if top == id {
                break;
            }
        }
    }

    /// Records an already-measured interval as a child of the innermost
    /// open span.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let us = |t: Instant| t.duration_since(self.epoch).as_secs_f64() * 1e6;
        self.spans.push(Span {
            name: name.to_string(),
            start_us: us(start),
            end_us: us(end),
            parent: self.open.last().copied(),
            tid: self.tid,
            repeat: self.repeat,
        });
    }

    /// Appends another thread's recording, keeping its parent links.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover (children clipped to the parent's interval).
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(|s| s.end_us - s.start_us).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let covered = s.end_us.min(spans[p].end_us) - s.start_us.max(spans[p].start_us);
            own[p] -= covered.max(0.0);
        }
    }
    own
}

/// Total self time per span name, largest first.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(String, f64, usize)> {
    let own = self_times_us(spans);
    let mut by_name: Vec<(String, f64, usize)> = Vec::new();
    for (s, t) in spans.iter().zip(own) {
        match by_name.iter_mut().find(|(n, _, _)| *n == s.name) {
            Some(e) => {
                e.1 += t;
                e.2 += 1;
            }
            None => by_name.push((s.name.clone(), t, 1)),
        }
    }
    by_name.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("span times are finite"));
    by_name
}

/// Chrome trace events (`ph: "X"`) for one workload's spans; `pid` tells
/// workloads apart when several are merged into one file.
pub fn chrome_events(spans: &[Span], pid: u32, workload: &str) -> Vec<Json> {
    spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            Json::Obj(vec![
                ("name".into(), Json::str(&s.name)),
                ("cat".into(), Json::str(s.name.split('.').next().unwrap_or("bench"))),
                ("ph".into(), Json::str("X")),
                ("ts".into(), Json::num(s.start_us)),
                ("dur".into(), Json::num(s.end_us - s.start_us)),
                ("pid".into(), Json::num(f64::from(pid))),
                ("tid".into(), Json::num(f64::from(s.tid))),
                (
                    "args".into(),
                    Json::Obj(vec![
                        ("id".into(), Json::num(id as f64)),
                        ("parent".into(), s.parent.map_or(Json::Null, |p| Json::num(p as f64))),
                        ("workload".into(), Json::str(workload)),
                        ("repeat".into(), Json::num(f64::from(s.repeat))),
                    ]),
                ),
            ])
        })
        .collect()
}

/// Wraps events into the Chrome trace document Perfetto loads.
pub fn chrome_document(events: Vec<Json>) -> Json {
    Json::Obj(vec![
        ("traceEvents".into(), Json::Arr(events)),
        ("displayTimeUnit".into(), Json::str("ms")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span { name: name.into(), start_us: start, end_us: end, parent, tid: 0, repeat: 0 }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("repeat", 0.0, 100.0, None),
            span("step", 10.0, 40.0, Some(0)),
            span("probe", 15.0, 25.0, Some(1)),
            span("step", 50.0, 90.0, Some(0)),
        ];
        assert_eq!(self_times_us(&spans), vec![30.0, 20.0, 10.0, 40.0]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name[0], ("step".to_string(), 60.0, 2));
    }

    #[test]
    fn a_child_running_past_its_parent_is_clipped() {
        let spans = vec![span("a", 0.0, 10.0, None), span("b", 5.0, 20.0, Some(0))];
        assert_eq!(self_times_us(&spans)[0], 5.0);
    }

    #[test]
    fn recorder_nests_and_merges() {
        let epoch = Instant::now();
        let mut rec = Recorder::new(epoch, 0, true);
        let outer = rec.begin("outer");
        let inner = rec.begin("inner");
        rec.end(inner);
        rec.end(outer);
        let mut other = Recorder::new(epoch, 1, true);
        let a = other.begin("job");
        let b = other.begin("serve.submit");
        other.end(b);
        other.end(a);
        rec.absorb(other);
        let s = rec.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert_eq!(s[3].tid, 1);
        assert!(s.iter().all(|x| x.end_us >= x.start_us));
        let doc = chrome_document(chrome_events(s, 3, "w"));
        let again = Json::parse(&doc.to_string()).expect("trace is valid JSON");
        assert_eq!(again.get("traceEvents").and_then(Json::as_array).map(<[Json]>::len), Some(4));
    }

    #[test]
    fn a_recorder_that_is_off_records_nothing() {
        let mut rec = Recorder::new(Instant::now(), 0, false);
        let id = rec.begin("x");
        rec.end(id);
        rec.record("y", Instant::now(), Instant::now());
        assert!(rec.spans().is_empty());
    }
}
