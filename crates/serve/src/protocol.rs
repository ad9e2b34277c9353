//! The JSON-lines wire protocol between `scmd` clients and the daemon.
//!
//! One request per line, one response line back, over a local Unix
//! socket. Requests carry a `verb`; responses carry `ok` plus
//! verb-specific payload, or `ok: false` with a machine-readable `code`
//! and a human-readable `message`.

use sc_obs::json::Json;

/// Schema identifier stamped on every response line.
pub const PROTOCOL_SCHEMA_ID: &str = "sc-serve/1";

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answers with the job count.
    Ping,
    /// Submit a scenario spec (the spec document, inline).
    Submit {
        /// The scenario document, as parsed JSON.
        spec: Json,
    },
    /// Report one job (`Some(id)`) or all jobs (`None`).
    Status {
        /// `job-<n>`, or `None` for the full table.
        id: Option<String>,
    },
    /// Cancel a queued or running job.
    Cancel {
        /// `job-<n>`.
        id: String,
    },
    /// Fetch a finished job's observables document.
    Results {
        /// `job-<n>`.
        id: String,
    },
    /// Subscribe to a running job's telemetry stream. The daemon answers
    /// with `Watching`, then pushes `Telemetry` lines until the job goes
    /// terminal (`WatchEnd`) — the one streaming verb in the protocol.
    Watch {
        /// `job-<n>`.
        id: String,
        /// Snapshot cadence in steps (`None` or `0`: every slice
        /// boundary).
        every: Option<u64>,
    },
    /// Fetch the merged Prometheus text exposition (daemon + jobs).
    Metrics,
    /// Snapshot a running job's flight-recorder trace ring.
    Dump {
        /// `job-<n>`.
        id: String,
    },
    /// Checkpoint in-flight jobs and stop the daemon.
    Shutdown,
}

impl Request {
    /// Encodes to one wire line (no trailing newline).
    pub fn to_json(&self) -> Json {
        let mut fields = Vec::new();
        match self {
            Request::Ping => fields.push(verb("ping")),
            Request::Submit { spec } => {
                fields.push(verb("submit"));
                fields.push(("spec".to_string(), spec.clone()));
            }
            Request::Status { id } => {
                fields.push(verb("status"));
                if let Some(id) = id {
                    fields.push(("id".to_string(), Json::str(id)));
                }
            }
            Request::Cancel { id } => {
                fields.push(verb("cancel"));
                fields.push(("id".to_string(), Json::str(id)));
            }
            Request::Results { id } => {
                fields.push(verb("results"));
                fields.push(("id".to_string(), Json::str(id)));
            }
            Request::Watch { id, every } => {
                fields.push(verb("watch"));
                fields.push(("id".to_string(), Json::str(id)));
                if let Some(every) = every {
                    fields.push(("every".to_string(), Json::num(*every as f64)));
                }
            }
            Request::Metrics => fields.push(verb("metrics")),
            Request::Dump { id } => {
                fields.push(verb("dump"));
                fields.push(("id".to_string(), Json::str(id)));
            }
            Request::Shutdown => fields.push(verb("shutdown")),
        }
        Json::Obj(fields)
    }

    /// Decodes one wire line; the error is a human-readable reason.
    pub fn from_json(doc: &Json) -> Result<Request, String> {
        let verb = doc
            .get("verb")
            .and_then(Json::as_str)
            .ok_or_else(|| "request has no 'verb'".to_string())?;
        let id = || -> Result<String, String> {
            doc.get("id")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("'{verb}' needs an 'id'"))
        };
        Ok(match verb {
            "ping" => Request::Ping,
            "submit" => {
                Request::Submit { spec: doc.get("spec").cloned().ok_or("'submit' needs a 'spec'")? }
            }
            "status" => {
                Request::Status { id: doc.get("id").and_then(Json::as_str).map(str::to_string) }
            }
            "cancel" => Request::Cancel { id: id()? },
            "results" => Request::Results { id: id()? },
            "watch" => Request::Watch {
                id: id()?,
                every: match doc.get("every") {
                    None => None,
                    Some(v) => Some(
                        Json::as_f64(v)
                            .filter(|e| *e >= 0.0 && e.fract() == 0.0)
                            .map(|e| e as u64)
                            .ok_or("'watch' 'every' must be a non-negative integer")?,
                    ),
                },
            },
            "metrics" => Request::Metrics,
            "dump" => Request::Dump { id: id()? },
            "shutdown" => Request::Shutdown,
            other => return Err(format!("unknown verb {other:?}")),
        })
    }
}

/// A daemon response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The daemon is alive and tracking `jobs` jobs.
    Pong {
        /// Jobs in the table (any state).
        jobs: u64,
    },
    /// The spec was accepted as `id`.
    Submitted {
        /// The new job's `job-<n>` identity.
        id: String,
    },
    /// Job records (one, or the whole table).
    Status {
        /// Each entry is a job manifest document.
        jobs: Vec<Json>,
    },
    /// The job was cancelled.
    Cancelled {
        /// The cancelled job's identity.
        id: String,
    },
    /// A finished job's observables document.
    Results {
        /// The job's identity.
        id: String,
        /// The `sc-observables/1` document.
        doc: Json,
    },
    /// Watch subscription accepted; `Telemetry` lines follow.
    Watching {
        /// The watched job's identity.
        id: String,
        /// The effective snapshot cadence in steps (`0`: every slice).
        every: u64,
    },
    /// One streamed telemetry snapshot of a watched job.
    Telemetry {
        /// The watched job's identity.
        id: String,
        /// Snapshot sequence number (counts dropped snapshots too, so
        /// gaps in `seq` are visible to the client).
        seq: u64,
        /// Cumulative snapshots lost to this subscriber's queue overflow.
        dropped: u64,
        /// The `sc-metrics/1` telemetry document.
        doc: Json,
    },
    /// A watch stream ended: the job went terminal (or the daemon shut
    /// down); the connection closes after this line.
    WatchEnd {
        /// The watched job's identity.
        id: String,
        /// The job's state at stream end.
        state: String,
        /// Total snapshots this subscriber lost over the stream.
        dropped: u64,
    },
    /// The merged Prometheus text exposition.
    Metrics {
        /// The exposition document (text format 0.0.4).
        text: String,
    },
    /// A flight-recorder snapshot of a (typically running) job.
    Dump {
        /// The dumped job's identity.
        id: String,
        /// The job's `steps_done` at snapshot time.
        step: u64,
        /// Events captured in the trace document.
        events: u64,
        /// Ring-overflow drops since the job started.
        dropped: u64,
        /// The Chrome Trace Format document.
        trace: Json,
    },
    /// The daemon acknowledged shutdown and will stop accepting work.
    ShuttingDown,
    /// The request was rejected.
    Error {
        /// Machine-readable code (`queue-full`, `bad-spec`, `unknown-job`,
        /// `not-done`, `not-watchable`, `not-running`, `trace-disabled`,
        /// `bad-request`, `shutting-down`, `busy`).
        code: String,
        /// Human-readable reason.
        message: String,
    },
}

impl Response {
    /// Encodes to one wire line (no trailing newline).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![("schema".to_string(), Json::str(PROTOCOL_SCHEMA_ID))];
        let mut ok = |v: &str| {
            fields.push(("ok".to_string(), Json::Bool(true)));
            fields.push(verb(v));
        };
        match self {
            Response::Pong { jobs } => {
                ok("pong");
                fields.push(("jobs".to_string(), Json::num(*jobs as f64)));
            }
            Response::Submitted { id } => {
                ok("submitted");
                fields.push(("id".to_string(), Json::str(id)));
            }
            Response::Status { jobs } => {
                ok("status");
                fields.push(("jobs".to_string(), Json::Arr(jobs.clone())));
            }
            Response::Cancelled { id } => {
                ok("cancelled");
                fields.push(("id".to_string(), Json::str(id)));
            }
            Response::Results { id, doc } => {
                ok("results");
                fields.push(("id".to_string(), Json::str(id)));
                fields.push(("results".to_string(), doc.clone()));
            }
            Response::Watching { id, every } => {
                ok("watching");
                fields.push(("id".to_string(), Json::str(id)));
                fields.push(("every".to_string(), Json::num(*every as f64)));
            }
            Response::Telemetry { id, seq, dropped, doc } => {
                ok("telemetry");
                fields.push(("id".to_string(), Json::str(id)));
                fields.push(("seq".to_string(), Json::num(*seq as f64)));
                fields.push(("dropped".to_string(), Json::num(*dropped as f64)));
                fields.push(("telemetry".to_string(), doc.clone()));
            }
            Response::WatchEnd { id, state, dropped } => {
                ok("watch-end");
                fields.push(("id".to_string(), Json::str(id)));
                fields.push(("state".to_string(), Json::str(state)));
                fields.push(("dropped".to_string(), Json::num(*dropped as f64)));
            }
            Response::Metrics { text } => {
                ok("metrics");
                fields.push(("text".to_string(), Json::str(text)));
            }
            Response::Dump { id, step, events, dropped, trace } => {
                ok("dump");
                fields.push(("id".to_string(), Json::str(id)));
                fields.push(("step".to_string(), Json::num(*step as f64)));
                fields.push(("events".to_string(), Json::num(*events as f64)));
                fields.push(("dropped".to_string(), Json::num(*dropped as f64)));
                fields.push(("trace".to_string(), trace.clone()));
            }
            Response::ShuttingDown => ok("shutting-down"),
            Response::Error { code, message } => {
                fields.push(("ok".to_string(), Json::Bool(false)));
                fields.push(("code".to_string(), Json::str(code)));
                fields.push(("message".to_string(), Json::str(message)));
            }
        }
        Json::Obj(fields)
    }

    /// Decodes one wire line; the error is a human-readable reason.
    pub fn from_json(doc: &Json) -> Result<Response, String> {
        let ok = doc
            .get("ok")
            .and_then(Json::as_bool)
            .ok_or_else(|| "response has no 'ok'".to_string())?;
        if !ok {
            return Ok(Response::Error {
                code: doc.get("code").and_then(Json::as_str).unwrap_or("unknown").to_string(),
                message: doc.get("message").and_then(Json::as_str).unwrap_or_default().to_string(),
            });
        }
        let verb = doc
            .get("verb")
            .and_then(Json::as_str)
            .ok_or_else(|| "response has no 'verb'".to_string())?;
        let id = || -> Result<String, String> {
            doc.get("id")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("'{verb}' response has no 'id'"))
        };
        let num = |k: &str| -> Result<u64, String> {
            doc.get(k)
                .and_then(Json::as_f64)
                .filter(|v| *v >= 0.0 && v.fract() == 0.0)
                .map(|v| v as u64)
                .ok_or_else(|| format!("'{verb}' response has no '{k}'"))
        };
        Ok(match verb {
            "pong" => Response::Pong {
                jobs: doc.get("jobs").and_then(Json::as_f64).unwrap_or(0.0) as u64,
            },
            "submitted" => Response::Submitted { id: id()? },
            "status" => Response::Status {
                jobs: doc
                    .get("jobs")
                    .and_then(Json::as_array)
                    .ok_or("'status' response has no 'jobs'")?
                    .to_vec(),
            },
            "cancelled" => Response::Cancelled { id: id()? },
            "results" => Response::Results {
                id: id()?,
                doc: doc.get("results").cloned().ok_or("'results' response has no 'results'")?,
            },
            "watching" => Response::Watching { id: id()?, every: num("every")? },
            "telemetry" => Response::Telemetry {
                id: id()?,
                seq: num("seq")?,
                dropped: num("dropped")?,
                doc: doc
                    .get("telemetry")
                    .cloned()
                    .ok_or("'telemetry' response has no 'telemetry'")?,
            },
            "watch-end" => Response::WatchEnd {
                id: id()?,
                state: doc
                    .get("state")
                    .and_then(Json::as_str)
                    .ok_or("'watch-end' response has no 'state'")?
                    .to_string(),
                dropped: num("dropped")?,
            },
            "metrics" => Response::Metrics {
                text: doc
                    .get("text")
                    .and_then(Json::as_str)
                    .ok_or("'metrics' response has no 'text'")?
                    .to_string(),
            },
            "dump" => Response::Dump {
                id: id()?,
                step: num("step")?,
                events: num("events")?,
                dropped: num("dropped")?,
                trace: doc.get("trace").cloned().ok_or("'dump' response has no 'trace'")?,
            },
            "shutting-down" => Response::ShuttingDown,
            other => return Err(format!("unknown response verb {other:?}")),
        })
    }
}

fn verb(v: &str) -> (String, Json) {
    ("verb".to_string(), Json::str(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let line = req.to_json().to_string();
        let back = Request::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, req, "{line}");
    }

    fn round_trip_response(resp: Response) {
        let line = resp.to_json().to_string();
        let back = Response::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, resp, "{line}");
    }

    #[test]
    fn every_request_round_trips() {
        round_trip_request(Request::Ping);
        round_trip_request(Request::Submit {
            spec: Json::Obj(vec![("name".to_string(), Json::str("lj"))]),
        });
        round_trip_request(Request::Status { id: None });
        round_trip_request(Request::Status { id: Some("job-2".to_string()) });
        round_trip_request(Request::Cancel { id: "job-2".to_string() });
        round_trip_request(Request::Results { id: "job-2".to_string() });
        round_trip_request(Request::Watch { id: "job-2".to_string(), every: None });
        round_trip_request(Request::Watch { id: "job-2".to_string(), every: Some(0) });
        round_trip_request(Request::Watch { id: "job-2".to_string(), every: Some(50) });
        round_trip_request(Request::Metrics);
        round_trip_request(Request::Dump { id: "job-2".to_string() });
        round_trip_request(Request::Shutdown);
    }

    #[test]
    fn every_response_round_trips() {
        round_trip_response(Response::Pong { jobs: 3 });
        round_trip_response(Response::Submitted { id: "job-0".to_string() });
        round_trip_response(Response::Status { jobs: vec![Json::Obj(vec![])] });
        round_trip_response(Response::Cancelled { id: "job-1".to_string() });
        round_trip_response(Response::Results {
            id: "job-1".to_string(),
            doc: Json::Obj(vec![("steps".to_string(), Json::num(4.0))]),
        });
        round_trip_response(Response::Watching { id: "job-1".to_string(), every: 25 });
        round_trip_response(Response::Telemetry {
            id: "job-1".to_string(),
            seq: 4,
            dropped: 1,
            doc: Json::Obj(vec![("steps".to_string(), Json::num(100.0))]),
        });
        round_trip_response(Response::WatchEnd {
            id: "job-1".to_string(),
            state: "done".to_string(),
            dropped: 2,
        });
        round_trip_response(Response::Metrics {
            text: "# TYPE serve_queue_depth gauge\nserve_queue_depth 1\n".to_string(),
        });
        round_trip_response(Response::Dump {
            id: "job-1".to_string(),
            step: 40,
            events: 128,
            dropped: 0,
            trace: Json::Obj(vec![("traceEvents".to_string(), Json::Arr(vec![]))]),
        });
        round_trip_response(Response::ShuttingDown);
        round_trip_response(Response::Error {
            code: "queue-full".to_string(),
            message: "8 jobs live".to_string(),
        });
    }

    #[test]
    fn malformed_requests_are_rejected_with_reasons() {
        for (line, needle) in [
            (r#"{"no": "verb"}"#, "no 'verb'"),
            (r#"{"verb": "warp"}"#, "unknown verb"),
            (r#"{"verb": "submit"}"#, "needs a 'spec'"),
            (r#"{"verb": "cancel"}"#, "needs an 'id'"),
            (r#"{"verb": "watch"}"#, "needs an 'id'"),
            (r#"{"verb": "watch", "id": "job-1", "every": -5}"#, "non-negative"),
            (r#"{"verb": "dump"}"#, "needs an 'id'"),
        ] {
            let e = Request::from_json(&Json::parse(line).unwrap()).unwrap_err();
            assert!(e.contains(needle), "{line} -> {e}");
        }
    }
}
