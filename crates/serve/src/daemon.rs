//! The `scmd serve` daemon: a JSON-lines request loop over a local Unix
//! socket, multiplexing clients onto the [`Scheduler`].
//!
//! Each accepted connection gets its own thread, so a client streaming a
//! `watch` subscription (the one verb that holds its connection open)
//! never blocks submissions or status queries from other clients; at most
//! [`MAX_CONNECTIONS`] are served at once. An
//! optional TCP listener ([`DaemonConfig::metrics_addr`]) serves the
//! merged daemon + per-job Prometheus text exposition over plain HTTP
//! for scrapers that do not speak the socket protocol.

use crate::job::JobId;
use crate::metrics::{exposition, BuildInfo};
use crate::protocol::{Request, Response};
use crate::scheduler::{DumpError, Scheduler, SchedulerConfig, SubmitError, WatchError};
use crate::watch::WatchEvent;
use sc_obs::json::Json;
use sc_spec::ScenarioSpec;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// The Unix socket path clients connect to.
    pub socket: PathBuf,
    /// Scheduler policy (lanes, capacity, slice, state directory).
    pub scheduler: SchedulerConfig,
    /// Reload persisted jobs from the state directory on startup.
    pub resume: bool,
    /// Optional TCP address (e.g. `127.0.0.1:9184`; port `0` picks a free
    /// one) serving the Prometheus text exposition over HTTP.
    pub metrics_addr: Option<String>,
}

/// A bound, running job service.
pub struct Daemon {
    scheduler: Arc<Scheduler>,
    listener: UnixListener,
    socket: PathBuf,
    metrics_listener: Option<TcpListener>,
}

impl Daemon {
    /// Starts the scheduler and binds the socket (and the metrics TCP
    /// listener, when configured). A stale socket file from a killed
    /// daemon is replaced; a live one (something answers a connect) is an
    /// error.
    ///
    /// # Errors
    /// Socket binding or state-directory I/O problems, or another daemon
    /// already serving on the path.
    pub fn bind(cfg: DaemonConfig) -> std::io::Result<Daemon> {
        if cfg.socket.exists() {
            if UnixStream::connect(&cfg.socket).is_ok() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::AddrInUse,
                    format!("a daemon is already serving on {}", cfg.socket.display()),
                ));
            }
            std::fs::remove_file(&cfg.socket)?;
        }
        if let Some(parent) = cfg.socket.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let metrics_listener = match &cfg.metrics_addr {
            Some(addr) => Some(TcpListener::bind(addr)?),
            None => None,
        };
        let scheduler = Arc::new(Scheduler::new(cfg.scheduler, cfg.resume)?);
        let listener = UnixListener::bind(&cfg.socket)?;
        Ok(Daemon { scheduler, listener, socket: cfg.socket, metrics_listener })
    }

    /// Jobs currently in the table (any state) — startup reporting.
    pub fn job_count(&self) -> usize {
        self.scheduler.list().len()
    }

    /// The metrics listener's bound address (resolves port `0`), when
    /// configured — for startup reporting and tests.
    pub fn metrics_local_addr(&self) -> Option<SocketAddr> {
        self.metrics_listener.as_ref().and_then(|l| l.local_addr().ok())
    }

    /// Serves connections (one thread each, at most [`MAX_CONNECTIONS`]
    /// at once) until a client sends `shutdown`, then parks in-flight jobs
    /// resumably and removes the socket. Connection threads are detached:
    /// an idle client cannot hold the daemon open, and open watch streams
    /// end with a `watch-end` line when the scheduler parks their jobs. A
    /// connection beyond the cap gets one `busy` error line and is closed;
    /// a failed accept or thread spawn drops only that connection.
    ///
    /// # Errors
    /// A failure to start the metrics listener's thread.
    pub fn run(self) -> std::io::Result<()> {
        let stop = Arc::new(AtomicBool::new(false));
        let build = Arc::new(BuildInfo::current());
        if let Some(listener) = self.metrics_listener {
            let scheduler = Arc::clone(&self.scheduler);
            let stop = Arc::clone(&stop);
            let build = Arc::clone(&build);
            std::thread::Builder::new()
                .name("sc-serve-metrics".to_string())
                .spawn(move || metrics_loop(&listener, &scheduler, &build, &stop))?;
        }
        // Every connection thread holds a clone: the count beyond this one
        // is the connections open.
        let open = Arc::new(());
        for stream in self.listener.incoming() {
            let Ok(mut stream) = stream else {
                // The peer hung up before the accept, or descriptors ran
                // out for a moment: drop this one and keep serving.
                std::thread::sleep(Duration::from_millis(10));
                continue;
            };
            if stop.load(Ordering::SeqCst) {
                break;
            }
            if Arc::strong_count(&open) > MAX_CONNECTIONS {
                let message = format!("the daemon serves at most {MAX_CONNECTIONS} connections");
                let _ = write_line(&mut stream, &Response::Error { code: "busy".into(), message });
                continue;
            }
            let slot = Arc::clone(&open);
            let scheduler = Arc::clone(&self.scheduler);
            let stop = Arc::clone(&stop);
            let build = Arc::clone(&build);
            let socket = self.socket.clone();
            // A failed spawn drops the closure, and with it the connection
            // and its slot.
            let _ =
                std::thread::Builder::new().name("sc-serve-conn".to_string()).spawn(move || {
                    let _slot = slot;
                    if let Ok(true) = serve_connection(stream, &scheduler, &build) {
                        // Shutdown requested: raise the flag, then self-connect
                        // to wake the accept loop blocked in `incoming`.
                        stop.store(true, Ordering::SeqCst);
                        let _ = UnixStream::connect(&socket);
                    }
                });
        }
        let _ = std::fs::remove_file(&self.socket);
        self.scheduler.shutdown();
        Ok(())
    }
}

/// The most connections the daemon serves at once. Each holds a thread
/// (an idle client included), so the cap bounds what clients can make the
/// daemon hold.
pub const MAX_CONNECTIONS: usize = 64;

/// Serves Prometheus scrapes: any HTTP request on the listener answers
/// with the full merged exposition. Non-blocking accept so the loop can
/// observe shutdown.
fn metrics_loop(
    listener: &TcpListener,
    scheduler: &Scheduler,
    build: &BuildInfo,
    stop: &AtomicBool,
) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                // Drain the request head (path is ignored: every GET gets
                // the exposition), then answer and close.
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
                let mut head = [0u8; 4096];
                let _ = stream.read(&mut head);
                let body = exposition(&scheduler.daemon_metrics(), &scheduler.job_metrics(), build);
                let _ = write!(
                    stream,
                    "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
                     Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                    body.len()
                );
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(_) => return,
        }
    }
}

/// The longest request line a connection may send. A longer one is
/// answered `bad-request` and ends the connection, so a client that never
/// sends `\n` cannot grow the daemon's memory without bound. (A `submit`
/// of the largest checked-in scenario is well under 1 KiB.)
const MAX_REQUEST_BYTES: u64 = 1 << 20;

/// Handles one client connection; returns whether shutdown was requested.
fn serve_connection(
    stream: UnixStream,
    scheduler: &Scheduler,
    build: &BuildInfo,
) -> std::io::Result<bool> {
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // One byte past the limit tells an over-long line from one that fits.
        let read = (&mut reader).take(MAX_REQUEST_BYTES + 1).read_until(b'\n', &mut buf)?;
        if read == 0 {
            return Ok(false);
        }
        if read as u64 > MAX_REQUEST_BYTES && buf.last() != Some(&b'\n') {
            let limit = format!("request line exceeds {MAX_REQUEST_BYTES} bytes");
            write_line(&mut writer, &bad_request(limit))?;
            return Ok(false);
        }
        let Ok(line) = std::str::from_utf8(&buf).map(str::trim) else {
            write_line(&mut writer, &bad_request("request line is not UTF-8"))?;
            continue;
        };
        if line.is_empty() {
            continue;
        }
        let req = match Json::parse(line)
            .map_err(|e| e.to_string())
            .and_then(|doc| Request::from_json(&doc))
        {
            Ok(req) => req,
            Err(e) => {
                write_line(&mut writer, &bad_request(e))?;
                continue;
            }
        };
        // Watch is the one streaming verb: it takes over the connection
        // and closes it when the stream ends.
        if let Request::Watch { id, every } = req {
            stream_watch(&mut writer, scheduler, &id, every)?;
            return Ok(false);
        }
        let (resp, stop) = handle_request(req, scheduler, build);
        write_line(&mut writer, &resp)?;
        if stop {
            return Ok(true);
        }
    }
}

fn write_line(writer: &mut UnixStream, resp: &Response) -> std::io::Result<()> {
    writer.write_all(resp.to_json().to_string().as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

/// Streams one watch subscription: a `watching` acknowledgement, then
/// `telemetry` lines at the subscriber's cadence, then `watch-end` when
/// the job goes terminal. A write failure (client gone) just ends the
/// thread; the lane-side queue is bounded, so the orphaned subscription
/// costs a fixed amount of memory until the job finishes.
fn stream_watch(
    writer: &mut UnixStream,
    scheduler: &Scheduler,
    id: &str,
    every: Option<u64>,
) -> std::io::Result<()> {
    let jid = match JobId::parse(id) {
        Some(jid) => jid,
        None => return write_line(writer, &bad_request(format!("'{id}' is not a job-<n> id"))),
    };
    let handle = match scheduler.watch(jid, every) {
        Ok(handle) => handle,
        Err(e) => {
            let code = match e {
                WatchError::UnknownJob => "unknown-job",
                WatchError::Terminal(_) => "not-watchable",
            };
            let resp = Response::Error { code: code.to_string(), message: format!("{jid}: {e}") };
            return write_line(writer, &resp);
        }
    };
    write_line(writer, &Response::Watching { id: id.to_string(), every: handle.every() })?;
    loop {
        match handle.recv(Duration::from_millis(500)) {
            WatchEvent::Snapshot { seq, dropped, doc } => {
                write_line(writer, &Response::Telemetry { id: id.to_string(), seq, dropped, doc })?;
            }
            WatchEvent::End { state, dropped } => {
                return write_line(
                    writer,
                    &Response::WatchEnd { id: id.to_string(), state, dropped },
                );
            }
            // Quiet stream (paused lanes, long slices): keep waiting; a
            // dead client surfaces as a write error on the next event.
            WatchEvent::TimedOut => {}
        }
    }
}

fn bad_request(message: impl Into<String>) -> Response {
    Response::Error { code: "bad-request".to_string(), message: message.into() }
}

/// Routes one parsed request (every verb except the streaming `watch`).
fn handle_request(req: Request, scheduler: &Scheduler, build: &BuildInfo) -> (Response, bool) {
    let resp = match req {
        Request::Ping => Response::Pong { jobs: scheduler.list().len() as u64 },
        Request::Submit { spec } => match ScenarioSpec::from_json(&spec) {
            Ok(spec) => match scheduler.submit(spec) {
                Ok(id) => Response::Submitted { id: id.to_string() },
                Err(e) => Response::Error {
                    code: match &e {
                        SubmitError::QueueFull { .. } => "queue-full",
                        SubmitError::Spec(_) => "bad-spec",
                        SubmitError::Unservable(_) => "unservable",
                        SubmitError::ShuttingDown => "shutting-down",
                    }
                    .to_string(),
                    message: e.to_string(),
                },
            },
            Err(e) => Response::Error { code: "bad-spec".to_string(), message: e.to_string() },
        },
        Request::Status { id: None } => {
            Response::Status { jobs: scheduler.list().iter().map(|r| r.to_json()).collect() }
        }
        Request::Status { id: Some(id) } => match parse_id(&id) {
            Err(resp) => resp,
            Ok(id) => match scheduler.status(id) {
                Some(record) => Response::Status { jobs: vec![record.to_json()] },
                None => unknown_job(id),
            },
        },
        Request::Cancel { id } => match parse_id(&id) {
            Err(resp) => resp,
            Ok(id) => {
                if scheduler.cancel(id) {
                    Response::Cancelled { id: id.to_string() }
                } else if scheduler.status(id).is_some() {
                    Response::Error {
                        code: "not-cancellable".to_string(),
                        message: format!("{id} is already terminal"),
                    }
                } else {
                    unknown_job(id)
                }
            }
        },
        Request::Results { id } => match parse_id(&id) {
            Err(resp) => resp,
            Ok(id) => match (scheduler.status(id), scheduler.results(id)) {
                (Some(_), Some(doc)) => Response::Results { id: id.to_string(), doc },
                (Some(record), None) => Response::Error {
                    code: "not-done".to_string(),
                    message: format!(
                        "{id} is {} ({}/{} steps)",
                        record.state, record.steps_done, record.total_steps
                    ),
                },
                (None, _) => unknown_job(id),
            },
        },
        Request::Watch { .. } => {
            bad_request("watch is a streaming verb; it must own its connection")
        }
        Request::Metrics => Response::Metrics {
            text: exposition(&scheduler.daemon_metrics(), &scheduler.job_metrics(), build),
        },
        Request::Dump { id } => match parse_id(&id) {
            Err(resp) => resp,
            Ok(jid) => match scheduler.dump(jid) {
                Ok(d) => Response::Dump {
                    id: jid.to_string(),
                    step: d.step,
                    events: d.events,
                    dropped: d.dropped,
                    trace: d.doc,
                },
                Err(e) => Response::Error {
                    code: match e {
                        DumpError::UnknownJob => "unknown-job",
                        DumpError::NotStarted => "not-running",
                        DumpError::Disabled => "trace-disabled",
                    }
                    .to_string(),
                    message: format!("{jid}: {e}"),
                },
            },
        },
        Request::Shutdown => return (Response::ShuttingDown, true),
    };
    (resp, false)
}

fn parse_id(id: &str) -> Result<JobId, Response> {
    JobId::parse(id).ok_or_else(|| bad_request(format!("'{id}' is not a job-<n> id")))
}

fn unknown_job(id: JobId) -> Response {
    Response::Error { code: "unknown-job".to_string(), message: format!("no such job {id}") }
}
