//! Request-line framing against an in-process daemon: a line longer than
//! the daemon's limit is refused by name and ends its connection, a line
//! that is not UTF-8 is answered `bad-request` while the connection keeps
//! serving, and neither disturbs other clients.

use sc_obs::json::Json;
use sc_serve::client::request;
use sc_serve::{Daemon, DaemonConfig, Request, Response, SchedulerConfig};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::Duration;

/// A daemon serving on a fresh socket; the client side sets a read timeout
/// so a daemon that never answers fails the test instead of hanging it.
struct Served {
    dir: PathBuf,
    socket: PathBuf,
    thread: JoinHandle<std::io::Result<()>>,
}

fn serve(tag: &str) -> Served {
    let dir = std::env::temp_dir().join(format!("sc-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("d.sock");
    let daemon = Daemon::bind(DaemonConfig {
        socket: socket.clone(),
        scheduler: SchedulerConfig { lanes: 1, ..SchedulerConfig::default() },
        resume: false,
        metrics_addr: None,
    })
    .unwrap();
    let thread = std::thread::spawn(move || daemon.run());
    Served { dir, socket, thread }
}

impl Served {
    fn connect(&self) -> (UnixStream, BufReader<UnixStream>) {
        let stream = UnixStream::connect(&self.socket).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        (stream, reader)
    }

    /// A fresh connection's `status` still answers, then the daemon stops.
    fn still_serves_then_stop(self) {
        assert!(matches!(
            request(&self.socket, &Request::Status { id: None }),
            Ok(Response::Status { .. })
        ));
        assert!(matches!(request(&self.socket, &Request::Shutdown), Ok(Response::ShuttingDown)));
        self.thread.join().unwrap().unwrap();
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// Reads one response line; a timeout or a closed connection is a failure.
fn response(reader: &mut BufReader<UnixStream>) -> Response {
    let mut line = String::new();
    let read = reader.read_line(&mut line).expect("the daemon answers before the timeout");
    assert!(read > 0, "the daemon closed the connection without answering");
    Response::from_json(&Json::parse(&line).unwrap()).unwrap()
}

fn bad_request(resp: Response) -> String {
    match resp {
        Response::Error { code, message } if code == "bad-request" => message,
        other => panic!("expected bad-request, got {other:?}"),
    }
}

#[test]
fn an_oversized_line_gets_the_limit_error_and_ends_its_connection() {
    let served = serve("oversized");
    let (stream, mut reader) = served.connect();
    // 2 MiB and no newline. The daemon stops reading at its limit, so the
    // tail of this write may meet a closed socket; that is expected.
    let mut writer = stream.try_clone().unwrap();
    let flood = std::thread::spawn(move || {
        let _ = writer.write_all(&vec![b'x'; 2 << 20]);
    });
    let message = bad_request(response(&mut reader));
    assert!(message.contains("exceeds 1048576 bytes"), "{message}");
    // Closed: end of stream, or a reset because the flood was left unread.
    let mut rest = String::new();
    match reader.read_line(&mut rest) {
        Ok(0) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("the connection must be closed, got {other:?} {rest:?}"),
    }
    flood.join().unwrap();
    served.still_serves_then_stop();
}

#[test]
fn a_non_utf8_line_gets_bad_request_and_the_connection_keeps_serving() {
    let served = serve("non-utf8");
    let (mut stream, mut reader) = served.connect();
    stream.write_all(&[0xff, 0xfe, b'\n']).unwrap();
    stream.write_all(b"{\"verb\":\"ping\"}\n").unwrap();
    let message = bad_request(response(&mut reader));
    assert!(message.contains("UTF-8"), "{message}");
    assert!(matches!(response(&mut reader), Response::Pong { .. }));
    drop((stream, reader));
    served.still_serves_then_stop();
}
