//! The TCP server: accept loop, per-connection threads, admission,
//! disconnect-wired cancellation, and fault application.
//!
//! One thread per connection, frames handled in order per connection.
//! Failure isolation is per-connection by construction: a malformed,
//! truncated or oversized frame gets a typed `error` response (when the
//! socket can still carry one) and drops *that* connection; the listener
//! and every other connection keep serving.
//!
//! Telemetry discipline: each connection gets its own trace lane
//! (labelled `conn-N`) carrying strictly sequential `accept` / `queue` /
//! `rung` / `respond` spans — never nested, so the per-lane stack
//! discipline the Chrome-trace checker enforces holds under any
//! interleaving. Queue depth is a trace-only counter track; the
//! deterministic counter stream gets exactly one `service.*` push per
//! counter, at shutdown.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, TryRecvError};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use super::protocol::{self, FrameError, Request, Response, MAX_REQUEST_FRAME};
use super::{faults, ServiceState};
use crate::solver::CancelToken;

/// Trace lanes below this are the analysis engine's (coordinator +
/// shards); per-connection service lanes start here.
const SERVICE_LANE_BASE: u32 = 1000;

/// How often blocked reads and the accept loop re-check shutdown.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Delay before a `cancel-mid-rung` fault fires: long enough for the
/// supervised run to enter its first rung, short enough to interrupt it.
const MID_RUNG_DELAY: Duration = Duration::from_millis(10);

/// A running server: the bound listener plus its shutdown flag.
pub struct Server {
    state: Arc<ServiceState>,
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
}

/// Handle for a server spawned on a background thread (tests and the
/// daemon's signal-free orderly stop).
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Binds the listener. `addr` is a `host:port` pair; port 0 picks a
    /// free one (read it back from [`Server::local_addr`]).
    pub fn bind(state: Arc<ServiceState>, addr: &str) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            state,
            listener,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A flag that stops the accept loop when set.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Runs the accept loop until shutdown. Connection threads are
    /// joined before returning, then the service counters are flushed
    /// into the deterministic counter stream.
    pub fn run(self) {
        let mut conns: Vec<thread::JoinHandle<()>> = Vec::new();
        let mut next_conn = 0u64;
        while !self.shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    next_conn += 1;
                    let conn_id = next_conn;
                    let state = Arc::clone(&self.state);
                    let shutdown = Arc::clone(&self.shutdown);
                    conns.push(thread::spawn(move || {
                        serve_connection(state, stream, conn_id, shutdown);
                    }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    thread::sleep(POLL_INTERVAL);
                }
                Err(_) => break,
            }
            // Reap finished connection threads so a long-lived daemon
            // does not accumulate handles.
            conns.retain(|h| !h.is_finished());
        }
        for handle in conns {
            let _ = handle.join();
        }
        self.state.counters.flush(&self.state.config.telemetry);
    }

    /// Spawns [`Server::run`] on a background thread.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let shutdown = self.shutdown_flag();
        let thread = thread::spawn(move || self.run());
        Ok(ServerHandle {
            addr,
            shutdown,
            thread: Some(thread),
        })
    }
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Requests shutdown and joins the server thread.
    pub fn stop(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// What reading the next request frame yielded.
enum ConnRead {
    Frame(Vec<u8>),
    /// Peer closed cleanly between frames.
    Closed,
    /// Daemon shutdown while idle.
    Shutdown,
    /// Framing failure — answer if possible, then drop the connection.
    Bad(FrameError),
}

/// Reads one frame, polling so the daemon's shutdown flag is honored
/// while idle between frames. Mid-frame timeouts keep waiting (a slow
/// client is not an error) unless shutdown is requested.
fn read_request(stream: &mut TcpStream, shutdown: &AtomicBool) -> ConnRead {
    let mut header = [0u8; 4];
    match poll_read_full(stream, &mut header, shutdown, true) {
        PollRead::Done => {}
        PollRead::Eof { got: 0 } => return ConnRead::Closed,
        PollRead::Eof { got } => return ConnRead::Bad(FrameError::Truncated { got, want: 4 }),
        PollRead::Shutdown => return ConnRead::Shutdown,
        PollRead::Err(e) => return ConnRead::Bad(FrameError::Io(e)),
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_REQUEST_FRAME {
        return ConnRead::Bad(FrameError::Oversized {
            len,
            max: MAX_REQUEST_FRAME,
        });
    }
    let mut payload = vec![0u8; len];
    match poll_read_full(stream, &mut payload, shutdown, false) {
        PollRead::Done => ConnRead::Frame(payload),
        PollRead::Eof { got } => ConnRead::Bad(FrameError::Truncated { got, want: len }),
        PollRead::Shutdown => ConnRead::Shutdown,
        PollRead::Err(e) => ConnRead::Bad(FrameError::Io(e)),
    }
}

enum PollRead {
    Done,
    Eof { got: usize },
    Shutdown,
    Err(String),
}

fn poll_read_full(
    stream: &mut TcpStream,
    buf: &mut [u8],
    shutdown: &AtomicBool,
    idle_ok: bool,
) -> PollRead {
    let mut got = 0;
    while got < buf.len() {
        // Between frames (idle_ok, nothing read yet) shutdown exits
        // cleanly; mid-frame it also exits — the daemon is going away
        // and the connection with it.
        if shutdown.load(Ordering::SeqCst) {
            return PollRead::Shutdown;
        }
        match stream.read(&mut buf[got..]) {
            Ok(0) => return PollRead::Eof { got },
            Ok(n) => got += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                let _ = idle_ok; // both cases poll; the flag documents intent
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return PollRead::Err(e.to_string()),
        }
    }
    PollRead::Done
}

/// Watches a connection for client disconnect while a query runs, and
/// cancels the request token when the peer goes away. Uses `peek` so
/// pipelined follow-up frames are left in the socket for the main loop.
///
/// Dropping the monitor drops `stop`, which wakes the thread's wait at
/// once, and joins the thread. A thread blocked in `peek` returns as soon
/// as the client's next frame arrives, so in a closed loop the handler
/// reads that frame without first waiting out a 50 ms poll.
struct DisconnectMonitor {
    stop: Option<mpsc::Sender<()>>,
    thread: Option<thread::JoinHandle<()>>,
}

impl DisconnectMonitor {
    fn watch(stream: &TcpStream, token: CancelToken) -> Option<DisconnectMonitor> {
        const POLL: Duration = Duration::from_millis(50);
        let peek = stream.try_clone().ok()?;
        peek.set_read_timeout(Some(POLL)).ok()?;
        let (stop, stopped) = mpsc::channel::<()>();
        let thread = thread::spawn(move || {
            let mut byte = [0u8; 1];
            loop {
                match peek.peek(&mut byte) {
                    // EOF: the client hung up — cancel the request.
                    Ok(0) => {
                        token.cancel();
                        return;
                    }
                    // Pipelined data waiting: the client is alive. Wait
                    // for `stop` instead of spinning on the instantly-ready
                    // peek.
                    Ok(_) => {
                        if stopped.recv_timeout(POLL) != Err(RecvTimeoutError::Timeout) {
                            return;
                        }
                    }
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        if stopped.try_recv() != Err(TryRecvError::Empty) {
                            return;
                        }
                    }
                    // Any hard error counts as a disconnect.
                    Err(_) => {
                        token.cancel();
                        return;
                    }
                }
            }
        });
        Some(DisconnectMonitor {
            stop: Some(stop),
            thread: Some(thread),
        })
    }
}

impl Drop for DisconnectMonitor {
    fn drop(&mut self) {
        drop(self.stop.take());
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Writes a response frame, applying the `drop-after-bytes` fault when
/// armed for this request: the truncated prefix is written and the
/// socket shut down, simulating a peer that died mid-response.
fn write_response(
    stream: &mut TcpStream,
    payload: &[u8],
    drop_after: Option<u64>,
) -> std::io::Result<()> {
    match drop_after {
        None => protocol::write_frame(stream, payload),
        Some(n) => {
            let mut framed = (payload.len() as u32).to_be_bytes().to_vec();
            framed.extend_from_slice(payload);
            framed.truncate(n as usize);
            stream.write_all(&framed)?;
            stream.flush()?;
            stream.shutdown(std::net::Shutdown::Both)
        }
    }
}

/// One connection's life: decode frames, run queries, answer in order.
fn serve_connection(
    state: Arc<ServiceState>,
    mut stream: TcpStream,
    conn_id: u64,
    shutdown: Arc<AtomicBool>,
) {
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_nodelay(true);
    let lane = SERVICE_LANE_BASE + (conn_id % 1_000_000) as u32;
    let tele = state.config.telemetry.clone();
    if let Some(t) = tele.as_deref() {
        t.set_lane_label(lane, &format!("conn-{conn_id}"));
        let now = t.now_us();
        t.complete_span(lane, "accept", now, now, vec![]);
    }
    loop {
        let payload = match read_request(&mut stream, &shutdown) {
            ConnRead::Frame(payload) => payload,
            ConnRead::Closed | ConnRead::Shutdown => return,
            ConnRead::Bad(e) => {
                // Best-effort typed error, then drop this connection —
                // the framing is no longer trustworthy.
                let resp = Response::Error {
                    message: e.to_string(),
                };
                let _ = protocol::write_frame(&mut stream, resp.render().as_bytes());
                return;
            }
        };
        let request = match Request::parse(&payload) {
            Ok(request) => request,
            Err(e) => {
                // A parse failure is recoverable: framing is intact, so
                // answer and keep serving this connection.
                let resp = Response::Error {
                    message: format!("bad request: {e}"),
                };
                if protocol::write_frame(&mut stream, resp.render().as_bytes()).is_err() {
                    return;
                }
                continue;
            }
        };
        match request {
            Request::Ping => {
                if protocol::write_frame(&mut stream, Response::Ok.render().as_bytes()).is_err() {
                    return;
                }
            }
            Request::Shutdown => {
                let _ = protocol::write_frame(&mut stream, Response::Ok.render().as_bytes());
                shutdown.store(true, Ordering::SeqCst);
                return;
            }
            Request::Query(query) => {
                let req = state.next_ordinal();
                let faults = &state.config.faults;
                if faults.garbage_frame(req) {
                    let _ = protocol::write_frame(&mut stream, &faults::garbage_payload(req));
                    continue;
                }
                let drop_after = faults.drop_after_bytes(req);

                // Admission: accepted (possibly after queueing) or shed
                // right here — never accepted and then dropped.
                let queue_start = tele.as_deref().map(|t| t.now_us());
                let guard = match state.admission().enter() {
                    Ok(guard) => guard,
                    Err(shed) => {
                        state
                            .counters
                            .shed
                            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let resp = Response::Busy {
                            retry_after_ms: shed.retry_after_ms,
                        };
                        if write_response(&mut stream, resp.render().as_bytes(), drop_after)
                            .is_err()
                            || drop_after.is_some()
                        {
                            return;
                        }
                        continue;
                    }
                };
                state
                    .counters
                    .accepted
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if let (Some(t), Some(start)) = (tele.as_deref(), queue_start) {
                    let now = t.now_us();
                    t.complete_span(
                        lane,
                        "queue",
                        start,
                        now,
                        vec![("req".to_owned(), req.to_string())],
                    );
                    let (active, waiting) = state.admission().occupancy();
                    t.sample("service.queue_depth", waiting as u64);
                    t.sample("service.active_requests", active as u64);
                }

                // Stall fault: sleep while holding the admission slot,
                // so concurrent arrivals pile up behind this request.
                if let Some(ms) = faults.stall_ms(req) {
                    thread::sleep(Duration::from_millis(ms));
                }

                // Cancellation: wired to client disconnect for the whole
                // run, and to the mid-rung fault when armed.
                let token = CancelToken::new();
                let _monitor = DisconnectMonitor::watch(&stream, token.clone());
                let _midrung = faults.cancel_mid_rung(req).then(|| {
                    let token = token.clone();
                    thread::spawn(move || {
                        thread::sleep(MID_RUNG_DELAY);
                        token.cancel();
                    })
                });

                let rung_start = tele.as_deref().map(|t| t.now_us());
                let executed = state.execute(&query, token);
                drop(guard);
                if executed.degraded {
                    state
                        .counters
                        .degraded
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
                if let (Some(t), Some(start)) = (tele.as_deref(), rung_start) {
                    let now = t.now_us();
                    t.complete_span(
                        lane,
                        "rung",
                        start,
                        now,
                        vec![
                            ("req".to_owned(), req.to_string()),
                            ("kind".to_owned(), query.kind.clone()),
                        ],
                    );
                }
                if let Some(handle) = _midrung {
                    let _ = handle.join();
                }

                let respond_start = tele.as_deref().map(|t| t.now_us());
                let wrote = write_response(
                    &mut stream,
                    executed.response.render().as_bytes(),
                    drop_after,
                );
                if let (Some(t), Some(start)) = (tele.as_deref(), respond_start) {
                    let now = t.now_us();
                    t.complete_span(lane, "respond", start, now, vec![]);
                }
                if wrote.is_err() || drop_after.is_some() {
                    return;
                }
            }
        }
    }
}
