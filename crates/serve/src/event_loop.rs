//! Non-blocking event-loop serving core.
//!
//! One thread owns every connection. Sockets are registered with a
//! [`Poller`] and handled on readiness: incoming bytes accumulate in a
//! per-connection read buffer, every complete frame in the buffer is
//! answered immediately (this is what makes pipelining pay — a client
//! with 32 requests in flight gets all 32 answered per wake-up), and
//! responses accumulate in a per-connection write buffer that drains as
//! the socket accepts bytes. No thread is ever parked on a single
//! connection, so thousands of idle clients cost one sleeping thread.
//!
//! Both buffers are bounded. A read pass ends once the read buffer holds
//! more than one maximal frame, and a connection whose unsent output
//! exceeds [`OUTPUT_LIMIT`] is neither read from nor answered until the
//! peer drains it: its read interest is dropped, and registration is
//! level-triggered, so the unread bytes wait in the kernel. A client
//! that pipelines requests without reading replies therefore stalls on
//! its own socket instead of growing server memory.
//!
//! Protocol versions, the v2 handshake, and request-id correlation are
//! all inside [`Session`].

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use flowkv_common::error::{Result, StoreError};

use crate::poll::{PollEvent, Poller};
use crate::protocol::{peek_frame, FRAME_HEADER, MAX_FRAME};
use crate::server::{ServeShared, Session};

/// Poll tick: how often the loop re-checks the shutdown flag and idle
/// deadlines even when no socket is ready.
const TICK: Duration = Duration::from_millis(25);

/// The listening socket's poller token; connections start at 1.
const LISTENER_TOKEN: u64 = 0;

/// Bytes read per `read(2)` call while draining a readable socket.
const READ_CHUNK: usize = 64 * 1024;

/// Unsent output beyond which a connection stops being read from and
/// answered. One maximal frame: a single answer may still exceed it.
const OUTPUT_LIMIT: usize = MAX_FRAME;

/// Buffered input at which a read pass ends: one maximal frame.
const INPUT_LIMIT: usize = FRAME_HEADER + MAX_FRAME;

/// Tunables handed from the [`ServerBuilder`](crate::server::ServerBuilder).
pub(crate) struct EventLoopConfig {
    /// Accepted connections beyond this are closed immediately.
    pub max_connections: usize,
    /// Connections with no complete frame for this long are closed;
    /// `None` keeps idle connections forever.
    pub idle_timeout: Option<Duration>,
}

struct Conn {
    stream: TcpStream,
    session: Session,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    write_pos: usize,
    last_active: Instant,
    /// The (read, write) interest currently registered with the poller.
    interest: (bool, bool),
    eof: bool,
}

impl Conn {
    fn unsent(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    /// False while the peer owes us a drain of [`OUTPUT_LIMIT`] bytes.
    fn has_output_room(&self) -> bool {
        self.unsent() <= OUTPUT_LIMIT
    }
}

/// Registers the (already non-blocking) listener with a new poller and
/// starts the event loop on its own thread, which runs until `stop` is
/// raised.
pub(crate) fn start(
    listener: TcpListener,
    shared: Arc<ServeShared>,
    stop: Arc<AtomicBool>,
    cfg: EventLoopConfig,
) -> Result<JoinHandle<()>> {
    let poller = Poller::new()?;
    poller.register(listener.as_raw_fd(), LISTENER_TOKEN, true, false)?;
    std::thread::Builder::new()
        .name("flowkv-serve-core".into())
        .spawn(move || run(poller, listener, shared, stop, cfg))
        .map_err(|e| StoreError::io("state server core thread", e))
}

fn run(
    poller: Poller,
    listener: TcpListener,
    shared: Arc<ServeShared>,
    stop: Arc<AtomicBool>,
    cfg: EventLoopConfig,
) {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token: u64 = LISTENER_TOKEN + 1;
    let mut events: Vec<PollEvent> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        events.clear();
        if poller.wait(&mut events, Some(TICK)).is_err() {
            break;
        }
        for ev in &events {
            if ev.token == LISTENER_TOKEN {
                accept_ready(
                    &poller,
                    &listener,
                    &mut conns,
                    &mut next_token,
                    &shared,
                    &cfg,
                );
                continue;
            }
            let Some(conn) = conns.get_mut(&ev.token) else {
                // Closed earlier in this batch (e.g. error + readable
                // arrived together).
                continue;
            };
            let mut close = ev.error;
            if !close && ev.readable && conn.has_output_room() {
                close = read_socket(conn, &shared);
            }
            if !close && (ev.readable || ev.writable) {
                close = answer_and_flush(conn, &shared);
            }
            if !close && conn.eof && conn.unsent() == 0 {
                close = true;
            }
            if close {
                close_conn(&poller, &mut conns, ev.token, &shared);
            } else {
                update_interest(&poller, ev.token, conn);
            }
        }
        if let Some(idle) = cfg.idle_timeout {
            let now = Instant::now();
            let dead: Vec<u64> = conns
                .iter()
                .filter(|(_, c)| now.duration_since(c.last_active) > idle)
                .map(|(t, _)| *t)
                .collect();
            for t in dead {
                close_conn(&poller, &mut conns, t, &shared);
            }
        }
    }
    // Responses already computed should reach clients: one final flush
    // attempt per connection before everything is dropped.
    for conn in conns.values_mut() {
        let _ = flush(conn, &shared);
    }
    if let Some(p) = &shared.probes {
        p.connections_open.set(0);
    }
}

fn accept_ready(
    poller: &Poller,
    listener: &TcpListener,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
    shared: &ServeShared,
    cfg: &EventLoopConfig,
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if conns.len() >= cfg.max_connections {
                    drop(stream);
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let token = *next_token;
                *next_token += 1;
                if poller
                    .register(stream.as_raw_fd(), token, true, false)
                    .is_err()
                {
                    continue;
                }
                conns.insert(
                    token,
                    Conn {
                        stream,
                        session: Session::new(),
                        read_buf: Vec::new(),
                        write_buf: Vec::new(),
                        write_pos: 0,
                        last_active: Instant::now(),
                        interest: (true, false),
                        eof: false,
                    },
                );
                if let Some(p) = &shared.probes {
                    p.connections_total.inc();
                    p.connections_open.set(conns.len() as i64);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(_) => break,
        }
    }
}

/// Reads the socket into the read buffer until it would block, the peer
/// closes, or the buffer holds more than one maximal frame. Returns
/// `true` when the connection must be closed.
fn read_socket(conn: &mut Conn, shared: &ServeShared) -> bool {
    let mut tmp = [0u8; READ_CHUNK];
    while conn.read_buf.len() <= INPUT_LIMIT {
        match conn.stream.read(&mut tmp) {
            Ok(0) => {
                conn.eof = true;
                break;
            }
            Ok(n) => {
                conn.read_buf.extend_from_slice(&tmp[..n]);
                if let Some(p) = &shared.probes {
                    p.bytes_read.add(n as u64);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return true,
        }
    }
    false
}

/// Answers buffered frames and flushes, repeating while a flush frees
/// output room for frames still waiting. Returns `true` when the
/// connection must be closed.
fn answer_and_flush(conn: &mut Conn, shared: &ServeShared) -> bool {
    loop {
        let Some(more) = answer_frames(conn, shared) else {
            return true;
        };
        if flush(conn, shared) {
            return true;
        }
        if !more || !conn.has_output_room() {
            return false;
        }
    }
}

/// Answers complete buffered frames until none is left or the output
/// limit is reached. Returns whether frames were left waiting for room,
/// or `None` when the connection must be closed.
fn answer_frames(conn: &mut Conn, shared: &ServeShared) -> Option<bool> {
    let mut consumed = 0usize;
    let mut frames = 0u64;
    let mut more = false;
    loop {
        match peek_frame(&conn.read_buf[consumed..]) {
            Ok(Some(_)) if !conn.has_output_room() => {
                more = true;
                break;
            }
            Ok(Some((used, range))) => {
                let payload = &conn.read_buf[consumed + range.start..consumed + range.end];
                if conn
                    .session
                    .handle(shared, payload, &mut conn.write_buf)
                    .is_err()
                {
                    return None;
                }
                consumed += used;
                frames += 1;
            }
            Ok(None) => break,
            // A malformed length prefix poisons the whole stream: there
            // is no way to resynchronise on frame boundaries.
            Err(_) => return None,
        }
    }
    if consumed > 0 {
        conn.read_buf.drain(..consumed);
    }
    if frames > 0 {
        conn.last_active = Instant::now();
        if let Some(p) = &shared.probes {
            p.pipeline_depth.record(frames);
        }
    }
    Some(more)
}

/// Writes as much buffered output as the socket accepts. Returns `true`
/// when the connection must be closed.
fn flush(conn: &mut Conn, shared: &ServeShared) -> bool {
    while conn.write_pos < conn.write_buf.len() {
        match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
            Ok(0) => return true,
            Ok(n) => {
                conn.write_pos += n;
                if let Some(p) = &shared.probes {
                    p.bytes_written.add(n as u64);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return true,
        }
    }
    if conn.write_pos > 0 && conn.unsent() == 0 {
        conn.write_buf.clear();
        conn.write_pos = 0;
    }
    false
}

/// Reads only while there is output room; writes only while output is
/// pending.
fn update_interest(poller: &Poller, token: u64, conn: &mut Conn) {
    let want = (conn.has_output_room(), conn.unsent() > 0);
    if want != conn.interest
        && poller
            .modify(conn.stream.as_raw_fd(), token, want.0, want.1)
            .is_ok()
    {
        conn.interest = want;
    }
}

fn close_conn(poller: &Poller, conns: &mut HashMap<u64, Conn>, token: u64, shared: &ServeShared) {
    if let Some(conn) = conns.remove(&token) {
        let _ = poller.deregister(conn.stream.as_raw_fd());
        if let Some(p) = &shared.probes {
            p.connections_open.set(conns.len() as i64);
        }
    }
}
