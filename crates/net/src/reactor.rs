//! The event loops behind [`NetServer`](crate::NetServer): nonblocking
//! connection state machines multiplexed over the [`poll`](crate::poll)
//! abstraction, each driving a socket-free
//! [`Session`](crate::session::Session) per connection.
//!
//! # One tick
//!
//! 1. **Admit** — drain this loop's inbox of freshly accepted,
//!    already-nonblocking sockets; give each a fresh [`Session`].
//! 2. **Poll** — probe read readiness for every open, unpaused
//!    connection; connections with unflushed responses bound the wait.
//! 3. **Read** — pull up to 16 KiB per readable connection straight
//!    into its session's frame buffer (no intermediate chunk copy).
//! 4. **Serve** — one [`serve`] pass over every live, unpaused
//!    session. Each decodes its complete frames **in place** with the
//!    zero-copy [`peek_frame`](crate::wire::FrameBuffer::peek_frame)
//!    path; valid GET/PUT/DEL/BATCH operations from *every* connection
//!    merge into one run; STATS/PING and per-frame validation errors
//!    become immediate response slots. The merged run goes through one
//!    [`Kv::batch`](ff_store::Kv::batch) call — one log pass per
//!    touched shard for the whole tick, across connections, on the
//!    loop's one [`StoreClient`], minted on the loop's first run. Each
//!    session then encodes its responses in per-connection request
//!    order; a run error (divergence poisons the shard set; nothing
//!    partial is usable) answers every run slot with the same typed
//!    error. A decode error stages one id-0 `Malformed` frame and marks
//!    the session closing — length-prefixed framing cannot resync.
//! 5. **Flush** — attempted-write model: write until `WouldBlock`,
//!    killing peers stalled past [`WRITE_TIMEOUT`].
//! 6. **Reap** — dead connections drop the active count.
//!
//! On shutdown a loop runs one final serve/flush pass over everything
//! already buffered — bounded by [`WRITE_TIMEOUT`] — then retires its
//! client into the graveyard.
//!
//! Everything between the socket reads and the socket writes — frame
//! decoding, staging, validation, execution, response encoding, the
//! STATS counters — lives in [`session`](crate::session), whose
//! [`serve`] pass `ff-dst` drives over a simulated network with no
//! kernel socket anywhere; the reactor here is only the IO shell
//! around it.

use std::io::{ErrorKind, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ff_store::{Kv, KvOp, StoreClient, StoreError};
use parking_lot::Mutex;

use crate::poll::{Interest, PollSource, Readiness, ScanPoller};
use crate::server::Shared;
use crate::session::{serve, Session};
use crate::wire::ErrorCode;

/// Most bytes read per connection per tick — round-robin fairness, not
/// a frame bound.
const READ_CHUNK: usize = 16 * 1024;
/// A connection whose unflushed responses exceed this stops being read
/// until the peer drains it.
const PAUSE_WBUF: usize = 256 * 1024;
/// Upper bound on one poll call, so the loop re-checks its inbox and
/// the shutdown flag promptly.
const POLL_TICK: Duration = Duration::from_millis(5);
/// Sleep when the loop owns no connections at all.
const IDLE_EMPTY: Duration = Duration::from_millis(2);
/// Per-connection write stall bound — the backpressure limit on a peer
/// that stops draining responses, and the drain deadline at shutdown.
pub(crate) const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// The slice of server state one event loop and the acceptor share.
#[derive(Default)]
pub(crate) struct LoopShared {
    /// Freshly accepted nonblocking sockets pinned to this loop.
    pub(crate) inbox: Mutex<Vec<TcpStream>>,
}

/// One nonblocking connection's state: the IO shell (socket, write
/// cursor, deadlines) around its protocol [`Session`].
struct Conn {
    stream: TcpStream,
    session: Session,
    /// Bytes of the session's output already written to the socket.
    wpos: usize,
    /// Peer half-closed; serve what's buffered, flush, then close.
    eof: bool,
    /// Reap this connection at the end of the tick.
    dead: bool,
    /// When the current blocked write becomes fatal.
    write_deadline: Option<Instant>,
}

impl Conn {
    fn pending_write(&self) -> usize {
        self.session.output().len() - self.wpos
    }

    fn paused(&self) -> bool {
        self.pending_write() > PAUSE_WBUF
    }
}

/// Per-tick scratch, allocated once per loop.
struct Scratch {
    run_ops: Vec<KvOp>,
    readiness: Vec<Readiness>,
    polled: Vec<usize>,
}

/// The body of one event-loop worker thread.
pub(crate) fn event_loop(shared: Arc<Shared>, index: usize) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut poller = ScanPoller::new();
    let mut client: Option<StoreClient> = None;
    let mut scratch = Scratch {
        run_ops: Vec::new(),
        readiness: Vec::new(),
        polled: Vec::new(),
    };
    loop {
        admit(&shared, index, &mut conns);
        if shared.shutdown.load(Ordering::SeqCst) {
            drain_all(&shared, conns, &mut client, &mut scratch);
            if let Some(client) = client {
                shared.retired.lock().push(client);
            }
            return;
        }
        tick(&shared, &mut conns, &mut poller, &mut client, &mut scratch);
    }
}

/// Move freshly pinned sockets from the inbox into the live set.
fn admit(shared: &Shared, index: usize, conns: &mut Vec<Conn>) {
    let mut inbox = shared.loops[index].inbox.lock();
    if inbox.is_empty() {
        return;
    }
    let streams: Vec<TcpStream> = inbox.drain(..).collect();
    drop(inbox);
    for stream in streams {
        conns.push(Conn {
            stream,
            session: Session::new(),
            wpos: 0,
            eof: false,
            dead: false,
            write_deadline: None,
        });
    }
}

fn tick(
    shared: &Shared,
    conns: &mut Vec<Conn>,
    poller: &mut ScanPoller,
    client: &mut Option<StoreClient>,
    scratch: &mut Scratch,
) {
    // Poll: read interest for open unpaused connections; write
    // interest (pacing only — writes are their own probe) for pending
    // response bytes.
    scratch.polled.clear();
    {
        let mut sources: Vec<PollSource<'_>> = Vec::with_capacity(conns.len());
        for (i, c) in conns.iter().enumerate() {
            if c.dead {
                continue;
            }
            let interest = Interest {
                read: !c.eof && !c.session.closing() && !c.paused(),
                write: c.pending_write() > 0,
            };
            if interest.read || interest.write {
                scratch.polled.push(i);
                sources.push(PollSource {
                    stream: &c.stream,
                    interest,
                });
            }
        }
        if sources.is_empty() {
            std::thread::sleep(IDLE_EMPTY);
        } else {
            scratch
                .readiness
                .resize(sources.len(), Readiness::default());
            poller.poll(&sources, &mut scratch.readiness, POLL_TICK);
        }
    }

    // Read every readable connection.
    for (slot, &i) in scratch.polled.iter().enumerate() {
        if !scratch.readiness[slot].readable {
            continue;
        }
        let c = &mut conns[i];
        match c.session.read_buf().read_from(&mut c.stream, READ_CHUNK) {
            Ok(0) => c.eof = true,
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
            Err(_) => c.dead = true,
        }
    }

    serve_buffered(shared, conns, client, scratch, false);

    for c in conns.iter_mut() {
        flush(c);
    }

    let before = conns.len();
    conns.retain(|c| !c.dead);
    let reaped = (before - conns.len()) as u32;
    if reaped > 0 {
        shared.active.fetch_sub(reaped, Ordering::SeqCst);
    }
}

/// One [`serve`] pass over every live session. Paused connections wait
/// for their peer unless `ignore_pause` (the shutdown drain serves
/// backpressured connections too).
fn serve_buffered(
    shared: &Shared,
    conns: &mut [Conn],
    client: &mut Option<StoreClient>,
    scratch: &mut Scratch,
    ignore_pause: bool,
) {
    let live = conns
        .iter_mut()
        .filter(|c| !c.dead && (ignore_pause || !c.paused()))
        .map(|c| &mut c.session);
    serve(
        live,
        &mut scratch.run_ops,
        &shared.counters,
        &shared.store,
        shared.active.load(Ordering::SeqCst),
        |ops| execute_run(shared, client, ops),
    );
}

/// Run the merged operations on the loop's client, minting it on the
/// loop's first run. Minting lazily keeps idle loops out of the store:
/// on an uncombined store every client is a replica whose watermark
/// pins log truncation until it executes.
fn execute_run(
    shared: &Shared,
    client: &mut Option<StoreClient>,
    ops: &[KvOp],
) -> Result<Vec<Option<u32>>, StoreError> {
    let client = match client {
        Some(client) => client,
        None => match shared.store.try_client() {
            Some(minted) => client.insert(minted),
            None => {
                return Err(StoreError::Server {
                    code: ErrorCode::Internal as u8,
                    message: "replica id space exhausted; cannot mint a client".to_string(),
                })
            }
        },
    };
    client.batch(ops)
}

/// Attempted-write model: push buffered response bytes until done or
/// `WouldBlock`; a peer blocked past [`WRITE_TIMEOUT`] is cut off.
fn flush(c: &mut Conn) {
    if c.dead {
        return;
    }
    while c.wpos < c.session.output().len() {
        match c.stream.write(&c.session.output()[c.wpos..]) {
            Ok(0) => {
                c.dead = true;
                return;
            }
            Ok(n) => {
                c.wpos += n;
                c.write_deadline = None;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                let deadline = *c
                    .write_deadline
                    .get_or_insert_with(|| Instant::now() + WRITE_TIMEOUT);
                if Instant::now() >= deadline {
                    // The peer stopped draining; its responses are
                    // undeliverable backpressure.
                    c.dead = true;
                }
                return;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                c.dead = true;
                return;
            }
        }
    }
    c.session.clear_output();
    c.wpos = 0;
    c.write_deadline = None;
    if c.session.closing() {
        c.dead = true;
    } else if c.eof && !c.session.has_pending_frame() {
        // Half-closed peer, everything serveable served and flushed; a
        // trailing partial frame can never complete.
        c.dead = true;
    }
}

/// The shutdown drain: one final serve pass over everything already
/// buffered (backpressured connections included), a bounded flush, and
/// then every connection closes. In-flight requests drain; nothing new
/// is read.
fn drain_all(
    shared: &Shared,
    mut conns: Vec<Conn>,
    client: &mut Option<StoreClient>,
    scratch: &mut Scratch,
) {
    serve_buffered(shared, &mut conns, client, scratch, true);
    let deadline = Instant::now() + WRITE_TIMEOUT;
    loop {
        let mut pending = false;
        for c in conns.iter_mut() {
            flush(c);
            if !c.dead && c.pending_write() > 0 {
                pending = true;
            }
        }
        if !pending || Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_micros(500));
    }
    shared
        .active
        .fetch_sub(conns.len() as u32, Ordering::SeqCst);
}
