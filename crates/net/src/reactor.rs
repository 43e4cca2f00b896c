//! The event loops behind [`NetServer`](crate::NetServer): nonblocking
//! connection state machines multiplexed over the [`poll`](crate::poll)
//! abstraction, each driving a socket-free
//! [`Session`](crate::session::Session) per connection.
//!
//! # One tick
//!
//! 1. **Admit** — drain this loop's inbox of freshly accepted,
//!    already-nonblocking sockets; give each a [`Session`] around
//!    pooled buffers.
//! 2. **Poll** — probe read readiness for every open, unpaused
//!    connection; connections with unflushed responses bound the wait.
//! 3. **Read** — pull up to 16 KiB per readable connection straight
//!    into its session's frame buffer (no intermediate chunk copy).
//! 4. **Stage** — each session decodes its complete frames **in
//!    place** with the zero-copy
//!    [`peek_frame`](crate::wire::FrameBuffer::peek_frame) path. Valid
//!    GET/PUT/DEL/BATCH operations from *every* connection merge into
//!    one run; STATS/PING and per-frame validation errors become
//!    immediate response slots. A decode error stages one id-0
//!    `Malformed` frame and marks the session closing —
//!    length-prefixed framing cannot resync.
//! 5. **Execute** — the merged run goes through one
//!    [`Kv::batch`](ff_store::Kv::batch) call: one log pass per
//!    touched shard for the whole tick, across connections, on the
//!    loop's one [`StoreClient`] — minted on the loop's first run.
//! 6. **Resolve** — each session encodes its slots' responses into its
//!    output buffer, in per-connection request order. A run error
//!    (divergence poisons the shard set; nothing partial is usable)
//!    answers every run slot with the same typed error.
//! 7. **Flush** — attempted-write model: write until `WouldBlock`,
//!    killing peers stalled past the write timeout.
//! 8. **Reap** — dead connections return their session's buffers to
//!    the pool and drop the active count.
//!
//! On shutdown a loop runs one final stage/execute/flush pass over
//! everything already buffered — bounded by the write timeout — then
//! retires its client into the graveyard.
//!
//! Everything between the socket reads and the socket writes — frame
//! decoding, staging, validation, response encoding — lives in
//! [`Session`](crate::session::Session), which `ff-dst` drives over a
//! simulated network with no kernel socket anywhere; the reactor here
//! is only the IO shell around the shared state machine.

use std::io::{ErrorKind, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ff_store::{Kv, KvOp, StoreClient, StoreError};
use parking_lot::Mutex;

use crate::buffer::BufferPool;
use crate::poll::{Interest, PollSource, Readiness, ScanPoller};
use crate::server::{stats, Shared};
use crate::session::Session;
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
    let mut pool = BufferPool::new();
    let mut poller = ScanPoller::new();
    let mut client: Option<StoreClient> = None;
    let mut scratch = Scratch {
        run_ops: Vec::new(),
        readiness: Vec::new(),
        polled: Vec::new(),
    };
    loop {
        admit(&shared, index, &mut conns, &mut pool);
        if shared.shutdown.load(Ordering::SeqCst) {
            drain_all(&shared, conns, &mut client, &mut scratch);
            if let Some(client) = client {
                shared.retired.lock().push(client);
            }
            return;
        }
        tick(
            &shared,
            &mut conns,
            &mut pool,
            &mut poller,
            &mut client,
            &mut scratch,
        );
    }
}

/// Move freshly pinned sockets from the inbox into the live set.
fn admit(shared: &Shared, index: usize, conns: &mut Vec<Conn>, pool: &mut BufferPool) {
    let mut inbox = shared.loops[index].inbox.lock();
    if inbox.is_empty() {
        return;
    }
    let streams: Vec<TcpStream> = inbox.drain(..).collect();
    drop(inbox);
    for stream in streams {
        conns.push(Conn {
            stream,
            session: Session::from_parts(pool.take_read(), pool.take_write()),
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
    pool: &mut BufferPool,
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
            let timeout = POLL_TICK.min(shared.config.read_timeout.max(Duration::from_millis(1)));
            poller.poll(&sources, &mut scratch.readiness, timeout);
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
        flush(c, shared);
    }

    let mut i = 0;
    while i < conns.len() {
        if conns[i].dead {
            reap(conns.swap_remove(i), shared, pool);
        } else {
            i += 1;
        }
    }
}

/// Stage every buffered complete frame, execute the merged run, and
/// have each session encode its responses. `ignore_pause` lets the
/// shutdown drain serve backpressured connections too.
fn serve_buffered(
    shared: &Shared,
    conns: &mut [Conn],
    client: &mut Option<StoreClient>,
    scratch: &mut Scratch,
    ignore_pause: bool,
) {
    scratch.run_ops.clear();
    let mut immediate = 0u64;
    let mut staged = 0u64;
    for c in conns.iter_mut() {
        // Closing sessions stage nothing themselves (the session
        // early-returns); paused connections wait for their peer.
        if c.dead || (!ignore_pause && c.paused()) {
            continue;
        }
        let summary = c.session.stage(&mut scratch.run_ops);
        immediate += summary.immediate;
        staged += summary.staged;
    }
    if immediate > 0 {
        shared.ops_served.fetch_add(immediate, Ordering::Relaxed);
    }
    let outcome = if scratch.run_ops.is_empty() {
        None
    } else {
        let result = execute_run(shared, client, &scratch.run_ops);
        if result.is_ok() {
            shared
                .ops_served
                .fetch_add(scratch.run_ops.len() as u64, Ordering::Relaxed);
        }
        // Coalescing observability: how many frames fed how many merged
        // runs of what size (STATS surfaces the ratios).
        shared.runs_executed.fetch_add(1, Ordering::Relaxed);
        shared
            .run_ops
            .fetch_add(scratch.run_ops.len() as u64, Ordering::Relaxed);
        shared
            .max_run_ops
            .fetch_max(scratch.run_ops.len() as u32, Ordering::Relaxed);
        Some(result)
    };
    if staged > 0 {
        shared.frames_staged.fetch_add(staged, Ordering::Relaxed);
    }
    // Resolve after the run so STATS snapshots post-run counters. Every
    // session with staged slots resolves — including closing ones,
    // whose malformed-error answer still has to flush.
    let snapshot = stats(shared);
    for c in conns.iter_mut() {
        if c.session.pending_slots() > 0 {
            c.session.resolve(outcome.as_ref(), &snapshot);
        }
    }
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
/// `WouldBlock`; a peer blocked past the write timeout is cut off.
fn flush(c: &mut Conn, shared: &Shared) {
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
                    .get_or_insert_with(|| Instant::now() + shared.config.write_timeout);
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

/// Retire a finished connection: buffers to the pool, active slot
/// released.
fn reap(c: Conn, shared: &Shared, pool: &mut BufferPool) {
    let (rbuf, wbuf) = c.session.into_parts();
    pool.put_read(rbuf);
    pool.put_write(wbuf);
    shared.active.fetch_sub(1, Ordering::SeqCst);
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
    let deadline = Instant::now() + shared.config.write_timeout;
    loop {
        let mut pending = false;
        for c in conns.iter_mut() {
            flush(c, shared);
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
