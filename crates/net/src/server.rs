//! The ff-store TCP service: a std-only, readiness-driven reactor.
//!
//! # Threading model
//!
//! One **accept thread** polls a nonblocking listener (~5 ms tick) and
//! hash-pins each accepted connection to one of N **event loops** (one
//! worker thread each, [`ServerConfig::loops`]). Every socket is
//! nonblocking; a loop multiplexes all of its connections through the
//! [`poll`](crate::poll) abstraction, so ten thousand mostly-idle
//! connections cost ten thousand readiness probes per tick — not ten
//! thousand parked threads. No async runtime: the repo's point is the
//! consensus construction, and `std::net` plus a handful of threads
//! keeps the service layer auditable.
//!
//! # One client per loop
//!
//! Connections do not own store clients. Each event loop executes
//! every merged run on its one [`StoreClient`], so a server holds at
//! most one client per loop however many connections it serves. A
//! loop mints its client on its first run, not at start: on
//! an uncombined store every client is a replica whose watermark pins
//! log truncation, and an idle loop's replica would never advance.
//! Every client that served traffic retires into the graveyard for
//! [`Store::verify`].
//!
//! # Pipelining and cross-connection batching
//!
//! A client may write any number of request frames before reading.
//! Each loop tick reads every readable connection, decodes frames in
//! place (zero-copy [`peek_frame`](crate::wire::FrameBuffer::peek_frame)),
//! and merges **all** valid GET/PUT/DEL and BATCH operations from
//! **all** connections into one [`Kv::batch`](ff_store::Kv::batch)
//! call — one log pass per touched shard per tick, across clients.
//! This generalizes the old server's per-connection burst coalescing:
//! under high connection counts the store sees a few large batches
//! instead of thousands of tiny ones. Responses are answered under the
//! right request ids, in per-connection request order.
//!
//! # Backpressure
//!
//! * **Connection cap** — beyond [`ServerConfig::max_connections`],
//!   new connections get one `Overloaded` error frame and are closed.
//! * **Write pause** — a connection whose response buffer exceeds
//!   256 KiB stops being read (and served) until the peer drains it; a
//!   peer that stays blocked past [`ServerConfig::write_timeout`] is
//!   disconnected. One slow reader cannot pin server memory.
//! * **Bounded frames** — the decoder rejects frames over
//!   [`MAX_FRAME_LEN`](crate::wire::MAX_FRAME_LEN) before buffering.
//!
//! # Graceful shutdown
//!
//! [`NetServer::shutdown`] (or the idempotent
//! [`NetServer::begin_shutdown`]) flips a flag; each loop notices
//! within one poll tick, stops reading, serves the complete frames it
//! had already buffered (in-flight requests drain rather than vanish),
//! flushes within the write timeout, and retires its client into the
//! graveyard. The returned [`ServerReport`] hands those
//! clients back so a harness can run [`Store::verify`] over *exactly*
//! the replicas that served traffic. Nothing on the shutdown path
//! panics: thread failures surface as typed [`ShutdownError`]s in the
//! report.

use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use ff_store::{Store, StoreClient};
use parking_lot::Mutex;

use crate::reactor::{self, LoopShared};
use crate::wire::{encode_response, ErrorCode, Response, StatsReply};

/// Tuning for a [`NetServer`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Connections beyond this are refused with `Overloaded`.
    pub max_connections: usize,
    /// Upper bound on how long a quiet loop sleeps between readiness
    /// scans; bounds shutdown-notice latency. (The name predates the
    /// reactor: sockets are nonblocking now, nothing blocks in `read`.)
    pub read_timeout: Duration,
    /// Per-connection write stall bound — the backpressure limit on a
    /// peer that stops draining responses, and the drain deadline at
    /// shutdown.
    pub write_timeout: Duration,
    /// Event loops (worker threads). `0` means auto: one per available
    /// core, clamped to at most 8.
    pub loops: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            read_timeout: Duration::from_millis(50),
            write_timeout: Duration::from_secs(2),
            loops: 0,
        }
    }
}

/// Why part of a shutdown was not clean. Carried in
/// [`ServerReport::shutdown_errors`] instead of panicking the caller —
/// a crash-shaped exit of one worker must not abort the process that
/// is trying to verify what that worker served.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShutdownError {
    /// The accept thread panicked; its panic payload is lost but every
    /// connection it had already pinned to a loop still drains.
    AcceptorPanicked,
    /// Event loop `index` panicked; its client may be missing from the
    /// graveyard.
    LoopPanicked {
        /// Which loop died.
        index: usize,
    },
    /// The store's write-ahead log latched an I/O failure at some point
    /// — what this server served after that moment was never durable.
    Durability {
        /// The latched first failure.
        error: ff_store::WalIoError,
    },
}

impl std::fmt::Display for ShutdownError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShutdownError::AcceptorPanicked => write!(f, "accept thread panicked"),
            ShutdownError::LoopPanicked { index } => write!(f, "event loop {index} panicked"),
            ShutdownError::Durability { error } => {
                write!(f, "write-ahead log failed mid-serve: {error}")
            }
        }
    }
}

impl std::error::Error for ShutdownError {}

pub(crate) struct Shared {
    pub(crate) store: Arc<Store>,
    pub(crate) config: ServerConfig,
    pub(crate) shutdown: AtomicBool,
    pub(crate) active: AtomicU32,
    pub(crate) ops_served: AtomicU64,
    /// Merged runs executed across all loops (serve passes with ops).
    pub(crate) runs_executed: AtomicU64,
    /// Operations that went through merged runs.
    pub(crate) run_ops: AtomicU64,
    /// Largest single merged run any loop executed.
    pub(crate) max_run_ops: AtomicU32,
    /// Request frames staged for a response across all serve passes.
    pub(crate) frames_staged: AtomicU64,
    /// Clients of drained event loops, kept for post-shutdown
    /// verification.
    pub(crate) retired: Mutex<Vec<StoreClient>>,
    /// One inbox per event loop; the acceptor pins connections here.
    pub(crate) loops: Vec<LoopShared>,
}

/// A running ff-store TCP server. Dropping it without calling
/// [`NetServer::shutdown`] signals shutdown but detaches the threads;
/// call [`NetServer::shutdown`] to join them and collect the report.
pub struct NetServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// What a drained server hands back.
pub struct ServerReport {
    /// One client per event loop that served traffic, each caught up
    /// on what it executed — feed them to [`Store::verify`].
    pub clients: Vec<StoreClient>,
    /// Requests served over the server's lifetime.
    pub ops_served: u64,
    /// Anything unclean about the shutdown itself. Empty on the happy
    /// path; never a panic.
    pub shutdown_errors: Vec<ShutdownError>,
}

impl NetServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and start
    /// serving `store`.
    pub fn start<A: ToSocketAddrs>(
        store: Arc<Store>,
        addr: A,
        config: ServerConfig,
    ) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let nloops = effective_loops(&config);
        let shared = Arc::new(Shared {
            store,
            config,
            shutdown: AtomicBool::new(false),
            active: AtomicU32::new(0),
            ops_served: AtomicU64::new(0),
            runs_executed: AtomicU64::new(0),
            run_ops: AtomicU64::new(0),
            max_run_ops: AtomicU32::new(0),
            frames_staged: AtomicU64::new(0),
            retired: Mutex::new(Vec::new()),
            loops: (0..nloops).map(|_| LoopShared::default()).collect(),
        });
        let workers = (0..nloops)
            .map(|index| {
                let loop_shared = Arc::clone(&shared);
                std::thread::spawn(move || reactor::event_loop(loop_shared, index))
            })
            .collect();
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || accept_loop(listener, accept_shared));
        Ok(NetServer {
            shared,
            addr,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (resolves an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Currently open connections.
    pub fn active_connections(&self) -> u32 {
        self.shared.active.load(Ordering::SeqCst)
    }

    /// Signal shutdown without joining: idempotent and non-consuming.
    /// Returns `true` the first time, `false` on every repeat — a
    /// doubly-signaled shutdown is a no-op, not a panic.
    pub fn begin_shutdown(&self) -> bool {
        !self.shared.shutdown.swap(true, Ordering::SeqCst)
    }

    /// Stop accepting, drain in-flight requests, join every thread and
    /// hand back the retired clients. Never panics: a worker that died
    /// is reported as a [`ShutdownError`] in the report.
    pub fn shutdown(mut self) -> ServerReport {
        self.begin_shutdown();
        let mut shutdown_errors = Vec::new();
        if let Some(accept) = self.accept.take() {
            if accept.join().is_err() {
                shutdown_errors.push(ShutdownError::AcceptorPanicked);
            }
        }
        for (index, worker) in self.workers.drain(..).enumerate() {
            if worker.join().is_err() {
                shutdown_errors.push(ShutdownError::LoopPanicked { index });
            }
        }
        // The acceptor may have pinned a last connection after its
        // loop already drained; with every thread joined, closing the
        // stragglers is race-free.
        for l in &self.shared.loops {
            l.inbox.lock().clear();
        }
        // With every worker joined no more slots will be decided: push
        // the group-commit remainder to disk, and refuse to call the
        // shutdown clean if the WAL latched an I/O failure — what was
        // served after that moment was never durable.
        self.shared.store.flush_wal();
        if let Some(error) = self.shared.store.durability_error() {
            shutdown_errors.push(ShutdownError::Durability { error });
        }
        let clients = std::mem::take(&mut *self.shared.retired.lock());
        ServerReport {
            clients,
            ops_served: self.shared.ops_served.load(Ordering::SeqCst),
            shutdown_errors,
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        // Signal-only: threads notice within a tick and drain. Joining
        // here would turn a leaked server into a hang.
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }
}

fn effective_loops(config: &ServerConfig) -> usize {
    if config.loops > 0 {
        return config.loops;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 8)
}

/// SplitMix64: decorrelates the accept counter so connection pinning
/// spreads over the loops even under striped arrival patterns.
fn pin_hash(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut counter: u64 = 0;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, peer)) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    refuse(
                        stream,
                        &shared,
                        ErrorCode::ShuttingDown,
                        "server shutting down",
                    );
                    return;
                }
                if shared.active.load(Ordering::SeqCst) as usize >= shared.config.max_connections {
                    refuse(
                        stream,
                        &shared,
                        ErrorCode::Overloaded,
                        "connection limit reached",
                    );
                    continue;
                }
                // A blocking socket in a readiness loop would wedge
                // every connection pinned to that loop: if the switch
                // to nonblocking fails, refuse loudly instead of
                // serving wrong.
                if let Err(e) = stream.set_nonblocking(true) {
                    eprintln!(
                        "ff-net: refusing connection from {peer}: set_nonblocking failed: {e}"
                    );
                    refuse(stream, &shared, ErrorCode::Internal, "socket setup failed");
                    continue;
                }
                // Nagle is a latency tune, not a correctness knob —
                // keep the connection but say what happened.
                if let Err(e) = stream.set_nodelay(true) {
                    eprintln!("ff-net: set_nodelay failed for {peer} (serving anyway): {e}");
                }
                shared.active.fetch_add(1, Ordering::SeqCst);
                let index = (pin_hash(counter) % shared.loops.len() as u64) as usize;
                counter = counter.wrapping_add(1);
                shared.loops[index].inbox.lock().push(stream);
            }
            // Nonblocking accept: nobody waiting — poll again shortly.
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Tell the refused peer why before closing, on the (still blocking)
/// just-accepted socket.
fn refuse(mut stream: TcpStream, shared: &Shared, code: ErrorCode, message: &str) {
    if let Err(e) = stream.set_write_timeout(Some(shared.config.write_timeout)) {
        // Without a bound, a hostile peer could park the acceptor in
        // this write forever. Close frameless rather than risk it.
        eprintln!(
            "ff-net: closing refused connection without a frame: set_write_timeout failed: {e}"
        );
        return;
    }
    let mut out = Vec::new();
    encode_response(
        &mut out,
        0,
        &Response::Error {
            code,
            detail: 0,
            message: message.to_string(),
        },
    );
    // Best-effort by design: the peer may already be gone, and the
    // close itself carries the refusal.
    let _ = stream.write_all(&out);
}

pub(crate) fn stats(shared: &Shared) -> StatsReply {
    let store = &shared.store;
    let combine = store.combine_snapshot();
    let durability = store.durability_snapshot();
    StatsReply {
        shards: store.shards() as u32,
        active_connections: shared.active.load(Ordering::SeqCst),
        diverged: (0..store.shards()).any(|s| store.shard_log(s).divergence_detected()),
        ops_served: shared.ops_served.load(Ordering::Relaxed),
        runs_executed: shared.runs_executed.load(Ordering::Relaxed),
        run_ops: shared.run_ops.load(Ordering::Relaxed),
        max_run_ops: shared.max_run_ops.load(Ordering::Relaxed),
        frames_staged: shared.frames_staged.load(Ordering::Relaxed),
        combine_passes: combine.as_ref().map_or(0, |c| c.passes),
        combine_ops: combine.as_ref().map_or(0, |c| c.combined_ops),
        wal_records: durability.as_ref().map_or(0, |d| d.records_logged),
        wal_fsyncs: durability.as_ref().map_or(0, |d| d.fsyncs),
        recovered_records: durability.as_ref().map_or(0, |d| d.records_replayed),
        recovered_checkpoints: durability.as_ref().map_or(0, |d| d.checkpoints_loaded),
    }
}
