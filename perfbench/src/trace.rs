//! Tracing for the traced run: sampled spans at the layer boundaries
//! the benchmark can reach from outside the program.
//!
//! * Callers mark each operation with [`begin_op`]; one in
//!   [`SAMPLE_EVERY`] is sampled and gets an op span.
//! * [`traced_backend`] registers `robust-traced`, a [`Substrate`] that
//!   delegates every question to `robust` and wraps each cell so its
//!   `decide` is counted and, on a sampled op, timed. A decide on a
//!   thread that runs no op of ours (the server's event loop under
//!   `tcp-batch`) has no parent op; one in [`SAMPLE_EVERY`] is timed.
//! * [`TracedMedia`] wraps [`FsMedia`] and times every WAL append,
//!   fsync and rotation.
//!
//! A child span (decide, WAL) names as parent the op the recording
//! thread is executing. Under flat combining that is the op whose
//! combine pass ran the decide, whoever submitted the decided ops.
//! Spans stay in per-thread memory while the run measures and are
//! written out by [`write_spans`] after it.
//!
//! Nothing records unless [`set_recording`] is on, so set-up and the
//! post-run checks leave no spans.

use crate::hist::Hist;
use ff_consensus::Consensus;
use ff_spec::{FaultKind, Input, Tolerance};
use ff_store::{
    Backend, CellCtx, ConfigError, FaultConfig, FsMedia, Substrate, WalIoError, WalMedia,
};
use std::cell::Cell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One op in this many gets an op span and timed decides.
pub const SAMPLE_EVERY: u64 = 256;
/// Spans one thread keeps; later ones are counted as dropped.
const MAX_SPANS_PER_THREAD: usize = 1 << 20;

/// What a span measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Get,
    Put,
    Del,
    /// One BATCH frame, send to collected reply.
    Frame,
    Decide,
    WalAppend,
    WalSync,
    WalRotate,
    Send,
    Collect,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Get => "get",
            Kind::Put => "put",
            Kind::Del => "del",
            Kind::Frame => "frame",
            Kind::Decide => "substrate.decide",
            Kind::WalAppend => "wal.append",
            Kind::WalSync => "wal.sync",
            Kind::WalRotate => "wal.rotate",
            Kind::Send => "client.send",
            Kind::Collect => "client.collect",
        }
    }

    /// Is this the root span of a client operation?
    pub fn is_op(self) -> bool {
        matches!(self, Kind::Get | Kind::Put | Kind::Del | Kind::Frame)
    }
}

/// One timed interval.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Unique span id; an op span's id is its op id.
    pub id: u64,
    /// The op this span belongs to (0: recorded outside any op, such
    /// as on a server's event loop).
    pub op: u64,
    /// The parent span's id (0 for a root).
    pub parent: u64,
    pub kind: Kind,
    /// Recording thread.
    pub thread: u32,
    /// Start, in ns since the process's trace epoch.
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// A thread's span buffer and counters. Only its own thread writes it.
struct ThreadLog {
    index: u32,
    spans: Mutex<Vec<Span>>,
    decides: AtomicU64,
}

static RECORDING: AtomicBool = AtomicBool::new(false);
static NEXT_CHILD: AtomicU64 = AtomicU64::new(1);
static DROPPED: AtomicU64 = AtomicU64::new(0);

fn threads() -> &'static Mutex<Vec<Arc<ThreadLog>>> {
    static THREADS: OnceLock<Mutex<Vec<Arc<ThreadLog>>>> = OnceLock::new();
    THREADS.get_or_init(|| Mutex::new(Vec::new()))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Decide latencies of timed decides.
pub fn decide_hist() -> &'static Hist {
    static HIST: OnceLock<Hist> = OnceLock::new();
    HIST.get_or_init(Hist::default)
}

thread_local! {
    /// `(op id, sampled)` of the op this thread is executing.
    static CURRENT: Cell<(u64, bool)> = const { Cell::new((0, false)) };
    static LOG: Arc<ThreadLog> = {
        let mut all = threads().lock().expect("trace registry poisoned");
        let log = Arc::new(ThreadLog {
            index: all.len() as u32,
            spans: Mutex::new(Vec::new()),
            decides: AtomicU64::new(0),
        });
        all.push(Arc::clone(&log));
        log
    };
}

/// Turn span and counter recording on or off (process-wide).
pub fn set_recording(on: bool) {
    epoch();
    RECORDING.store(on, Ordering::SeqCst);
}

fn recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Mark this thread as executing op `op` (`seq` numbers the caller's
/// ops and picks the sample). Returns whether the op is sampled.
pub fn begin_op(op: u64, seq: u64) -> bool {
    let sampled = seq.is_multiple_of(SAMPLE_EVERY);
    CURRENT.with(|c| c.set((op, sampled)));
    sampled
}

/// This thread is between ops.
pub fn end_op() {
    CURRENT.with(|c| c.set((0, false)));
}

/// An op id unique across callers: `caller` in the high bits.
pub fn op_id(caller: usize, seq: u64) -> u64 {
    ((caller as u64 + 1) << 40) | seq
}

fn push(span: Span) {
    LOG.with(|log| {
        let mut spans = log.spans.lock().expect("span buffer poisoned");
        if spans.len() >= MAX_SPANS_PER_THREAD {
            DROPPED.fetch_add(1, Ordering::Relaxed);
            return;
        }
        spans.push(Span {
            thread: log.index,
            ..span
        });
    });
}

fn ns_since_epoch(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

/// Record the root span of a sampled op.
pub fn op_span(op: u64, kind: Kind, start: Instant, end: Instant) {
    if !recording() {
        return;
    }
    push(Span {
        id: op,
        op,
        parent: 0,
        kind,
        thread: 0,
        start_ns: ns_since_epoch(start),
        dur_ns: end.duration_since(start).as_nanos() as u64,
    });
}

/// Record a child span of this thread's current op; returns its
/// duration in ns.
pub fn child_span(kind: Kind, start: Instant, end: Instant) -> u64 {
    let (op, _) = CURRENT.with(Cell::get);
    span_under(op, kind, start, end)
}

/// Record a child span of op `op`; returns its duration in ns.
pub fn span_under(op: u64, kind: Kind, start: Instant, end: Instant) -> u64 {
    let dur_ns = end.duration_since(start).as_nanos() as u64;
    push(Span {
        id: NEXT_CHILD.fetch_add(1, Ordering::Relaxed),
        op,
        parent: op,
        kind,
        thread: 0,
        start_ns: ns_since_epoch(start),
        dur_ns,
    });
    dur_ns
}

/// Decides counted on every thread since the last [`take_spans`].
pub fn decides() -> u64 {
    threads()
        .lock()
        .expect("trace registry poisoned")
        .iter()
        .map(|t| t.decides.load(Ordering::Relaxed))
        .sum()
}

/// Spans not kept because a thread's buffer was full.
pub fn dropped_spans() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Drain every thread's spans and reset the decide counters.
pub fn take_spans() -> Vec<Span> {
    let all = threads().lock().expect("trace registry poisoned");
    let mut out = Vec::new();
    for t in all.iter() {
        out.append(&mut t.spans.lock().expect("span buffer poisoned"));
        t.decides.store(0, Ordering::Relaxed);
    }
    out.sort_by_key(|s| s.start_ns);
    out
}

/// Write `spans` as one JSON object per line.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            r#"{{"id":{},"op":{},"parent":{},"name":"{}","thread":{},"start_ns":{},"dur_ns":{}}}"#,
            s.id,
            s.op,
            s.parent,
            s.kind.name(),
            s.thread,
            s.start_ns,
            s.dur_ns
        )?;
    }
    out.flush()
}

/// `robust`, with every cell's `decide` counted and sampled.
struct TracedSubstrate {
    inner: Backend,
}

/// The name [`traced_backend`] registers.
pub const TRACED_SUBSTRATE: &str = "robust-traced";

impl Substrate for TracedSubstrate {
    fn name(&self) -> &'static str {
        TRACED_SUBSTRATE
    }
    fn describe(&self) -> &'static str {
        "robust, with each cell's decide timed by the benchmark"
    }
    fn consensus_number(&self) -> Option<u32> {
        self.inner.consensus_number()
    }
    fn injects_faults(&self) -> bool {
        self.inner.injects_faults()
    }
    fn tolerated_kinds(&self) -> &'static [FaultKind] {
        self.inner.tolerated_kinds()
    }
    fn injected_kinds(&self) -> &'static [FaultKind] {
        self.inner.injected_kinds()
    }
    fn expected_consistent(&self) -> bool {
        self.inner.expected_consistent()
    }
    fn objects_per_cell(&self, fault: &FaultConfig) -> usize {
        self.inner.objects_per_cell(fault)
    }
    fn injected_objects(&self, fault: &FaultConfig) -> usize {
        self.inner.substrate().injected_objects(fault)
    }
    fn validate(&self, fault: &FaultConfig) -> Result<(), ConfigError> {
        self.inner.validate(fault)
    }
    fn make_cell(&self, ctx: &CellCtx) -> Arc<dyn Consensus> {
        Arc::new(TracedCell(self.inner.substrate().make_cell(ctx)))
    }
}

struct TracedCell(Arc<dyn Consensus>);

impl Consensus for TracedCell {
    fn decide(&self, val: Input) -> Input {
        if !recording() {
            return self.0.decide(val);
        }
        let n = LOG.with(|log| log.decides.fetch_add(1, Ordering::Relaxed));
        // Time the decides of sampled ops; on a thread that runs no op
        // of ours (a server's event loop), time one decide in
        // SAMPLE_EVERY.
        let (op, sampled) = CURRENT.with(Cell::get);
        let timed = if op == 0 {
            n.is_multiple_of(SAMPLE_EVERY)
        } else {
            sampled
        };
        if !timed {
            return self.0.decide(val);
        }
        let start = Instant::now();
        let out = self.0.decide(val);
        let dur = child_span(Kind::Decide, start, Instant::now());
        decide_hist().record(dur);
        out
    }
    fn tolerance(&self) -> Tolerance {
        self.0.tolerance()
    }
    fn objects_used(&self) -> usize {
        self.0.objects_used()
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// The `robust` backend with traced cells, registered on first use.
pub fn traced_backend() -> Backend {
    static REGISTERED: OnceLock<()> = OnceLock::new();
    REGISTERED.get_or_init(|| {
        ff_store::register(Arc::new(TracedSubstrate {
            inner: Backend::robust(),
        }))
        .expect("the traced substrate is registered once");
    });
    TRACED_SUBSTRATE
        .parse()
        .expect("the traced substrate was just registered")
}

/// [`FsMedia`] with every call counted and timed.
pub struct TracedMedia {
    inner: FsMedia,
    pub appends: Hist,
    pub syncs: Hist,
    pub rotations: Hist,
    /// Bytes appended or rewritten by rotations.
    pub bytes: AtomicU64,
}

impl TracedMedia {
    /// Trace a WAL directory.
    pub fn open(dir: &Path) -> Result<Self, WalIoError> {
        Ok(TracedMedia {
            inner: FsMedia::open(dir)?,
            appends: Hist::default(),
            syncs: Hist::default(),
            rotations: Hist::default(),
            bytes: AtomicU64::new(0),
        })
    }

    fn timed<R>(&self, kind: Kind, hist: &Hist, bytes: usize, f: impl FnOnce() -> R) -> R {
        if !recording() {
            return f();
        }
        let start = Instant::now();
        let out = f();
        hist.record(child_span(kind, start, Instant::now()));
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        out
    }
}

impl WalMedia for TracedMedia {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, WalIoError> {
        self.inner.read(name)
    }
    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), WalIoError> {
        self.timed(Kind::WalAppend, &self.appends, bytes.len(), || {
            self.inner.append(name, bytes)
        })
    }
    fn sync(&self, name: &str) -> Result<(), WalIoError> {
        self.timed(Kind::WalSync, &self.syncs, 0, || self.inner.sync(name))
    }
    fn replace(&self, name: &str, contents: &[u8]) -> Result<(), WalIoError> {
        self.timed(Kind::WalRotate, &self.rotations, contents.len(), || {
            self.inner.replace(name, contents)
        })
    }
}

/// Self time of each sampled op of `kinds`: its duration minus the
/// child spans recorded under it.
pub fn self_times(spans: &[Span], kinds: &[Kind]) -> Hist {
    let mut child_ns: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for s in spans.iter().filter(|s| !s.kind.is_op() && s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.dur_ns;
    }
    let hist = Hist::default();
    for s in spans.iter().filter(|s| kinds.contains(&s.kind)) {
        let children = child_ns.get(&s.id).copied().unwrap_or(0);
        hist.record(s.dur_ns.saturating_sub(children));
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_of_the_same_op() {
        let op = |id, kind, dur_ns| Span {
            id,
            op: id,
            parent: 0,
            kind,
            thread: 0,
            start_ns: 0,
            dur_ns,
        };
        let child = |id, parent, kind, dur_ns| Span {
            id,
            op: parent,
            parent,
            kind,
            thread: 0,
            start_ns: 0,
            dur_ns,
        };
        let spans = [
            op(10, Kind::Put, 3_000),
            child(1, 10, Kind::Decide, 150),
            child(2, 10, Kind::WalSync, 1_000),
            op(11, Kind::Get, 500),
            child(3, 0, Kind::Decide, 99),
        ];
        let puts = self_times(&spans, &[Kind::Put]);
        assert_eq!(puts.count(), 1);
        assert_eq!(puts.sum(), 1_850);
        assert_eq!(self_times(&spans, &[Kind::Get]).sum(), 500);
    }
}
