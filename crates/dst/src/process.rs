//! The simulated processes: what actually runs on the datacenter's
//! machines.
//!
//! Three process kinds cover the stack the simulator kills:
//!
//! * [`ServerProc`] — the network face of the real [`Store`]: one
//!   socket-free [`Session`] (the *same* state machine the production
//!   reactor drives) per simulated connection, served by ff-net's own
//!   [`serve`] pass — one merged run executed through a real
//!   [`StoreClient`], STATS answered from the same [`ServeCounters`]
//!   production reports. Killing it models
//!   a server crash: sessions and buffered responses vanish, the store
//!   itself survives (its logs are the durable shared object, like
//!   shared memory survives a thread crash in the paper's model).
//! * [`ClientProc`] — a transaction generator speaking the real wire
//!   protocol: encodes `BATCH` frames with [`encode_request`], decodes
//!   responses with [`decode_response`], and recovers from timeouts,
//!   closed connections and corrupted streams by reconnecting and
//!   resending — at-least-once, like any real client.
//! * [`DurableServerProc`] — a server owning its own durable store;
//!   killing it drops the store and the respawn recovers from the
//!   machine's surviving disk bytes.
//!
//! Handlers never touch the event heap directly: they push follow-up
//! wakes and network deliveries into an [`Outbox`] the runner drains,
//! which keeps every process a pure state machine over (time, input).

use std::collections::BTreeMap;
use std::sync::Arc;

use ff_net::session::{serve, ServeCounters, Session};
use ff_net::wire::{decode_response, encode_request, Decoded, ErrorCode, Request, Response};
use ff_store::{Kv, KvOp, Store, StoreClient, StoreError};

use crate::net::{ConnId, Delivery, Payload, SimNet};
use crate::rng::SimRng;
use crate::topology::{ProcId, Topology};
use crate::trace::Trace;

/// Small fixed handling latency between a delivery and the wake that
/// serves it (keeps wakes strictly after their triggering arrival).
pub const HANDLE_DELAY: u64 = 10_000; // 10 µs

/// Follow-up work a handler schedules.
#[derive(Default)]
pub struct Outbox {
    /// Network arrivals to enqueue.
    pub deliveries: Vec<Delivery>,
    /// `(at, who)` wake-ups to enqueue.
    pub wakes: Vec<(u64, ProcId)>,
}

impl Outbox {
    /// Queue a wake for `who` at `at`.
    pub fn wake(&mut self, at: u64, who: ProcId) {
        self.wakes.push((at, who));
    }
}

/// Cross-cutting observations the report aggregates.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunFlags {
    /// Merged runs the server answered with a divergence error.
    pub server_divergence: u64,
    /// Response streams a client abandoned as undecodable.
    pub client_stream_resets: u64,
    /// Sessions the server closed after a malformed request stream.
    pub malformed_closes: u64,
    /// Durable-server respawns whose WAL recovery was refused (replay
    /// divergence or I/O failure) — the respawn stays down.
    pub recovery_refused: u64,
}

/// Any simulated process.
pub enum Proc {
    /// The store's network front-end.
    Server(ServerProc),
    /// A server owning its *own* durable store over a machine's
    /// [`SimDisk`](crate::disk::SimDisk) — killing it drops the store,
    /// and the respawn recovers from the surviving bytes.
    DurableServer(DurableServerProc),
    /// A wire-protocol transaction generator.
    Client(ClientProc),
}

impl Proc {
    /// The process's own id.
    pub fn id(&self) -> ProcId {
        match self {
            Proc::Server(p) => p.id,
            Proc::DurableServer(p) => p.id,
            Proc::Client(p) => p.id,
        }
    }

    /// The process just got killed: release anything that must not
    /// survive a crash. For a durable server that is its whole store —
    /// sessions, the combining layer, and crucially the WAL's in-memory
    /// group-commit buffer all vanish; only the [`SimDisk`]'s bytes
    /// remain for the respawn to recover from.
    ///
    /// [`SimDisk`]: crate::disk::SimDisk
    pub fn crashed(&mut self) {
        if let Proc::DurableServer(p) = self {
            p.server = None;
        }
    }
}

// ---------------------------------------------------------------- server

/// The network-facing store server (see module docs).
pub struct ServerProc {
    /// Own process id.
    pub id: ProcId,
    /// Executes every merged run (combining client: self-combines).
    pub client: StoreClient,
    /// The store this server fronts; STATS reads its counters.
    pub store: Arc<Store>,
    /// One protocol state machine per live connection — the exact
    /// `Session` the production reactor drives over TCP.
    pub sessions: BTreeMap<u32, Session>,
    /// This incarnation's serve passes, as a STATS frame reports them.
    pub counters: ServeCounters,
}

impl ServerProc {
    /// A fresh incarnation serving `store` through its own client.
    pub fn new(id: ProcId, store: Arc<Store>) -> Self {
        ServerProc {
            id,
            client: store.client(),
            store,
            sessions: BTreeMap::new(),
            counters: ServeCounters::default(),
        }
    }

    /// Bytes or a close arrived on `conn`.
    pub fn on_deliver(&mut self, now: u64, conn: ConnId, payload: Payload, outbox: &mut Outbox) {
        match payload {
            Payload::Bytes(bytes) => {
                self.sessions.entry(conn.0).or_default().ingest(&bytes);
                outbox.wake(now + HANDLE_DELAY, self.id);
            }
            Payload::Closed => {
                self.sessions.remove(&conn.0);
            }
        }
    }

    /// One [`serve`] pass over every session, then ship each session's
    /// output.
    #[allow(clippy::too_many_arguments)]
    pub fn wake(
        &mut self,
        now: u64,
        net: &mut SimNet,
        topo: &Topology,
        trace: &mut Trace,
        flags: &mut RunFlags,
        outbox: &mut Outbox,
    ) {
        let active = self.sessions.len() as u32;
        let client = &mut self.client;
        let outcome = serve(
            self.sessions.values_mut(),
            &mut Vec::new(),
            &self.counters,
            &self.store,
            active,
            |ops| client.batch(ops),
        );
        if let Some(Err(e)) = &outcome {
            if matches!(e, StoreError::Divergence { .. }) {
                flags.server_divergence += 1;
            }
            trace.log(now, format!("server run-error {e}"));
        }
        let mut closed = Vec::new();
        for (&cid, session) in self.sessions.iter_mut() {
            let out = session.take_output();
            if !out.is_empty() {
                let sends = net.send(now, ConnId(cid), self.id, out, topo, trace);
                outbox.deliveries.extend(sends);
            }
            if session.closing() {
                // Framing lost: answer shipped, connection done.
                flags.malformed_closes += 1;
                trace.log(now, format!("server close c{cid} (malformed stream)"));
                closed.push(cid);
            }
        }
        for cid in closed {
            self.sessions.remove(&cid);
            if let Some(d) = net.close(now, ConnId(cid), self.id) {
                outbox.deliveries.push(d);
            }
        }
    }
}

// ------------------------------------------------------- durable server

/// A server that owns its own durable [`Store`] recovered from a
/// machine's [`SimDisk`](crate::disk::SimDisk). The protocol face is a
/// plain [`ServerProc`] (same sessions, same serve pass); the
/// difference is ownership — the store dies with the process, and the
/// next incarnation rebuilds it from the disk via
/// [`Store::recover_with_media`].
pub struct DurableServerProc {
    /// Own process id.
    pub id: ProcId,
    /// The protocol face and the recovered store it alone holds; `None`
    /// after a crash (the corpse never acts).
    pub server: Option<ServerProc>,
    /// What recovery found when this incarnation booted (zeros on the
    /// first boot over an empty disk).
    pub recovery: ff_store::RecoveryReport,
}

impl DurableServerProc {
    /// Delegate to the inner protocol face (no-op on a corpse).
    pub fn on_deliver(&mut self, now: u64, conn: ConnId, payload: Payload, outbox: &mut Outbox) {
        if let Some(s) = &mut self.server {
            s.on_deliver(now, conn, payload, outbox);
        }
    }

    /// Delegate to the inner protocol face (no-op on a corpse).
    #[allow(clippy::too_many_arguments)]
    pub fn wake(
        &mut self,
        now: u64,
        net: &mut SimNet,
        topo: &Topology,
        trace: &mut Trace,
        flags: &mut RunFlags,
        outbox: &mut Outbox,
    ) {
        if let Some(s) = &mut self.server {
            s.wake(now, net, topo, trace, flags, outbox);
        }
    }
}

// ---------------------------------------------------------------- client

/// Workload knobs of one transaction generator.
#[derive(Clone, Copy, Debug)]
pub struct ClientCfg {
    /// Keys drawn uniformly from `0..keyspace`.
    pub keyspace: u32,
    /// Operations per `BATCH` transaction.
    pub batch: usize,
    /// Resend after this long without a response (nanoseconds).
    pub timeout: u64,
    /// Pause between transactions (nanoseconds).
    pub think: u64,
    /// Stop after this many completed transactions.
    pub target: u64,
}

/// One in-flight transaction.
struct InFlight {
    id: u32,
    ops: Vec<KvOp>,
    sent_at: u64,
}

/// A wire-protocol transaction generator (see module docs).
pub struct ClientProc {
    /// Own process id.
    pub id: ProcId,
    /// Role of the server it talks to (stable across server restarts).
    pub server_role: String,
    /// Workload knobs.
    pub cfg: ClientCfg,
    /// Private workload stream.
    pub rng: SimRng,
    conn: Option<ConnId>,
    rx: Vec<u8>,
    next_id: u32,
    inflight: Option<InFlight>,
    /// Transactions resolved (answered or definitively errored).
    pub completed: u64,
    /// Divergence error frames received — the flag the naive backend
    /// must raise instead of answering wrong.
    pub divergence_seen: u64,
    /// Non-divergence error frames received.
    pub errors_seen: u64,
    /// Timeout/close/corruption resends.
    pub retries: u64,
}

impl ClientProc {
    /// A fresh client; the runner schedules its first wake.
    pub fn new(id: ProcId, server_role: String, cfg: ClientCfg, rng: SimRng) -> Self {
        ClientProc {
            id,
            server_role,
            cfg,
            rng,
            conn: None,
            rx: Vec::new(),
            next_id: 1,
            inflight: None,
            completed: 0,
            divergence_seen: 0,
            errors_seen: 0,
            retries: 0,
        }
    }

    fn build_txn(&mut self) -> Vec<KvOp> {
        (0..self.cfg.batch)
            .map(|_| {
                let key = self.rng.next_range(self.cfg.keyspace as u64) as u32;
                match self.rng.next_range(10) {
                    0..=4 => KvOp::Put(key, self.rng.next_range(1 << 16) as u32),
                    5..=8 => KvOp::Get(key),
                    _ => KvOp::Del(key),
                }
            })
            .collect()
    }

    #[allow(clippy::too_many_arguments)]
    fn send_current(
        &mut self,
        now: u64,
        net: &mut SimNet,
        topo: &Topology,
        trace: &mut Trace,
        roles: &BTreeMap<String, ProcId>,
        outbox: &mut Outbox,
    ) {
        let Some(inflight) = &mut self.inflight else {
            return;
        };
        let conn = match self.conn {
            Some(c) if net.alive(c) => c,
            _ => {
                let Some(&server) = roles.get(&self.server_role) else {
                    // Server down and not yet restarted; the timeout
                    // wake retries.
                    trace.log(
                        now,
                        format!("{} no server for role {}", self.id, self.server_role),
                    );
                    outbox.wake(now + self.cfg.timeout, self.id);
                    inflight.sent_at = now;
                    return;
                };
                self.rx.clear();
                let c = net.connect(self.id, server);
                self.conn = Some(c);
                c
            }
        };
        let mut wire = Vec::new();
        encode_request(
            &mut wire,
            inflight.id,
            &Request::Batch(inflight.ops.clone()),
        );
        inflight.sent_at = now;
        let sends = net.send(now, conn, self.id, wire, topo, trace);
        outbox.deliveries.extend(sends);
        outbox.wake(now + self.cfg.timeout, self.id);
    }

    /// Start the next transaction, or resend the current one after a
    /// timeout or lost connection.
    #[allow(clippy::too_many_arguments)]
    pub fn wake(
        &mut self,
        now: u64,
        net: &mut SimNet,
        topo: &Topology,
        trace: &mut Trace,
        roles: &BTreeMap<String, ProcId>,
        outbox: &mut Outbox,
    ) {
        if let Some(inflight) = &self.inflight {
            let lost = self.conn.is_none_or(|c| !net.alive(c));
            if lost || now >= inflight.sent_at + self.cfg.timeout {
                self.retries += 1;
                trace.log(
                    now,
                    format!(
                        "{} retry txn={} (retry #{}, {})",
                        self.id,
                        inflight.id,
                        self.retries,
                        if lost { "conn lost" } else { "timeout" }
                    ),
                );
                if let Some(c) = self.conn.take() {
                    if let Some(d) = net.close(now, c, self.id) {
                        outbox.deliveries.push(d);
                    }
                }
                self.send_current(now, net, topo, trace, roles, outbox);
            }
            // Else: a stale wake (the response already arrived, or a
            // newer send reset the timer); the live timer wake handles
            // the rest.
            return;
        }
        if self.completed >= self.cfg.target {
            return;
        }
        let ops = self.build_txn();
        let id = self.next_id;
        self.next_id += 1;
        self.inflight = Some(InFlight {
            id,
            ops,
            sent_at: now,
        });
        self.send_current(now, net, topo, trace, roles, outbox);
    }

    /// Response bytes or a close arrived.
    #[allow(clippy::too_many_arguments)]
    pub fn on_deliver(
        &mut self,
        now: u64,
        conn: ConnId,
        payload: Payload,
        net: &mut SimNet,
        trace: &mut Trace,
        flags: &mut RunFlags,
        outbox: &mut Outbox,
    ) {
        if self.conn != Some(conn) {
            return; // stale connection's leftovers
        }
        match payload {
            Payload::Closed => {
                self.conn = None;
                self.rx.clear();
                if self.inflight.is_some() {
                    outbox.wake(now + HANDLE_DELAY, self.id);
                }
            }
            Payload::Bytes(bytes) => {
                self.rx.extend_from_slice(&bytes);
                let mut at = 0;
                loop {
                    match decode_response(&self.rx[at..]) {
                        Ok(Decoded::NeedMoreData) => break,
                        Ok(Decoded::Frame { frame, consumed }) => {
                            at += consumed;
                            self.on_response(now, frame.id, frame.resp, trace, outbox);
                        }
                        Err(e) => {
                            // The lossy fabric corrupted the stream
                            // (dropped/reordered chunk mid-frame):
                            // abandon the connection, the resend path
                            // recovers.
                            flags.client_stream_resets += 1;
                            trace.log(now, format!("{} response stream corrupt: {e}", self.id));
                            self.rx.clear();
                            if let Some(c) = self.conn.take() {
                                if let Some(d) = net.close(now, c, self.id) {
                                    outbox.deliveries.push(d);
                                }
                            }
                            outbox.wake(now + HANDLE_DELAY, self.id);
                            return;
                        }
                    }
                }
                self.rx.drain(..at);
            }
        }
    }

    fn on_response(
        &mut self,
        now: u64,
        id: u32,
        resp: Response,
        trace: &mut Trace,
        outbox: &mut Outbox,
    ) {
        let current = self.inflight.as_ref().map(|f| f.id);
        if current != Some(id) {
            // A duplicate of an already-answered frame, or the id-0
            // malformed notice that precedes a server-side close.
            if let Response::Error { .. } = resp {
                self.errors_seen += 1;
            }
            return;
        }
        match resp {
            Response::Batch(_) => {
                self.completed += 1;
                self.inflight = None;
                outbox.wake(now + self.cfg.think, self.id);
            }
            Response::Error {
                code: ErrorCode::Divergence,
                ..
            } => {
                // The store refused to answer from diverged state: the
                // flag, not a wrong value. The transaction is resolved.
                self.divergence_seen += 1;
                self.completed += 1;
                self.inflight = None;
                trace.log(now, format!("{} divergence error on txn={id}", self.id));
                outbox.wake(now + self.cfg.think, self.id);
            }
            Response::Error { .. } => {
                self.errors_seen += 1;
                self.completed += 1;
                self.inflight = None;
                outbox.wake(now + self.cfg.think, self.id);
            }
            // A BATCH is never answered with these.
            Response::Value(_) | Response::Stats(_) | Response::Pong => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{NetConfig, ScriptMode};
    use ff_store::StoreConfig;

    #[test]
    fn stats_answer_carries_the_serve_counters() {
        let mut topo = Topology::new();
        let machine = topo.machine("m");
        let peer = topo.process(machine, "client");
        let pid = topo.process(machine, "server");
        let mut root = SimRng::new(7);
        let mut net = SimNet::new(
            NetConfig::default(),
            root.fork(1),
            root.fork(2),
            ScriptMode::Record,
        );
        let conn = net.connect(peer, pid);
        let store = Arc::new(Store::new(
            StoreConfig::builder().shards(3).build().unwrap(),
        ));
        let mut server = ServerProc::new(pid, store);

        let batch = vec![KvOp::Put(1, 10), KvOp::Get(1), KvOp::Del(2)];
        let mut wire = Vec::new();
        encode_request(&mut wire, 1, &Request::Batch(batch.clone()));
        encode_request(&mut wire, 2, &Request::Stats);
        let mut outbox = Outbox::default();
        server.on_deliver(0, conn, Payload::Bytes(wire), &mut outbox);
        let (mut trace, mut flags) = (Trace::new(), RunFlags::default());
        server.wake(
            HANDLE_DELAY,
            &mut net,
            &topo,
            &mut trace,
            &mut flags,
            &mut outbox,
        );

        let mut bytes = Vec::new();
        for d in &outbox.deliveries {
            if let Payload::Bytes(b) = &d.payload {
                bytes.extend_from_slice(b);
            }
        }
        let mut answers = Vec::new();
        let mut at = 0;
        while let Ok(Decoded::Frame { frame, consumed }) = decode_response(&bytes[at..]) {
            answers.push(frame);
            at += consumed;
        }
        assert_eq!(at, bytes.len(), "undecodable response bytes");
        assert_eq!(answers.len(), 2);
        assert!(matches!(answers[0].resp, Response::Batch(ref v) if v.len() == batch.len()));
        let Response::Stats(stats) = answers[1].resp else {
            panic!("STATS answered with {:?}", answers[1].resp);
        };
        assert!(stats.runs_executed >= 1, "{stats:?}");
        assert_eq!(stats.run_ops, batch.len() as u64, "{stats:?}");
        assert!(stats.frames_staged >= 2, "{stats:?}");
        assert_eq!(stats.shards, 3);
        assert_eq!(stats.active_connections, 1);
    }
}
