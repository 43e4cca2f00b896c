//! The deterministic event loop: one heap, one clock, zero host
//! nondeterminism.
//!
//! A [`Sim`] owns the whole world — the real [`Store`], the simulated
//! fabric, every process — and executes a single totally-ordered event
//! sequence. Events are ordered by `(time, insertion seq)`: two events
//! at the same simulated instant run in the order they were scheduled,
//! which is itself deterministic, so the entire run is a pure function
//! of (scenario, seed, fault script).
//!
//! Faults and workloads are *different event kinds on the same heap*:
//! [`EvKind::Kill`], [`EvKind::Partition`], [`EvKind::SetNetRates`] and
//! [`EvKind::SetStoreFaultRate`] are the fault plane; process wakes and
//! deliveries are the workload plane. A scenario is just an initial
//! population of both.
//!
//! Kills are role-based: killing `"server"` takes down whichever
//! incarnation currently holds that role, closes every connection it
//! touched (peers see [`Payload::Closed`]), and parks the corpse in a
//! graveyard — its [`StoreClient`](ff_store::StoreClient) stays
//! allocated but forever idle, which is exactly the crashed-process
//! model of the paper: the shared object survives, the process does
//! not.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;

use ff_store::{Store, StoreConfig};

use crate::clock::SimClock;
use crate::disk::SimDisk;
use crate::net::{ConnId, FaultRates, NetConfig, Payload, ScriptMode, SimNet};
use crate::process::{
    ClientCfg, ClientProc, DurableServerProc, Outbox, Proc, RunFlags, ServerProc, HANDLE_DELAY,
};
use crate::rng::{splitmix64, SimRng};
use crate::topology::{MachineId, ProcId, Topology};
use crate::trace::{FaultScript, Trace};

/// How to create a process — also the respawn recipe after a kill.
#[derive(Clone, Debug)]
pub enum ProcSpec {
    /// A store server (network face of the shared [`Store`]).
    Server {
        /// Host machine.
        machine: MachineId,
        /// Role name clients connect to.
        role: String,
    },
    /// A server owning its own durable store, recovered from the host
    /// machine's [`SimDisk`] at every (re)spawn. Killing it drops the
    /// store; the machine's disk bytes survive for the next
    /// incarnation. If recovery is refused (replay divergence under a
    /// faulty backend), the respawn stays down and the refusal is
    /// flagged — never served as data.
    DurableServer {
        /// Host machine — also names the surviving disk.
        machine: MachineId,
        /// Role name clients connect to.
        role: String,
        /// The store configuration every incarnation recovers under
        /// (durability knobs apply to the simulated disk; no data dir
        /// is needed).
        config: StoreConfig,
    },
    /// A wire-protocol transaction generator.
    Client {
        /// Host machine.
        machine: MachineId,
        /// Own role name.
        role: String,
        /// Role of the server to talk to.
        server_role: String,
        /// Workload knobs.
        cfg: ClientCfg,
    },
}

impl ProcSpec {
    fn role(&self) -> &str {
        match self {
            ProcSpec::Server { role, .. }
            | ProcSpec::DurableServer { role, .. }
            | ProcSpec::Client { role, .. } => role,
        }
    }
}

/// One scheduled event.
#[derive(Debug)]
pub enum EvKind {
    /// Run a process's wake handler.
    Wake(ProcId),
    /// A network arrival.
    Deliver {
        /// Connection it arrived on.
        conn: ConnId,
        /// Receiving process.
        to: ProcId,
        /// Bytes or close notification.
        payload: Payload,
    },
    /// Kill whichever process currently holds `role`.
    Kill(String),
    /// Power-fail the machine hosting `role`: kill the process *and*
    /// apply [`SimDisk::crash`] semantics to the machine's disk — the
    /// group-commit batch whose fsync was in flight survives only as a
    /// seeded torn prefix.
    PowerFail(String),
    /// (Re)spawn a process.
    Spawn(ProcSpec),
    /// Change the fabric's fault probabilities.
    SetNetRates(FaultRates),
    /// Change every shard's store-level fault rate.
    SetStoreFaultRate(f64),
    /// Open (`on`) or heal a machine-pair partition.
    Partition {
        /// One side.
        a: MachineId,
        /// Other side.
        b: MachineId,
        /// Open when true, heal when false.
        on: bool,
    },
}

struct Ev {
    at: u64,
    seq: u64,
    kind: EvKind,
}

impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

fn fnv(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in s.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Everything a finished run reports.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Scenario name.
    pub scenario: String,
    /// Arm name (`robust` / `naive` / `torn`, or any substrate name).
    pub arm: String,
    /// Root seed.
    pub seed: u64,
    /// Events executed.
    pub events: u64,
    /// Network fault decisions made.
    pub decisions: u64,
    /// FNV fingerprint of the trace — the determinism check.
    pub trace_hash: u64,
    /// Every trace line (for golden files and debugging).
    pub trace: Vec<String>,
    /// Did `Store::verify` end consistent?
    pub consistent: bool,
    /// Was any divergence *flagged* (verify failure, server error, or a
    /// divergence error frame at a client)? A faulty backend must land
    /// here — never at "inconsistent but unflagged".
    pub flagged: bool,
    /// Contract breaches for this arm (empty = the arm behaved).
    pub violations: Vec<String>,
    /// Total transactions/units completed across all workload procs.
    pub completed: u64,
    /// Durable-server respawns whose WAL recovery was refused (replay
    /// divergence under a faulty backend) — always flagged.
    pub recovery_refused: u64,
    /// Checkpoint snapshots loaded at the live durable server's boot.
    pub recovered_checkpoints: u64,
    /// Slot records replayed at the live durable server's boot.
    pub recovered_records: u64,
    /// Shards whose WAL ended in a torn/corrupt tail at that boot.
    pub recovered_torn: u64,
    /// The fault script (recorded, or the one replayed).
    pub script: FaultScript,
}

/// The whole simulated world plus its event loop.
pub struct Sim {
    /// Simulated clock (advance-only).
    pub clock: SimClock,
    /// Machines and process labels.
    pub topo: Topology,
    /// The lossy fabric.
    pub net: SimNet,
    /// The decision log.
    pub trace: Trace,
    /// The real store under test, shared by every server.
    pub store: Arc<Store>,
    /// Cross-cutting observations.
    pub flags: RunFlags,
    /// Per-machine durable bytes — they survive kills by construction
    /// (the map belongs to the world, not to any process).
    disks: BTreeMap<MachineId, Arc<SimDisk>>,
    procs: Vec<Option<Proc>>,
    graveyard: Vec<Proc>,
    roles: BTreeMap<String, ProcId>,
    incarnations: BTreeMap<String, u64>,
    heap: BinaryHeap<Reverse<Ev>>,
    seq: u64,
    events: u64,
    event_cap: u64,
    horizon: u64,
    workload_rng: SimRng,
    /// Seeds the torn-write cut on a power-fail (own fork: crash draws
    /// never shift fault, jitter or workload streams).
    crash_rng: SimRng,
}

impl Sim {
    /// A fresh world around `store`. The root seed is forked into
    /// independent fault, jitter and workload streams, so a scenario
    /// that adds workload draws does not shift fault decisions (and
    /// vice versa).
    pub fn new(
        store: Store,
        net_cfg: NetConfig,
        seed: u64,
        horizon: u64,
        mode: ScriptMode,
    ) -> Self {
        let mut root = SimRng::new(seed);
        let fault = root.fork(1);
        let jitter = root.fork(2);
        let workload = root.fork(3);
        let crash = root.fork(4);
        Sim {
            clock: SimClock::new(),
            topo: Topology::new(),
            net: SimNet::new(net_cfg, fault, jitter, mode),
            trace: Trace::new(),
            store: Arc::new(store),
            flags: RunFlags::default(),
            disks: BTreeMap::new(),
            procs: Vec::new(),
            graveyard: Vec::new(),
            roles: BTreeMap::new(),
            incarnations: BTreeMap::new(),
            heap: BinaryHeap::new(),
            seq: 0,
            events: 0,
            event_cap: 4_000_000,
            horizon,
            workload_rng: workload,
            crash_rng: crash,
        }
    }

    /// The durable disk of `machine`, created empty on first use. The
    /// disk outlives every process on the machine.
    pub fn disk(&mut self, machine: MachineId) -> Arc<SimDisk> {
        Arc::clone(self.disks.entry(machine).or_default())
    }

    /// Schedule `kind` at absolute simulated time `at`.
    pub fn at(&mut self, at: u64, kind: EvKind) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Ev { at, seq, kind }));
    }

    /// Events executed so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// The process currently holding `role`, if alive.
    pub fn proc_by_role(&self, role: &str) -> Option<&Proc> {
        let pid = *self.roles.get(role)?;
        self.procs[pid.0 as usize].as_ref()
    }

    /// Every process that ever lived — live ones first, then the
    /// graveyard — for end-of-run accounting.
    pub fn all_procs(&self) -> impl Iterator<Item = &Proc> {
        self.procs.iter().flatten().chain(self.graveyard.iter())
    }

    /// Create a process now, register its role, and schedule its first
    /// wake. Respawns reuse the role name and get a fresh [`ProcId`]
    /// and a fresh (but deterministic) workload stream keyed on
    /// `(role, incarnation)`.
    pub fn spawn(&mut self, spec: ProcSpec) -> ProcId {
        let now = self.clock.now();
        let role = spec.role().to_string();
        let inc = self.incarnations.entry(role.clone()).or_insert(0);
        *inc += 1;
        let label = format!("{role}#{inc}");
        let rng_label = splitmix64(fnv(&role)).wrapping_add(*inc);
        let rng = self.workload_rng.fork(rng_label);
        if let ProcSpec::DurableServer {
            machine,
            role: _,
            mut config,
        } = spec
        {
            // A restarted process does not re-experience the previous
            // incarnation's fault randomness: key the store's fault
            // streams on (role, incarnation). This is what gives the
            // recovery digest cross-check teeth — a naive backend's
            // replay diverges instead of faithfully re-corrupting.
            config.seed = splitmix64(config.seed ^ rng_label);
            return self.spawn_durable(now, machine, role, label, config);
        }
        let (machine, proc_ctor): (MachineId, Box<dyn FnOnce(ProcId, SimRng) -> Proc>) = match spec
        {
            ProcSpec::Server { machine, role: _ } => {
                let store = Arc::clone(&self.store);
                (
                    machine,
                    Box::new(move |id, _| Proc::Server(ServerProc::new(id, store))),
                )
            }
            ProcSpec::Client {
                machine,
                role: _,
                server_role,
                cfg,
            } => (
                machine,
                Box::new(move |id, rng| Proc::Client(ClientProc::new(id, server_role, cfg, rng))),
            ),
            ProcSpec::DurableServer { .. } => unreachable!("handled above"),
        };
        let pid = self.topo.process(machine, label.clone());
        debug_assert_eq!(pid.0 as usize, self.procs.len());
        self.procs.push(Some(proc_ctor(pid, rng)));
        self.roles.insert(role, pid);
        self.trace.log(now, format!("spawn {label} as {pid}"));
        self.at(now + HANDLE_DELAY, EvKind::Wake(pid));
        pid
    }

    /// (Re)boot a durable server: recover its store from the machine's
    /// surviving disk bytes. First boot over an empty disk recovers to
    /// a fresh store (zero report). A refused recovery — replay
    /// divergence under a faulty backend, the discriminator the
    /// kill-recover scenario pins — leaves the role down and is
    /// counted in [`RunFlags::recovery_refused`]: the store never
    /// serves state it cannot vouch for.
    fn spawn_durable(
        &mut self,
        now: u64,
        machine: MachineId,
        role: String,
        label: String,
        config: StoreConfig,
    ) -> ProcId {
        let disk = self.disk(machine);
        match Store::recover_with_media(config, disk) {
            Ok((store, recovery)) => {
                self.trace.log(
                    now,
                    format!(
                        "recover {label}: {} checkpoint(s), {} record(s) replayed, {} torn tail(s)",
                        recovery.checkpoints_loaded(),
                        recovery.records_replayed(),
                        recovery.torn_tails()
                    ),
                );
                let pid = self.topo.process(machine, label.clone());
                debug_assert_eq!(pid.0 as usize, self.procs.len());
                self.procs.push(Some(Proc::DurableServer(DurableServerProc {
                    id: pid,
                    server: Some(ServerProc::new(pid, Arc::new(store))),
                    recovery,
                })));
                self.roles.insert(role, pid);
                self.trace.log(now, format!("spawn {label} as {pid}"));
                self.at(now + HANDLE_DELAY, EvKind::Wake(pid));
                pid
            }
            Err(e) => {
                self.flags.recovery_refused += 1;
                self.trace.log(now, format!("recover {label} REFUSED: {e}"));
                // The pid stays registered (dense ids) but the slot is
                // empty and the role vacant: clients keep retrying.
                let pid = self.topo.process(machine, label);
                debug_assert_eq!(pid.0 as usize, self.procs.len());
                self.procs.push(None);
                pid
            }
        }
    }

    fn kill(&mut self, role: &str) {
        let now = self.clock.now();
        let Some(pid) = self.roles.remove(role) else {
            self.trace
                .log(now, format!("kill {role}: no such role (already dead)"));
            return;
        };
        let mut corpse = self.procs[pid.0 as usize]
            .take()
            .expect("role table pointed at an empty slot");
        // Volatile state dies with the process — for a durable server
        // that drops its store (and the WAL's unsynced group-commit
        // buffer with it); the machine's disk bytes survive in
        // `self.disks`.
        corpse.crashed();
        self.trace.log(
            now,
            format!("kill {role} ({pid} on {})", self.topo.machine_of(pid)),
        );
        for conn in self.net.conns_of(pid) {
            if let Some(d) = self.net.close(now, conn, pid) {
                self.at(
                    d.at,
                    EvKind::Deliver {
                        conn: d.conn,
                        to: d.to,
                        payload: d.payload,
                    },
                );
            }
        }
        self.graveyard.push(corpse);
    }

    /// Power-fail the machine hosting `role`: the kill plus
    /// [`SimDisk::crash`] on its disk — the last in-flight group
    /// commit survives only as a seeded torn prefix.
    fn power_fail(&mut self, role: &str) {
        let machine = self.roles.get(role).map(|&pid| self.topo.machine_of(pid));
        self.kill(role);
        let now = self.clock.now();
        let Some(disk) = machine.and_then(|m| self.disks.get(&m)).map(Arc::clone) else {
            return; // no durable state on that machine: plain kill
        };
        for torn in disk.crash(&mut self.crash_rng) {
            self.trace.log(
                now,
                format!(
                    "power-fail {role}: {} torn ({} of {} in-flight bytes survive)",
                    torn.name, torn.kept, torn.in_flight
                ),
            );
        }
    }

    fn drain(&mut self, outbox: Outbox) {
        for d in outbox.deliveries {
            self.at(
                d.at,
                EvKind::Deliver {
                    conn: d.conn,
                    to: d.to,
                    payload: d.payload,
                },
            );
        }
        for (at, who) in outbox.wakes {
            self.at(at, EvKind::Wake(who));
        }
    }

    fn dispatch_wake(&mut self, pid: ProcId) {
        let Some(mut proc) = self.procs[pid.0 as usize].take() else {
            return; // woke a corpse — stale timer, drop it
        };
        let now = self.clock.now();
        let mut outbox = Outbox::default();
        match &mut proc {
            Proc::Server(p) => p.wake(
                now,
                &mut self.net,
                &self.topo,
                &mut self.trace,
                &mut self.flags,
                &mut outbox,
            ),
            Proc::DurableServer(p) => p.wake(
                now,
                &mut self.net,
                &self.topo,
                &mut self.trace,
                &mut self.flags,
                &mut outbox,
            ),
            Proc::Client(p) => p.wake(
                now,
                &mut self.net,
                &self.topo,
                &mut self.trace,
                &self.roles,
                &mut outbox,
            ),
        }
        self.procs[pid.0 as usize] = Some(proc);
        self.drain(outbox);
    }

    fn dispatch_deliver(&mut self, conn: ConnId, to: ProcId, payload: Payload) {
        let Some(mut proc) = self.procs[to.0 as usize].take() else {
            self.trace
                .log(self.clock.now(), format!("deliver to dead {to} dropped"));
            return;
        };
        let now = self.clock.now();
        let mut outbox = Outbox::default();
        match &mut proc {
            Proc::Server(p) => p.on_deliver(now, conn, payload, &mut outbox),
            Proc::DurableServer(p) => p.on_deliver(now, conn, payload, &mut outbox),
            Proc::Client(p) => p.on_deliver(
                now,
                conn,
                payload,
                &mut self.net,
                &mut self.trace,
                &mut self.flags,
                &mut outbox,
            ),
        }
        self.procs[to.0 as usize] = Some(proc);
        self.drain(outbox);
    }

    /// Run to the horizon (or heap exhaustion). Panics past the event
    /// cap — a runaway schedule is a scenario bug, not a result.
    pub fn run(&mut self) {
        while let Some(Reverse(ev)) = self.heap.pop() {
            if ev.at > self.horizon {
                break;
            }
            self.events += 1;
            assert!(
                self.events <= self.event_cap,
                "event cap exceeded: runaway scenario"
            );
            self.clock.advance_to(ev.at);
            match ev.kind {
                EvKind::Wake(pid) => self.dispatch_wake(pid),
                EvKind::Deliver { conn, to, payload } => self.dispatch_deliver(conn, to, payload),
                EvKind::Kill(role) => self.kill(&role),
                EvKind::PowerFail(role) => self.power_fail(&role),
                EvKind::Spawn(spec) => {
                    self.spawn(spec);
                }
                EvKind::SetNetRates(rates) => {
                    self.trace.log(
                        self.clock.now(),
                        format!(
                            "net rates drop={} dup={} delay={} reorder={}",
                            rates.drop, rates.duplicate, rates.delay, rates.reorder
                        ),
                    );
                    self.net.set_rates(rates);
                }
                EvKind::SetStoreFaultRate(rate) => {
                    self.trace
                        .log(self.clock.now(), format!("store fault rate -> {rate}"));
                    for s in 0..self.store.shards() {
                        self.store.fault_knob(s).set_rate(rate);
                    }
                }
                EvKind::Partition { a, b, on } => {
                    self.trace.log(
                        self.clock.now(),
                        format!("partition {a}<->{b} {}", if on { "open" } else { "healed" }),
                    );
                    self.net.set_partition(a, b, on);
                }
            }
        }
    }
}
