//! The in-process workloads, `mem-read` and `wal-write`: [`WORKERS`]
//! threads, each with its own `StoreClient`, in a closed loop.

use crate::check::{draw, Checker, KeySlice, Mix, Rng};
use crate::layers::{self, Counters, Table};
use crate::trace::{self, Kind, TracedMedia};
use crate::{end_to_end, store_config, work_dir, Args, Outcome, Phase, Tally, KEYS, WORKERS};
use ff_store::{Backend, Kv, KvOp, Store, StoreClient, WalMedia};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, OnceLock};
use std::time::{Duration, Instant};

/// One in-process workload.
pub struct Spec {
    name: &'static str,
    mix: Mix,
    wal: bool,
}

/// Reads on the wait-free snapshot path, few writes, no WAL.
pub const MEM_READ: Spec = Spec {
    name: "mem-read",
    mix: Mix { get: 90, put: 7 },
    wal: false,
};

/// Writes through the WAL, after recovering a seeded image.
pub const WAL_WRITE: Spec = Spec {
    name: "wal-write",
    mix: Mix { get: 10, put: 60 },
    wal: true,
};

/// Operations of the single-threaded write prefix that seeds the WAL
/// image `wal-write` recovers.
const PREFIX_OPS: u64 = 300_000;
/// The prefix's mix: writes only.
const PREFIX_MIX: Mix = Mix { get: 0, put: 67 };

/// One closed-loop caller: a client, the keys it owns, and its tally.
pub struct Caller<K> {
    pub kv: K,
    pub index: usize,
    pub slice: KeySlice,
    pub rng: Rng,
    pub checker: Checker,
    pub tally: Tally,
    /// Operations completed.
    pub ops: u64,
    /// PUTs and DELs among them.
    pub writes: u64,
}

impl<K: Kv> Caller<K> {
    /// Caller `index` of [`WORKERS`], starting from `model`.
    pub fn new(kv: K, index: usize, seed: u64, model: Vec<Option<u32>>) -> Self {
        Caller {
            kv,
            index,
            slice: KeySlice::new(index, WORKERS, KEYS),
            rng: Rng::new(seed ^ (index as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407)),
            checker: Checker::from_model(model),
            tally: Tally::unbounded(),
            ops: 0,
            writes: 0,
        }
    }

    /// Issue operations of `mix` until `stop` is set or `max_ops` have
    /// run, checking every answer. With `traced`, each op is marked for
    /// the tracer and one in [`trace::SAMPLE_EVERY`] gets a span.
    pub fn drive(&mut self, mix: Mix, stop: &AtomicBool, max_ops: u64, traced: bool) {
        while self.ops < max_ops && !stop.load(Ordering::Relaxed) {
            let op = draw(&mut self.rng, mix, self.slice);
            let want = self.checker.apply(op);
            let id = trace::op_id(self.index, self.ops);
            let sampled = traced && trace::begin_op(id, self.ops);
            let start = Instant::now();
            let (got, kind) = match op {
                KvOp::Get(k) => (self.kv.get(k), Kind::Get),
                KvOp::Put(k, v) => (self.kv.put(k, v), Kind::Put),
                KvOp::Del(k) => (self.kv.del(k), Kind::Del),
            };
            let end = Instant::now();
            if traced {
                if sampled {
                    trace::op_span(id, kind, start, end);
                }
                trace::end_op();
            }
            if let Some(w) = self.tally.window(end) {
                let ns = end.duration_since(start).as_nanos() as u64;
                let lat = &self.tally.lat[w];
                if kind == Kind::Get {
                    &lat.get
                } else {
                    &lat.write
                }
                .record(ns);
                lat.frame.record(ns);
                self.tally.ops[w] += 1;
            }
            self.ops += 1;
            if kind != Kind::Get {
                self.writes += 1;
            }
            match got {
                Ok(v) => self.checker.check(op, want, v),
                Err(e) => self.checker.error(&format!("{op:?}"), &e),
            }
        }
    }
}

/// The store's configuration: traced stores run on `robust-traced`.
fn config(seed: u64, traced: bool, wal_dir: Option<&Path>) -> ff_store::StoreConfig {
    let backend = if traced {
        trace::traced_backend()
    } else {
        Backend::robust()
    };
    store_config(seed, backend, wal_dir)
}

/// Write the seeded prefix into a fresh WAL in `dir`, flush it and
/// close the store; returns the model of what it wrote.
fn write_prefix(dir: &Path, seed: u64, out: &mut Outcome) -> Vec<Option<u32>> {
    let store = Store::new(config(seed, false, Some(dir)));
    // A stream of its own, apart from the measured callers'.
    let mut c = Caller::new(store.client(), 0, !seed, vec![None; KEYS]);
    c.slice = KeySlice::new(0, 1, KEYS);
    c.drive(PREFIX_MIX, &AtomicBool::new(false), PREFIX_OPS, false);
    store.flush_wal();
    if let Some(e) = store.durability_error() {
        out.problem(format!("prefix WAL failed: {e}"));
    }
    out.attempted += c.ops;
    out.failed += c.checker.failed();
    if let Some(p) = &c.checker.first {
        out.problem(format!("prefix: {p}"));
    }
    c.checker.into_model()
}

/// A store ready to serve, and how long getting there took.
struct Opened {
    store: Store,
    took: Duration,
    media: Option<Arc<TracedMedia>>,
    recovery: Option<ff_store::RecoveryReport>,
    /// The recovered copy of the WAL image, removed by [`Opened::close`].
    dir: Option<PathBuf>,
}

impl Opened {
    /// Drop the store, then its WAL directory.
    fn close(self) {
        drop(self.store);
        if let Some(dir) = self.dir {
            // Best effort: the whole scratch space is removed at exit.
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Set up the workload's store: build a fresh one, or recover a fresh
/// copy of the prefix image. The clock stops when the first GET is
/// answered. A recovered store must then return the prefix's value for
/// every key.
fn open(
    spec: &Spec,
    args: &Args,
    scratch: &Path,
    rep: usize,
    model: &[Option<u32>],
    traced: bool,
    out: &mut Outcome,
) -> Opened {
    if !spec.wal {
        let start = Instant::now();
        let store = Store::new(config(args.seed, traced, None));
        let first = store.client().get(0);
        let took = start.elapsed();
        if first != Ok(None) {
            out.problem(format!("first GET on a fresh store answered {first:?}"));
        }
        return Opened {
            store,
            took,
            media: None,
            recovery: None,
            dir: None,
        };
    }
    let dir = scratch.join(format!("recover-{rep}"));
    copy_dir(&scratch.join("image"), &dir).expect("copying the prefix WAL image");
    let cfg = config(args.seed, traced, Some(&dir));
    let media = traced.then(|| Arc::new(TracedMedia::open(&dir).expect("opening the WAL dir")));
    let start = Instant::now();
    let recovered = match &media {
        Some(m) => Store::recover_with_media(cfg, Arc::clone(m) as Arc<dyn WalMedia>),
        None => Store::recover(cfg),
    };
    let (store, report) = recovered.expect("recovering the prefix WAL image");
    let mut client = store.client();
    let first = client.get(0);
    let took = start.elapsed();
    let mut bad = u64::from(first != Ok(model[0]));
    for key in 0..KEYS as u32 {
        bad += u64::from(client.get(key) != Ok(model[key as usize]));
    }
    out.attempted += KEYS as u64 + 1;
    out.failed += bad;
    if bad > 0 {
        out.problem(format!("{bad} keys lost or wrong after recovery"));
    }
    if rep == 0 {
        out.notes.push(format!(
            "recovery replayed {} records and loaded {} checkpoints",
            report.records_replayed(),
            report.checkpoints_loaded(),
        ));
    }
    Opened {
        store,
        took,
        media,
        recovery: Some(report),
        dir: Some(dir),
    }
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// Run [`WORKERS`] callers on `store` for `secs`, then check the
/// replicas agree. With `traced`, recording is on for exactly the
/// measured window and the largest retained log is sampled.
fn measure(
    store: &Store,
    spec: &Spec,
    args: &Args,
    secs: f64,
    model: &[Option<u32>],
    traced: bool,
    out: &mut Outcome,
) -> (Phase, usize) {
    let stop = AtomicBool::new(false);
    let ready = Barrier::new(WORKERS + 1);
    let start = OnceLock::new();
    let mut max_retained = 0;
    let callers = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|w| {
                let (stop, ready, start) = (&stop, &ready, &start);
                s.spawn(move || {
                    let mut c = Caller::new(store.client(), w, args.seed, model.to_vec());
                    ready.wait();
                    c.tally = Tally::new(*start.get().expect("set before the barrier"), secs);
                    c.drive(spec.mix, stop, u64::MAX, traced);
                    c
                })
            })
            .collect();
        trace::set_recording(traced);
        let deadline = *start.get_or_init(Instant::now) + Duration::from_secs_f64(secs);
        ready.wait();
        while Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20).min(deadline - Instant::now()));
            if traced {
                max_retained = max_retained.max(store.max_retained_len());
            }
        }
        stop.store(true, Ordering::Relaxed);
        let callers: Vec<Caller<StoreClient>> = handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect();
        trace::set_recording(false);
        callers
    });
    let (mut tallies, mut clients) = (Vec::new(), Vec::new());
    let (mut attempted, mut writes, mut failed) = (0, 0, 0);
    for c in callers {
        attempted += c.ops;
        writes += c.writes;
        failed += c.checker.failed();
        if let Some(p) = &c.checker.first {
            out.problem(format!("caller {}: {p}", c.index));
        }
        tallies.push(c.tally);
        clients.push(c.kv);
    }
    let phase = Phase {
        writes,
        attempted,
        failed,
        ..Phase::new(&tallies)
    };
    out.count(&phase);
    let report = store.verify(&mut clients);
    if !report.all_consistent() {
        out.problem(format!(
            "replicas diverged on shards {:?}",
            report.diverged_shards()
        ));
    }
    if spec.wal {
        store.flush_wal();
        if let Some(e) = store.durability_error() {
            out.problem(format!("WAL failed: {e}"));
        }
    }
    (phase, max_retained)
}

/// Run one in-process workload.
pub fn run(args: &Args, spec: Spec) -> Outcome {
    let mut out = Outcome::default();
    let scratch: PathBuf = work_dir().join(format!("{}-{}", spec.name, std::process::id()));
    let model = if spec.wal {
        write_prefix(&scratch.join("image"), args.seed, &mut out)
    } else {
        vec![None; KEYS]
    };
    if args.trace {
        traced_run(args, &spec, &scratch, &model, &mut out);
    } else {
        let (mut setups, mut opened) = (Vec::new(), None::<Opened>);
        let begin = Instant::now();
        while crate::set_up_again(setups.len(), begin.elapsed()) {
            if let Some(o) = opened.take() {
                o.close();
            }
            let o = open(&spec, args, &scratch, setups.len(), &model, false, &mut out);
            setups.push(o.took);
            opened = Some(o);
        }
        let opened = opened.expect("at least one set-up");
        let (phase, _) = measure(
            &opened.store,
            &spec,
            args,
            args.seconds,
            &model,
            false,
            &mut out,
        );
        opened.close();
        end_to_end(&phase, &setups, &mut out);
    }
    if let Err(e) = std::fs::remove_dir_all(&scratch) {
        if e.kind() != std::io::ErrorKind::NotFound {
            out.problem(format!("removing {}: {e}", scratch.display()));
        }
    }
    out
}

/// Half the run untraced, half traced: the per-layer table and the
/// tracing overhead.
fn traced_run(args: &Args, spec: &Spec, scratch: &Path, model: &[Option<u32>], out: &mut Outcome) {
    let half = args.seconds / 2.0;
    let plain = open(spec, args, scratch, 0, model, false, out);
    let (untraced, _) = measure(&plain.store, spec, args, half, model, false, out);
    plain.close();

    let traced_open = open(spec, args, scratch, 1, model, true, out);
    let mut t = Table::default();
    if let Some(r) = &traced_open.recovery {
        t.set("recover.records_replayed", r.records_replayed() as f64);
        t.set("recover.checkpoints_loaded", r.checkpoints_loaded() as f64);
        t.set("recover.s", traced_open.took.as_secs_f64());
    }
    let store = &traced_open.store;
    let before = Counters::read(store);
    trace::take_spans();
    let (traced, max_retained) = measure(store, spec, args, half, model, true, out);
    let decides = trace::decides();
    let spans = trace::take_spans();
    layers::fill_store_layers(
        &mut t,
        &traced,
        before,
        Counters::read(store),
        decides,
        max_retained,
        &spans,
    );
    if let Some(media) = &traced_open.media {
        layers::fill_wal(&mut t, media, traced.writes);
    }
    layers::set_overhead(&mut t, &untraced, &traced);
    layers::notes(out, &t, &untraced, &traced, &spans);
    layers::save_spans(out, spec.name, args.seed, &spans);
    out.metrics = t.into_metrics();
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_store::StoreError;

    /// Passes every call through, but corrupts the answer of op `at`.
    struct Corrupt<K> {
        inner: K,
        at: u64,
        seen: u64,
    }

    impl<K: Kv> Corrupt<K> {
        fn tamper(
            &mut self,
            r: Result<Option<u32>, StoreError>,
        ) -> Result<Option<u32>, StoreError> {
            self.seen += 1;
            if self.seen - 1 != self.at {
                return r;
            }
            r.map(|v| Some(v.map_or(7, |x| x ^ 1)))
        }
    }

    impl<K: Kv> Kv for Corrupt<K> {
        fn get(&mut self, key: u32) -> Result<Option<u32>, StoreError> {
            let r = self.inner.get(key);
            self.tamper(r)
        }
        fn put(&mut self, key: u32, value: u32) -> Result<Option<u32>, StoreError> {
            let r = self.inner.put(key, value);
            self.tamper(r)
        }
        fn del(&mut self, key: u32) -> Result<Option<u32>, StoreError> {
            let r = self.inner.del(key);
            self.tamper(r)
        }
        fn batch(&mut self, ops: &[KvOp]) -> Result<Vec<Option<u32>>, StoreError> {
            self.inner.batch(ops)
        }
    }

    fn wrong_answers(at: u64, mix: Mix) -> (u64, u64) {
        let store = Store::new(config(3, false, None));
        let kv = Corrupt {
            inner: store.client(),
            at,
            seen: 0,
        };
        let mut c = Caller::new(kv, 1, 3, vec![None; KEYS]);
        c.drive(mix, &AtomicBool::new(false), 3_000, false);
        (c.checker.wrong, c.checker.errors)
    }

    #[test]
    fn a_planted_wrong_answer_is_counted() {
        for mix in [MEM_READ.mix, WAL_WRITE.mix] {
            assert_eq!(wrong_answers(u64::MAX, mix), (0, 0), "clean run");
            assert_eq!(wrong_answers(1_234, mix), (1, 0), "one corrupted answer");
        }
    }

    #[test]
    fn callers_own_disjoint_keys() {
        let store = Store::new(config(4, false, None));
        let mut a = Caller::new(store.client(), 0, 4, vec![None; KEYS]);
        let mut b = Caller::new(store.client(), 1, 4, vec![None; KEYS]);
        let stop = AtomicBool::new(false);
        // Interleaved on one thread: any shared key would show as a
        // wrong answer in the other caller's model.
        for _ in 0..50 {
            let (na, nb) = (a.ops + 40, b.ops + 40);
            a.drive(WAL_WRITE.mix, &stop, na, false);
            b.drive(WAL_WRITE.mix, &stop, nb, false);
        }
        assert_eq!(a.checker.failed() + b.checker.failed(), 0);
    }
}
