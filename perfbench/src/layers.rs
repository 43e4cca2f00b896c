//! The per-layer table of a traced run, named after the program's
//! modules. Every workload reports every metric; a layer the workload
//! does not reach reads 0.

use crate::hist::Hist;
use crate::trace::{self, Kind, Span};
use crate::{Metric, Outcome, Phase};
use ff_store::Store;

/// Per-layer metrics, reported by traced runs: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("substrate.decides", "count"),
    ("substrate.decide_p50_ns", "ns"),
    ("substrate.decide_p99_ns", "ns"),
    ("substrate.decides_per_write", "ratio"),
    ("substrate.cas_ops_per_decide", "ratio"),
    ("substrate.observable_faults", "count"),
    ("universal.slots_per_write", "ratio"),
    ("universal.checkpoints", "count"),
    ("universal.max_retained", "slots"),
    ("combine.passes", "count"),
    ("combine.ops_per_pass", "ratio"),
    ("combine.fastpath_hit_rate", "fraction"),
    ("combine.write_self_p50_ns", "ns"),
    ("combine.write_self_p99_ns", "ns"),
    ("wal.appends", "count"),
    ("wal.append_p50_ns", "ns"),
    ("wal.syncs", "count"),
    ("wal.sync_p50_us", "us"),
    ("wal.sync_p99_us", "us"),
    ("wal.records_per_sync", "ratio"),
    ("wal.bytes_per_write", "bytes"),
    ("wal.rotations", "count"),
    ("recover.records_replayed", "count"),
    ("recover.checkpoints_loaded", "count"),
    ("recover.s", "s"),
    ("client.send_p50_us", "us"),
    ("client.collect_p50_us", "us"),
    ("reactor.ops_per_run", "ratio"),
    ("reactor.frames_per_run", "ratio"),
    ("reactor.max_run_ops", "count"),
    ("wire.decode_frame_ns", "ns"),
    ("wire.encode_response_ns", "ns"),
    ("trace.overhead_pct", "%"),
];

/// The per-layer metrics, all starting at 0.
pub struct Table(Vec<Metric>);

impl Default for Table {
    fn default() -> Self {
        Table(
            PER_LAYER
                .iter()
                .map(|&(name, unit)| Metric {
                    name,
                    value: 0.0,
                    unit,
                })
                .collect(),
        )
    }
}

impl Table {
    /// Set metric `name` (which must be in [`PER_LAYER`]).
    pub fn set(&mut self, name: &str, value: f64) {
        let m = self
            .0
            .iter_mut()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        m.value = if value.is_finite() { value } else { 0.0 };
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    }

    pub fn into_metrics(self) -> Vec<Metric> {
        self.0
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Store-wide counters read from outside: the log, substrate and
/// combine layers.
#[derive(Clone, Copy, Default)]
pub struct Counters {
    slots: u64,
    checkpoints: u64,
    cas_ops: u64,
    observable: u64,
    passes: u64,
    combined_ops: u64,
    hits: u64,
    misses: u64,
    wal_records: u64,
    wal_fsyncs: u64,
    wal_rotations: u64,
}

impl Counters {
    pub fn read(store: &Store) -> Self {
        let faults = store.shard_faults();
        let combine = store
            .combine_snapshot()
            .expect("every benchmark store combines");
        let wal = store.durability_snapshot().unwrap_or_default();
        Counters {
            slots: (0..store.shards())
                .map(|s| store.shard_log(s).slots_created() as u64)
                .sum(),
            checkpoints: (0..store.shards())
                .map(|s| store.shard_log(s).checkpoints_installed())
                .sum(),
            cas_ops: faults.iter().map(|f| f.cas_ops).sum(),
            observable: faults.iter().map(|f| f.observable).sum(),
            passes: combine.passes,
            combined_ops: combine.combined_ops,
            hits: combine.fastpath_hits,
            misses: combine.fastpath_misses,
            wal_records: wal.records_logged,
            wal_fsyncs: wal.fsyncs,
            wal_rotations: wal.checkpoints,
        }
    }
}

/// Fill the substrate, universal and combine layers from a traced
/// phase: counter deltas `before → after`, the decides counted by the
/// traced substrate, and the phase's spans.
pub fn fill_store_layers(
    t: &mut Table,
    phase: &Phase,
    before: Counters,
    after: Counters,
    decides: u64,
    max_retained: usize,
    spans: &[Span],
) {
    let d = |f: fn(&Counters) -> u64| f(&after).saturating_sub(f(&before));
    let h = trace::decide_hist();
    t.set("substrate.decides", decides as f64);
    t.set("substrate.decide_p50_ns", h.quantile(0.5));
    t.set("substrate.decide_p99_ns", h.quantile(0.99));
    t.set("substrate.decides_per_write", ratio(decides, phase.writes));
    t.set(
        "substrate.cas_ops_per_decide",
        ratio(d(|c| c.cas_ops), decides),
    );
    t.set("substrate.observable_faults", d(|c| c.observable) as f64);
    t.set(
        "universal.slots_per_write",
        ratio(d(|c| c.slots), phase.writes),
    );
    t.set("universal.checkpoints", d(|c| c.checkpoints) as f64);
    t.set("universal.max_retained", max_retained as f64);
    t.set("combine.passes", d(|c| c.passes) as f64);
    t.set(
        "combine.ops_per_pass",
        ratio(d(|c| c.combined_ops), d(|c| c.passes)),
    );
    let hits = d(|c| c.hits);
    t.set(
        "combine.fastpath_hit_rate",
        ratio(hits, hits + d(|c| c.misses)),
    );
    let write_self = trace::self_times(spans, &[Kind::Put, Kind::Del]);
    t.set("combine.write_self_p50_ns", write_self.quantile(0.5));
    t.set("combine.write_self_p99_ns", write_self.quantile(0.99));
    if d(|c| c.wal_records) > 0 {
        t.set(
            "wal.records_per_sync",
            ratio(d(|c| c.wal_records), d(|c| c.wal_fsyncs)),
        );
        t.set("wal.rotations", d(|c| c.wal_rotations) as f64);
    }
}

/// Fill the WAL layer from the traced media.
pub fn fill_wal(t: &mut Table, media: &trace::TracedMedia, writes: u64) {
    let (a, s) = (&media.appends, &media.syncs);
    t.set("wal.appends", a.count() as f64);
    t.set("wal.append_p50_ns", a.quantile(0.5));
    t.set("wal.syncs", s.count() as f64);
    t.set("wal.sync_p50_us", s.quantile(0.5) / 1e3);
    t.set("wal.sync_p99_us", s.quantile(0.99) / 1e3);
    t.set(
        "wal.bytes_per_write",
        ratio(
            media.bytes.load(std::sync::atomic::Ordering::Relaxed),
            writes,
        ),
    );
}

/// `trace.overhead_pct`: how much slower the traced phase ran.
pub fn set_overhead(t: &mut Table, untraced: &Phase, traced: &Phase) {
    let (u, tr) = (untraced.ops_per_s(), traced.ops_per_s());
    t.set("trace.overhead_pct", (u - tr) / u * 100.0);
}

/// Report lines shared by every traced run.
pub fn notes(out: &mut Outcome, t: &Table, untraced: &Phase, traced: &Phase, spans: &[Span]) {
    out.notes.push(format!(
        "ops_per_s untraced {:.0}, traced {:.0}: trace.overhead_pct {:.2}",
        untraced.ops_per_s(),
        traced.ops_per_s(),
        t.get("trace.overhead_pct")
    ));
    let writes = Hist::default();
    for s in spans
        .iter()
        .filter(|s| matches!(s.kind, Kind::Put | Kind::Del))
    {
        writes.record(s.dur_ns);
    }
    if writes.count() > 0 {
        let write_p50_ns = writes.quantile(0.5);
        let decide = t.get("substrate.decides_per_write") * t.get("substrate.decide_p50_ns");
        out.notes.push(format!(
            "sampled writes: p50 {:.3} us = substrate decide {:.3} us/write ({:.1}%) \
             + combine self time (p50 {:.3} us); write_p99_us {:.3} beside wal.sync_p99_us {:.1}",
            write_p50_ns / 1e3,
            decide / 1e3,
            decide / write_p50_ns * 100.0,
            t.get("combine.write_self_p50_ns") / 1e3,
            traced.quantile_us(|l| &l.write, 0.99),
            t.get("wal.sync_p99_us"),
        ));
    }
    if t.get("wal.syncs") > 0.0 {
        // The fsync runs inline on the writer whose record crosses the
        // group-commit threshold: those writes should be the tail.
        let synced: std::collections::HashSet<u64> = spans
            .iter()
            .filter(|s| s.kind == Kind::WalSync)
            .map(|s| s.parent)
            .collect();
        let (with, without) = (Hist::default(), Hist::default());
        for s in spans
            .iter()
            .filter(|s| matches!(s.kind, Kind::Put | Kind::Del))
        {
            if synced.contains(&s.id) {
                &with
            } else {
                &without
            }
            .record(s.dur_ns);
        }
        out.notes.push(format!(
            "{} of {} sampled writes paid a WAL fsync inline: their p50 {:.1} us, \
             the other writes' p99 {:.1} us",
            with.count(),
            with.count() + without.count(),
            us(&with, 0.5),
            us(&without, 0.99),
        ));
    }
    let ops = spans.iter().filter(|s| s.kind.is_op()).count();
    out.notes.push(format!(
        "{} spans ({ops} sampled ops, 1 in {}), {} dropped",
        spans.len(),
        trace::SAMPLE_EVERY,
        trace::dropped_spans()
    ));
}

/// Write the spans of a traced run beside the WAL scratch space.
pub fn save_spans(out: &mut Outcome, workload: &str, seed: u64, spans: &[Span]) {
    let dir = crate::work_dir().join("traces");
    let path = dir.join(format!("{workload}-seed{seed}.jsonl"));
    match std::fs::create_dir_all(&dir).and_then(|()| trace::write_spans(&path, spans)) {
        Ok(()) => out
            .notes
            .push(format!("spans written to {}", path.display())),
        Err(e) => out.problem(format!("writing spans to {}: {e}", path.display())),
    }
}

/// A `Hist` quantile in µs, for the client layer.
pub fn us(h: &Hist, q: f64) -> f64 {
    h.quantile(q) / 1e3
}
