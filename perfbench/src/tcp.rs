//! `tcp-batch`: a one-loop `NetServer` in this process, driven by one
//! generator thread over [`WORKERS`] connections. Each connection keeps
//! [`DEPTH`] BATCH frames of [`BATCH`] ops in flight; a frame's answers
//! are checked when it is collected, and its slot is refilled at once.

use crate::check::{draw, Checker, KeySlice, Mix, Rng};
use crate::hist::Hist;
use crate::layers::{self, Counters, Table};
use crate::trace::{self, Kind};
use crate::{end_to_end, server_config, store_config, Args, Outcome, Phase, Tally, KEYS, WORKERS};
use ff_net::wire::{decode_frame, encode_request, encode_response, Decoded, RequestRef};
use ff_net::{NetClient, NetServer, PipelineTicket, Request, Response, StatsReply};
use ff_store::{Backend, KvOp, Store};
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, OnceLock};
use std::time::{Duration, Instant};

/// BATCH frames in flight per connection.
pub const DEPTH: usize = 16;
/// Operations per BATCH frame.
pub const BATCH: usize = 16;
/// Half GETs; writes are 35% PUT and 15% DEL.
const MIX: Mix = Mix { get: 50, put: 35 };
/// In the traced phase, one frame in this many is kept for the wire
/// replay, up to [`WIRE_SAMPLES`].
const WIRE_SAMPLE_EVERY: u64 = 64;
const WIRE_SAMPLES: usize = 2048;

struct InFlight {
    ticket: PipelineTicket,
    ops: Vec<KvOp>,
    want: Vec<Option<u32>>,
    sent: Instant,
    id: u64,
    seq: u64,
}

/// One connection and the keys it owns.
struct Conn {
    client: NetClient,
    index: usize,
    slice: KeySlice,
    rng: Rng,
    checker: Checker,
    inflight: VecDeque<InFlight>,
    frames: u64,
}

/// A running server and its connections.
struct Served {
    store: Arc<Store>,
    server: NetServer,
    conns: Vec<Conn>,
}

/// Start the store, the server and the connections; the clock stops
/// when every connection has had its first answer.
fn start(args: &Args, traced: bool) -> (Served, Duration) {
    let backend = if traced {
        trace::traced_backend()
    } else {
        Backend::robust()
    };
    let begin = Instant::now();
    let store = Arc::new(Store::new(store_config(args.seed, backend, None)));
    let server = NetServer::start(Arc::clone(&store), "127.0.0.1:0", server_config())
        .expect("binding a loopback port");
    let conns: Vec<Conn> = (0..WORKERS)
        .map(|index| {
            let mut client = NetClient::connect(server.addr()).expect("connecting");
            client.ping().expect("first answer");
            Conn {
                client,
                index,
                slice: KeySlice::new(index, WORKERS, KEYS),
                rng: Rng::new(args.seed ^ (index as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407)),
                checker: Checker::new(KEYS),
                inflight: VecDeque::with_capacity(DEPTH),
                frames: 0,
            }
        })
        .collect();
    let took = begin.elapsed();
    (
        Served {
            store,
            server,
            conns,
        },
        took,
    )
}

/// Close the connections, drain the server and check what it served.
fn stop(served: Served, out: &mut Outcome) {
    let Served {
        store,
        server,
        conns,
    } = served;
    drop(conns);
    let mut report = server.shutdown();
    for e in &report.shutdown_errors {
        out.problem(format!("server shutdown: {e}"));
    }
    let consistency = store.verify(&mut report.clients);
    if !consistency.all_consistent() {
        out.problem(format!(
            "replicas diverged on shards {:?}",
            consistency.diverged_shards()
        ));
    }
}

/// What the generator measured besides the phase itself.
#[derive(Default)]
struct ClientSide {
    send: Hist,
    collect: Hist,
    /// Sampled frames and their answers, for the wire replay.
    wire: Vec<(Vec<KvOp>, Vec<Option<u32>>)>,
}

impl Conn {
    /// Send one frame; `false` if the connection refused it.
    fn send(&mut self, traced: bool, side: &ClientSide) -> bool {
        let ops: Vec<KvOp> = (0..BATCH)
            .map(|_| draw(&mut self.rng, MIX, self.slice))
            .collect();
        let want = ops.iter().map(|&op| self.checker.apply(op)).collect();
        let seq = self.frames;
        self.frames += 1;
        let id = trace::op_id(self.index, seq);
        let start = Instant::now();
        let ticket = self.client.send(&[Request::Batch(ops.clone())]);
        let end = Instant::now();
        side.send
            .record(end.duration_since(start).as_nanos() as u64);
        if traced && seq.is_multiple_of(trace::SAMPLE_EVERY) {
            trace::span_under(id, Kind::Send, start, end);
        }
        match ticket {
            Ok(ticket) => {
                self.inflight.push_back(InFlight {
                    ticket,
                    ops,
                    want,
                    sent: start,
                    id,
                    seq,
                });
                true
            }
            Err(e) => {
                self.checker.error("BATCH send", &e);
                false
            }
        }
    }

    /// Collect the oldest frame and check its answers; returns its ops,
    /// when it was sent and when its answer arrived.
    fn collect(
        &mut self,
        traced: bool,
        side: &mut ClientSide,
    ) -> Option<(Vec<KvOp>, Instant, Instant)> {
        let InFlight {
            ticket,
            ops,
            want,
            sent,
            id,
            seq,
        } = self.inflight.pop_front()?;
        let start = Instant::now();
        let resp = self.client.collect(ticket);
        let end = Instant::now();
        side.collect
            .record(end.duration_since(start).as_nanos() as u64);
        if traced && seq.is_multiple_of(trace::SAMPLE_EVERY) {
            trace::span_under(id, Kind::Collect, start, end);
            trace::op_span(id, Kind::Frame, sent, end);
        }
        match resp.map(|mut r| r.pop()) {
            Ok(Some(Response::Batch(values))) if values.len() == ops.len() => {
                for ((&op, &want), &got) in ops.iter().zip(&want).zip(&values) {
                    self.checker.check(op, want, got);
                }
                if traced && seq.is_multiple_of(WIRE_SAMPLE_EVERY) && side.wire.len() < WIRE_SAMPLES
                {
                    side.wire.push((ops.clone(), values));
                }
            }
            Ok(other) => self.checker.error(
                "BATCH",
                &ff_store::StoreError::Protocol(format!("unexpected answer {other:?}")),
            ),
            Err(e) => self.checker.error("BATCH collect", &e),
        }
        Some((ops, sent, end))
    }
}

/// Drive every connection from one thread for `secs`: top each up to
/// [`DEPTH`] frames, collect its oldest, move on. Frames answered after
/// the window closes are checked but not timed.
fn measure(
    served: &mut Served,
    secs: f64,
    traced: bool,
    out: &mut Outcome,
) -> (Phase, ClientSide, usize) {
    let stop = AtomicBool::new(false);
    let ready = Barrier::new(2);
    let start = OnceLock::new();
    let store = Arc::clone(&served.store);
    let mut max_retained = 0;
    let conns = &mut served.conns;
    let (tally, side, writes) = std::thread::scope(|s| {
        let (stop, ready, start) = (&stop, &ready, &start);
        let generator = s.spawn(move || {
            let mut side = ClientSide::default();
            let mut writes = 0;
            ready.wait();
            let mut tally = Tally::new(*start.get().expect("set before the barrier"), secs);
            loop {
                let stopping = stop.load(Ordering::Relaxed);
                for c in conns.iter_mut() {
                    while !stopping && c.inflight.len() < DEPTH && c.send(traced, &side) {}
                    let Some((frame, sent, end)) = c.collect(traced, &mut side) else {
                        continue;
                    };
                    let frame_writes = frame
                        .iter()
                        .filter(|op| !matches!(op, KvOp::Get(_)))
                        .count();
                    writes += frame_writes as u64;
                    let Some(w) = tally.window(end) else {
                        continue;
                    };
                    let rtt = end.duration_since(sent).as_nanos() as u64;
                    let lat = &tally.lat[w];
                    lat.frame.record(rtt);
                    for _ in 0..frame.len() - frame_writes {
                        lat.get.record(rtt);
                    }
                    for _ in 0..frame_writes {
                        lat.write.record(rtt);
                    }
                    tally.ops[w] += frame.len() as u64;
                }
                if stopping && conns.iter().all(|c| c.inflight.is_empty()) {
                    return (tally, side, writes);
                }
            }
        });
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
        let generated = generator.join().expect("generator panicked");
        trace::set_recording(false);
        generated
    });
    let mut phase = Phase {
        writes,
        ..Phase::new(std::slice::from_ref(&tally))
    };
    for c in served.conns.iter_mut() {
        phase.attempted += c.frames * BATCH as u64;
        phase.failed += c.checker.failed();
        if let Some(p) = c.checker.first.take() {
            out.problem(format!("connection {}: {p}", c.index));
        }
    }
    out.count(&phase);
    (phase, side, max_retained)
}

/// Reactor counters, read over connection 0 while nothing is in flight.
fn reactor_stats(served: &mut Served, out: &mut Outcome) -> StatsReply {
    served.conns[0].client.stats().unwrap_or_else(|e| {
        out.problem(format!("STATS failed: {e}"));
        StatsReply::default()
    })
}

/// Time `f` over `reps` passes of `n` items; the median ns per item.
fn per_item_ns(reps: usize, n: usize, mut f: impl FnMut()) -> f64 {
    let per: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64 / n.max(1) as f64
        })
        .collect();
    crate::median(per)
}

/// Replay the sampled frames through the wire codec: request decode
/// (with the lazy batch iteration the server does) and response
/// encode.
fn wire_replay(t: &mut Table, samples: &[(Vec<KvOp>, Vec<Option<u32>>)]) {
    if samples.is_empty() {
        return;
    }
    let requests: Vec<Vec<u8>> = samples
        .iter()
        .enumerate()
        .map(|(i, (ops, _))| {
            let mut buf = Vec::new();
            encode_request(&mut buf, i as u32 + 1, &Request::Batch(ops.clone()));
            buf
        })
        .collect();
    let responses: Vec<Response> = samples
        .iter()
        .map(|(_, values)| Response::Batch(values.clone()))
        .collect();
    let decode = per_item_ns(31, requests.len(), || {
        for buf in &requests {
            if let Ok(Decoded::Frame { frame, .. }) = decode_frame(black_box(buf)) {
                if let RequestRef::Batch(batch) = frame.req {
                    black_box(batch.iter().map(|op| op.key()).sum::<u32>());
                }
            }
        }
    });
    let mut out = Vec::with_capacity(256);
    let encode = per_item_ns(31, responses.len(), || {
        for (i, r) in responses.iter().enumerate() {
            out.clear();
            encode_response(&mut out, i as u32, black_box(r));
            black_box(&out);
        }
    });
    t.set("wire.decode_frame_ns", decode);
    t.set("wire.encode_response_ns", encode);
}

/// Run `tcp-batch`.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    if !args.trace {
        let (mut setups, mut served) = (Vec::new(), None);
        let begin = Instant::now();
        while crate::set_up_again(setups.len(), begin.elapsed()) {
            if let Some(old) = served.take() {
                stop(old, &mut out);
            }
            let (s, took) = start(args, false);
            setups.push(took);
            served = Some(s);
        }
        let mut served = served.expect("at least one set-up");
        let (phase, _, _) = measure(&mut served, args.seconds, false, &mut out);
        stop(served, &mut out);
        end_to_end(&phase, &setups, &mut out);
        return out;
    }
    let half = args.seconds / 2.0;
    let (mut plain, _) = start(args, false);
    let (untraced, _, _) = measure(&mut plain, half, false, &mut out);
    stop(plain, &mut out);

    let (mut served, _) = start(args, true);
    let before = Counters::read(&served.store);
    let stats_before = reactor_stats(&mut served, &mut out);
    trace::take_spans();
    let (traced, side, max_retained) = measure(&mut served, half, true, &mut out);
    let decides = trace::decides();
    let spans = trace::take_spans();
    let stats_after = reactor_stats(&mut served, &mut out);
    let mut t = Table::default();
    layers::fill_store_layers(
        &mut t,
        &traced,
        before,
        Counters::read(&served.store),
        decides,
        max_retained,
        &spans,
    );
    stop(served, &mut out);
    t.set("client.send_p50_us", layers::us(&side.send, 0.5));
    t.set("client.collect_p50_us", layers::us(&side.collect, 0.5));
    let runs = stats_after
        .runs_executed
        .saturating_sub(stats_before.runs_executed) as f64;
    t.set(
        "reactor.ops_per_run",
        stats_after.run_ops.saturating_sub(stats_before.run_ops) as f64 / runs,
    );
    t.set(
        "reactor.frames_per_run",
        stats_after
            .frames_staged
            .saturating_sub(stats_before.frames_staged) as f64
            / runs,
    );
    t.set("reactor.max_run_ops", stats_after.max_run_ops as f64);
    wire_replay(&mut t, &side.wire);
    layers::set_overhead(&mut t, &untraced, &traced);
    layers::notes(&mut out, &t, &untraced, &traced, &spans);
    out.notes.push(format!(
        "traced frame_p50_us {:.1} vs in-flight ops / ops_per_s = {:.1} us",
        traced.quantile_us(|l| &l.frame, 0.5),
        (WORKERS * DEPTH * BATCH) as f64 / traced.ops_per_s() * 1e6
    ));
    layers::save_spans(&mut out, "tcp-batch", args.seed, &spans);
    out.metrics = t.into_metrics();
    out
}
