//! Readiness polling without `unsafe`: the reactor's poll abstraction.
//!
//! The event loops need one question answered per tick — *which of
//! these nonblocking sockets has bytes to read?* — without an async
//! runtime and without FFI (`ff-net` forbids `unsafe`, so `epoll`/
//! `kqueue` are out of reach). [`ScanPoller`] answers it with the one
//! readiness probe `std` exposes: [`TcpStream::peek`] on a nonblocking
//! socket returns `WouldBlock` when the receive queue is empty and
//! `Ok` (including `Ok(0)` at EOF) when a read would make progress.
//! The scan is O(connections) per tick, like classic `poll(2)` — the
//! trade the repo makes everywhere: auditable std-only code over the
//! last constant factor.
//!
//! Write readiness is **not probed**. The reactor uses an
//! attempted-write model: it simply writes and treats `WouldBlock` as
//! "not writable yet". The poller's only job for writers is pacing —
//! when a tick has pending writes but nothing readable, it returns
//! after a short bounded sleep instead of the full idle timeout, so
//! blocked writes are retried on a ~1 ms cadence rather than spun on.
//!
//! Idle pacing is adaptive: consecutive all-quiet scans back off
//! exponentially (100 µs doubling up to the caller's timeout), and any
//! readable source resets the backoff to zero. Busy loops never sleep;
//! idle loops cost a scan every few milliseconds.

use std::net::TcpStream;
use std::time::{Duration, Instant};

/// What a connection wants to be woken for this tick.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Interest {
    /// The connection can accept inbound bytes.
    pub read: bool,
    /// The connection has buffered response bytes waiting to flush.
    pub write: bool,
}

/// One pollable socket with its interest set.
pub(crate) struct PollSource<'a> {
    /// The nonblocking stream to probe.
    pub stream: &'a TcpStream,
    /// What to probe it for.
    pub interest: Interest,
}

/// Per-source readiness verdict filled in by [`ScanPoller::poll`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Readiness {
    /// A read would make progress (data buffered, EOF, or a pending
    /// socket error to surface).
    pub readable: bool,
    /// A write should be attempted. Under the attempted-write model
    /// this is advisory: the write itself is the real probe.
    pub writable: bool,
}

/// Smallest idle sleep; doubles per all-quiet scan.
const MIN_BACKOFF: Duration = Duration::from_micros(100);
/// Retry cadence for blocked writes: don't sleep longer than this when
/// a connection has bytes waiting to flush.
const WRITE_RETRY: Duration = Duration::from_millis(1);

/// The std-only poller: one `peek` syscall per read-interested source
/// per scan, adaptive backoff between all-quiet scans.
pub(crate) struct ScanPoller {
    backoff: Duration,
}

impl ScanPoller {
    /// A fresh poller with its backoff reset.
    pub fn new() -> ScanPoller {
        ScanPoller {
            backoff: Duration::ZERO,
        }
    }

    /// Probe one stream for read readiness without consuming bytes.
    fn read_ready(stream: &TcpStream) -> bool {
        let mut probe = [0u8; 1];
        match stream.peek(&mut probe) {
            // Data waiting — or Ok(0): the peer closed and a read will
            // observe EOF. Both mean "reading makes progress".
            Ok(_) => true,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => false,
            // A pending socket error (reset, aborted): readable so the
            // read path surfaces it and the connection is reaped.
            Err(_) => true,
        }
    }

    /// One pass over the sources. Returns the number readable.
    fn scan(sources: &[PollSource<'_>], out: &mut [Readiness]) -> usize {
        let mut ready = 0;
        for (src, slot) in sources.iter().zip(out.iter_mut()) {
            let readable = src.interest.read && Self::read_ready(src.stream);
            *slot = Readiness {
                readable,
                writable: src.interest.write,
            };
            if readable {
                ready += 1;
            }
        }
        ready
    }

    /// Fill `out[i]` with the readiness of `sources[i]`, waiting up to
    /// `timeout` when nothing is ready. Returns how many sources are
    /// ready. `out` must be at least as long as `sources`.
    pub fn poll(
        &mut self,
        sources: &[PollSource<'_>],
        out: &mut [Readiness],
        timeout: Duration,
    ) -> usize {
        // Pending writes bound the wait: the write attempt is the real
        // readiness probe, so retry it on a short cadence.
        let has_writer = sources.iter().any(|s| s.interest.write);
        let budget = if has_writer {
            timeout.min(WRITE_RETRY)
        } else {
            timeout
        };
        let deadline = Instant::now() + budget;
        loop {
            let ready = Self::scan(sources, out);
            if ready > 0 {
                self.backoff = Duration::ZERO;
                return ready;
            }
            let now = Instant::now();
            if now >= deadline {
                // Report advisory writability even on an all-quiet
                // scan so the reactor retries its blocked writes.
                return out.iter().filter(|r| r.writable).count();
            }
            self.backoff = self.backoff.max(MIN_BACKOFF).saturating_mul(2).min(budget);
            std::thread::sleep(self.backoff.min(deadline - now));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (served, _) = listener.accept().unwrap();
        served.set_nonblocking(true).unwrap();
        (served, peer)
    }

    #[test]
    fn quiet_socket_is_not_readable_and_data_makes_it_readable() {
        let (served, mut peer) = pair();
        let mut poller = ScanPoller::new();
        let sources = [PollSource {
            stream: &served,
            interest: Interest {
                read: true,
                write: false,
            },
        }];
        let mut out = [Readiness::default()];
        assert_eq!(poller.poll(&sources, &mut out, Duration::ZERO), 0);
        assert!(!out[0].readable);

        peer.write_all(b"x").unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            if poller.poll(&sources, &mut out, Duration::from_millis(5)) > 0 {
                break;
            }
            assert!(Instant::now() < deadline, "delivered byte never readable");
        }
        assert!(out[0].readable);
    }

    #[test]
    fn eof_and_write_interest_both_wake_the_poller() {
        let (served, peer) = pair();
        drop(peer);
        let mut poller = ScanPoller::new();
        let mut out = [Readiness::default()];
        // EOF counts as readable: the read observes the close.
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            let sources = [PollSource {
                stream: &served,
                interest: Interest {
                    read: true,
                    write: false,
                },
            }];
            if poller.poll(&sources, &mut out, Duration::from_millis(5)) > 0 {
                break;
            }
            assert!(Instant::now() < deadline, "EOF never became readable");
        }
        assert!(out[0].readable);

        // Write interest alone returns promptly (advisory writable),
        // bounding the blocked-write retry cadence.
        let sources = [PollSource {
            stream: &served,
            interest: Interest {
                read: false,
                write: true,
            },
        }];
        let start = Instant::now();
        let ready = poller.poll(&sources, &mut out, Duration::from_millis(50));
        assert_eq!(ready, 1);
        assert!(out[0].writable && !out[0].readable);
        assert!(start.elapsed() < Duration::from_millis(40));
    }
}
