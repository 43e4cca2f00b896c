//! The unified client API: one [`Kv`] trait for every way of reaching
//! a store.
//!
//! [`StoreClient`](crate::StoreClient) (in-process replica set) and
//! `ff-net`'s `NetClient` (TCP) both implement [`Kv`], so the soak
//! harness, the experiments and the network bench drive *one* workload
//! loop and swap the transport underneath. The trait's contract is
//! deliberately stricter than the old bare-`Option` methods:
//!
//! * Keys and values are validated (28-bit, [`KV_MAX`](crate::KV_MAX))
//!   and rejected with [`StoreError::KeyOutOfRange`] /
//!   [`StoreError::ValueOutOfRange`] instead of panicking — a remote
//!   caller must not be able to abort the server.
//! * Divergence is an **error, not a wrong answer**: every operation
//!   checks the touched shard's divergence evidence (broken consensus
//!   cells, foreign boundary decisions, digest mismatches) and returns
//!   [`StoreError::Divergence`] rather than a value replayed from a
//!   corrupted log. This is the paper's validity property surfaced at
//!   the API: a client of a robust-backend store never sees it; a
//!   client of the naive backend under faults does.
//! * [`Kv::batch`] executes many operations per call. Implementations
//!   group same-shard operations so each shard's log is traversed once
//!   per batch (and, over TCP, the whole batch is one round trip).
//!   Operations on the *same key* keep their relative order; operations
//!   on different shards may interleave differently than written.

use std::fmt;

/// One operation of a [`Kv::batch`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KvOp {
    /// Read a key.
    Get(u32),
    /// Write `key → value`.
    Put(u32, u32),
    /// Remove a key.
    Del(u32),
}

impl KvOp {
    /// The key this operation touches.
    pub fn key(&self) -> u32 {
        match *self {
            KvOp::Get(k) | KvOp::Put(k, _) | KvOp::Del(k) => k,
        }
    }

    /// Check the key (and a PUT's value) against the 28-bit space
    /// ([`KV_MAX`](crate::KV_MAX)) — the one validation every path
    /// into a store applies before an operation is encoded.
    pub fn validate(&self) -> Result<(), StoreError> {
        let key = self.key();
        if key > crate::KV_MAX {
            return Err(StoreError::KeyOutOfRange { key });
        }
        if let KvOp::Put(_, value) = *self {
            if value > crate::KV_MAX {
                return Err(StoreError::ValueOutOfRange { value });
            }
        }
        Ok(())
    }
}

/// Everything a [`Kv`] operation can fail with — local validation,
/// divergence evidence, or (for remote clients) transport and protocol
/// failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// The touched shard's log holds divergence evidence: its consensus
    /// cells stopped being consensus (naive backend under faults), so
    /// any answer replayed from it could be wrong. Robust backends
    /// within their `(f, t)` envelope never produce this.
    Divergence {
        /// The shard whose log diverged.
        shard: usize,
    },
    /// The key does not fit the store's 28-bit key space.
    KeyOutOfRange {
        /// The offending key.
        key: u32,
    },
    /// The value does not fit the store's 28-bit value space.
    ValueOutOfRange {
        /// The offending value.
        value: u32,
    },
    /// A transport-level failure (connect, read, write, timeout).
    Io(String),
    /// The peer violated the wire protocol (bad frame, wrong request
    /// id, unexpected response type).
    Protocol(String),
    /// The server refused or failed the request; `code` is the wire
    /// error code.
    Server {
        /// Wire-level error code.
        code: u8,
        /// Human-readable detail.
        message: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Divergence { shard } => {
                write!(
                    f,
                    "shard {shard} diverged: consensus cells broke; refusing to answer"
                )
            }
            StoreError::KeyOutOfRange { key } => {
                write!(f, "key {key} exceeds the 28-bit key space")
            }
            StoreError::ValueOutOfRange { value } => {
                write!(f, "value {value} exceeds the 28-bit value space")
            }
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::Protocol(e) => write!(f, "protocol violation: {e}"),
            StoreError::Server { code, message } => {
                write!(f, "server error {code}: {message}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// The unified key-value client interface: linearizable `get`/`put`/
/// `del`/`batch` over a sharded, replicated, fault-audited store —
/// whether the store is in this process or across a socket.
pub trait Kv {
    /// Read `key` (linearized through its shard's log).
    fn get(&mut self, key: u32) -> Result<Option<u32>, StoreError>;

    /// Write `key → value`; returns the previous value.
    fn put(&mut self, key: u32, value: u32) -> Result<Option<u32>, StoreError>;

    /// Remove `key`; returns the removed value.
    fn del(&mut self, key: u32) -> Result<Option<u32>, StoreError>;

    /// Execute `ops`, returning one response per operation in the
    /// *original* order. Same-shard operations are grouped so each
    /// shard's log is traversed once per batch; per-key order is
    /// preserved (a key always routes to one shard, and grouping is
    /// stable). The whole batch fails on the first error.
    fn batch(&mut self, ops: &[KvOp]) -> Result<Vec<Option<u32>>, StoreError>;
}
