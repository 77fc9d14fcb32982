//! Producer-side ingestion: a cloneable handle over a bounded MPSC
//! channel with blocking backpressure, plus non-blocking and bounded-
//! wait variants for producers that cannot afford to stall forever.

use graphgen::Update;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{SyncSender, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An update plus the instant a producer enqueued it; the writer loop
/// uses the timestamp to attribute end-to-end (enqueue → visible)
/// latency.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Envelope {
    pub update: Update,
    pub enqueued: Instant,
}

/// An epoch barrier: when the writer loop dequeues one, every update
/// enqueued before it (FIFO channel) has been applied, so the writer
/// flushes whatever batch it is holding and then fires `ack` with the
/// barrier's epoch. The sharded engine's ingest front end uses
/// barriers to align per-shard version chains on epoch boundaries;
/// the `ack` closure captures whatever the coordinator needs (the
/// shard id, the shard's `VersionedGraph` to acquire the post-epoch
/// version from, the cut collector).
pub(crate) struct Barrier {
    pub epoch: u64,
    pub ack: Arc<dyn Fn(u64) + Send + Sync>,
}

impl Barrier {
    /// Invokes the acknowledgement callback with this barrier's epoch.
    pub fn fire(&self) {
        (self.ack)(self.epoch);
    }
}

/// What flows through the ingest channel: updates, epoch barriers, or
/// an explicit shutdown request ([`crate::StreamEngine::close`]).
pub(crate) enum Msg {
    Update(Envelope),
    Barrier(Barrier),
    /// Flush what is buffered, sync the WAL tail, and exit the writer
    /// loop even though producer handles may still be alive.
    Shutdown,
}

/// Why an ingest attempt was rejected; the update is handed back so
/// the producer can retry, reroute, or drop it deliberately.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IngestError {
    /// The channel is at capacity; a non-blocking push would have
    /// blocked ([`IngestHandle::try_send`] only).
    Full(Update),
    /// The engine shut down (or [`crate::StreamEngine::close`] was
    /// called); no further updates will be accepted.
    Closed(Update),
    /// The channel stayed full past the caller's deadline
    /// ([`IngestHandle::send_timeout`] only).
    TimedOut(Update),
}

impl IngestError {
    /// The update the failed push carried.
    pub fn update(&self) -> Update {
        match *self {
            IngestError::Full(u) | IngestError::Closed(u) | IngestError::TimedOut(u) => u,
        }
    }
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Full(u) => write!(f, "ingest channel full; rejected {u}"),
            IngestError::Closed(u) => write!(f, "ingest channel closed; rejected {u}"),
            IngestError::TimedOut(u) => write!(f, "ingest timed out; rejected {u}"),
        }
    }
}

impl std::error::Error for IngestError {}

/// A producer's handle into the engine: push updates, clone freely
/// across threads.
///
/// The underlying channel is bounded ([`crate::BatchPolicy::channel_capacity`]);
/// [`push`](Self::push) on a full channel **blocks** until the writer
/// loop drains space — that is the engine's backpressure, keeping
/// memory bounded when producers outrun the writer. Producers that
/// cannot block use [`try_send`](Self::try_send) (fail fast) or
/// [`send_timeout`](Self::send_timeout) (bounded wait).
///
/// The writer loop exits (after a final flush) once every handle has
/// been dropped; hold a handle only as long as you intend to produce.
#[derive(Clone)]
pub struct IngestHandle {
    pub(crate) tx: SyncSender<Msg>,
    /// Set by [`crate::StreamEngine::close`] so producers racing a
    /// shutdown fail fast instead of blocking on a channel whose
    /// consumer is about to stop draining it.
    pub(crate) closed: Arc<AtomicBool>,
}

/// Extracts the update an errored send carried (barrier/shutdown sends
/// report a placeholder; they never fail in practice because the
/// engine keeps the receiver alive while they are in flight).
fn rejected(msg: Msg) -> Update {
    match msg {
        Msg::Update(env) => env.update,
        Msg::Barrier(_) | Msg::Shutdown => Update::Insert(0, 0),
    }
}

impl IngestHandle {
    /// Enqueues one update, blocking while the channel is full.
    ///
    /// The update's end-to-end latency clock starts now.
    pub fn push(&self, update: Update) -> Result<(), IngestError> {
        self.push_envelope(Envelope {
            update,
            enqueued: Instant::now(),
        })
    }

    /// Enqueues an update with a caller-provided enqueue instant — the
    /// sharded front end forwards producer envelopes through here so
    /// end-to-end latency is measured from the *original* producer
    /// push, not from the routing hop.
    pub(crate) fn push_envelope(&self, env: Envelope) -> Result<(), IngestError> {
        if self.closed.load(Ordering::Acquire) {
            return Err(IngestError::Closed(env.update));
        }
        self.tx
            .send(Msg::Update(env))
            .map_err(|e| IngestError::Closed(rejected(e.0)))
    }

    /// Enqueues an epoch barrier (see [`Barrier`]); blocking, like
    /// [`push`](Self::push).
    pub(crate) fn push_barrier(&self, barrier: Barrier) -> Result<(), IngestError> {
        self.tx
            .send(Msg::Barrier(barrier))
            .map_err(|e| IngestError::Closed(rejected(e.0)))
    }

    /// Asks the writer loop to flush, sync, and exit; used by
    /// [`crate::StreamEngine::close`]. Blocking, FIFO-ordered after
    /// everything already enqueued.
    pub(crate) fn push_shutdown(&self) -> Result<(), IngestError> {
        self.tx
            .send(Msg::Shutdown)
            .map_err(|e| IngestError::Closed(rejected(e.0)))
    }

    /// Non-blocking push: fails fast with [`IngestError::Full`] when
    /// the channel is at capacity instead of exerting backpressure on
    /// the caller.
    pub fn try_send(&self, update: Update) -> Result<(), IngestError> {
        if self.closed.load(Ordering::Acquire) {
            return Err(IngestError::Closed(update));
        }
        self.tx
            .try_send(Msg::Update(Envelope {
                update,
                enqueued: Instant::now(),
            }))
            .map_err(|e| match e {
                TrySendError::Full(msg) => IngestError::Full(rejected(msg)),
                TrySendError::Disconnected(msg) => IngestError::Closed(rejected(msg)),
            })
    }

    /// Push with a bounded wait: retries a full channel until
    /// `timeout` elapses, then gives the update back as
    /// [`IngestError::TimedOut`]. Closure is still reported
    /// immediately.
    pub fn send_timeout(&self, update: Update, timeout: Duration) -> Result<(), IngestError> {
        let deadline = Instant::now() + timeout;
        let mut backoff = Duration::from_micros(50);
        loop {
            match self.try_send(update) {
                Err(IngestError::Full(u)) => {
                    if Instant::now() >= deadline {
                        return Err(IngestError::TimedOut(u));
                    }
                    std::thread::sleep(
                        backoff.min(deadline.saturating_duration_since(Instant::now())),
                    );
                    backoff = (backoff * 2).min(Duration::from_millis(1));
                }
                other => return other,
            }
        }
    }

    /// Pushes a whole slice in order, blocking as needed.
    pub fn push_all(&self, updates: &[Update]) -> Result<(), IngestError> {
        for &u in updates {
            self.push(u)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::sync_channel;

    fn handle(tx: SyncSender<Msg>) -> IngestHandle {
        IngestHandle {
            tx,
            closed: Arc::new(AtomicBool::new(false)),
        }
    }

    #[test]
    fn push_then_receive() {
        let (tx, rx) = sync_channel(4);
        let h = handle(tx);
        h.push(Update::Insert(1, 2)).unwrap();
        match rx.recv().unwrap() {
            Msg::Update(env) => assert_eq!(env.update, Update::Insert(1, 2)),
            _ => panic!("expected an update"),
        }
    }

    #[test]
    fn barrier_fires_with_its_epoch() {
        let (tx, rx) = sync_channel(4);
        let h = handle(tx);
        let seen = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let seen2 = seen.clone();
        h.push_barrier(Barrier {
            epoch: 7,
            ack: std::sync::Arc::new(move |e| seen2.store(e, std::sync::atomic::Ordering::SeqCst)),
        })
        .unwrap();
        match rx.recv().unwrap() {
            Msg::Barrier(b) => b.fire(),
            _ => panic!("expected a barrier"),
        }
        assert_eq!(seen.load(std::sync::atomic::Ordering::SeqCst), 7);
    }

    #[test]
    fn try_send_full_reports_update() {
        let (tx, _rx) = sync_channel(1);
        let h = handle(tx);
        h.try_send(Update::Insert(0, 1)).unwrap();
        match h.try_send(Update::Delete(2, 3)) {
            Err(IngestError::Full(u)) => assert_eq!(u, Update::Delete(2, 3)),
            other => panic!("expected Full, got {other:?}"),
        }
    }

    #[test]
    fn push_after_close_errors() {
        let (tx, rx) = sync_channel(1);
        drop(rx);
        let h = handle(tx);
        assert_eq!(
            h.push(Update::Insert(7, 8)),
            Err(IngestError::Closed(Update::Insert(7, 8)))
        );
    }

    #[test]
    fn closed_flag_fails_fast_even_with_receiver_alive() {
        let (tx, _rx) = sync_channel(1);
        let h = handle(tx);
        h.closed.store(true, Ordering::Release);
        assert_eq!(
            h.push(Update::Insert(1, 2)),
            Err(IngestError::Closed(Update::Insert(1, 2)))
        );
        assert_eq!(
            h.try_send(Update::Insert(1, 2)),
            Err(IngestError::Closed(Update::Insert(1, 2)))
        );
    }

    #[test]
    fn send_timeout_reports_timed_out_on_sustained_full() {
        let (tx, _rx) = sync_channel(1);
        let h = handle(tx);
        h.push(Update::Insert(0, 1)).unwrap();
        match h.send_timeout(Update::Delete(2, 3), Duration::from_millis(5)) {
            Err(IngestError::TimedOut(u)) => assert_eq!(u, Update::Delete(2, 3)),
            other => panic!("expected TimedOut, got {other:?}"),
        }
    }
}
