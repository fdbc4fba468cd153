//! The socket tier's frame delivery path: how decoded envelopes travel
//! from a link's read driver to the `receive_*` callers.
//!
//! One `Inbox` per transport: every hosted party's queue and sticky
//! failure slot behind one mutex, and one condvar that receivers park on.
//! A read driver queues a whole decoded chunk, then wakes parked
//! receivers once; producers skip the wake entirely when nobody is parked.
//! One condvar is enough because every production transport has at most
//! one waiter (each `ShardedEngine` shard owns its own transport, and each
//! `ppc-party` process drives one engine thread).
//!
//! Failures are scoped per party (ARCHITECTURE.md, invariant 15): an
//! unseal failure concerns only the party the record was addressed to,
//! while a dead link concerns every party the endpoint hosts.
//!
//! The module also owns the [`BufferPool`] that recycles the delivery
//! path's scratch allocations (frame bodies, unsealed plaintext), so the
//! steady-state path performs no per-frame heap allocation of its own.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::error::NetError;
use crate::message::Envelope;
use crate::metrics::DeliveryStats;
use crate::party::PartyId;

/// Byte buffers larger than this are dropped instead of pooled, so one
/// giant chunked-matrix frame cannot pin its footprint forever.
const MAX_POOLED_CAPACITY: usize = 1 << 20;

/// Upper bound on buffers retained by one pool.
const MAX_POOLED_BUFFERS: usize = 128;

/// A recycling pool of `Vec<u8>` scratch buffers for the delivery path
/// (frame bodies while parsing, unsealed plaintext while splitting a
/// coalesced record, consumed sealed payloads).
///
/// Deliberately forgiving: `take` on an empty pool allocates (counted as
/// a miss), `put` of an over-large buffer or into a full pool drops it.
/// Buffers are cleared, not zeroed, on reuse — the pool never leaves the
/// process.
#[derive(Debug, Default)]
pub struct BufferPool {
    buffers: Mutex<Vec<Vec<u8>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl BufferPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a cleared buffer from the pool, or allocates an empty one
    /// (a pool miss) when none is available.
    pub fn take(&self) -> Vec<u8> {
        let pooled = self.buffers.lock().pop();
        match pooled {
            Some(mut buf) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                buf.clear();
                buf
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Vec::new()
            }
        }
    }

    /// Returns a buffer to the pool. Buffers with no capacity teach the
    /// pool nothing and over-large or surplus buffers would pin memory,
    /// so those are dropped instead.
    pub fn put(&self, buf: Vec<u8>) {
        if buf.capacity() == 0 || buf.capacity() > MAX_POOLED_CAPACITY {
            return;
        }
        let mut buffers = self.buffers.lock();
        if buffers.len() < MAX_POOLED_BUFFERS {
            buffers.push(buf);
        }
    }

    /// `(hits, misses)` of [`take`](Self::take) over the pool's lifetime.
    /// The steady-state delivery path should converge on hits only.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

/// A fatal error recorded by one link's read driver, tagged with that
/// driver's retirement token so a re-dial can clear exactly its own
/// link's error and never erase another link's.
#[derive(Debug)]
struct LinkFailure {
    token: Arc<AtomicBool>,
    error: NetError,
}

/// Which parties a recorded failure concerns.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FailureScope {
    /// A frame-scoped failure (e.g. an unseal [`NetError::AuthFailure`])
    /// addressed to one party: only that party's receives should see it.
    Party(PartyId),
    /// A link-level failure (stream corruption, fatal I/O): every party
    /// this endpoint hosts could be starved by the dead link, so all of
    /// them see it.
    Link,
}

/// Everything behind the inbox lock.
#[derive(Debug, Default)]
struct InboxState {
    queues: HashMap<PartyId, VecDeque<Envelope>>,
    /// First fatal failure concerning each party. Sticky: surfaced by
    /// clone (never consumed) once the party's queue drains, so every
    /// poller observes it until a resumed link clears it by token.
    failed: HashMap<PartyId, LinkFailure>,
    /// Receivers currently parked on the condvar; producers notify only
    /// when this is non-zero.
    parked: usize,
}

impl InboxState {
    /// Pops the next envelope for `receiver`, or its sticky failure once
    /// the queue is empty.
    fn pop(&mut self, receiver: PartyId) -> Result<Option<Envelope>, NetError> {
        if let Some(envelope) = self.queues.get_mut(&receiver).and_then(VecDeque::pop_front) {
            return Ok(Some(envelope));
        }
        match self.failed.get(&receiver) {
            Some(failure) => Err(failure.error.clone()),
            None => Ok(None),
        }
    }
}

/// The inbox proper, shared by every clone of an [`Inbox`] handle.
#[derive(Debug)]
struct Shared {
    state: Mutex<InboxState>,
    arrivals: Condvar,
    /// The parties the transport hosts: the fan-out of a link failure.
    locals: Vec<PartyId>,
    /// `wake` calls: one per delivered read chunk that queued anything.
    batched_wakes: AtomicU64,
    /// Condvar broadcasts actually issued (a receiver was parked).
    wake_signals: AtomicU64,
}

/// The inbox both read drivers and both receive paths go through. Clones
/// share the same underlying queues (readers hold one per link).
#[derive(Debug, Clone)]
pub(crate) struct Inbox {
    shared: Arc<Shared>,
}

impl Inbox {
    pub(crate) fn new(locals: &BTreeSet<PartyId>) -> Self {
        let state = InboxState {
            queues: locals.iter().map(|&p| (p, VecDeque::new())).collect(),
            ..InboxState::default()
        };
        Inbox {
            shared: Arc::new(Shared {
                state: Mutex::new(state),
                arrivals: Condvar::new(),
                locals: locals.iter().copied().collect(),
                batched_wakes: AtomicU64::new(0),
                wake_signals: AtomicU64::new(0),
            }),
        }
    }

    /// Wakes every parked receiver, if there is one. Called after the
    /// state change it announces, with `parked` read under the lock that
    /// change was made or observed under: a receiver that parked before
    /// it is counted, one that parks after it sees the change.
    fn notify(&self, parked: usize) {
        if parked > 0 {
            self.shared.wake_signals.fetch_add(1, Ordering::Relaxed);
            self.shared.arrivals.notify_all();
        }
    }

    /// Queues a decoded batch **without waking anyone**; the read driver
    /// calls [`wake`](Self::wake) once per read chunk. Drains `envelopes`
    /// in place so the caller's vec is reusable.
    pub(crate) fn push_all(&self, envelopes: &mut Vec<Envelope>) {
        let mut state = self.shared.state.lock();
        for envelope in envelopes.drain(..) {
            state
                .queues
                .entry(envelope.to)
                .or_default()
                .push_back(envelope);
        }
    }

    /// Wakes parked receivers once for everything [`push_all`](Self::push_all)
    /// queued since the last wake (the batched wake: one per read chunk).
    pub(crate) fn wake(&self) {
        self.shared.batched_wakes.fetch_add(1, Ordering::Relaxed);
        let parked = self.shared.state.lock().parked;
        self.notify(parked);
    }

    /// Queues one envelope and wakes its receiver immediately (the
    /// local-send path, which has no batch boundary to defer to).
    pub(crate) fn deliver_now(&self, envelope: Envelope) {
        let mut state = self.shared.state.lock();
        state
            .queues
            .entry(envelope.to)
            .or_default()
            .push_back(envelope);
        let parked = state.parked;
        drop(state);
        self.notify(parked);
    }

    /// Non-blocking pop for `receiver`: queued envelopes first, then any
    /// sticky failure concerning the receiver (cloned, never consumed —
    /// it persists until a resumed link clears it), then `None`.
    pub(crate) fn try_pop(&self, receiver: PartyId) -> Result<Option<Envelope>, NetError> {
        self.shared.state.lock().pop(receiver)
    }

    /// Blocks until an envelope for any of `receivers` arrives, a
    /// failure concerning one of them surfaces, or `timeout` elapses.
    /// Queued traffic drains before a failure surfaces. `parks`/`wakeups`
    /// are the transport's wait counters.
    pub(crate) fn receive_any_of(
        &self,
        receivers: &[PartyId],
        timeout: Duration,
        parks: &AtomicU64,
        wakeups: &AtomicU64,
    ) -> Result<Option<Envelope>, NetError> {
        let deadline = Instant::now() + timeout;
        let mut state = self.shared.state.lock();
        loop {
            for &receiver in receivers {
                if let Some(envelope) = state
                    .queues
                    .get_mut(&receiver)
                    .and_then(VecDeque::pop_front)
                {
                    return Ok(Some(envelope));
                }
            }
            if let Some(failure) = receivers.iter().find_map(|r| state.failed.get(r)) {
                return Err(failure.error.clone());
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            parks.fetch_add(1, Ordering::Relaxed);
            state.parked += 1;
            let (next, result) = self.shared.arrivals.wait_timeout(state, deadline - now);
            state = next;
            state.parked -= 1;
            if !result.timed_out() {
                wakeups.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Records a fatal failure and wakes parked receivers. Per party the
    /// first failure wins; a link-scoped failure fans out to every hosted
    /// party.
    pub(crate) fn fail(&self, scope: FailureScope, error: NetError, token: &Arc<AtomicBool>) {
        let parties = match &scope {
            FailureScope::Party(party) => std::slice::from_ref(party),
            FailureScope::Link => &self.shared.locals,
        };
        let mut state = self.shared.state.lock();
        for &party in parties {
            state.failed.entry(party).or_insert_with(|| LinkFailure {
                token: Arc::clone(token),
                error: error.clone(),
            });
        }
        let parked = state.parked;
        drop(state);
        self.notify(parked);
    }

    /// Clears every failure recorded by the read driver identified by
    /// `token` (a resumed link invalidates exactly its own dead reader's
    /// errors, never another link's).
    pub(crate) fn clear_failures(&self, token: &Arc<AtomicBool>) {
        self.shared
            .state
            .lock()
            .failed
            .retain(|_, failure| !Arc::ptr_eq(&failure.token, token));
    }

    /// Wakes every waiter unconditionally (shutdown: let blocked
    /// receivers observe `shutting_down` / drained queues).
    pub(crate) fn wake_all(&self) {
        self.shared.arrivals.notify_all();
    }

    /// Folds this inbox's wake counters into `stats` (buffer-pool
    /// counters are the transport's, filled by the caller).
    pub(crate) fn fill_stats(&self, stats: &mut DeliveryStats) {
        stats.batched_wakes = self.shared.batched_wakes.load(Ordering::Relaxed);
        stats.wake_signals = self.shared.wake_signals.load(Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dh(i: u32) -> PartyId {
        PartyId::DataHolder(i)
    }

    fn locals(n: u32) -> BTreeSet<PartyId> {
        (0..n).map(dh).collect()
    }

    fn envelope(to: PartyId, tag: u8) -> Envelope {
        Envelope::new(dh(99), to, "t", vec![tag])
    }

    fn stats(inbox: &Inbox) -> DeliveryStats {
        let mut stats = DeliveryStats::default();
        inbox.fill_stats(&mut stats);
        stats
    }

    #[test]
    fn buffer_pool_recycles_and_counts() {
        let pool = BufferPool::new();
        let miss = pool.take();
        assert_eq!(pool.stats(), (0, 1));
        let mut buf = miss;
        buf.extend_from_slice(b"hello");
        pool.put(buf);
        let hit = pool.take();
        assert!(hit.is_empty(), "pooled buffers come back cleared");
        assert!(hit.capacity() >= 5, "capacity survives the round trip");
        assert_eq!(pool.stats(), (1, 1));
        // Zero-capacity and oversized buffers are not worth retaining.
        pool.put(Vec::new());
        pool.put(Vec::with_capacity(MAX_POOLED_CAPACITY + 1));
        assert_eq!(pool.take().capacity(), 0);
        // The pool retains a bounded number of buffers.
        for _ in 0..MAX_POOLED_BUFFERS + 8 {
            pool.put(Vec::with_capacity(8));
        }
        assert_eq!(pool.buffers.lock().len(), MAX_POOLED_BUFFERS);
    }

    #[test]
    fn push_wake_pop_round_trip() {
        let inbox = Inbox::new(&locals(2));
        let mut batch = vec![envelope(dh(0), 1), envelope(dh(1), 2), envelope(dh(0), 3)];
        inbox.push_all(&mut batch);
        assert!(batch.is_empty());
        inbox.wake();
        assert_eq!(inbox.try_pop(dh(0)).unwrap().unwrap().payload, vec![1]);
        assert_eq!(inbox.try_pop(dh(1)).unwrap().unwrap().payload, vec![2]);
        assert_eq!(inbox.try_pop(dh(0)).unwrap().unwrap().payload, vec![3]);
        assert!(inbox.try_pop(dh(0)).unwrap().is_none());
    }

    #[test]
    fn a_wake_with_nobody_parked_signals_nothing() {
        let inbox = Inbox::new(&locals(1));
        inbox.push_all(&mut vec![envelope(dh(0), 1)]);
        inbox.wake();
        inbox.deliver_now(envelope(dh(0), 2));
        let token = Arc::new(AtomicBool::new(false));
        inbox.fail(FailureScope::Link, NetError::Io("gone".into()), &token);
        let stats = stats(&inbox);
        assert_eq!(stats.batched_wakes, 1);
        assert_eq!(stats.wake_signals, 0);
    }

    #[test]
    fn receive_any_of_wakes_on_delivery() {
        let inbox = Inbox::new(&locals(1));
        let parks = AtomicU64::new(0);
        let wakeups = AtomicU64::new(0);
        std::thread::scope(|scope| {
            let inbox2 = inbox.clone();
            scope.spawn(move || {
                // Deliver only once the receiver is parked, so the wake
                // (not the first scan) is what hands the envelope over.
                while inbox2.shared.state.lock().parked == 0 {
                    std::thread::yield_now();
                }
                inbox2.deliver_now(envelope(dh(0), 7));
            });
            let got = inbox
                .receive_any_of(&[dh(0)], Duration::from_secs(10), &parks, &wakeups)
                .unwrap()
                .expect("delivered envelope");
            assert_eq!(got.payload, vec![7]);
        });
        assert_eq!(stats(&inbox).wake_signals, 1);
        assert!(wakeups.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn failures_are_scoped_and_sticky() {
        let inbox = Inbox::new(&locals(2));
        let token = Arc::new(AtomicBool::new(false));
        inbox.fail(
            FailureScope::Party(dh(0)),
            NetError::AuthFailure {
                detail: "poisoned".into(),
            },
            &token,
        );
        // Sticky for the concerned party…
        assert!(inbox.try_pop(dh(0)).is_err());
        assert!(inbox.try_pop(dh(0)).is_err());
        // …and invisible to the other party.
        assert!(inbox.try_pop(dh(1)).unwrap().is_none());
        let parks = AtomicU64::new(0);
        let wakeups = AtomicU64::new(0);
        assert!(inbox
            .receive_any_of(&[dh(1)], Duration::from_millis(20), &parks, &wakeups)
            .unwrap()
            .is_none());
        // The first failure wins.
        inbox.fail(
            FailureScope::Party(dh(0)),
            NetError::Io("later".into()),
            &token,
        );
        assert!(matches!(
            inbox.try_pop(dh(0)),
            Err(NetError::AuthFailure { .. })
        ));
        // Queued traffic still drains before the failure surfaces.
        inbox.deliver_now(envelope(dh(0), 9));
        assert_eq!(inbox.try_pop(dh(0)).unwrap().unwrap().payload, vec![9]);
        assert!(inbox.try_pop(dh(0)).is_err());
        // A resume with the right token clears it; a wrong token doesn't.
        inbox.clear_failures(&Arc::new(AtomicBool::new(false)));
        assert!(inbox.try_pop(dh(0)).is_err());
        inbox.clear_failures(&token);
        assert!(inbox.try_pop(dh(0)).unwrap().is_none());
    }

    #[test]
    fn link_scope_fans_out_to_all_locals() {
        let inbox = Inbox::new(&locals(3));
        let token = Arc::new(AtomicBool::new(false));
        inbox.fail(
            FailureScope::Link,
            NetError::Io("stream died".into()),
            &token,
        );
        for i in 0..3 {
            assert!(inbox.try_pop(dh(i)).is_err(), "party {i} must see it");
        }
    }
}
