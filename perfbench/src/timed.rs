//! A benchmark-owned transport wrapper: delegates every call to the
//! wrapped transport and records how long each took, so the traced run
//! can account for the net layer without instrumenting it.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ppc_net::{Envelope, NetError, PartyId, Transport, WaitTransport};

/// Matches each received envelope to the send it came from by per-pair
/// FIFO order (transports preserve send order per ordered pair), yielding
/// send→receive transit times.
#[derive(Debug)]
pub struct TransitMatcher<K> {
    pending: HashMap<K, VecDeque<u64>>,
    samples: Vec<u64>,
    unmatched: u64,
}

impl<K> Default for TransitMatcher<K> {
    fn default() -> Self {
        TransitMatcher {
            pending: HashMap::new(),
            samples: Vec::new(),
            unmatched: 0,
        }
    }
}

impl<K: Hash + Eq> TransitMatcher<K> {
    /// Records a send on `pair` at time `at`.
    pub fn sent(&mut self, pair: K, at: u64) {
        self.pending.entry(pair).or_default().push_back(at);
    }

    /// Matches a receive on `pair` at time `at` to the oldest outstanding
    /// send on that pair, returning and recording the transit time.
    /// A receive with no outstanding send is counted as unmatched.
    pub fn received(&mut self, pair: K, at: u64) -> Option<u64> {
        match self.pending.get_mut(&pair).and_then(VecDeque::pop_front) {
            Some(sent) => {
                let transit = at.saturating_sub(sent);
                self.samples.push(transit);
                Some(transit)
            }
            None => {
                self.unmatched += 1;
                None
            }
        }
    }

    /// Transit samples recorded so far, in receive order.
    pub fn samples(&self) -> &[u64] {
        &self.samples
    }

    /// Receives that matched no outstanding send.
    pub fn unmatched(&self) -> u64 {
        self.unmatched
    }
}

/// Which transport call a timed interval belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// [`Transport::send`].
    Send,
    /// [`Transport::try_receive`].
    TryReceive,
    /// [`WaitTransport::receive_any_of`].
    RecvWait,
    /// [`Transport::flush`].
    Flush,
}

impl Call {
    /// The span name the call is logged under.
    pub fn span_name(self) -> &'static str {
        match self {
            Call::Send => "net.send",
            Call::TryReceive => "net.try_receive",
            Call::RecvWait => "net.recv_wait",
            Call::Flush => "net.flush",
        }
    }
}

/// Everything the wrapper observed since the last [`Timed::take`].
#[derive(Debug, Default)]
pub struct NetRecord {
    /// Every call with its start and end, ns since the wrapper's epoch.
    pub calls: Vec<(Call, u64, u64)>,
    /// `try_receive` calls that returned an envelope.
    pub try_hits: u64,
    /// `try_receive` calls that found nothing.
    pub try_misses: u64,
    /// `receive_any_of` calls that timed out empty.
    pub recv_timeouts: u64,
    /// Payload bytes handed to `send`.
    pub payload_bytes: u64,
    /// Send→receive transit, matched per ordered pair.
    pub transit: TransitMatcher<(PartyId, PartyId)>,
    /// `(topic, payload)` of every envelope sent.
    pub captured: Vec<(String, Vec<u8>)>,
}

impl NetRecord {
    /// Total time spent in calls of `kind`, in seconds.
    pub fn seconds_in(&self, kind: Call) -> f64 {
        let ns: u64 = self
            .calls
            .iter()
            .filter(|(k, _, _)| *k == kind)
            .map(|(_, s, e)| e - s)
            .sum();
        ns as f64 / 1e9
    }
}

/// Wraps a transport, timing every call into it.
#[derive(Debug)]
pub struct Timed<T> {
    inner: T,
    epoch: Instant,
    record: Mutex<NetRecord>,
}

impl<T> Timed<T> {
    /// Wraps `inner`; timestamps count from `epoch`. Every sent payload is
    /// copied for the decode replay.
    pub fn new(inner: T, epoch: Instant) -> Self {
        Timed {
            inner,
            epoch,
            record: Mutex::new(NetRecord::default()),
        }
    }

    /// Returns and resets what was observed so far.
    pub fn take(&self) -> NetRecord {
        std::mem::take(&mut *self.record.lock().expect("net record lock"))
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records one call; `received` is what a successful receive call
    /// returned (`None` for sends, flushes and failed receives).
    fn log(&self, call: Call, start: Instant, received: Option<Option<&Envelope>>) {
        let (s, e) = (self.ns(start), self.ns(Instant::now()));
        let mut record = self.record.lock().expect("net record lock");
        record.calls.push((call, s, e));
        match received {
            Some(Some(envelope)) => {
                record.transit.received((envelope.from, envelope.to), e);
                if call == Call::TryReceive {
                    record.try_hits += 1;
                }
            }
            Some(None) if call == Call::TryReceive => record.try_misses += 1,
            Some(None) => record.recv_timeouts += 1,
            None => {}
        }
    }
}

impl<T: Transport> Transport for Timed<T> {
    fn send(&self, envelope: Envelope) -> Result<(), NetError> {
        {
            let mut record = self.record.lock().expect("net record lock");
            let at = self.ns(Instant::now());
            record.payload_bytes += envelope.payload.len() as u64;
            record.transit.sent((envelope.from, envelope.to), at);
            record
                .captured
                .push((envelope.topic.clone(), envelope.payload.clone()));
        }
        let start = Instant::now();
        let result = self.inner.send(envelope);
        self.log(Call::Send, start, None);
        result
    }

    fn try_receive(&self, receiver: PartyId) -> Result<Option<Envelope>, NetError> {
        let start = Instant::now();
        let result = self.inner.try_receive(receiver);
        self.log(
            Call::TryReceive,
            start,
            result.as_ref().ok().map(Option::as_ref),
        );
        result
    }

    fn flush(&self) -> Result<(), NetError> {
        let start = Instant::now();
        let result = self.inner.flush();
        self.log(Call::Flush, start, None);
        result
    }
}

impl<T: WaitTransport> WaitTransport for Timed<T> {
    fn receive_any_of(
        &self,
        receivers: &[PartyId],
        timeout: Duration,
    ) -> Result<Option<Envelope>, NetError> {
        let start = Instant::now();
        let result = self.inner.receive_any_of(receivers, timeout);
        self.log(
            Call::RecvWait,
            start,
            result.as_ref().ok().map(Option::as_ref),
        );
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppc_net::Network;

    #[test]
    fn transit_matches_per_pair_in_fifo_order() {
        let mut m = TransitMatcher::default();
        m.sent(("a", "b"), 10);
        m.sent(("a", "b"), 20);
        m.sent(("b", "a"), 15);
        // The reverse pair is independent of a→b's queue.
        assert_eq!(m.received(("b", "a"), 18), Some(3));
        // a→b receives match the oldest outstanding a→b send first.
        assert_eq!(m.received(("a", "b"), 30), Some(20));
        assert_eq!(m.received(("a", "b"), 31), Some(11));
        assert_eq!(m.samples(), &[3, 20, 11]);
        assert_eq!(m.unmatched(), 0);
    }

    #[test]
    fn transit_counts_receives_without_a_send_as_unmatched() {
        let mut m = TransitMatcher::default();
        assert_eq!(m.received((1, 2), 5), None);
        m.sent((1, 2), 7);
        assert_eq!(m.unmatched(), 1);
        assert!(m.samples().is_empty());
        // The late send still matches the next receive.
        assert_eq!(m.received((1, 2), 9), Some(2));
    }

    #[test]
    fn wrapper_delegates_and_records_every_call() {
        let net = Network::with_parties(2);
        let timed = Timed::new(net, Instant::now());
        let (a, b) = (PartyId::DataHolder(0), PartyId::DataHolder(1));
        timed
            .send(Envelope::new(a, b, "t/1", vec![1, 2, 3]))
            .unwrap();
        timed.send(Envelope::new(a, b, "t/2", vec![4])).unwrap();
        timed.flush().unwrap();
        assert_eq!(timed.try_receive(b).unwrap().unwrap().topic, "t/1");
        assert!(timed.try_receive(a).unwrap().is_none());
        let got = timed
            .receive_any_of(&[b], Duration::from_millis(10))
            .unwrap()
            .unwrap();
        assert_eq!(got.payload, vec![4]);
        assert!(timed
            .receive_any_of(&[b], Duration::from_millis(1))
            .unwrap()
            .is_none());

        let record = timed.take();
        assert_eq!(record.payload_bytes, 4);
        assert_eq!((record.try_hits, record.try_misses), (1, 1));
        assert_eq!(record.recv_timeouts, 1);
        assert_eq!(record.transit.samples().len(), 2);
        assert_eq!(record.captured.len(), 2);
        assert_eq!(record.calls.len(), 7);
        assert!(timed.take().calls.is_empty(), "take resets the record");
    }
}
