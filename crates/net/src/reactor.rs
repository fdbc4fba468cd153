//! Process-global readiness reactor for the non-blocking socket backend.
//!
//! One detached event-loop thread per process owns a [`polling::Poller`]
//! and dispatches readiness events to registered [`Source`]s. This is what
//! keeps the reactor transport at O(1) threads regardless of link count:
//! every socket a process holds — transport links and router connections
//! alike — shares the single loop.
//!
//! Sources are dispatched level-triggered. A handler must either drain its
//! fd to `WouldBlock` or disarm the interest it no longer wants, otherwise
//! the loop will spin re-reporting the same readiness.
//!
//! ## Quiesce protocol
//!
//! Replacing the blocking backend's `JoinHandle::join` barrier: a source
//! runs its entire read handler under one internal mutex and re-checks its
//! retirement flag at entry. To quiesce, a caller sets the flag, calls
//! [`Registration::deregister`] (which removes the fd from the poller and
//! the source from the dispatch table), then locks and releases the
//! source's handler mutex once. Any in-flight dispatch either observed the
//! flag and did nothing, or completes before the barrier lock is granted —
//! after the barrier, counters published by the handler are final.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use polling::{Event, Interest, Poller, RawFd};

/// A readiness handler owned by the reactor.
///
/// `on_ready` runs on the reactor thread; it must never block on work that
/// itself waits for the reactor (it may take short-held locks such as a
/// link's writer mutex).
pub(crate) trait Source: Send + Sync {
    /// Called when the registered fd reports readiness.
    fn on_ready(&self, readable: bool, writable: bool);
}

/// Handle to one fd registered with the reactor.
///
/// Holds the current interest set so writable interest can be armed and
/// disarmed cheaply; dropping the handle does *not* deregister — call
/// [`Registration::deregister`] explicitly (sources stay alive through the
/// reactor's dispatch table until then).
pub(crate) struct Registration {
    reactor: &'static Reactor,
    fd: RawFd,
    key: usize,
    interest: Mutex<Interest>,
}

impl Registration {
    /// Arms or disarms write-readiness reporting for this fd.
    ///
    /// Errors are returned (not latched); callers treat a failed arm as
    /// best-effort because a deregistered fd is on its way to redial.
    pub(crate) fn set_writable(&self, writable: bool) -> io::Result<()> {
        let mut interest = self.interest.lock();
        if interest.writable == writable {
            return Ok(());
        }
        let next = Interest {
            readable: interest.readable,
            writable,
        };
        self.reactor.poller.modify(self.fd, self.key, next)?;
        *interest = next;
        // Wake the loop so a currently-parked wait() re-arms with the new set.
        let _ = self.reactor.poller.notify();
        Ok(())
    }

    /// Arms or disarms read-readiness reporting for this fd.
    ///
    /// Disarming is the router's flow control: an origin connection whose
    /// forwards congested a destination outbox stops being read until the
    /// destination drains, which propagates backpressure to the sending
    /// peer through its own socket buffers — the event-loop equivalent of
    /// the blocking backend's `write_all`. Level-triggered polling re-fires
    /// pending readability the moment interest re-arms, so no data is lost.
    pub(crate) fn set_readable(&self, readable: bool) -> io::Result<()> {
        let mut interest = self.interest.lock();
        if interest.readable == readable {
            return Ok(());
        }
        let next = Interest {
            readable,
            writable: interest.writable,
        };
        self.reactor.poller.modify(self.fd, self.key, next)?;
        *interest = next;
        let _ = self.reactor.poller.notify();
        Ok(())
    }

    /// The interest set currently armed.
    #[cfg(test)]
    pub(crate) fn interest(&self) -> Interest {
        *self.interest.lock()
    }

    /// Removes the fd from the poller and the source from dispatch.
    ///
    /// Idempotent; safe to call with the fd already shut down (delete
    /// errors are ignored). This is step two of the quiesce protocol —
    /// the caller still owns the handler-mutex barrier.
    pub(crate) fn deregister(&self) {
        self.reactor.deregister(self.fd, self.key);
    }
}

/// The process-global reactor: poller + dispatch table + its loop thread.
pub(crate) struct Reactor {
    poller: Poller,
    sources: Mutex<HashMap<usize, Arc<dyn Source>>>,
    next_key: AtomicUsize,
}

impl Reactor {
    /// Returns the process-global reactor, spawning its loop thread on
    /// first use. Fails on platforms where the polling shim is
    /// unsupported (non-unix) or if the poller cannot be created.
    pub(crate) fn global() -> io::Result<&'static Reactor> {
        static GLOBAL: OnceLock<Result<&'static Reactor, String>> = OnceLock::new();
        GLOBAL
            .get_or_init(|| {
                let poller = Poller::new().map_err(|e| e.to_string())?;
                let reactor: &'static Reactor = Box::leak(Box::new(Reactor {
                    poller,
                    sources: Mutex::new(HashMap::new()),
                    next_key: AtomicUsize::new(0),
                }));
                std::thread::Builder::new()
                    .name("ppc-reactor".into())
                    .spawn(move || reactor.run())
                    .map_err(|e| e.to_string())?;
                Ok(reactor)
            })
            .clone()
            .map_err(|msg| io::Error::new(io::ErrorKind::Unsupported, msg))
    }

    /// Registers `fd` with the poller and `source` for dispatch, returning
    /// the interest-management handle. The source is inserted into the
    /// dispatch table *before* the fd is armed so an immediately-ready
    /// event always finds its handler.
    pub(crate) fn register(
        &'static self,
        fd: RawFd,
        interest: Interest,
        source: Arc<dyn Source>,
    ) -> io::Result<Arc<Registration>> {
        let key = self.next_key.fetch_add(1, Ordering::Relaxed);
        self.sources.lock().insert(key, source);
        if let Err(err) = self.poller.add(fd, key, interest) {
            self.sources.lock().remove(&key);
            return Err(err);
        }
        let _ = self.poller.notify();
        Ok(Arc::new(Registration {
            reactor: self,
            fd,
            key,
            interest: Mutex::new(interest),
        }))
    }

    fn deregister(&self, fd: RawFd, key: usize) {
        // Keys are allocated once and never reused, so a stale queued event
        // for this key simply finds no source after removal.
        let _ = self.poller.delete(fd);
        self.sources.lock().remove(&key);
        let _ = self.poller.notify();
    }

    fn run(&'static self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            events.clear();
            if self.poller.wait(&mut events, None).is_err() {
                // Poller failure is unrecoverable but must not busy-spin.
                std::thread::sleep(std::time::Duration::from_millis(10));
                continue;
            }
            for event in &events {
                // Clone the Arc out so dispatch runs without the table lock
                // (handlers may register/deregister other sources).
                let source = self.sources.lock().get(&event.key).cloned();
                if let Some(source) = source {
                    source.on_ready(event.readable, event.writable);
                }
            }
        }
    }
}
