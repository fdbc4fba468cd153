//! Byte-level TCP adversaries for the tampering and kill cells.
//!
//! A [`TamperProxy`] sits between a dialler and its upstream (a router or
//! a direct acceptor) and flips exactly one byte of each connection's
//! client→upstream stream — at a fixed absolute offset
//! ([`TamperProxy::spawn`]) or inside the first frame whose body clears a
//! size threshold ([`TamperProxy::spawn_on_first_large_frame`]).
//!
//! A [`WithholdProxy`] forwards faithfully until the upstream sends the
//! dialler its first data-sized frame, then silences the dialler for good
//! and says so: a kill cell can act on that event instead of on a timer,
//! and the run cannot finish first however fast the parties are.
//!
//! Where the flip lands matters, in two ways.
//!
//! *Layer*: a sealed record's `from`/`to` routing header stays in the
//! clear (forwarders route by it), and the stack absorbs a corrupted
//! header without an auth failure — the router counts the frame
//! unroutable and drops it, and the receiver accepts the sender's *next*
//! record as first contact with that incarnation. Only a flip inside the
//! sealed payload reaches the AEAD tier, which must reject it as a
//! [`ChannelAuth`
//! failure](ppc_core::protocol::party_engine::SessionFailure::ChannelAuth) —
//! never deliver.
//!
//! *Record*: the stack also absorbs losing an entire *control* record.
//! A serve party re-sends its readiness announce while idle (so startup
//! order does not matter), and a router drops frames for parties no link
//! has announced yet — so corrupting a dialler's first record is a race:
//! if the dialler connects before its counterparty, the record was going
//! to be dropped unroutable anyway and a fresh ready replaces it. A
//! deterministic tamper cell must corrupt a record that is necessarily
//! forwarded and necessarily needed: session *data*, which is what the
//! large-frame trigger targets (control records are tens of bytes; even
//! one matrix chunk is hundreds).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// The dialler→acceptor link handshake is 28 bytes on the wire (magic,
/// version/flags, party ids, resume token), followed by 4-byte length
/// prefixes per frame.
pub const HANDSHAKE_BYTES: usize = 28;

/// Length prefix preceding every frame.
pub const FRAME_PREFIX_BYTES: usize = 4;

/// Cleartext prelude of a sealed record's frame body before the AEAD
/// ciphertext begins: `from` (5) + `to` (5) + the `"!"` topic as a
/// length-prefixed string (4 + 1) + payload length prefix (4) + `salt`
/// (4) + `seq` (8). See `docs/WIRE_FORMAT.md` §4 and §8.2.
pub const SEALED_RECORD_PRELUDE_BYTES: usize = 31;

/// A one-byte-flipping TCP proxy. Dropping the handle leaves the proxy
/// threads running until the process exits (they are detached, like the
/// in-tree test helpers); each accepted connection is forwarded to the
/// same upstream.
#[derive(Debug, Clone, Copy)]
pub struct TamperProxy {
    addr: SocketAddr,
}

impl TamperProxy {
    /// Spawns a proxy forwarding to `upstream`. In every accepted
    /// connection, the byte at absolute offset `flip_at` of the
    /// client→upstream stream is XORed with `0x20`; all other bytes (and
    /// the entire return stream) pass untouched.
    pub fn spawn(upstream: SocketAddr, flip_at: usize) -> std::io::Result<TamperProxy> {
        Self::spawn_with_rule(upstream, FlipRule::At(flip_at))
    }

    /// Spawns a proxy that flips one byte `SEALED_RECORD_PRELUDE_BYTES +
    /// extra` into the body of the first frame whose body length is at
    /// least `min_body` bytes — i.e. inside the AEAD ciphertext of the
    /// first *data*-sized sealed record, skipping the small control
    /// records (readiness announces, session opens) whose loss the stack
    /// absorbs by design. `extra < 16` stays within authenticated bytes
    /// for any record (the tag alone is 16).
    pub fn spawn_on_first_large_frame(
        upstream: SocketAddr,
        min_body: usize,
        extra: usize,
    ) -> std::io::Result<TamperProxy> {
        Self::spawn_with_rule(upstream, FlipRule::LargeFrame { min_body, extra })
    }

    fn spawn_with_rule(upstream: SocketAddr, rule: FlipRule) -> std::io::Result<TamperProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        std::thread::spawn(move || {
            while let Ok((client, _)) = listener.accept() {
                let _ = client.set_nodelay(true);
                let server = match TcpStream::connect(upstream) {
                    Ok(s) => s,
                    Err(_) => continue,
                };
                let _ = server.set_nodelay(true);
                if let (Ok(c2), Ok(s2)) = (client.try_clone(), server.try_clone()) {
                    pump(client, s2, Some(rule));
                    pump(server, c2, None);
                }
            }
        });
        Ok(TamperProxy { addr })
    }

    /// The address diallers should connect to instead of the upstream.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// An offset `extra` bytes into the first frame's body — i.e. past the
    /// handshake and the frame's length prefix. Small `extra` values land
    /// in the cleartext routing header (a *routing* corruption the stack
    /// may absorb); use [`Self::into_first_sealed_payload`] to hit the
    /// AEAD-protected bytes.
    pub const fn into_first_frame(extra: usize) -> usize {
        HANDSHAKE_BYTES + FRAME_PREFIX_BYTES + extra
    }

    /// An offset `extra` bytes into the first frame's AEAD ciphertext,
    /// past the cleartext `from`/`to`/topic/salt/seq prelude. Every
    /// sealed record carries a 16-byte tag, so `extra < 16` is in
    /// authenticated bytes for any record at all. Note the dialler's
    /// first record is usually a *control* record whose corruption the
    /// stack may absorb (see the module docs); for a deterministic
    /// tamper cell prefer [`Self::spawn_on_first_large_frame`].
    pub const fn into_first_sealed_payload(extra: usize) -> usize {
        Self::into_first_frame(SEALED_RECORD_PRELUDE_BYTES + extra)
    }
}

/// Which byte of the client→upstream stream to flip.
#[derive(Debug, Clone, Copy)]
enum FlipRule {
    /// A fixed absolute stream offset.
    At(usize),
    /// `SEALED_RECORD_PRELUDE_BYTES + extra` into the body of the first
    /// frame whose body is at least `min_body` bytes.
    LargeFrame { min_body: usize, extra: usize },
}

/// Walks one direction of a link byte by byte: the sender's hello (15
/// bytes, the last its announced party count), 5 bytes per announced
/// party and the 8-byte resume count, then frames — a 4-byte
/// little-endian body length and that many body bytes.
struct FrameWalker {
    hello: [u8; 15],
    hello_got: usize,
    skip: usize,
    header: [u8; 4],
    header_got: usize,
}

impl FrameWalker {
    fn new() -> FrameWalker {
        FrameWalker {
            hello: [0; 15],
            hello_got: 0,
            skip: 0,
            header: [0; 4],
            header_got: 0,
        }
    }

    /// Consumes one byte; returns the body length when it completes a
    /// frame's length prefix.
    fn step(&mut self, byte: u8) -> Option<usize> {
        if self.hello_got < self.hello.len() {
            self.hello[self.hello_got] = byte;
            self.hello_got += 1;
            if self.hello_got == self.hello.len() {
                self.skip = 5 * usize::from(self.hello[14]) + 8;
            }
        } else if self.skip > 0 {
            self.skip -= 1;
        } else {
            self.header[self.header_got] = byte;
            self.header_got += 1;
            if self.header_got == 4 {
                self.header_got = 0;
                let len = u32::from_le_bytes(self.header) as usize;
                self.skip = len;
                return Some(len);
            }
        }
        None
    }
}

/// Resolves a [`FlipRule`] over a dialler stream into an absolute offset
/// (as soon as the qualifying frame's header streams by) and flips it.
struct FlipScanner {
    rule: FlipRule,
    pos: usize,
    resolved: Option<usize>,
    frames: FrameWalker,
}

impl FlipScanner {
    fn new(rule: FlipRule) -> FlipScanner {
        FlipScanner {
            rule,
            pos: 0,
            resolved: match rule {
                FlipRule::At(at) => Some(at),
                FlipRule::LargeFrame { .. } => None,
            },
            frames: FrameWalker::new(),
        }
    }

    /// Scans (and possibly flips) one chunk of the stream in place.
    fn process(&mut self, chunk: &mut [u8]) {
        for (i, byte) in chunk.iter_mut().enumerate() {
            let abs = self.pos + i;
            if self.resolved == Some(abs) {
                *byte ^= 0x20;
            }
            if self.resolved.is_some() {
                continue;
            }
            if let (Some(len), FlipRule::LargeFrame { min_body, extra }) =
                (self.frames.step(*byte), self.rule)
            {
                if len >= min_body {
                    self.resolved = Some(abs + 1 + SEALED_RECORD_PRELUDE_BYTES + extra);
                }
            }
        }
        self.pos += chunk.len();
    }
}

fn pump(mut from: TcpStream, mut to: TcpStream, flip: Option<FlipRule>) {
    std::thread::spawn(move || {
        let mut scan = flip.map(FlipScanner::new);
        let mut buf = [0u8; 4096];
        loop {
            let n = match from.read(&mut buf) {
                Ok(0) | Err(_) => {
                    let _ = to.shutdown(std::net::Shutdown::Both);
                    return;
                }
                Ok(n) => n,
            };
            if let Some(scan) = scan.as_mut() {
                scan.process(&mut buf[..n]);
            }
            if to.write_all(&buf[..n]).is_err() {
                return;
            }
        }
    });
}

/// A TCP proxy that cuts its dialler off at the first data frame.
///
/// Every accepted connection is forwarded to the same upstream, both
/// ways, until some connection's upstream→dialler stream starts a frame
/// whose body is at least `min_body` bytes (control records — handshake
/// replies, readiness announces — are tens of bytes). From that frame's
/// length prefix on, the proxy drops every byte in both directions on
/// every connection, present and future, while keeping the sockets open;
/// only a close still passes through. To the dialler's peers it looks
/// like a party that went silent mid-run.
#[derive(Debug, Clone)]
pub struct WithholdProxy {
    addr: SocketAddr,
    tripped: Arc<Trip>,
}

/// The one-way "withholding now" flag the pumps share with the handle.
#[derive(Debug, Default)]
struct Trip {
    set: Mutex<bool>,
    changed: Condvar,
}

impl Trip {
    fn is_set(&self) -> bool {
        *self.set.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn set(&self) {
        *self.set.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.changed.notify_all();
    }
}

impl WithholdProxy {
    /// Spawns the proxy in front of `upstream`.
    pub fn spawn_until_first_large_frame(
        upstream: SocketAddr,
        min_body: usize,
    ) -> std::io::Result<WithholdProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let tripped = Arc::new(Trip::default());
        let trip = Arc::clone(&tripped);
        std::thread::spawn(move || {
            while let Ok((client, _)) = listener.accept() {
                let _ = client.set_nodelay(true);
                let server = match TcpStream::connect(upstream) {
                    Ok(s) => s,
                    Err(_) => continue,
                };
                let _ = server.set_nodelay(true);
                if let (Ok(c2), Ok(s2)) = (client.try_clone(), server.try_clone()) {
                    withhold_pump(client, s2, None, Arc::clone(&trip));
                    withhold_pump(server, c2, Some(min_body), Arc::clone(&trip));
                }
            }
        });
        Ok(WithholdProxy { addr, tripped })
    }

    /// The address the dialler should connect to instead of the upstream.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the proxy has started withholding or `timeout`
    /// passes; returns whether it is withholding.
    pub fn wait_withholding(&self, timeout: Duration) -> bool {
        let guard = self.tripped.set.lock().unwrap_or_else(|e| e.into_inner());
        let (guard, _) = self
            .tripped
            .changed
            .wait_timeout_while(guard, timeout, |set| !*set)
            .unwrap_or_else(|e| e.into_inner());
        *guard
    }
}

/// Finds, in an acceptor→dialler stream, where the first frame of at
/// least `min_body` bytes begins.
struct FrameWatch {
    min_body: usize,
    frames: FrameWalker,
}

impl FrameWatch {
    fn new(min_body: usize) -> FrameWatch {
        FrameWatch {
            min_body,
            frames: FrameWalker::new(),
        }
    }

    /// Scans `chunk`; returns the index within it at which the length
    /// prefix of the first frame of at least `min_body` bytes begins.
    fn scan(&mut self, chunk: &[u8]) -> Option<usize> {
        for (i, &byte) in chunk.iter().enumerate() {
            if self
                .frames
                .step(byte)
                .is_some_and(|len| len >= self.min_body)
            {
                // The prefix may have begun in an earlier chunk.
                return Some((i + 1).saturating_sub(4));
            }
        }
        None
    }
}

/// Forwards `from` → `to` until the proxy trips, then drops everything
/// `from` sends; `watch` (the upstream→dialler direction only) trips it.
fn withhold_pump(mut from: TcpStream, mut to: TcpStream, watch: Option<usize>, trip: Arc<Trip>) {
    std::thread::spawn(move || {
        let mut watch = watch.map(FrameWatch::new);
        let mut buf = [0u8; 4096];
        loop {
            let n = match from.read(&mut buf) {
                Ok(0) | Err(_) => {
                    let _ = to.shutdown(std::net::Shutdown::Both);
                    return;
                }
                Ok(n) => n,
            };
            let mut forward = if trip.is_set() { 0 } else { n };
            if let Some(at) = watch.as_mut().and_then(|w| w.scan(&buf[..forward])) {
                forward = at;
                trip.set();
            }
            if to.write_all(&buf[..forward]).is_err() {
                return;
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proxy_flips_exactly_one_byte_at_the_offset() {
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream_addr = upstream.local_addr().unwrap();
        let proxy = TamperProxy::spawn(upstream_addr, 5).unwrap();

        let mut client = TcpStream::connect(proxy.addr()).unwrap();
        let (mut server, _) = upstream.accept().unwrap();
        let sent: Vec<u8> = (0u8..32).collect();
        client.write_all(&sent).unwrap();
        let mut got = vec![0u8; sent.len()];
        server.read_exact(&mut got).unwrap();

        let mut expected = sent.clone();
        expected[5] ^= 0x20;
        assert_eq!(got, expected);

        // The return direction is untouched.
        server.write_all(&sent).unwrap();
        let mut back = vec![0u8; sent.len()];
        client.read_exact(&mut back).unwrap();
        assert_eq!(back, sent);
    }

    #[test]
    fn offsets_compose() {
        assert_eq!(TamperProxy::into_first_frame(0), 32);
        assert_eq!(TamperProxy::into_first_frame(25), 57);
        assert_eq!(TamperProxy::into_first_sealed_payload(0), 63);
        assert_eq!(TamperProxy::into_first_sealed_payload(8), 71);
    }

    #[test]
    fn large_frame_rule_skips_small_control_frames() {
        // A dialler's handshake: a hello announcing one party, then the
        // resume count.
        let mut stream = vec![0u8; HANDSHAKE_BYTES];
        stream[14] = 1;
        stream.extend_from_slice(&10u32.to_le_bytes());
        stream.extend_from_slice(&[0xAA; 10]);
        stream.extend_from_slice(&100u32.to_le_bytes());
        stream.extend_from_slice(&[0xBB; 100]);

        let mut scan = FlipScanner::new(FlipRule::LargeFrame {
            min_body: 64,
            extra: 8,
        });
        let mut tampered = stream.clone();
        // Awkward chunking exercises headers split across reads.
        for chunk in tampered.chunks_mut(7) {
            scan.process(chunk);
        }

        let large_body_start = HANDSHAKE_BYTES + 4 + 10 + 4;
        let flip_at = large_body_start + SEALED_RECORD_PRELUDE_BYTES + 8;
        let diffs: Vec<usize> = stream
            .iter()
            .zip(tampered.iter())
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(diffs, vec![flip_at]);
        assert_eq!(tampered[flip_at], 0xBB ^ 0x20);
    }

    #[test]
    fn withhold_watch_finds_the_first_large_frame_after_the_hello() {
        // A hello announcing two parties, the resume count, a small frame,
        // then a large one.
        let mut stream = vec![0u8; 15];
        stream[14] = 2;
        stream.extend_from_slice(&[0xEE; 5 * 2 + 8]);
        stream.extend_from_slice(&20u32.to_le_bytes());
        stream.extend_from_slice(&[0xAA; 20]);
        let large_at = stream.len();
        stream.extend_from_slice(&600u32.to_le_bytes());
        stream.extend_from_slice(&[0xBB; 600]);

        for split in [1, 3, 7, 4096] {
            let mut watch = FrameWatch::new(512);
            let mut seen = 0;
            let mut found = None;
            for chunk in stream.chunks(split) {
                if let Some(at) = watch.scan(chunk) {
                    found = Some(seen + at);
                    break;
                }
                seen += chunk.len();
            }
            // A prefix split across chunks resolves at the start of the
            // chunk holding its last byte; never before the frame, never
            // past its prefix.
            let found = found.expect("the large frame is found");
            assert!((large_at..large_at + 4).contains(&found), "split {split}");
            if split == 4096 {
                assert_eq!(found, large_at);
            }
        }
    }

    #[test]
    fn withhold_proxy_forwards_until_the_first_large_frame_then_goes_silent() {
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let proxy =
            WithholdProxy::spawn_until_first_large_frame(upstream.local_addr().unwrap(), 64)
                .unwrap();
        let mut client = TcpStream::connect(proxy.addr()).unwrap();
        let (mut server, _) = upstream.accept().unwrap();

        // Hello with no parties, resume count, one small frame: forwarded.
        let mut prelude = vec![0u8; 15 + 8];
        prelude.extend_from_slice(&3u32.to_le_bytes());
        prelude.extend_from_slice(b"abc");
        server.write_all(&prelude).unwrap();
        let mut got = vec![0u8; prelude.len()];
        client.read_exact(&mut got).unwrap();
        assert_eq!(got, prelude);
        assert!(!proxy.wait_withholding(Duration::from_millis(10)));

        // The first large frame trips the proxy and never arrives.
        let mut large = 100u32.to_le_bytes().to_vec();
        large.extend_from_slice(&[7; 100]);
        server.write_all(&large).unwrap();
        assert!(proxy.wait_withholding(Duration::from_secs(10)));
        client
            .set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let mut byte = [0u8; 1];
        assert!(client.read(&mut byte).is_err(), "a withheld byte arrived");

        // The dialler's bytes are withheld too.
        client.write_all(b"hello?").unwrap();
        server
            .set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        assert!(server.read(&mut byte).is_err(), "a withheld byte arrived");
    }
}
