//! Decoder hardening for the three messages that carry alphabet symbols
//! (`docs/WIRE_FORMAT.md` §§6.5–6.7): masked strings, CCM bundles and CCM
//! chunks. Each ships its symbols at one `cell_width` of 1, 2 or 4 bytes.
//!
//! Every input must decode to `Ok` or `Err` — never a panic — and an
//! inflated count or length must fail before the decoder allocates more
//! than a small multiple of the input. A counting global allocator checks
//! the second half, and also that the third party folds what does decode
//! (a `0 × n` CCM's `n` is backed by no payload byte) within the same
//! bound.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use std::collections::BTreeMap;

use ppc_core::alphabet::Alphabet;
use ppc_core::error::CoreError;
use ppc_core::protocol::alphanumeric::{MaskedCcm, MaskedCcmBundle};
use ppc_core::protocol::driver::ClusteringRequest;
use ppc_core::protocol::machines::{SessionContext, ThirdPartyMachine};
use ppc_core::protocol::messages::{CcmBundleMsg, CcmChunkMsg, MaskedStringsMsg};
use ppc_core::protocol::party::ThirdPartyKeys;
use ppc_core::protocol::ProtocolConfig;
use ppc_core::schema::{AttributeDescriptor, Schema};
use ppc_crypto::Seed;
use ppc_net::{Envelope, PartyId};
use proptest::prelude::*;

/// Records the largest single allocation each thread makes.
struct LargestAllocation;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// wrapper only records sizes in a const-initialised thread-local `Cell`,
// which never allocates.
unsafe impl GlobalAlloc for LargestAllocation {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: LargestAllocation = LargestAllocation;

/// Runs `f`, returning its result and the largest allocation it made.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|largest| largest.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

/// The most a decoder may allocate at once for `payload`: a small multiple
/// of its length (widening 1-byte cells to `u32`s alone is 4×).
fn allocation_bound(payload: &[u8]) -> usize {
    8 * payload.len() + 256
}

/// The three symbol-carrying messages behind one decode entry point.
#[derive(Clone, Copy, Debug)]
enum Kind {
    Strings,
    Bundle,
    Chunk,
}

const KINDS: [Kind; 3] = [Kind::Strings, Kind::Bundle, Kind::Chunk];

impl Kind {
    fn decode(self, payload: &[u8]) -> Result<(), CoreError> {
        match self {
            Kind::Strings => MaskedStringsMsg::decode(payload).map(drop),
            Kind::Bundle => CcmBundleMsg::decode(payload).map(drop),
            Kind::Chunk => CcmChunkMsg::decode(payload).map(drop),
        }
    }

    /// `u32` fields between the attribute name and `cell_width`; the last
    /// is the item count.
    fn header_fields(self) -> usize {
        match self {
            Kind::Strings => 1,
            Kind::Bundle => 3,
            Kind::Chunk => 5,
        }
    }

    /// `u32` dimension fields before each item's symbol run.
    fn item_dims(self) -> usize {
        match self {
            Kind::Strings => 0,
            Kind::Bundle | Kind::Chunk => 2,
        }
    }
}

/// Byte offsets of one encoded message's fields.
struct Fields {
    /// Every `u32` count or length: the attribute name's length, the
    /// header counts, each item's dimensions and its symbol count.
    counts: Vec<usize>,
    /// The `n` of a `0 × n` CCM (or the `m` of an `m × 0` one): no cell
    /// contradicts it, so inflating it still decodes. The third party then
    /// takes it as the pair's distance without deriving offsets for it
    /// (`third_party_folds_unbacked_widths_within_the_bound`).
    unbacked: Vec<usize>,
    /// The `cell_width` byte.
    width: usize,
}

fn u32_at(bytes: &[u8], at: usize) -> usize {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize
}

/// Walks a well-formed encoding of `kind`.
fn layout(kind: Kind, bytes: &[u8]) -> Fields {
    let mut counts = vec![0];
    let mut unbacked = Vec::new();
    let mut at = 4 + u32_at(bytes, 0);
    for _ in 0..kind.header_fields() {
        counts.push(at);
        at += 4;
    }
    let items = u32_at(bytes, at - 4);
    let width = at;
    let cell = bytes[width] as usize;
    at += 1;
    for _ in 0..items {
        let dims: Vec<usize> = (0..kind.item_dims()).map(|i| at + 4 * i).collect();
        at += 4 * dims.len();
        if let [rows, cols] = dims[..] {
            if u32_at(bytes, rows) == 0 {
                unbacked.push(cols);
            }
            if u32_at(bytes, cols) == 0 {
                unbacked.push(rows);
            }
        }
        counts.extend(dims);
        counts.push(at);
        at += 4 + u32_at(bytes, at) * cell;
    }
    assert_eq!(at, bytes.len(), "layout walk consumed the payload");
    Fields {
        counts,
        unbacked,
        width,
    }
}

/// The largest symbol that fits `width` bytes.
fn cap(width: u8) -> u32 {
    match width {
        1 => u32::from(u8::MAX),
        2 => u32::from(u16::MAX),
        _ => u32::MAX,
    }
}

fn ccm(rows: usize, cols: usize, top: u32, salt: u32) -> MaskedCcm {
    MaskedCcm {
        responder_len: rows,
        initiator_len: cols,
        cells: (0..(rows * cols) as u32)
            .map(|i| {
                if i == 0 {
                    top
                } else {
                    i.wrapping_mul(salt) % (top / 2 + 1)
                }
            })
            .collect(),
    }
}

/// One sample encoding of `kind` whose largest symbol needs `width` bytes.
fn sample(kind: Kind, width: u8) -> Vec<u8> {
    let top = cap(width);
    match kind {
        Kind::Strings => MaskedStringsMsg {
            attribute: "dna".into(),
            strings: vec![vec![top, 1, 2], vec![], vec![3, top / 3]],
        }
        .encode(),
        Kind::Bundle => CcmBundleMsg {
            attribute: "dna".into(),
            bundle: MaskedCcmBundle {
                responder_count: 1,
                initiator_count: 2,
                ccms: vec![ccm(2, 3, top, 7), ccm(1, 2, top / 5, 3)],
            },
        }
        .encode(),
        Kind::Chunk => CcmChunkMsg {
            attribute: "dna".into(),
            start_row: 1,
            rows: 1,
            total_rows: 3,
            initiator_count: 2,
            ccms: vec![ccm(2, 2, top, 5), ccm(0, 3, 0, 1)],
        }
        .encode(),
    }
}

fn samples() -> impl Iterator<Item = (Kind, u8, Vec<u8>)> {
    KINDS
        .into_iter()
        .flat_map(|kind| [1u8, 2, 4].map(|width| (kind, width, sample(kind, width))))
}

#[test]
fn samples_declare_the_narrowest_width_and_decode_within_the_bound() {
    // The allocation bound the inflation test holds decoders to also
    // admits every well-formed message, 1-byte cells widened to 4 included.
    for (kind, width, bytes) in samples() {
        assert_eq!(bytes[layout(kind, &bytes).width], width, "{kind:?}");
        let (result, largest) = largest_allocation(|| kind.decode(&bytes));
        result.unwrap();
        assert!(largest <= allocation_bound(&bytes), "{kind:?}: {largest}");
    }
}

#[test]
fn truncation_at_every_offset_is_an_error() {
    for (kind, width, bytes) in samples() {
        for cut in 0..bytes.len() {
            assert!(
                kind.decode(&bytes[..cut]).is_err(),
                "{kind:?} at width {width} cut to {cut} of {} bytes decoded",
                bytes.len()
            );
        }
    }
}

#[test]
fn cell_widths_other_than_1_2_4_are_rejected() {
    for (kind, _, bytes) in samples() {
        let at = layout(kind, &bytes).width;
        for bad in (0..=u8::MAX).filter(|w| !matches!(w, 1 | 2 | 4)) {
            let mut mutated = bytes.clone();
            mutated[at] = bad;
            let err = kind.decode(&mutated).unwrap_err();
            assert!(
                err.to_string().contains(&format!("width {bad}")),
                "{kind:?}: {err}"
            );
        }
    }
}

#[test]
fn inflated_counts_and_lengths_fail_before_allocating() {
    for (kind, width, bytes) in samples() {
        let bound = allocation_bound(&bytes);
        let fields = layout(kind, &bytes);
        for &at in &fields.counts {
            let original = u32_at(&bytes, at) as u32;
            // A chunk's `total_rows` only bounds `start_row + rows`; the
            // third party checks it against the responder's object count.
            let total_rows = matches!(kind, Kind::Chunk) && at == 4 + 3 + 8;
            if total_rows || fields.unbacked.contains(&at) {
                let (result, largest) = largest_allocation(|| {
                    let mut mutated = bytes.clone();
                    mutated[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
                    kind.decode(&mutated)
                });
                result.unwrap();
                assert!(largest <= bound, "{kind:?}: {largest}");
                continue;
            }
            for inflated in [u32::MAX, 1 << 24, original + (1 << 16)] {
                let mut mutated = bytes.clone();
                mutated[at..at + 4].copy_from_slice(&inflated.to_le_bytes());
                let (result, largest) = largest_allocation(|| kind.decode(&mutated));
                assert!(
                    result.is_err(),
                    "{kind:?} at width {width}: field at {at} inflated to {inflated} decoded"
                );
                assert!(
                    largest <= bound,
                    "{kind:?}: field at {at} inflated to {inflated} allocated {largest} bytes \
                     for a {}-byte payload",
                    bytes.len()
                );
            }
        }
    }
}

/// A third party for two sites: site 0 (two objects) initiates to site 1
/// (two objects) over one DNA attribute.
fn third_party() -> ThirdPartyMachine {
    let schema = Schema::new(vec![AttributeDescriptor::alphanumeric(
        "dna",
        Alphabet::dna(),
    )])
    .unwrap();
    let request = ClusteringRequest::uniform(&schema, 2);
    let ctx = SessionContext::oracle(schema, ProtocolConfig::default(), request);
    let keys = ThirdPartyKeys::new(BTreeMap::from([
        (0, Seed::from_u64(5)),
        (1, Seed::from_u64(6)),
    ]));
    ThirdPartyMachine::new(ctx, keys, &[(0, 2), (1, 2)]).unwrap()
}

/// Row 0 is an empty responder string against initiator strings declared
/// `u32::MAX` and 3 symbols long; row 1 is a 2-symbol responder string
/// against 2- and 3-symbol ones, so real cells ride along.
fn unbacked_ccms() -> Vec<MaskedCcm> {
    let empty = |cols: usize| MaskedCcm {
        responder_len: 0,
        initiator_len: cols,
        cells: vec![],
    };
    vec![
        empty(u32::MAX as usize),
        empty(3),
        ccm(2, 2, 3, 1),
        ccm(2, 3, 3, 2),
    ]
}

#[test]
fn third_party_folds_unbacked_widths_within_the_bound() {
    let chunk = CcmChunkMsg {
        attribute: "dna".into(),
        start_row: 0,
        rows: 2,
        total_rows: 2,
        initiator_count: 2,
        ccms: unbacked_ccms(),
    }
    .encode();
    let whole = CcmBundleMsg {
        attribute: "dna".into(),
        bundle: MaskedCcmBundle {
            responder_count: 2,
            initiator_count: 2,
            ccms: unbacked_ccms(),
        },
    }
    .encode();
    for (kind, payload) in [("ccms-chunk", chunk), ("ccms", whole)] {
        let mut tp = third_party();
        let envelope = Envelope::new(
            PartyId::DataHolder(1),
            PartyId::ThirdParty,
            format!("alphanumeric/dna/0-1/{kind}"),
            payload.clone(),
        );
        let (result, largest) = largest_allocation(|| tp.step(Some(&envelope)));
        result.unwrap_or_else(|e| panic!("{kind}: {e}"));
        assert!(
            largest <= allocation_bound(&payload),
            "{kind}: the third party allocated {largest} bytes for a {}-byte payload",
            payload.len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any struct round-trips at the narrowest width that holds its
    /// largest symbol, up to `u32::MAX`, and the payload is exactly that
    /// many bytes per symbol plus the fixed fields.
    #[test]
    fn symbol_messages_roundtrip_at_every_width(
        raw in prop::collection::vec(prop::collection::vec(any::<u32>(), 0..9), 0..7),
        width_pick in 0usize..3,
        pin_top in any::<bool>(),
        dims in prop::collection::vec(0usize..4, 0..7),
    ) {
        let width = [1u8, 2, 4][width_pick];
        let top = cap(width);
        let mut strings: Vec<Vec<u32>> = raw
            .iter()
            .map(|s| s.iter().map(|&x| x & top).collect())
            .collect();
        // Pin the width: the largest symbol needs exactly `width` bytes.
        if pin_top {
            strings.push(vec![top]);
        }
        let symbols: usize = strings.iter().map(Vec::len).sum();
        let max = strings.iter().flatten().copied().max().unwrap_or(0);
        let expected_width = ppc_net::narrowest_width(max);

        let msg = MaskedStringsMsg { attribute: "glyphs".into(), strings: strings.clone() };
        let bytes = msg.encode();
        prop_assert_eq!(bytes[4 + 6 + 4], expected_width);
        prop_assert_eq!(
            bytes.len(),
            4 + 6 + 4 + 1 + 4 * strings.len() + symbols * expected_width as usize
        );
        prop_assert_eq!(MaskedStringsMsg::decode(&bytes).unwrap(), msg);

        // CCMs: reshape the same symbols into matrices of the given dims.
        let mut pool = strings.concat().into_iter().cycle();
        let ccms: Vec<MaskedCcm> = dims
            .chunks(2)
            .map(|d| {
                let (rows, cols) = (d[0], d.get(1).copied().unwrap_or(1));
                MaskedCcm {
                    responder_len: rows,
                    initiator_len: cols,
                    cells: (0..rows * cols).map(|_| pool.next().unwrap_or(0)).collect(),
                }
            })
            .collect();
        let bundle = CcmBundleMsg {
            attribute: "glyphs".into(),
            bundle: MaskedCcmBundle {
                responder_count: 1,
                initiator_count: ccms.len(),
                ccms: ccms.clone(),
            },
        };
        prop_assert_eq!(CcmBundleMsg::decode(&bundle.encode()).unwrap(), bundle);
        let chunk = CcmChunkMsg {
            attribute: "glyphs".into(),
            start_row: 0,
            rows: 1,
            total_rows: 1,
            initiator_count: ccms.len() as u32,
            ccms,
        };
        prop_assert_eq!(CcmChunkMsg::decode(&chunk.encode()).unwrap(), chunk);
    }
}
