//! The provenance store: a hot `Vec` of events in front of immutable,
//! delta/varint-compressed **sealed segments**.
//!
//! Fleet-scale analysis needs the whole evidence trail, not a lossy
//! window of it (μDep-style taint-killing variants are distinguished
//! only by the recorded transform chain). So when the hot tier fills,
//! the store compacts it into a [`SealedSegment`]: a per-segment
//! interned string table plus a tag/varint byte stream (monotonic pc
//! deltas for native-block runs, single-byte labels for the common
//! few-bit masks), roughly 3–10 bytes per event against the ~56-byte
//! in-memory [`ProvEvent`]. Only when the sealed bytes pass
//! [`SEALED_BUDGET`] are the oldest segments evicted, whole and
//! counted, so no guest can grow host memory without bound.
//!
//! Each segment's header carries its **label-bit union**, a **kind
//! mask** (one bit per [`EventKind`]) and a **bloom-style name
//! filter** over source APIs and sink names, so reconstruction and
//! [`crate::ProvQuery`] skip irrelevant segments without decoding
//! them. The filters are conservative: they may admit a segment that
//! turns out to hold no match (bloom false positive — extra decode
//! work), but they never skip a segment holding a relevant event.
//!
//! Segments are `Arc`-shared: snapshot forks clone the segment list by
//! refcount bump, and the frozen [`ProvStore`] view is `Send + Sync`
//! so it can ride on `RunReport` across the batch farm's worker
//! threads.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use crate::varint;
use crate::{Direction, ProvEvent, SinkCtx};

/// The seven event shapes, as bits of a segment's
/// [`SealedSegment::kind_mask`] and as query filters
/// ([`crate::ProvQuery::kind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// [`ProvEvent::Source`]
    Source = 0,
    /// [`ProvEvent::JniEntry`]
    JniEntry = 1,
    /// [`ProvEvent::JniExit`]
    JniExit = 2,
    /// [`ProvEvent::Transfer`]
    Transfer = 3,
    /// [`ProvEvent::Libc`]
    Libc = 4,
    /// [`ProvEvent::NativeBlock`]
    NativeBlock = 5,
    /// [`ProvEvent::Sink`]
    Sink = 6,
}

impl EventKind {
    /// Every kind, in tag order.
    pub const ALL: [EventKind; 7] = [
        EventKind::Source,
        EventKind::JniEntry,
        EventKind::JniExit,
        EventKind::Transfer,
        EventKind::Libc,
        EventKind::NativeBlock,
        EventKind::Sink,
    ];

    /// The kind of an event.
    pub fn of(ev: &ProvEvent) -> EventKind {
        match ev {
            ProvEvent::Source { .. } => EventKind::Source,
            ProvEvent::JniEntry { .. } => EventKind::JniEntry,
            ProvEvent::JniExit { .. } => EventKind::JniExit,
            ProvEvent::Transfer { .. } => EventKind::Transfer,
            ProvEvent::Libc { .. } => EventKind::Libc,
            ProvEvent::NativeBlock { .. } => EventKind::NativeBlock,
            ProvEvent::Sink { .. } => EventKind::Sink,
        }
    }

    /// This kind's bit in a [`SealedSegment::kind_mask`].
    pub fn bit(self) -> u8 {
        1 << (self as u8)
    }

    fn from_tag(tag: u8) -> Option<EventKind> {
        EventKind::ALL.get(tag as usize).copied()
    }

    /// Lowercase tag, matching the [`ProvEvent::canonical`] prefix.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Source => "source",
            EventKind::JniEntry => "jni-entry",
            EventKind::JniExit => "jni-exit",
            EventKind::Transfer => "transfer",
            EventKind::Libc => "libc",
            EventKind::NativeBlock => "native-block",
            EventKind::Sink => "sink",
        }
    }
}

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Two bloom bits for a source/sink name in a 64-bit filter word.
fn bloom_mask(name: &str) -> u64 {
    let h = fnv64(name.as_bytes());
    (1 << (h & 63)) | (1 << ((h >> 6) & 63))
}

/// Direction/context flag bit in an encoded event's tag byte.
const TAG_FLAG: u8 = 0x08;

/// An immutable, compressed run of consecutive provenance events.
///
/// Layout: a header (sequence range, label union, kind mask, name
/// bloom), a per-segment string table interned in first-use order, and
/// the event byte stream — per event a tag byte (3-bit kind + flag),
/// a varint label, then kind-specific varint string-table indices; a
/// `NativeBlock` stores its pc as a zigzag delta against the previous
/// block in the segment. Encoding is a pure function of the event
/// stream, so identical streams seal to byte-identical segments on any
/// worker (`Eq` below is what the batch determinism gates compare).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedSegment {
    first_seq: u64,
    count: u32,
    label_union: u32,
    kind_mask: u8,
    name_bloom: u64,
    strings: Vec<String>,
    bytes: Vec<u8>,
}

impl SealedSegment {
    /// Seals `events` (whose first element has sequence number
    /// `first_seq`) into a segment.
    pub fn encode<'a>(first_seq: u64, events: impl Iterator<Item = &'a ProvEvent>) -> SealedSegment {
        let mut seg = SealedSegment {
            first_seq,
            count: 0,
            label_union: 0,
            kind_mask: 0,
            name_bloom: 0,
            strings: Vec::new(),
            bytes: Vec::new(),
        };
        let mut intern: HashMap<&'a str, u64> = HashMap::new();
        let mut prev_pc = 0u32;
        for ev in events {
            let kind = EventKind::of(ev);
            let flag = match ev {
                ProvEvent::Transfer {
                    direction: Direction::NativeToJava,
                    ..
                } => TAG_FLAG,
                ProvEvent::Sink {
                    ctx: SinkCtx::Native,
                    ..
                } => TAG_FLAG,
                _ => 0,
            };
            seg.bytes.push(kind as u8 | flag);
            varint::write_u64(&mut seg.bytes, u64::from(ev.label()));
            let mut idx = |s: &'a str, table: &mut Vec<String>, bytes: &mut Vec<u8>| {
                let next = intern.len() as u64;
                let i = *intern.entry(s).or_insert_with(|| {
                    table.push(s.to_string());
                    next
                });
                varint::write_u64(bytes, i);
            };
            match ev {
                ProvEvent::Source { api, .. } => {
                    seg.name_bloom |= bloom_mask(api);
                    idx(api, &mut seg.strings, &mut seg.bytes);
                }
                ProvEvent::JniEntry { method, .. } | ProvEvent::JniExit { method, .. } => {
                    idx(method, &mut seg.strings, &mut seg.bytes);
                }
                ProvEvent::Transfer { api, .. } => {
                    idx(api, &mut seg.strings, &mut seg.bytes);
                }
                ProvEvent::Libc { func, .. } => {
                    idx(func, &mut seg.strings, &mut seg.bytes);
                }
                ProvEvent::NativeBlock { start_pc, insns, .. } => {
                    varint::write_i64(&mut seg.bytes, i64::from(*start_pc) - i64::from(prev_pc));
                    prev_pc = *start_pc;
                    varint::write_u64(&mut seg.bytes, u64::from(*insns));
                }
                ProvEvent::Sink { sink, dest, .. } => {
                    seg.name_bloom |= bloom_mask(sink);
                    idx(sink, &mut seg.strings, &mut seg.bytes);
                    idx(dest, &mut seg.strings, &mut seg.bytes);
                }
            }
            seg.label_union |= ev.label();
            seg.kind_mask |= kind.bit();
            seg.count += 1;
        }
        seg
    }

    /// Decodes the full event stream back out, appending to `out`.
    /// Round-trip is exact: `decode` of an `encode` reproduces the
    /// input events byte-for-byte (pinned by the property suite).
    /// Panics on a corrupt byte stream — segments only ever come from
    /// [`SealedSegment::encode`], so corruption is a program bug, not
    /// an input condition.
    pub fn decode_into(&self, out: &mut Vec<ProvEvent>) {
        const CORRUPT: &str = "corrupt sealed segment";
        out.reserve(self.count as usize);
        let mut pos = 0usize;
        let mut prev_pc = 0u32;
        let string = |i: u64| -> String { self.strings[usize::try_from(i).expect(CORRUPT)].clone() };
        for _ in 0..self.count {
            let tag = *self.bytes.get(pos).expect(CORRUPT);
            pos += 1;
            let kind = EventKind::from_tag(tag & 0x07).expect(CORRUPT);
            let flag = tag & TAG_FLAG != 0;
            let label =
                u32::try_from(varint::read_u64(&self.bytes, &mut pos).expect(CORRUPT)).expect(CORRUPT);
            let read_str = |pos: &mut usize| -> String {
                string(varint::read_u64(&self.bytes, pos).expect(CORRUPT))
            };
            let ev = match kind {
                EventKind::Source => ProvEvent::Source {
                    label,
                    api: read_str(&mut pos),
                },
                EventKind::JniEntry => ProvEvent::JniEntry {
                    method: read_str(&mut pos),
                    label,
                },
                EventKind::JniExit => ProvEvent::JniExit {
                    method: read_str(&mut pos),
                    label,
                },
                EventKind::Transfer => ProvEvent::Transfer {
                    api: read_str(&mut pos),
                    label,
                    direction: if flag {
                        Direction::NativeToJava
                    } else {
                        Direction::JavaToNative
                    },
                },
                EventKind::Libc => ProvEvent::Libc {
                    func: read_str(&mut pos),
                    label,
                },
                EventKind::NativeBlock => {
                    let delta = varint::read_i64(&self.bytes, &mut pos).expect(CORRUPT);
                    let start_pc =
                        u32::try_from(i64::from(prev_pc) + delta).expect(CORRUPT);
                    prev_pc = start_pc;
                    let insns = u32::try_from(varint::read_u64(&self.bytes, &mut pos).expect(CORRUPT))
                        .expect(CORRUPT);
                    ProvEvent::NativeBlock {
                        start_pc,
                        insns,
                        label,
                    }
                }
                EventKind::Sink => {
                    let sink = read_str(&mut pos);
                    let dest = read_str(&mut pos);
                    ProvEvent::Sink {
                        sink,
                        dest,
                        label,
                        ctx: if flag { SinkCtx::Native } else { SinkCtx::Java },
                    }
                }
            };
            out.push(ev);
        }
        assert_eq!(pos, self.bytes.len(), "{CORRUPT}: trailing bytes");
    }

    /// The decoded event stream as a fresh Vec.
    pub fn decode(&self) -> Vec<ProvEvent> {
        let mut out = Vec::new();
        self.decode_into(&mut out);
        out
    }

    /// Sequence number of the segment's first event.
    pub fn first_seq(&self) -> u64 {
        self.first_seq
    }

    /// Number of events in the segment.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Whether the segment holds no events.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sequence number one past the segment's last event.
    pub fn end_seq(&self) -> u64 {
        self.first_seq + u64::from(self.count)
    }

    /// Union of every held event's label bits. A query for label bits
    /// disjoint from this union can skip the segment exactly (no
    /// false positives here — this filter is precise).
    pub fn label_union(&self) -> u32 {
        self.label_union
    }

    /// One bit per [`EventKind`] present (precise, like the label
    /// union).
    pub fn kind_mask(&self) -> u8 {
        self.kind_mask
    }

    /// Bloom filter over source API and sink names (2 bits each in a
    /// 64-bit word). [`SealedSegment::may_contain_name`] may return
    /// true for an absent name (extra decode), never false for a
    /// present one (missed evidence).
    pub fn name_bloom(&self) -> u64 {
        self.name_bloom
    }

    /// Conservative membership test against the name bloom.
    pub fn may_contain_name(&self, name: &str) -> bool {
        let m = bloom_mask(name);
        self.name_bloom & m == m
    }

    /// Encoded size in bytes: header + string table + event stream.
    /// This is the numerator of the `bytes_per_event` metric in
    /// `BENCH_provenance.json`.
    pub fn encoded_size(&self) -> usize {
        // Header: first_seq + count + label_union + kind_mask + bloom.
        let header = 8 + 4 + 4 + 1 + 8;
        let table: usize = self.strings.iter().map(|s| s.len() + 1).sum();
        header + table + self.bytes.len()
    }
}

/// Sealed bytes one [`Store`] may hold before its oldest segments are
/// evicted: the in-memory worst case of a full [`crate::DEFAULT_CAPACITY`]
/// segment of uncompressed events, so one store's memory stays within
/// a small constant multiple of it however long the guest runs.
pub const SEALED_BUDGET: usize = 4 << 20;

/// The provenance backend behind [`crate::Handle`]: a hot `Vec` of at
/// most `cap` events in front of `Arc`-shared [`SealedSegment`]s.
///
/// When the hot tier is about to overflow (or on an explicit
/// [`Store::seal_segment`]) its contents are compacted into a sealed
/// segment and the hot tier is emptied; sequence numbers keep running
/// through both tiers. Nothing is lost until the sealed bytes pass the
/// budget ([`SEALED_BUDGET`]): then whole segments are evicted oldest
/// first (the newest always survives) and [`Store::dropped`] grows by
/// exactly their event count. Held memory is therefore at most one
/// segment of uncompressed events plus the budget plus one segment.
#[derive(Debug, Clone)]
pub struct Store {
    hot: Vec<ProvEvent>,
    /// Segment length; never 0.
    cap: usize,
    segments: VecDeque<Arc<SealedSegment>>,
    /// Events held across all sealed segments (sum of their counts).
    sealed_len: usize,
    /// Encoded bytes held across all sealed segments.
    sealed_bytes: usize,
    /// Eviction threshold for `sealed_bytes` ([`SEALED_BUDGET`]
    /// outside unit tests).
    budget: usize,
    recorded: u64,
    dropped: u64,
}

impl Store {
    /// A store sealing every `cap` events (a zero `cap` clamps to 1).
    pub fn new(cap: usize) -> Store {
        Store {
            // Do not pre-reserve `cap`: the default is sized for long
            // runs but most runs stay small.
            hot: Vec::new(),
            cap: cap.max(1),
            segments: VecDeque::new(),
            sealed_len: 0,
            sealed_bytes: 0,
            budget: SEALED_BUDGET,
            recorded: 0,
            dropped: 0,
        }
    }

    /// Appends an event, sealing the hot tier first when it is full.
    pub fn push(&mut self, ev: ProvEvent) {
        if self.hot.len() >= self.cap {
            self.seal_segment();
        }
        self.recorded += 1;
        self.hot.push(ev);
    }

    /// Compacts the hot tier's current events into a sealed segment
    /// (no-op when the hot tier is empty), then evicts the oldest
    /// segments while the sealed bytes exceed the budget. Moving
    /// events between tiers never touches the counters; only eviction
    /// adds to `dropped`.
    pub fn seal_segment(&mut self) {
        if self.hot.is_empty() {
            return;
        }
        let first_seq = self.recorded - self.hot.len() as u64;
        let seg = SealedSegment::encode(first_seq, self.hot.iter());
        self.hot.clear();
        self.sealed_len += seg.len();
        self.sealed_bytes += seg.encoded_size();
        self.segments.push_back(Arc::new(seg));
        while self.sealed_bytes > self.budget && self.segments.len() > 1 {
            let old = self.segments.pop_front().expect("more than one segment");
            self.sealed_len -= old.len();
            self.sealed_bytes -= old.encoded_size();
            self.dropped += old.len() as u64;
        }
    }

    /// The sealed segments, oldest first.
    pub fn segments(&self) -> &VecDeque<Arc<SealedSegment>> {
        &self.segments
    }

    /// Events currently held across both tiers.
    pub fn len(&self) -> usize {
        self.sealed_len + self.hot.len()
    }

    /// Whether no events are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events offered (held + dropped).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events evicted with over-budget segments — exact.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The full held event stream, oldest first: sealed segments
    /// decoded in order, then the hot tier.
    pub fn events_vec(&self) -> Vec<ProvEvent> {
        let mut out = Vec::with_capacity(self.len());
        for seg in &self.segments {
            seg.decode_into(&mut out);
        }
        out.extend_from_slice(&self.hot);
        out
    }

    /// Leak-path count with sink-guided segment skipping. The flow
    /// graph yields exactly one leak path per set bit of every sink
    /// event's label, so the count needs only the sink events: decode
    /// only segments whose kind mask contains [`EventKind::Sink`] and
    /// scan the hot tier. Returns `(count, segments_decoded)`.
    pub fn count_leak_paths(&self) -> (usize, u32) {
        fn sink_bits(events: &[ProvEvent]) -> usize {
            events
                .iter()
                .filter(|ev| ev.is_sink())
                .map(|ev| ev.label().count_ones() as usize)
                .sum()
        }
        let mut count = 0usize;
        let mut decoded = 0u32;
        let mut scratch = Vec::new();
        for seg in &self.segments {
            if seg.kind_mask() & EventKind::Sink.bit() == 0 {
                continue;
            }
            decoded += 1;
            scratch.clear();
            seg.decode_into(&mut scratch);
            count += sink_bits(&scratch);
        }
        (count + sink_bits(&self.hot), decoded)
    }

    /// A frozen, thread-safe ([`Send`] + [`Sync`]) view: sealed
    /// segments shared by refcount, the hot tier copied once into an
    /// immutable tail. Repeated freezes of an unchanged store are
    /// equal ([`ProvStore`] is `Eq`).
    pub fn freeze(&self) -> ProvStore {
        ProvStore {
            segments: self.segments.iter().cloned().collect(),
            tail: Arc::from(self.hot.as_slice()),
            tail_first_seq: self.recorded - self.hot.len() as u64,
            recorded: self.recorded,
            dropped: self.dropped,
        }
    }
}

/// A frozen provenance store: the `Send + Sync` view that rides on
/// `RunReport` across worker threads and feeds [`crate::ProvQuery`] /
/// `BatchReport` merging. Cloning bumps refcounts; equality compares
/// segment and tail *contents*, so reports stay byte-comparable across
/// worker counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProvStore {
    segments: Vec<Arc<SealedSegment>>,
    tail: Arc<[ProvEvent]>,
    tail_first_seq: u64,
    recorded: u64,
    dropped: u64,
}

impl ProvStore {
    /// The sealed segments, oldest first.
    pub fn segments(&self) -> &[Arc<SealedSegment>] {
        &self.segments
    }

    /// The hot-tier events frozen at snapshot time, oldest first.
    pub fn tail(&self) -> &[ProvEvent] {
        &self.tail
    }

    /// Sequence number of the first tail event.
    pub fn tail_first_seq(&self) -> u64 {
        self.tail_first_seq
    }

    /// Events held (sealed + tail).
    pub fn len(&self) -> usize {
        self.segments.iter().map(|s| s.len()).sum::<usize>() + self.tail.len()
    }

    /// Whether no events are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events offered to the live store at freeze time.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events the live store had dropped at freeze time (exact).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The full held event stream, oldest first.
    pub fn events_vec(&self) -> Vec<ProvEvent> {
        let mut out = Vec::with_capacity(self.len());
        for seg in &self.segments {
            seg.decode_into(&mut out);
        }
        out.extend(self.tail.iter().cloned());
        out
    }

    /// Total encoded bytes across sealed segments (see
    /// [`SealedSegment::encoded_size`]).
    pub fn encoded_size(&self) -> usize {
        self.segments.iter().map(|s| s.encoded_size()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlowGraph, ProvQuery};

    /// A deterministic mixed stream: sources, native blocks and sinks
    /// with varied labels, so segments differ in size and in kind mask.
    fn stream(n: usize) -> Vec<ProvEvent> {
        (0..n)
            .map(|i| {
                let label = 1u32 << (i % 5) | (i as u32 & 0x30);
                match i % 3 {
                    0 => ProvEvent::Source {
                        label,
                        api: format!("src-{i}"),
                    },
                    1 => ProvEvent::NativeBlock {
                        start_pc: 0x8000 + 4 * i as u32,
                        insns: 1 + i as u32 % 9,
                        label,
                    },
                    _ => ProvEvent::Sink {
                        sink: "send".into(),
                        dest: format!("host-{}", i % 4),
                        label,
                        ctx: SinkCtx::Native,
                    },
                }
            })
            .collect()
    }

    fn fill(cap: usize, budget: usize, events: &[ProvEvent]) -> Store {
        let mut store = Store {
            budget,
            ..Store::new(cap)
        };
        for ev in events {
            store.push(ev.clone());
        }
        store
    }

    #[test]
    fn over_budget_evicts_oldest_segments_with_exact_drop_count() {
        let events = stream(120);
        let unbounded = fill(4, usize::MAX, &events);
        let sizes: Vec<usize> = unbounded
            .segments
            .iter()
            .map(|s| s.encoded_size())
            .collect();
        let budget = 3 * sizes[0];
        let store = fill(4, budget, &events);

        // The survivors are exactly the newest segments of the
        // unbounded store, unchanged (same first_seq, same bytes).
        let evicted = unbounded.segments.len() - store.segments.len();
        assert!(evicted > 0, "the budget must bite");
        assert!(store
            .segments
            .iter()
            .eq(unbounded.segments.iter().skip(evicted)));
        let lost: usize = unbounded
            .segments
            .iter()
            .take(evicted)
            .map(|s| s.len())
            .sum();
        assert_eq!(store.dropped(), lost as u64);
        assert_eq!(store.recorded(), events.len() as u64);
        assert_eq!(store.segments[0].first_seq(), store.dropped());
        // Eviction stops as soon as the budget holds again.
        assert!(store.sealed_bytes <= budget);
        assert!(store.sealed_bytes + sizes[evicted - 1] > budget);
        assert_eq!(store.hot, unbounded.hot);

        // The held window is the stream's suffix; queries and the
        // sink-guided leak-path count agree with a naive scan of it.
        let held = &events[lost..];
        assert_eq!(store.events_vec(), held);
        let frozen = store.freeze();
        for bits in [0x1u32, 0x4, 0x10, 0x30] {
            let got: Vec<(u64, ProvEvent)> = ProvQuery::new()
                .label(bits)
                .run(&frozen)
                .hits
                .into_iter()
                .map(|h| (h.seq, h.event))
                .collect();
            let naive: Vec<(u64, ProvEvent)> = held
                .iter()
                .enumerate()
                .filter(|(_, e)| e.label() & bits != 0)
                .map(|(i, e)| ((lost + i) as u64, e.clone()))
                .collect();
            assert_eq!(got, naive, "label {bits:#x}");
        }
        assert_eq!(
            store.count_leak_paths().0,
            FlowGraph::build(held).total_leak_paths()
        );
    }

    #[test]
    fn held_memory_stays_within_one_segment_plus_budget() {
        let events = stream(300);
        let cap = 8;
        let budget = 200;
        let mut store = Store {
            budget,
            ..Store::new(cap)
        };
        for (i, ev) in events.iter().enumerate() {
            store.push(ev.clone());
            let newest = store.segments.back().map_or(0, |s| s.encoded_size());
            assert!(store.hot.len() <= cap);
            assert_eq!(
                store.sealed_bytes,
                store
                    .segments
                    .iter()
                    .map(|s| s.encoded_size())
                    .sum::<usize>()
            );
            assert!(store.sealed_bytes <= budget + newest);
            // Whole segments go, oldest first: the held events are
            // always the stream's suffix from `dropped` on.
            assert_eq!(store.len() as u64 + store.dropped(), i as u64 + 1);
            let first = store
                .segments
                .front()
                .map_or(store.recorded - store.hot.len() as u64, |s| s.first_seq());
            assert_eq!(first, store.dropped());
        }
        assert!(store.dropped() > 0);
    }

    #[test]
    fn a_lone_oversized_segment_survives() {
        let events = stream(16);
        let store = fill(8, 1, &events);
        assert_eq!(store.segments.len(), 1, "the newest segment always stays");
        assert_eq!(store.dropped(), 0);
        assert_eq!(store.events_vec(), events);
    }
}
