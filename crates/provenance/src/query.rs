//! The fleet-scale query layer over frozen provenance stores.
//!
//! A [`ProvQuery`] filters one run's [`ProvStore`] — per label bits,
//! per [`EventKind`], per source-API / sink name, per sequence range —
//! decoding only the sealed segments whose headers could match.
//! Segment skipping follows the bloom convention documented on
//! [`SealedSegment`]: a query may decode a segment that yields no hit
//! (label unions and kind masks are precise, name blooms are not), but
//! it never skips a segment holding a matching event. [`QueryStats`]
//! reports exactly how much decoding a query cost, and the rendered
//! form of a [`QueryResult`] is deterministic — `exp_prov_query` diffs
//! it against a golden transcript in CI.
//!
//! Cross-run merging (`BatchReport::query`) lives in `ndroid-core`,
//! which owns the batch types; it concatenates per-job results in
//! submission order so the merged rendering is byte-identical at any
//! worker count.

use crate::store::{EventKind, ProvStore, SealedSegment};
use crate::{FlowGraph, ProvEvent};

/// A provenance query: every set filter must pass (conjunction).
///
/// Note the name filters imply a kind: `source(api)` matches only
/// [`ProvEvent::Source`] events and `sink(name)` only
/// [`ProvEvent::Sink`] events, so setting both yields no hits by
/// construction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProvQuery {
    label: Option<u32>,
    kinds: Option<u8>,
    source_api: Option<String>,
    sink_name: Option<String>,
    seq: Option<(u64, u64)>,
}

impl ProvQuery {
    /// A query matching every event.
    pub fn new() -> ProvQuery {
        ProvQuery::default()
    }

    /// Keep events whose label intersects `bits`.
    pub fn label(mut self, bits: u32) -> ProvQuery {
        self.label = Some(bits);
        self
    }

    /// Keep events of `kind` (repeatable — kinds accumulate as a
    /// disjunction).
    pub fn kind(mut self, kind: EventKind) -> ProvQuery {
        *self.kinds.get_or_insert(0) |= kind.bit();
        self
    }

    /// Keep only [`ProvEvent::Source`] events introduced by `api`.
    pub fn source(mut self, api: &str) -> ProvQuery {
        self.source_api = Some(api.to_string());
        self
    }

    /// Keep only [`ProvEvent::Sink`] events through sink `name`.
    pub fn sink(mut self, name: &str) -> ProvQuery {
        self.sink_name = Some(name.to_string());
        self
    }

    /// Keep events with sequence number in `[start, end)`.
    pub fn seq_range(mut self, start: u64, end: u64) -> ProvQuery {
        self.seq = Some((start, end));
        self
    }

    /// Whether a single event (at sequence number `seq`) matches.
    pub fn matches(&self, seq: u64, ev: &ProvEvent) -> bool {
        if let Some((start, end)) = self.seq {
            if seq < start || seq >= end {
                return false;
            }
        }
        if let Some(bits) = self.label {
            if ev.label() & bits == 0 {
                return false;
            }
        }
        if let Some(kinds) = self.kinds {
            if EventKind::of(ev).bit() & kinds == 0 {
                return false;
            }
        }
        if let Some(api) = &self.source_api {
            match ev {
                ProvEvent::Source { api: a, .. } if a == api => {}
                _ => return false,
            }
        }
        if let Some(name) = &self.sink_name {
            match ev {
                ProvEvent::Sink { sink, .. } if sink == name => {}
                _ => return false,
            }
        }
        true
    }

    /// Whether a sealed segment could hold a match — the skip test.
    /// Conservative per the bloom convention: `false` is definitive
    /// (the segment holds no match), `true` only means "must decode".
    pub fn segment_may_match(&self, seg: &SealedSegment) -> bool {
        if let Some((start, end)) = self.seq {
            if seg.end_seq() <= start || seg.first_seq() >= end {
                return false;
            }
        }
        if let Some(bits) = self.label {
            if seg.label_union() & bits == 0 {
                return false;
            }
        }
        let mut kinds = self.kinds.unwrap_or(u8::MAX);
        // A name filter restricts the kind even when no kind filter
        // was set explicitly.
        if self.source_api.is_some() {
            kinds &= EventKind::Source.bit();
        }
        if self.sink_name.is_some() {
            kinds &= EventKind::Sink.bit();
        }
        if seg.kind_mask() & kinds == 0 {
            return false;
        }
        if let Some(api) = &self.source_api {
            if !seg.may_contain_name(api) {
                return false;
            }
        }
        if let Some(name) = &self.sink_name {
            if !seg.may_contain_name(name) {
                return false;
            }
        }
        true
    }

    /// Runs the query over one frozen store. Hits come back in
    /// sequence order; stats count the segment-level skip behavior
    /// (the hot tail is always scanned and is not a segment).
    pub fn run(&self, store: &ProvStore) -> QueryResult {
        let mut hits = Vec::new();
        let mut stats = QueryStats::default();
        let mut scratch = Vec::new();
        for seg in store.segments() {
            stats.segments += 1;
            if !self.segment_may_match(seg) {
                stats.skipped += 1;
                continue;
            }
            stats.decoded += 1;
            scratch.clear();
            seg.decode_into(&mut scratch);
            for (i, ev) in scratch.iter().enumerate() {
                let seq = seg.first_seq() + i as u64;
                if self.matches(seq, ev) {
                    hits.push(QueryHit {
                        seq,
                        event: ev.clone(),
                    });
                }
            }
        }
        for (i, ev) in store.tail().iter().enumerate() {
            let seq = store.tail_first_seq() + i as u64;
            if self.matches(seq, ev) {
                hits.push(QueryHit {
                    seq,
                    event: ev.clone(),
                });
            }
        }
        QueryResult { hits, stats }
    }
}

/// Segment-level accounting for one query run: how many sealed
/// segments existed, how many had to be decoded, how many the header
/// filters skipped. `decoded + skipped == segments`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Sealed segments the store held.
    pub segments: u32,
    /// Segments decoded (filter said "may match").
    pub decoded: u32,
    /// Segments skipped without decoding (filter said "cannot match").
    pub skipped: u32,
}

impl QueryStats {
    fn absorb(&mut self, other: QueryStats) {
        self.segments += other.segments;
        self.decoded += other.decoded;
        self.skipped += other.skipped;
    }

    /// Merges per-run stats when aggregating across a batch.
    pub fn merged(mut self, other: QueryStats) -> QueryStats {
        self.absorb(other);
        self
    }
}

/// One matching event with its global sequence number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryHit {
    /// Sequence number in the run's recorded stream.
    pub seq: u64,
    /// The matching event.
    pub event: ProvEvent,
}

/// The hits and decode accounting of one query over one store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryResult {
    /// Matching events in sequence order.
    pub hits: Vec<QueryHit>,
    /// Segment skip/decode accounting.
    pub stats: QueryStats,
}

impl QueryResult {
    /// Deterministic rendering: one `seq N: <canonical>` line per hit,
    /// then a stats line — what the `exp_prov_query` golden pins.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for hit in &self.hits {
            out.push_str(&format!("seq {}: {}\n", hit.seq, hit.event.canonical()));
        }
        out.push_str(&format!(
            "-- segments {} decoded {} skipped {}\n",
            self.stats.segments, self.stats.decoded, self.stats.skipped
        ));
        out
    }
}

impl FlowGraph {
    /// Builds the per-label flow graph for `bits` directly from a
    /// frozen store, decoding only segments whose label union
    /// intersects `bits` (precise — no false skips possible). The
    /// graph holds exactly the events carrying one of `bits`, in
    /// recording order, so each bit's chain — and every rendered leak
    /// path for these bits — is identical to what the whole-stream
    /// [`FlowGraph::build`] produces.
    pub fn build_label(store: &ProvStore, bits: u32) -> (FlowGraph, QueryStats) {
        let mut stats = QueryStats::default();
        let mut events = Vec::new();
        let mut scratch = Vec::new();
        for seg in store.segments() {
            stats.segments += 1;
            if seg.label_union() & bits == 0 {
                stats.skipped += 1;
                continue;
            }
            stats.decoded += 1;
            scratch.clear();
            seg.decode_into(&mut scratch);
            events.extend(scratch.iter().filter(|e| e.label() & bits != 0).cloned());
        }
        events.extend(
            store
                .tail()
                .iter()
                .filter(|e| e.label() & bits != 0)
                .cloned(),
        );
        (FlowGraph::build(&events), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Store;
    use crate::{Direction, SinkCtx};

    fn sample_store(hot_cap: usize) -> Store {
        let mut s = Store::new(hot_cap);
        s.push(ProvEvent::Source {
            label: 0x2,
            api: "ContactsProvider.query".into(),
        });
        s.push(ProvEvent::Source {
            label: 0x200,
            api: "SmsProvider.query".into(),
        });
        s.push(ProvEvent::JniEntry {
            method: "Lcom/app/Jni;.pack".into(),
            label: 0x202,
        });
        s.push(ProvEvent::Transfer {
            api: "GetStringUTFChars".into(),
            label: 0x202,
            direction: Direction::JavaToNative,
        });
        s.push(ProvEvent::NativeBlock {
            start_pc: 0x8000,
            insns: 7,
            label: 0x202,
        });
        s.push(ProvEvent::Libc {
            func: "strcpy".into(),
            label: 0x202,
        });
        s.push(ProvEvent::JniExit {
            method: "Lcom/app/Jni;.pack".into(),
            label: 0x202,
        });
        s.push(ProvEvent::Sink {
            sink: "send".into(),
            dest: "evil.com".into(),
            label: 0x202,
            ctx: SinkCtx::Native,
        });
        s
    }

    #[test]
    fn label_filter_returns_only_intersecting_events_in_seq_order() {
        let store = sample_store(3).freeze();
        let r = ProvQuery::new().label(0x200).run(&store);
        assert!(r.hits.iter().all(|h| h.event.label() & 0x200 != 0));
        assert_eq!(r.hits.len(), 7, "everything but the contacts source");
        assert!(r.hits.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(r.hits[0].seq, 1);
    }

    #[test]
    fn kind_and_seq_filters_compose() {
        let store = sample_store(3).freeze();
        let r = ProvQuery::new()
            .kind(EventKind::Source)
            .kind(EventKind::Sink)
            .run(&store);
        assert_eq!(r.hits.len(), 3);
        let r = ProvQuery::new().seq_range(2, 4).run(&store);
        assert_eq!(r.hits.len(), 2);
        assert_eq!(r.hits[0].seq, 2);
        assert_eq!(r.hits[1].seq, 3);
    }

    #[test]
    fn seq_range_skips_out_of_range_segments_exactly() {
        let store = sample_store(2).freeze();
        // 8 events, hot cap 2 -> segments [0,2) [2,4) [4,6), tail [6,8).
        assert_eq!(store.segments().len(), 3);
        let r = ProvQuery::new().seq_range(0, 2).run(&store);
        assert_eq!(r.stats.decoded, 1);
        assert_eq!(r.stats.skipped, 2);
        assert_eq!(r.hits.len(), 2);
    }

    #[test]
    fn sink_name_query_decodes_only_sink_bearing_segments() {
        let store = sample_store(2).freeze();
        let r = ProvQuery::new().sink("send").run(&store);
        // The sink sits in the hot tail; every segment is skippable
        // via its kind mask.
        assert_eq!(r.stats.decoded, 0);
        assert_eq!(r.stats.skipped, 3);
        assert_eq!(r.hits.len(), 1);
        assert_eq!(r.hits[0].seq, 7);
        // A name that was never recorded: zero hits, zero decodes.
        let r = ProvQuery::new().source("never.recorded").run(&store);
        assert!(r.hits.is_empty());
        assert_eq!(r.stats.decoded, 0);
    }

    #[test]
    fn build_label_matches_whole_stream_paths() {
        let store = sample_store(2).freeze();
        let full = FlowGraph::build(&store.events_vec());
        for bit in [0x2u32, 0x200] {
            let (g, stats) = FlowGraph::build_label(&store, bit);
            assert_eq!(stats.decoded + stats.skipped, stats.segments);
            let full_paths: Vec<String> = full
                .sinks()
                .into_iter()
                .flat_map(|s| full.leak_paths(s))
                .filter(|p| p.label == bit)
                .map(|p| full.render_path(&p))
                .collect();
            let label_paths: Vec<String> = g
                .sinks()
                .into_iter()
                .flat_map(|s| g.leak_paths(s))
                .filter(|p| p.label == bit)
                .map(|p| g.render_path(&p))
                .collect();
            assert_eq!(full_paths, label_paths);
            assert!(!label_paths.is_empty());
        }
    }

    #[test]
    fn render_is_deterministic_and_carries_stats() {
        let store = sample_store(2).freeze();
        let q = ProvQuery::new().label(0x2).kind(EventKind::Sink);
        let a = q.run(&store).render();
        let b = q.run(&store).render();
        assert_eq!(a, b);
        assert!(a.contains("sink send(evil.com)"));
        assert!(a.contains("-- segments 3 decoded"));
    }
}
