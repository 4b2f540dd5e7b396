//! Store-overflow property tests: under random segment lengths and
//! push sequences the store must (1) keep every event, in order, while
//! its sealed bytes stay under the budget — `dropped == 0` and the
//! snapshot is the pushed sequence — (2) evict only whole segments,
//! oldest first, once the budget is passed, with an exact drop counter
//! and bounded memory, and (3) never panic, including at capacity zero
//! (which clamps to one). Failures replay with `TESTKIT_SEED`.

use ndroid_provenance::{FlowGraph, Handle, Level, ProvEvent, SEALED_BUDGET};
use ndroid_testkit::prelude::*;

/// A numbered event whose identity survives the store: the push index
/// is encoded in the api string and the label carries generated bits
/// so graph building downstream sees varied labels.
fn numbered(i: usize, bits: u32) -> ProvEvent {
    ProvEvent::Source {
        label: bits,
        api: format!("src-{i}"),
    }
}

proptest! {
    #[test]
    fn under_budget_nothing_is_dropped_and_order_is_kept(
        cap in 0usize..24,
        labels in collection::vec(any::<u32>(), 0..96),
    ) {
        let h = Handle::with_capacity(Level::Full, cap);
        for (i, &bits) in labels.iter().enumerate() {
            h.emit(numbered(i, bits));
        }
        let pushes = labels.len();
        prop_assert_eq!(h.recorded(), pushes as u64);
        prop_assert_eq!(h.dropped(), 0u64);
        // The hot tier seals when a push finds it full.
        prop_assert_eq!(h.segments(), pushes.saturating_sub(1) / cap.max(1));
        let expected: Vec<ProvEvent> = labels
            .iter()
            .enumerate()
            .map(|(i, &bits)| numbered(i, bits))
            .collect();
        prop_assert_eq!(h.snapshot(), expected);
    }

    /// The snapshot, and so the graph fingerprint, depends only on the
    /// pushed events, never on where the segment boundaries fell.
    #[test]
    fn snapshot_is_independent_of_segment_length(
        cap in 1usize..16,
        labels in collection::vec(1u32..0x1000, 1..64),
    ) {
        let small = Handle::with_capacity(Level::Full, cap);
        let whole = Handle::new(Level::Full);
        for (i, &bits) in labels.iter().enumerate() {
            small.emit(numbered(i, bits));
            whole.emit(numbered(i, bits));
        }
        prop_assert_eq!(whole.segments(), 0usize);
        prop_assert_eq!(small.snapshot(), whole.snapshot());
        prop_assert_eq!(
            FlowGraph::build(&small.snapshot()).fingerprint(),
            FlowGraph::build(&whole.snapshot()).fingerprint()
        );
    }

    /// Capacity zero is a legal configuration: it clamps to one, so
    /// every event is kept, nothing panics, and the summary stays
    /// coherent.
    #[test]
    fn zero_capacity_clamps_to_one_without_panicking(
        labels in collection::vec(any::<u32>(), 0..32),
    ) {
        let h = Handle::with_capacity(Level::Summary, 0);
        for (i, &bits) in labels.iter().enumerate() {
            h.emit(numbered(i, bits));
        }
        prop_assert_eq!(h.recorded(), labels.len() as u64);
        prop_assert_eq!(h.dropped(), 0u64);
        prop_assert_eq!(h.segments(), labels.len().saturating_sub(1));
        prop_assert_eq!(h.snapshot().len(), labels.len());
        let s = h.summary().expect("Summary level always digests");
        prop_assert_eq!(s.recorded, labels.len() as u64);
        prop_assert_eq!(s.dropped, 0u64);
        prop_assert_eq!(s.leak_paths, 0usize);
    }
}

/// Past [`SEALED_BUDGET`], whole segments go oldest first: `dropped`
/// is a whole number of segments, the held events are exactly the
/// stream's suffix from `dropped` on, and the sealed bytes stay within
/// the budget plus one segment.
#[test]
fn the_sealed_byte_budget_bounds_memory_with_an_exact_drop_count() {
    const CAP: usize = 64;
    // Unique 1 KiB names defeat string interning, so every event costs
    // about a KiB sealed and a few thousand of them pass the budget.
    let pushes = 2 * SEALED_BUDGET / 1024;
    let event = |i: usize| ProvEvent::Source {
        label: 1 << (i % 32),
        api: format!("{i:01024}"),
    };
    let h = Handle::with_capacity(Level::Full, CAP);
    for i in 0..pushes {
        h.emit(event(i));
    }
    let store = h.store_snapshot().expect("on");
    let dropped = store.dropped() as usize;
    assert!(dropped > 0, "the budget must bite");
    assert_eq!(dropped % CAP, 0, "only whole segments are evicted");
    assert_eq!(store.recorded(), pushes as u64);
    assert_eq!(store.segments()[0].first_seq(), dropped as u64);
    assert_eq!(store.len() + dropped, pushes);
    assert!(store.tail().len() <= CAP);
    let newest = store.segments().last().expect("sealed").encoded_size();
    assert!(store.encoded_size() <= SEALED_BUDGET + newest);
    let held = store.events_vec();
    assert!(held.iter().zip(dropped..).all(|(ev, i)| *ev == event(i)));
}
