//! Gallery leak-path pins for the provenance subsystem: each pinned
//! gallery leak must be reconstructible as a non-empty source→sink
//! path whose endpoints match the pinned [`LeakEvent`]s, identically
//! across tracer engines (the differential-oracle guarantee extends to
//! the event stream) and at both recording levels.

use ndroid_apps::qq_phonebook;
use ndroid_apps::testutil::{assert_paths_cover_pinned_leaks, run_prov as run, run_store, GALLERY};
use ndroid_core::{FlowGraph, NativeEngine, ProvEvent, ProvenanceLevel};

#[test]
fn gallery_leak_paths_reconstruct_under_full() {
    for (name, build) in GALLERY {
        let sys = run(build, NativeEngine::Blocks, ProvenanceLevel::Full);
        let graph = sys.flow_graph();
        assert_paths_cover_pinned_leaks(name, &sys, &graph);
        // Full level additionally carries native block summaries.
        assert!(
            graph
                .events()
                .iter()
                .any(|e| matches!(e, ProvEvent::NativeBlock { .. })),
            "{name}: Full level records native block summaries"
        );
    }
}

#[test]
fn gallery_leak_paths_reconstruct_under_summary() {
    for (name, build) in GALLERY {
        let sys = run(build, NativeEngine::Blocks, ProvenanceLevel::Summary);
        let graph = sys.flow_graph();
        assert_paths_cover_pinned_leaks(name, &sys, &graph);
        assert!(
            !graph
                .events()
                .iter()
                .any(|e| matches!(e, ProvEvent::NativeBlock { .. })),
            "{name}: Summary level omits per-block events"
        );
    }
}

#[test]
fn engines_record_identical_event_streams() {
    for level in [ProvenanceLevel::Summary, ProvenanceLevel::Full] {
        for (name, build) in GALLERY {
            let opt = run(build, NativeEngine::Blocks, level);
            let refr = run(build, NativeEngine::Reference, level);
            assert_eq!(
                opt.prov_events(),
                refr.prov_events(),
                "{name} at {level}: engine changed the event stream"
            );
            assert_eq!(
                opt.flow_graph().fingerprint(),
                refr.flow_graph().fingerprint(),
                "{name} at {level}: engine changed the flow graph"
            );
        }
    }
}

#[test]
fn report_summary_digests_the_graph() {
    for (name, build) in GALLERY {
        let sys = run(build, NativeEngine::Blocks, ProvenanceLevel::Full);
        let graph = sys.flow_graph();
        let report = sys.report();
        let summary = report.provenance.expect("Full run carries a summary");
        assert_eq!(summary.level, ProvenanceLevel::Full, "{name}");
        assert_eq!(summary.fingerprint, graph.fingerprint(), "{name}");
        assert_eq!(summary.leak_paths, graph.total_leak_paths(), "{name}");
        assert_eq!(summary.recorded, graph.events().len() as u64, "{name}");
        assert_eq!(summary.dropped, 0, "{name}: the gallery never nears the budget");
        assert!(summary.leak_paths > 0, "{name}: at least one leak path");
    }
}

#[test]
fn off_level_records_nothing_and_reports_none() {
    for (name, build) in GALLERY {
        let sys = run(build, NativeEngine::Blocks, ProvenanceLevel::Off);
        assert!(sys.prov_events().is_empty(), "{name}");
        assert_eq!(sys.flow_graph().total_leak_paths(), 0, "{name}");
        let report = sys.report();
        assert!(report.provenance.is_none(), "{name}: Off reports no summary");
        assert!(report.leaked(), "{name}: detection itself is unaffected");
    }
}

/// The segment length is invisible to every golden — capacity 4 and
/// the default capacity record the same events, fingerprint and leak
/// paths, nothing dropped — while the sealed segments' kind masks let
/// the leak-path accounting decode fewer than half of them (the
/// segment-skip acceptance gate).
#[test]
fn tiered_store_preserves_goldens_and_skips_segments() {
    for (name, build) in GALLERY {
        let whole = run(build, NativeEngine::Blocks, ProvenanceLevel::Full);
        let sys = run_store(build, NativeEngine::Blocks, ProvenanceLevel::Full, 4);
        assert_eq!(sys.prov_events(), whole.prov_events(), "{name}: stream unchanged");
        let report = sys.report();
        let summary = report.provenance.expect("capacity-4 run carries a summary");
        let baseline = whole.report().provenance.expect("default run carries a summary");
        assert_eq!(baseline.segments, 0, "{name}: the default capacity never seals here");
        assert_eq!(summary.fingerprint, baseline.fingerprint, "{name}");
        assert_eq!(summary.leak_paths, baseline.leak_paths, "{name}");
        assert_eq!(summary.dropped, 0, "{name}: the gallery never nears the budget");
        assert!(summary.segments >= 3, "{name}: capacity 4 forces sealing");
        assert!(
            summary.segments_decoded * 2 < summary.segments,
            "{name}: leak-path accounting decoded {}/{} segments",
            summary.segments_decoded,
            summary.segments,
        );

        // The frozen store in the report reproduces the stream exactly
        // and supports label-filtered reconstruction that skips
        // non-intersecting segments.
        let store = report
            .provenance_store
            .as_ref()
            .expect("capacity-4 run snapshots its store");
        assert_eq!(store.events_vec(), whole.prov_events(), "{name}");
        let sink_label = sys
            .prov_events()
            .iter()
            .rev()
            .find_map(|e| match e {
                ProvEvent::Sink { label, .. } => Some(*label),
                _ => None,
            })
            .expect("gallery apps always sink");
        let (labeled, stats) = FlowGraph::build_label(store, sink_label);
        assert_eq!(stats.decoded + stats.skipped, stats.segments, "{name}");
        assert!(labeled.total_leak_paths() > 0, "{name}: paths survive filtering");
        let sink = *labeled.sinks().last().expect("sink in filtered graph");
        for path in &labeled.leak_paths(sink) {
            let rendered = labeled.render_path(path);
            assert!(rendered.contains("source "), "{name}: {rendered}");
            assert!(rendered.contains("sink "), "{name}: {rendered}");
        }
    }
}

/// Every run that records provenance carries its frozen store, equal
/// to the live stream; an `Off` run carries none.
#[test]
fn provenance_on_runs_carry_a_store_and_off_runs_none() {
    for (name, build) in GALLERY {
        for level in [ProvenanceLevel::Summary, ProvenanceLevel::Full] {
            let sys = run(build, NativeEngine::Blocks, level);
            let store = sys.report().provenance_store.expect("provenance on carries a store");
            assert_eq!(store.events_vec(), sys.prov_events(), "{name} at {level}");
        }
        let off = run(build, NativeEngine::Blocks, ProvenanceLevel::Off);
        assert!(off.report().provenance_store.is_none(), "{name}: Off carries no store");
    }
}

#[test]
fn qq_phonebook_path_walks_the_jni_round_trip() {
    // The paper's Fig. 6 flow, reconstructed: contacts + SMS enter as
    // Java sources, cross into native through GetStringUTFChars, ride
    // the libc string machinery, return through NewStringUTF, and post
    // from Java with the 0x202 union label.
    let sys = run(
        qq_phonebook::qq_phonebook,
        NativeEngine::Blocks,
        ProvenanceLevel::Full,
    );
    let graph = sys.flow_graph();
    let sink = *graph.sinks().last().expect("sink recorded");
    let paths = graph.leak_paths(sink);
    assert_eq!(paths.len(), 2, "one path for contacts, one for sms");
    for path in &paths {
        let rendered = graph.render_path(path);
        assert!(rendered.contains("source "), "{rendered}");
        assert!(rendered.contains("jni-entry "), "{rendered}");
        assert!(
            rendered.contains("transfer GetStringUTFChars java->native"),
            "{rendered}"
        );
        assert!(rendered.contains("libc "), "{rendered}");
        assert!(
            rendered.contains("transfer NewStringUTF native->java"),
            "{rendered}"
        );
        assert!(rendered.contains("jni-exit "), "{rendered}");
        assert!(
            rendered.contains("sink HttpClient.post(sync.3g.qq.com) [java]"),
            "{rendered}"
        );
    }
}
