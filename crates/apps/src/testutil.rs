//! Test-support helpers shared by the pinned-gallery and adversarial
//! integration suites (`gallery_regression`, `oracle_gallery`,
//! `provenance_gallery`, `adversarial_regression`): the pinned gallery
//! list, engine/provenance run wrappers, the engine bit-identity
//! assertion, and the provenance path-coverage assertion.
//!
//! Not `#[cfg(test)]`-gated because integration tests link the crate
//! externally; production code has no reason to call these.

use crate::builder::App;
use ndroid_core::{
    FlowGraph, Mode, NDroidSystem, NativeEngine, ProvEvent, ProvenanceLevel, RunReport,
    SystemConfig,
};
use ndroid_dvm::Taint;

/// The pinned case-study gallery: name ↔ constructor.
pub const GALLERY: [(&str, fn() -> App); 3] = [
    ("qq_phonebook", crate::qq_phonebook::qq_phonebook),
    ("thumb_spy", crate::thumb_spy::thumb_spy),
    ("crypto_hider", crate::crypto_hider::crypto_hider),
];

/// Builds and runs an app under plain NDroid mode.
pub fn run_ndroid(build: impl Fn() -> App) -> NDroidSystem {
    build().run(Mode::NDroid).expect("app run")
}

/// Builds and runs an app under NDroid with the given tracer engine,
/// returning its report.
pub fn run_engine(build: impl Fn() -> App, engine: NativeEngine) -> RunReport {
    build()
        .run_with(SystemConfig::ndroid().engine(engine))
        .expect("engine run")
        .report()
}

/// Builds and runs an app under NDroid with the given engine and
/// provenance recording level.
pub fn run_prov(
    build: impl Fn() -> App,
    engine: NativeEngine,
    level: ProvenanceLevel,
) -> NDroidSystem {
    build()
        .run_with(SystemConfig::ndroid().engine(engine).provenance(level))
        .expect("app runs")
}

/// Builds and runs an app recording provenance at the given segment
/// length — small capacities force segment sealing on the short
/// gallery streams.
pub fn run_store(
    build: impl Fn() -> App,
    engine: NativeEngine,
    level: ProvenanceLevel,
    capacity: usize,
) -> NDroidSystem {
    build()
        .run_with(
            SystemConfig::ndroid()
                .engine(engine)
                .provenance(level)
                .provenance_capacity(capacity),
        )
        .expect("app runs")
}

/// Runs the three native engines — superblock dispatch (the default),
/// the uncached stepper, and the reference engine — asserts each
/// report names the engine that was requested and that only `Blocks`
/// compiled blocks, asserts the three agree on everything externally
/// observable, and returns the reference-engine report for pinned-leak
/// checks.
pub fn assert_reports_match(build: impl Fn() -> App, name: &str) -> RunReport {
    let reports = [
        NativeEngine::Blocks,
        NativeEngine::Stepper,
        NativeEngine::Reference,
    ]
    .map(|engine| (engine, run_engine(&build, engine)));
    for (engine, report) in &reports {
        assert_eq!(
            report.engine, *engine,
            "{name}: {engine} engine must actually be installed"
        );
        let built = report.stats.as_ref().expect("ndroid stats").blocks_built;
        assert_eq!(
            built > 0,
            *engine == NativeEngine::Blocks,
            "{name}: {engine} engine built {built} blocks"
        );
    }
    let [(_, blocks), (_, stepper), (_, reference)] = reports;
    for (other, r) in [("stepper", &stepper), ("reference", &reference)] {
        assert_eq!(
            blocks.sink_events, r.sink_events,
            "{name}: sink-event reports diverge between blocks and {other}"
        );
        assert_eq!(
            blocks.network_log, r.network_log,
            "{name}: network logs diverge between blocks and {other}"
        );
        assert_eq!(
            blocks.violations, r.violations,
            "{name}: protection violations diverge between blocks and {other}"
        );
        assert_eq!(
            (blocks.native_insns, blocks.bytecodes),
            (r.native_insns, r.bytecodes),
            "{name}: blocks and {other} executed different instruction counts"
        );
    }
    reference
}

/// For every pinned leak the graph holds a matching `Sink` event with a
/// non-empty path per label bit, starting at a `Source` that carries
/// that bit and ending at the sink itself.
pub fn assert_paths_cover_pinned_leaks(name: &str, sys: &NDroidSystem, graph: &FlowGraph) {
    let leaks = sys.leaks();
    assert!(!leaks.is_empty(), "{name}: app must leak");
    for leak in leaks {
        let sink_idx = graph
            .events()
            .iter()
            .position(|e| {
                matches!(e, ProvEvent::Sink { sink, dest, label, .. }
                    if *sink == leak.sink && *dest == leak.dest && *label == leak.taint.0)
            })
            .unwrap_or_else(|| {
                panic!("{name}: no Sink event matches pinned leak {leak:?}")
            });
        let paths = graph.leak_paths(sink_idx);
        assert_eq!(
            paths.len(),
            leak.taint.0.count_ones() as usize,
            "{name}: one path per label bit"
        );
        for path in &paths {
            assert!(
                leak.taint.contains(Taint(path.label)),
                "{name}: path label {:#x} within the leak label",
                path.label
            );
            assert!(path.nodes.len() >= 2, "{name}: path spans source to sink");
            assert_eq!(*path.nodes.last().unwrap(), sink_idx);
            let first = &graph.events()[path.nodes[0]];
            assert!(
                matches!(first, ProvEvent::Source { label, .. } if label & path.label != 0),
                "{name}: path for bit {:#x} must start at a Source, got {}",
                path.label,
                first.canonical()
            );
        }
    }
}
