//! Regression wall for the adversarial corpus: a pinned detection
//! matrix (every family × {TaintDroid, NDroid}), engine bit-identity
//! over every case, provenance leak-path coverage at `Level::Full` for
//! every leaking case, and a `TESTKIT_CASES`-scaled property run over
//! randomly mutated [`FlowSpec`]s asserting the analysis verdict
//! always equals the spec's ground truth.

use ndroid_apps::adversarial::{self, corpus};
use ndroid_apps::synth::{self, FlowSpec, Hop, Mutation, Sink, Source};
use ndroid_apps::testutil::{assert_paths_cover_pinned_leaks, assert_reports_match, run_prov};
use ndroid_apps::App;
use ndroid_core::report::collect_outcome;
use ndroid_core::{DetectionReport, Mode, NativeEngine, ProvenanceLevel, SystemConfig};
use ndroid_testkit::prelude::*;

/// The sensitive value each leaking case actually exfiltrates — as it
/// appears *on the wire* (mutations transform the bytes). Used as the
/// ground-truth marker for "MISSED" classification under TaintDroid.
fn wire_marker(label: &str) -> Option<String> {
    let xor29 = |s: &str| -> String {
        s.bytes().map(|b| (b ^ 0x29) as char).collect()
    };
    match label {
        "detour/leak" => Some("000000000000000".to_string()), // IMEI
        "interwork/leak" => Some("Vincent".to_string()),      // contact
        "rewrite/leak" => Some("secret meeting at 5pm".to_string()), // SMS
        "mutation/xor29" => Some(xor29("Vincent")),
        "mutation/reverse" => Some("tnecniV".to_string()),
        "mutation/xor29-reverse" => Some(xor29("Vincent").chars().rev().collect()),
        _ => None,
    }
}

fn run_mode(case: &ndroid_apps::adversarial::AdversarialCase, mode: Mode) -> ndroid_core::RunReport {
    case.build()
        .run_with(SystemConfig::new(mode).quiet(true))
        .expect("case runs")
        .report()
}

/// The pinned detection matrix: every family behaves exactly as the
/// paper's §V threat narrative predicts. NDroid detects every
/// taint-preserving adversarial flow; TaintDroid (no native tracking)
/// sees the same exfiltrations happen but misses every one that
/// crosses JNI; neither flags a taint-killing or benign case.
#[test]
fn detection_matrix_rows_are_pinned() {
    let mut report = DetectionReport::new();
    for case in corpus() {
        for mode in [Mode::TaintDroid, Mode::NDroid] {
            let run = run_mode(&case, mode);
            let markers: Vec<String> = wire_marker(case.label).into_iter().collect();
            let marker_refs: Vec<&str> = markers.iter().map(String::as_str).collect();
            report.push(collect_outcome(case.label, &run, &marker_refs));
        }
    }
    for case in corpus() {
        let nd = report
            .outcome(case.label, Mode::NDroid, NativeEngine::Blocks)
            .unwrap();
        let td = report
            .outcome(case.label, Mode::TaintDroid, NativeEngine::Blocks)
            .unwrap();
        if case.expected_leak {
            assert_eq!(nd.cell(), "detected", "{}: NDroid must catch it", case.label);
            assert_eq!(
                td.cell(),
                "MISSED",
                "{}: the flow crosses JNI, so TaintDroid exfiltrates it unseen",
                case.label
            );
        } else {
            assert_eq!(nd.cell(), "-", "{}: nothing to detect", case.label);
            assert_eq!(td.cell(), "-", "{}: nothing to miss either", case.label);
        }
    }
    // The rendered matrix carries one row per corpus case.
    let rendered = report.render(&[Mode::TaintDroid, Mode::NDroid]);
    assert_eq!(
        rendered.lines().count(),
        1 + corpus().len(),
        "header plus one row per case:\n{rendered}"
    );
}

/// Bit-identical results under the `Blocks`, `Stepper` and `Reference`
/// engines for every adversarial case — the differential-oracle guarantee
/// extends to self-patching code, interworking trampolines, and
/// rewritten JNI bodies.
#[test]
fn every_case_is_engine_bit_identical() {
    for case in corpus() {
        let report = assert_reports_match(|| case.build(), case.label);
        assert_eq!(
            report.leaked(),
            case.expected_leak,
            "{}: reference-engine verdict disagrees with ground truth",
            case.label
        );
    }
}

/// Every leaking case reconstructs a full source→sink provenance path
/// at `Level::Full`; every clean case reconstructs none.
#[test]
fn leak_paths_reconstruct_at_full_for_every_family() {
    for case in corpus() {
        let sys = run_prov(|| case.build(), NativeEngine::Blocks, ProvenanceLevel::Full);
        let graph = sys.flow_graph();
        if case.expected_leak {
            assert_paths_cover_pinned_leaks(case.label, &sys, &graph);
        } else {
            assert_eq!(
                graph.total_leak_paths(),
                0,
                "{}: clean case must yield no leak path",
                case.label
            );
        }
    }
}

/// The SMC families force real invalidations in the code cache: their
/// code-page stores must invalidate compiled blocks (this is what
/// distinguishes them from the cooperative gallery).
#[test]
fn smc_families_invalidate_the_block_cache() {
    for build in [
        adversarial::detour_leak as fn() -> App,
        adversarial::detour_benign,
        adversarial::rewrite_leak,
        adversarial::rewrite_benign,
    ] {
        let sys = build().run(Mode::NDroid).expect("app runs");
        assert!(
            sys.blocks.invalidations > 0,
            "self-patching must invalidate compiled blocks"
        );
    }
}

/// The block-cache counters ride along in [`RunReport::stats`]: for
/// the detour family the default run compiles and re-dispatches
/// blocks (and invalidates them when the detour patches itself),
/// while a stepper run surfaces all-zero counters.
#[test]
fn detour_family_surfaces_block_cache_counters() {
    let sys = adversarial::detour_leak().run(Mode::NDroid).expect("app runs");
    let stats = sys.report().stats.expect("ndroid stats");
    assert_eq!(stats.blocks_built, sys.blocks.built);
    assert_eq!(stats.block_hits, sys.blocks.hits);
    assert_eq!(stats.block_misses, sys.blocks.misses);
    assert_eq!(stats.block_invalidations, sys.blocks.invalidations);
    assert!(stats.blocks_built > 0, "the detour body was compiled");
    assert!(stats.block_misses > 0, "cold lookups preceded compilation");
    assert!(stats.block_invalidations > 0, "the self-patch dropped stale blocks");

    let off = adversarial::detour_leak()
        .run_with(SystemConfig::ndroid().engine(NativeEngine::Stepper))
        .expect("app runs");
    let stats = off.report().stats.expect("ndroid stats");
    assert_eq!(
        (stats.blocks_built, stats.block_hits, stats.block_misses, stats.block_invalidations),
        (0, 0, 0, 0),
        "stepper: the cache is never consulted"
    );
}

const SOURCES: [Source; 4] = [Source::Imei, Source::Contact, Source::Sms, Source::Location];
const HOPS: [Hop; 5] = [Hop::Strcpy, Hop::Memcpy, Hop::XorLoop, Hop::Sprintf, Hop::Strdup];
const SINKS: [Sink; 3] = [Sink::NativeSend, Sink::NativeFile, Sink::JavaSend];
const MUTATIONS: [Mutation; 4] = [
    Mutation::Xor29,
    Mutation::Reverse,
    Mutation::ConstStamp,
    Mutation::ImplicitOnly,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For any randomly mutated spec, the NDroid verdict equals the
    /// spec's computed ground truth: preserving mutations never lose
    /// the taint, killing mutations never leave a false positive. The
    /// one designed-in over-approximation is TaintDroid's conservative
    /// JNI return policy (§II-B: a tainted parameter taints the
    /// return), which NDroid inherits — a `JavaSend` sink therefore
    /// flags whenever the source value was passed in at all.
    /// Scale with `TESTKIT_CASES`; replay a failure with `TESTKIT_SEED`.
    #[test]
    fn mutated_specs_always_match_ground_truth(
        source_i in 0usize..4,
        hop_is in collection::vec(0usize..5, 0..3),
        sink_i in 0usize..3,
        leak_i in 0u32..2,
        mut_is in collection::vec(0usize..4, 0..3),
    ) {
        let spec = FlowSpec {
            source: SOURCES[source_i],
            hops: hop_is.iter().map(|&i| HOPS[i]).collect(),
            sink: SINKS[sink_i],
            leak: leak_i == 1,
            mutations: mut_is.iter().map(|&i| MUTATIONS[i]).collect(),
        };
        let expected = spec.expected_leak() || spec.sink == Sink::JavaSend;
        let sys = synth::build(&spec)
            .run_with(SystemConfig::ndroid().quiet(true))
            .expect("synth app runs");
        prop_assert_eq!(
            sys.report().leaked(),
            expected,
            "spec {:?}", spec
        );
    }
}
