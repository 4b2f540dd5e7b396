//! Experiment / CI gate: provenance leak-path reconstruction.
//!
//! Runs each pinned gallery case at `Level::Full`, renders every
//! source→sink leak path from the flow graph, and diffs the rendering
//! against the golden transcript below. Exits 1 on any divergence —
//! the leak-path pins are as load-bearing as the `LeakEvent` pins in
//! `gallery_regression`. Pass `--bless` to rewrite the golden after an
//! intentional gallery change, and `--dot` to also dump each case's
//! flow graph in DOT for manual inspection.

use ndroid_apps::{crypto_hider, qq_phonebook, thumb_spy, App};
use ndroid_bench::check_golden;
use ndroid_core::{ProvenanceLevel, SystemConfig};
use ndroid_dvm::Taint;

const GALLERY: [(&str, fn() -> App); 3] = [
    ("qq_phonebook", qq_phonebook::qq_phonebook),
    ("thumb_spy", thumb_spy::thumb_spy),
    ("crypto_hider", crypto_hider::crypto_hider),
];

/// The pinned per-case leak-path transcripts (label names resolved via
/// [`Taint::bit_name`], paths in sink order then bit order).
const GOLDEN: &str = include_str!("exp_provenance_golden.txt");

/// Where `--bless` writes the regenerated golden.
const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/src/bin/exp_provenance_golden.txt"
);

fn render_case(name: &str, build: fn() -> App, dot: bool) -> String {
    let sys = build()
        .run_with(
            SystemConfig::ndroid()
                .quiet(true)
                .provenance(ProvenanceLevel::Full),
        )
        .expect("gallery app runs");
    let graph = sys.flow_graph();
    let summary = sys.report().provenance.expect("summary present");
    let mut out = format!(
        "== {name}: {} events, {} leak paths (fingerprint {:#018x}) ==\n",
        graph.events().len(),
        graph.total_leak_paths(),
        summary.fingerprint,
    );
    for sink in graph.sinks() {
        for path in graph.leak_paths(sink) {
            out.push_str(&format!(
                "[{}] {}\n",
                Taint::bit_name(path.label),
                graph.render_path(&path)
            ));
        }
    }
    if dot {
        eprintln!("{}", graph.to_dot_with(|bit| Taint::bit_name(bit)));
    }
    out
}

fn main() {
    let dot = std::env::args().any(|a| a == "--dot");
    let mut actual = String::new();
    for (name, build) in GALLERY {
        actual.push_str(&render_case(name, build, dot));
    }
    print!("{actual}");
    check_golden("leak-path transcript", &actual, GOLDEN, GOLDEN_PATH);
}
