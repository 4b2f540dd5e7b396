//! Experiment / CI gate: adversarial corpus scoring matrix.
//!
//! Runs the full adversarial corpus (detour, interwork, rewrite,
//! mutation, benign families) through the batch farm, scores every
//! verdict against the corpus ground truth, and renders the per-family
//! precision/recall matrix plus a provenance leak-path transcript at
//! `Level::Full` for every case. The transcript is diffed against the
//! golden below and the aggregate score must be perfect (recall 1.0 on
//! taint-preserving cases, precision 1.0 on taint-killing and benign
//! cases) — either divergence exits 1. Pass `--bless` to rewrite the
//! golden after an intentional corpus change, and `--engine stepper`
//! (or `reference`) to run the whole gate on another native engine
//! than the default `blocks` (every engine must reproduce the identical
//! matrix and transcript).

use ndroid_apps::adversarial::{corpus, expected_leak};
use ndroid_apps::farm::Adversarial;
use ndroid_bench::check_golden;
use ndroid_core::batch::{run_batch, BatchConfig, JobSource};
use ndroid_core::{score_batch, NativeEngine, ProvenanceLevel, SystemConfig};
use ndroid_dvm::Taint;

const GOLDEN: &str = include_str!("exp_adversarial_golden.txt");

/// Where `--bless` writes the regenerated golden.
const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/src/bin/exp_adversarial_golden.txt"
);

/// One case's leak-path transcript at `Level::Full`: every
/// reconstructed source→sink path for leaking cases, a pinned "clean"
/// line for the rest.
fn render_case(case: &ndroid_apps::adversarial::AdversarialCase, engine: NativeEngine) -> String {
    let sys = case
        .build()
        .run_with(
            SystemConfig::ndroid()
                .quiet(true)
                .engine(engine)
                .provenance(ProvenanceLevel::Full),
        )
        .expect("adversarial case runs");
    let graph = sys.flow_graph();
    let total = graph.total_leak_paths();
    if total == 0 {
        return format!("== {}: clean, 0 leak paths ==\n", case.label);
    }
    let mut out = format!("== {}: {} leak paths ==\n", case.label, total);
    for sink in graph.sinks() {
        for path in graph.leak_paths(sink) {
            out.push_str(&format!(
                "[{}] {}\n",
                Taint::bit_name(path.label),
                graph.render_path(&path)
            ));
        }
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let engine = match args
        .iter()
        .position(|a| a == "--engine")
        .map(|i| args.get(i + 1))
    {
        None => NativeEngine::Blocks,
        Some(Some(name)) if name == "blocks" => NativeEngine::Blocks,
        Some(Some(name)) if name == "stepper" => NativeEngine::Stepper,
        Some(Some(name)) if name == "reference" => NativeEngine::Reference,
        Some(other) => {
            eprintln!("--engine takes blocks, stepper or reference (got {other:?})");
            std::process::exit(2);
        }
    };

    let batch = run_batch(
        Adversarial.jobs(&SystemConfig::ndroid().quiet(true).engine(engine)),
        BatchConfig::new(4),
    );
    let score = score_batch(&batch, expected_leak);

    let mut actual = score.render();
    actual.push('\n');
    for case in corpus() {
        actual.push_str(&render_case(&case, engine));
    }
    print!("{actual}");

    if !score.perfect() {
        eprintln!("\nadversarial corpus NOT scored perfectly (see matrix above)");
        std::process::exit(1);
    }

    check_golden("adversarial transcript", &actual, GOLDEN, GOLDEN_PATH);
}
