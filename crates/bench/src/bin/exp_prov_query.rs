//! Experiment / CI gate: fleet-scale provenance queries over the
//! provenance store.
//!
//! Runs the gallery and the adversarial corpus through the batch farm
//! recording provenance at a deliberately small segment length (so
//! every run seals segments), then renders a fixed set of cross-run
//! [`ProvQuery`]s — per-label, per-kind, per-sink-name, seq-windowed —
//! plus each job's tier counters (segments sealed / segments decoded
//! by the leak-path accounting).
//! The transcript is diffed against the golden; any divergence exits
//! 1. Pass `--bless` to rewrite the golden after an intentional
//! corpus or store-format change.

use ndroid_apps::farm::{Adversarial, Gallery};
use ndroid_core::batch::{jobs_from, run_batch, BatchConfig};
use ndroid_core::{EventKind, ProvQuery, ProvenanceLevel, SystemConfig};

const GOLDEN: &str = include_str!("exp_prov_query_golden.txt");

/// Where `--bless` writes the regenerated golden (the source tree, so
/// the next build picks it up via `include_str!`).
const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/src/bin/exp_prov_query_golden.txt"
);

fn main() {
    let bless = std::env::args().any(|a| a == "--bless");

    let config = SystemConfig::ndroid()
        .quiet(true)
        .provenance(ProvenanceLevel::Full)
        .provenance_capacity(4);
    let batch = run_batch(
        jobs_from(&[&Gallery, &Adversarial], &config),
        BatchConfig::new(4),
    );

    let mut actual = String::new();

    // Per-job tier counters: how many segments each run sealed and how
    // many the sink-guided leak-path accounting had to decode — the
    // segment-skip effectiveness surface.
    actual.push_str("== tier counters ==\n");
    for r in &batch.results {
        let rep = r.outcome.report().expect("all gate jobs complete");
        let p = rep.provenance.expect("Full-level job carries a summary");
        actual.push_str(&format!(
            "{:<44} recorded={:<4} segments={:<3} decoded={}\n",
            r.label, p.recorded, p.segments, p.segments_decoded
        ));
    }

    let queries: [(&str, ProvQuery); 6] = [
        ("label 0x2", ProvQuery::new().label(0x2)),
        ("label 0x200", ProvQuery::new().label(0x200)),
        ("kind sink", ProvQuery::new().kind(EventKind::Sink)),
        (
            "sources in seq 0..8",
            ProvQuery::new().kind(EventKind::Source).seq_range(0, 8),
        ),
        ("sink send", ProvQuery::new().sink("send")),
        (
            "sink HttpClient.post carrying 0x202",
            ProvQuery::new().sink("HttpClient.post").label(0x202),
        ),
    ];
    for (desc, q) in &queries {
        actual.push_str(&format!("\n== query: {desc} ==\n"));
        actual.push_str(&batch.query(q).render());
    }
    print!("{actual}");

    if bless {
        std::fs::write(GOLDEN_PATH, &actual).expect("write golden");
        println!("\ngolden blessed: {GOLDEN_PATH}");
        return;
    }

    if actual != GOLDEN {
        eprintln!("\nprovenance query transcript DIVERGED from golden:");
        for (i, (a, g)) in actual.lines().zip(GOLDEN.lines()).enumerate() {
            if a != g {
                eprintln!("  line {}:\n    actual: {a}\n    golden: {g}", i + 1);
            }
        }
        let (na, ng) = (actual.lines().count(), GOLDEN.lines().count());
        if na != ng {
            eprintln!("  line counts differ: actual {na} vs golden {ng}");
        }
        std::process::exit(1);
    }
    println!("\nprovenance query transcript matches golden");
}
