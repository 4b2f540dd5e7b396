//! Experiment / CI gate: batch-farm determinism.
//!
//! Builds the canonical job list (the three gallery apps + the pinned
//! 32-sample corpus shard), runs it sequentially (1 worker) and again
//! at `--workers N` (default 4), and asserts the merged `BatchReport`s
//! are byte-identical. Exits 1 on any divergence — this is the golden
//! check `scripts/ci.sh` runs.

use ndroid_apps::farm::{CorpusShard, Gallery};
use ndroid_bench::arg_after;
use ndroid_core::batch::{jobs_from, run_batch, AnalysisJob, BatchConfig};
use ndroid_core::SystemConfig;

const SHARD_SIZE: usize = 32;
const SHARD_SEED: u64 = 0xD514;

fn jobs() -> Vec<AnalysisJob> {
    let config = SystemConfig::ndroid().quiet(true);
    jobs_from(
        &[&Gallery, &CorpusShard { n: SHARD_SIZE, seed: SHARD_SEED }],
        &config,
    )
}

fn main() {
    let workers = arg_after("--workers", 4);
    println!(
        "== batch farm determinism: gallery + {SHARD_SIZE}-sample corpus shard =="
    );

    let sequential = run_batch(jobs(), BatchConfig::new(1));
    let parallel = run_batch(jobs(), BatchConfig::new(workers));

    print!("{}", sequential.render());

    let reports_equal = sequential == parallel;
    let renders_equal = sequential.render() == parallel.render();
    println!(
        "\nsequential vs {workers}-worker merge: reports {} / renders {}",
        if reports_equal { "IDENTICAL" } else { "DIVERGED" },
        if renders_equal { "byte-identical" } else { "DIVERGED" },
    );
    if !reports_equal || !renders_equal {
        eprintln!("--- parallel render ---\n{}", parallel.render());
        std::process::exit(1);
    }
    if sequential.completed() != sequential.results.len() {
        eprintln!("not every job completed");
        std::process::exit(1);
    }
}
