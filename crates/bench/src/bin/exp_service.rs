//! Experiment / CI gate: resident-service determinism.
//!
//! Boots an `AnalysisService` at `--workers N` (default 4), submits
//! the pinned 32-sample corpus shard on the bulk lane and the gallery
//! + adversarial corpus on the interactive lane — all while workers
//! are already running — and asserts the drained `BatchReport` is
//! byte-identical to the offline `run_batch` merge over the same jobs
//! in submission order. Also smoke-checks the streaming path (every
//! ticket answered exactly once, lanes intact). Exits 1 on any
//! divergence — this is the golden check `scripts/ci.sh` runs.

use ndroid_apps::farm::{Adversarial, CorpusShard, Gallery};
use ndroid_bench::arg_after;
use ndroid_core::batch::{jobs_from, run_batch, AnalysisJob, BatchConfig, Lane};
use ndroid_core::{AnalysisService, ServiceConfig, SystemConfig};

const SHARD_SIZE: usize = 32;
const SHARD_SEED: u64 = 0xD514;

/// The gate's job list in submission order: bulk shard first, then the
/// interactive gallery + adversarial corpus (matching the lanes the
/// service run assigns below).
fn jobs() -> Vec<AnalysisJob> {
    let config = SystemConfig::ndroid().quiet(true);
    let mut jobs = jobs_from(
        &[&CorpusShard { n: SHARD_SIZE, seed: SHARD_SEED }],
        &config,
    );
    for mut job in jobs_from(&[&Gallery, &Adversarial], &config) {
        job.lane = Lane::Interactive;
        jobs.push(job);
    }
    jobs
}

fn main() {
    let workers = arg_after("--workers", 4);
    let config = SystemConfig::ndroid().quiet(true);
    println!(
        "== resident service determinism: {SHARD_SIZE}-sample shard (bulk) + \
         gallery + adversarial (interactive), {workers} worker(s) =="
    );

    // Offline reference: the same jobs through run_batch, sequentially.
    let offline = run_batch(jobs(), BatchConfig::new(1));

    // The live service: submissions land while workers are running.
    let service = AnalysisService::start(ServiceConfig::new(workers).capacity(16));
    let bulk = service
        .submit_source(&CorpusShard { n: SHARD_SIZE, seed: SHARD_SEED }, &config, Lane::Bulk)
        .expect("bulk submission");
    let interactive = {
        let mut t = service
            .submit_source(&Gallery, &config, Lane::Interactive)
            .expect("gallery submission");
        t.extend(
            service
                .submit_source(&Adversarial, &config, Lane::Interactive)
                .expect("adversarial submission"),
        );
        t
    };
    println!(
        "submitted {} bulk + {} interactive tickets (capacity 16 — backpressure exercised)",
        bulk.len(),
        interactive.len()
    );
    let drained = service.shutdown();

    print!("{}", drained.render());

    let reports_equal = drained == offline;
    let renders_equal = drained.render() == offline.render();
    println!(
        "\nservice drain vs offline merge: reports {} / renders {}",
        if reports_equal { "IDENTICAL" } else { "DIVERGED" },
        if renders_equal { "byte-identical" } else { "DIVERGED" },
    );
    if !reports_equal || !renders_equal {
        eprintln!("--- offline render ---\n{}", offline.render());
        std::process::exit(1);
    }
    if drained.completed() != drained.results.len() {
        eprintln!("not every job completed");
        std::process::exit(1);
    }

    // Streaming smoke: every ticket answered exactly once, lanes intact,
    // nothing left for the final drain.
    let service = AnalysisService::start(ServiceConfig::new(workers).capacity(16));
    let tickets = service
        .submit_source(&Gallery, &config, Lane::Interactive)
        .expect("gallery submission");
    let mut answered = 0usize;
    for _ in 0..tickets.len() {
        let r = service.recv_result().expect("a result per ticket");
        if r.lane != Lane::Interactive || r.outcome.report().is_none() {
            eprintln!("streamed result diverged: {:?} on {}", r.lane, r.label);
            std::process::exit(1);
        }
        answered += 1;
    }
    let leftover = service.shutdown();
    println!(
        "streaming: {answered}/{} tickets answered, {} left for drain",
        tickets.len(),
        leftover.results.len()
    );
    if answered != tickets.len() || !leftover.results.is_empty() {
        eprintln!("streaming accounting diverged");
        std::process::exit(1);
    }
}
