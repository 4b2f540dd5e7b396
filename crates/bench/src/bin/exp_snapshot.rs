//! Experiment / CI gate: copy-on-write snapshot fan-out determinism.
//!
//! Fans `--sessions N` (default 1000) monkey schedules over the
//! gated-leak app two ways — re-booting a fresh system per session
//! (the pre-snapshot baseline) and forking every session from one
//! warmed copy-on-write image per worker — and asserts the merged
//! `BatchReport`s are byte-identical. Exits 1 on any divergence —
//! this is the golden check `scripts/ci.sh` runs.

use ndroid_apps::farm::Monkey;
use ndroid_bench::arg_after;
use ndroid_core::batch::{run_batch, BatchConfig, JobSource};
use ndroid_core::SystemConfig;

const STEPS: usize = 25;
const BASE_SEED: u64 = 0x5EED;

fn main() {
    let sessions = arg_after("--sessions", 1000);
    let workers = arg_after("--workers", 4);
    let config = SystemConfig::ndroid().quiet(true);
    println!(
        "== snapshot fan-out determinism: {sessions} monkey sessions x {STEPS} steps =="
    );

    let rebooted = run_batch(
        Monkey::fresh(sessions, STEPS, BASE_SEED).jobs(&config),
        BatchConfig::new(workers),
    );
    let forked = run_batch(
        Monkey::forked(sessions, STEPS, BASE_SEED).jobs(&config),
        BatchConfig::new(workers),
    );

    println!(
        "re-booted: {} completed, {} leaking | forked: {} completed, {} leaking",
        rebooted.completed(),
        rebooted.leaking(),
        forked.completed(),
        forked.leaking(),
    );

    let reports_equal = forked == rebooted;
    let renders_equal = forked.render() == rebooted.render();
    println!(
        "re-boot-per-session vs fork-from-image: reports {} / renders {}",
        if reports_equal { "IDENTICAL" } else { "DIVERGED" },
        if renders_equal { "byte-identical" } else { "DIVERGED" },
    );
    if !reports_equal || !renders_equal {
        eprintln!("--- forked render ---\n{}", forked.render());
        eprintln!("--- re-booted render ---\n{}", rebooted.render());
        std::process::exit(1);
    }
    if rebooted.completed() != sessions {
        eprintln!("not every session completed");
        std::process::exit(1);
    }
}
