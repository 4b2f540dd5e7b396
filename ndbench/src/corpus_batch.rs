//! `corpus_batch`: what an analyst vetting a corpus runs. Closed loop:
//! `run_batch` over fixed-size rounds on `BatchConfig::new(2)`, default
//! NDroid config, provenance off. Boot-dominated, and the tracer runs
//! cold (each app builds most blocks it dispatches), so block-building
//! cost shows here and nowhere else.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use ndroid_apps::farm::{shard_corpus_config, spec_for_record};
use ndroid_core::batch::{run_batch, AnalysisJob, BatchConfig, JobOutcome};
use ndroid_core::{Mode, SystemConfig};
use ndroid_corpus::JniType;

use crate::jobs::{self, AppSource, Counts, LabeledApp};
use crate::stats::{min, quantile, ratio, timed_setup};
use crate::trace::{JobTrace, Recorder};
use crate::{Args, Outcome};

/// Farm workers: fixed, so the workload is the same on every host.
const WORKERS: usize = 2;
/// Distinct Type-I corpus apps generated from the seed per run.
const POOL: usize = 2000;
/// Corpus apps per round; the 24 fixed apps (15 adversarial, 3
/// gallery, 6 Table-I) ride along in every round.
const ROUND_CORPUS: usize = 250;
/// Rounds per pass over the pool: round `r` runs the same apps as
/// round `r + CYCLE_ROUNDS`.
const CYCLE_ROUNDS: usize = POOL / ROUND_CORPUS;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 51;
/// `peak_rss_mb` is read after this many rounds (or at the end of a
/// shorter run): every boot leaks a few KB, so reading it at a fixed
/// amount of work keeps a faster program from reading as a bigger one.
const RSS_ROUNDS: usize = 50;

fn config() -> SystemConfig {
    SystemConfig::new(Mode::NDroid).quiet(true)
}

/// The corpus apps of `seed`: the first `POOL` library-shipping Type-I
/// samples of the generated corpus, each mapped to its flow app.
fn corpus_pool(seed: u64) -> Vec<LabeledApp> {
    ndroid_corpus::generate(&shard_corpus_config(POOL, seed))
        .into_iter()
        .filter(|r| r.jni_type() == JniType::TypeI && !r.native_libs.is_empty())
        .take(POOL)
        .map(|record| {
            let spec = spec_for_record(&record);
            LabeledApp {
                label: format!("corpus/app_{:05}", record.id),
                expect_leak: jobs::corpus_expects_leak(&spec),
                source: AppSource::Spec(spec),
            }
        })
        .collect()
}

/// Inputs built during set-up.
struct Inputs {
    fixed: Vec<LabeledApp>,
    pool: Vec<LabeledApp>,
}

impl Inputs {
    /// Round `r`'s apps: the fixed apps, then the next `ROUND_CORPUS`
    /// pool apps (cycling through the pool).
    fn round(&self, r: usize) -> Vec<LabeledApp> {
        let mut apps = self.fixed.clone();
        let n = self.pool.len();
        apps.extend((0..ROUND_CORPUS).map(|j| self.pool[(r * ROUND_CORPUS + j) % n].clone()));
        apps
    }
}

/// Per-job facts the closure hands back beside its report.
struct Sample {
    idx: usize,
    start: Instant,
    end: Instant,
    counts: Counts,
}

/// One finished round.
#[derive(Default)]
struct Round {
    jobs: u64,
    failed: u64,
    counts: Counts,
    job_s: Vec<f64>,
    wall_s: f64,
    busy_s: f64,
    tail_s: f64,
    rounds: u64,
    first_problem: Option<String>,
}

impl Round {
    /// Adds finished round `res` to this sum of rounds; `jobs` counts
    /// the verdict-correct ones.
    fn add(&mut self, res: &Round) {
        self.jobs += res.jobs - res.failed;
        self.counts += res.counts;
        self.job_s.extend(&res.job_s);
        self.wall_s += res.wall_s;
        self.busy_s += res.busy_s;
        self.tail_s += res.tail_s;
        self.rounds += 1;
    }
}

fn run_round(apps: &[LabeledApp], round: usize, rec: Option<&Arc<Recorder>>) -> Round {
    let samples = Arc::new(Mutex::new(Vec::with_capacity(apps.len())));
    let jobs: Vec<AnalysisJob> = apps
        .iter()
        .enumerate()
        .map(|(idx, app)| {
            let source = app.source.clone();
            let samples = Arc::clone(&samples);
            let rec = rec.cloned();
            let job_id = (round * apps.len() + idx) as u64;
            AnalysisJob::builder(app.label.clone())
                .config(config())
                .run(move || {
                    let start = Instant::now();
                    let mut trace = JobTrace::start(rec.as_ref(), job_id);
                    let run = jobs::run_app(&source, config(), false, &mut trace);
                    trace.finish();
                    let run = run?;
                    let end = Instant::now();
                    samples.lock().expect("sample list poisoned").push(Sample {
                        idx,
                        start,
                        end,
                        counts: run.counts,
                    });
                    Ok(run.report)
                })
        })
        .collect();

    let t0 = Instant::now();
    let span_start = rec.map(|r| r.now());
    let report = run_batch(jobs, BatchConfig::new(WORKERS));
    let t1 = Instant::now();
    if let (Some(r), Some(s)) = (rec, span_start) {
        r.single("batch.run_batch", round as u64, s, r.now());
    }

    let samples = std::mem::take(&mut *samples.lock().expect("sample list poisoned"));
    let mut out = Round {
        jobs: apps.len() as u64,
        wall_s: (t1 - t0).as_secs_f64(),
        rounds: 1,
        ..Round::default()
    };
    let mut last_end = t0;
    let mut sampled = vec![false; apps.len()];
    for s in &samples {
        sampled[s.idx] = true;
        out.counts += s.counts;
        let d = (s.end - s.start).as_secs_f64();
        out.job_s.push(d);
        out.busy_s += d;
        last_end = last_end.max(s.end);
    }
    out.tail_s = (t1 - last_end).as_secs_f64();
    for ((app, result), sampled) in apps.iter().zip(&report.results).zip(sampled) {
        let problem = match &result.outcome {
            JobOutcome::Completed(_) if !sampled => Some(format!("{}: no sample", app.label)),
            JobOutcome::Completed(r) if r.leaked() != app.expect_leak => Some(format!(
                "{}: leaked={} expected {}",
                app.label,
                r.leaked(),
                app.expect_leak
            )),
            JobOutcome::Completed(_) => None,
            other => Some(format!("{}: {other:?}", app.label)),
        };
        if let Some(p) = problem {
            out.failed += 1;
            out.first_problem.get_or_insert(p);
        }
    }
    out
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, inputs) = timed_setup(SETUP_REPS, || {
        let mut fixed = jobs::adversarial_cases();
        fixed.extend(jobs::gallery());
        fixed.extend(jobs::table1_cases());
        Inputs {
            fixed,
            pool: corpus_pool(args.seed),
        }
    });
    out.check(inputs.pool.len() == POOL, || {
        format!("corpus pool has {} apps", inputs.pool.len())
    });

    // In the traced run, even rounds are traced and odd rounds are not,
    // so `trace.overhead_frac` compares the two under the same drift.
    let rec = args.trace.then(Recorder::new);
    let mut round0 = None;
    let mut rss = None;
    let (mut traced, mut plain) = (Round::default(), Round::default());
    // Untraced run: per position in the cycle, the round's verdict-
    // correct jobs and counts (the same every cycle) and its wall
    // times; per round, its median and 75th-percentile job time.
    let mut positions = vec![(0u64, Counts::default(), Vec::new()); CYCLE_ROUNDS];
    let mut round_latency: Vec<[f64; 2]> = Vec::new();
    let start = Instant::now();
    let mut r = 0usize;
    while start.elapsed().as_secs_f64() < args.seconds {
        let trace_this = rec.is_some() && r.is_multiple_of(2);
        let res = run_round(&inputs.round(r), r, rec.as_ref().filter(|_| trace_this));
        out.attempted += res.jobs;
        out.failed += res.failed;
        if let Some(p) = &res.first_problem {
            out.problems
                .push(format!("round {r}: {} failed, first: {p}", res.failed));
        }
        if r == 0 {
            round0 = Some(res.counts);
        }
        if r + 1 == RSS_ROUNDS {
            rss = Some(out.peak_rss_mb());
        }
        if !args.trace {
            let (jobs, counts, walls) = &mut positions[r % CYCLE_ROUNDS];
            (*jobs, *counts) = (res.jobs - res.failed, res.counts);
            walls.push(res.wall_s);
            round_latency.push([quantile(&res.job_s, 0.5), quantile(&res.job_s, 0.75)]);
        }
        if trace_this { &mut traced } else { &mut plain }.add(&res);
        r += 1;
    }

    // Exact-count self-check: round 0 again, untraced and traced, must
    // repeat the measured round's counts exactly.
    let round0 = round0.expect("at least one round ran");
    println!("counts corpus_batch seed={} round0 {:?}", args.seed, round0);
    let again = run_round(&inputs.round(0), 0, None).counts;
    let again_traced = run_round(&inputs.round(0), 0, Some(&Recorder::new())).counts;
    out.check(again == round0, || {
        format!("round 0 counts differ on repeat: {again:?} vs {round0:?}")
    });
    out.check(again_traced == round0, || {
        format!("round 0 counts differ traced vs untraced: {again_traced:?} vs {round0:?}")
    });

    let rss = rss.unwrap_or_else(|| out.peak_rss_mb());
    if let Some(rec) = rec {
        let agg = |n: &str| rec.agg(n);
        let job = agg("job");
        out.set("apps.build_us", agg("apps.build").self_us());
        out.set("core.boot_us", agg("core.boot").self_us());
        out.set(
            "core.boot_share",
            ratio(agg("core.boot").total_ns as f64, job.total_ns as f64),
        );
        out.set("core.run_us", agg("core.run").self_us());
        out.set("core.report_us", agg("core.report").self_us());
        out.set_counts(&traced.counts);
        out.set("batch.job_us_p50", quantile(&traced.job_s, 0.5) * 1e6);
        out.set("batch.job_us_p99", quantile(&traced.job_s, 0.99) * 1e6);
        out.set(
            "batch.idle_frac",
            1.0 - ratio(traced.busy_s, WORKERS as f64 * traced.wall_s),
        );
        out.set(
            "batch.tail_ms",
            ratio(traced.tail_s, traced.rounds as f64) * 1e3,
        );
        let rate = |x: &Round| ratio(x.jobs as f64, x.wall_s);
        out.set(
            "trace.overhead_frac",
            ratio(rate(&plain), rate(&traced)) - 1.0,
        );
        out.finish_trace(&rec, "corpus_batch", args.seed);
    } else {
        out.set("setup_s", setup_s);
        out.set("peak_rss_mb", rss);
        // Every figure comes from the run's fastest samples (see
        // NOTES.md, "Host, noise and bounds"): host contention only ever
        // adds time, and its share of a run varies from run to run.
        // Rates: a cycle's work over the sum of each position's fastest
        // round, as rounds at different positions run different apps.
        out.check(
            positions.iter().all(|(_, _, walls)| !walls.is_empty()),
            || format!("the run ended inside the first cycle of {CYCLE_ROUNDS} rounds"),
        );
        let cycle_s: f64 = positions.iter().map(|(_, _, walls)| min(walls)).sum();
        let rate = |f: &dyn Fn(u64, &Counts) -> u64| {
            let work: u64 = positions.iter().map(|(jobs, c, _)| f(*jobs, c)).sum();
            ratio(work as f64, cycle_s)
        };
        out.set("apps_per_s", rate(&|jobs, _| jobs));
        out.set("native_mips", rate(&|_, c| c.native_insns) / 1e6);
        out.set("java_mips", rate(&|_, c| c.bytecodes) / 1e6);
        // Latencies: the round's own percentile, in the fastest round.
        let latency = |i: usize| min(&round_latency.iter().map(|l| l[i]).collect::<Vec<_>>()) * 1e3;
        out.set("latency_p50_ms", latency(0));
        out.set("latency_p75_ms", latency(1));
    }
    out
}
