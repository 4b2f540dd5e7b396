//! The batch-analysis farm: shards a work list of analysis jobs across
//! `std::thread` workers and merges their results deterministically.
//!
//! The paper evaluates NDroid one app at a time inside a single QEMU
//! instance; the farm is what scales the reproduction to corpora. The
//! design constraints, in order:
//!
//! 1. **Determinism.** A [`BatchReport`] is byte-identical for the same
//!    job list regardless of worker count or scheduling order. Results
//!    are merged in submission order, and the report carries no worker
//!    count, timing, or other schedule-dependent data.
//! 2. **Panic isolation.** A job that panics is recorded as
//!    [`JobOutcome::Crashed`] and its worker keeps draining the queue —
//!    one bad sample never loses a shard of the corpus.
//! 3. **No shared mutable analysis state.** Each job constructs its own
//!    [`crate::NDroidSystem`] inside its closure; workers share only
//!    the job queue.
//!
//! Jobs are `FnOnce` closures returning `Result<RunReport, String>`, so
//! the farm never needs the app types themselves to be `Send` — the
//! closure builds everything on the worker thread. The thin front-end
//! in `ndroid-apps` (`farm` module) packages gallery apps, corpus
//! samples, and monkey-driver runs into [`JobSource`]s.
//!
//! There are two job queues behind one worker loop. [`run_batch`]
//! uses the **sharded queue**: every job pre-loaded, one
//! `Mutex<VecDeque>` per worker, jobs dealt round-robin, and an idle
//! worker steals from the other shards; with deterministic merge this
//! is purely a contention optimization — stealing changes who runs a
//! job, never where its result lands.
//! [`crate::service::AnalysisService`] uses the **lane queue**: a
//! live, bounded, two-lane queue that workers block on until work
//! arrives or the service closes. Workers are mode-agnostic — both
//! queues sit behind one crate-private queue trait and one shared
//! worker loop — which is why the service's `drain()` reproduces this
//! module's merge byte for byte. (`run_batch` deliberately keeps its
//! own queue rather than running on the service: the shared path was
//! measured slower and heavier on the corpus batch.)

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use crate::config::SystemConfig;
use crate::report::RunReport;
pub use crate::report::{JobOutcome, JobResult};
use ndroid_provenance::{ProvEvent, ProvQuery, QueryStats};

/// The priority lane a job rides in the resident service's queue.
/// Offline `run_batch` ignores lanes (every job in the list runs);
/// [`crate::service::AnalysisService`] dequeues [`Lane::Interactive`]
/// ahead of [`Lane::Bulk`] with starvation-proof aging.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Lane {
    /// Latency-sensitive work: dequeued ahead of bulk.
    Interactive,
    /// Throughput work (corpus sweeps, fan-outs); the default.
    #[default]
    Bulk,
}

impl std::fmt::Display for Lane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Lane::Interactive => "interactive",
            Lane::Bulk => "bulk",
        };
        write!(f, "{s}")
    }
}

/// The closure type a job runs on its worker thread.
type JobFn = Box<dyn FnOnce() -> Result<RunReport, String> + Send + 'static>;

/// One unit of work: a label (stable across runs, used as the merge
/// key's human-readable face), scheduling metadata (lane, deadline,
/// config), and the closure that builds a system, runs it, and
/// snapshots its [`RunReport`].
///
/// Construct with [`AnalysisJob::new`] (defaults: bulk lane, no
/// deadline) or [`AnalysisJob::builder`] when lane/deadline/config
/// metadata should live on the job rather than in parallel vectors.
pub struct AnalysisJob {
    /// Stable human-readable identifier, e.g. `"gallery/qq_phonebook"`
    /// or `"corpus/sample_017"`.
    pub label: String,
    /// Which service lane the job rides (ignored by offline batch).
    pub lane: Lane,
    /// Wall-clock deadline, measured from service submission: if the
    /// job is still queued when it expires, the service marks it
    /// [`JobOutcome::Deadline`] without running it. Ignored by offline
    /// batch (the offline merge must stay schedule-free).
    pub deadline: Option<Duration>,
    /// The [`SystemConfig`] the job's closure boots with, when known —
    /// queue observability and per-worker warm-image keying can read
    /// it without running the job.
    pub config: Option<SystemConfig>,
    pub(crate) run: JobFn,
}

impl AnalysisJob {
    /// Wraps a closure as a job (bulk lane, no deadline).
    pub fn new(
        label: impl Into<String>,
        run: impl FnOnce() -> Result<RunReport, String> + Send + 'static,
    ) -> AnalysisJob {
        AnalysisJob {
            label: label.into(),
            lane: Lane::default(),
            deadline: None,
            config: None,
            run: Box::new(run),
        }
    }

    /// Starts a [`JobBuilder`] carrying lane/deadline/config metadata:
    ///
    /// ```ignore
    /// let job = AnalysisJob::builder("gallery/qq_phonebook")
    ///     .lane(Lane::Interactive)
    ///     .deadline(Duration::from_secs(5))
    ///     .config(config.clone())
    ///     .run(move || app().run_with(config).map(|s| s.report()).map_err(|e| e.to_string()));
    /// ```
    pub fn builder(label: impl Into<String>) -> JobBuilder {
        JobBuilder {
            label: label.into(),
            lane: Lane::default(),
            deadline: None,
            config: None,
        }
    }
}

impl std::fmt::Debug for AnalysisJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalysisJob")
            .field("label", &self.label)
            .field("lane", &self.lane)
            .field("deadline", &self.deadline)
            .finish_non_exhaustive()
    }
}

/// Builder for [`AnalysisJob`]s — see [`AnalysisJob::builder`]. The
/// terminal [`JobBuilder::run`] attaches the closure and yields the
/// job.
#[derive(Debug, Clone)]
pub struct JobBuilder {
    label: String,
    lane: Lane,
    deadline: Option<Duration>,
    config: Option<SystemConfig>,
}

impl JobBuilder {
    /// Selects the service lane (default [`Lane::Bulk`]).
    #[must_use]
    pub fn lane(mut self, lane: Lane) -> JobBuilder {
        self.lane = lane;
        self
    }

    /// Sets a wall-clock deadline, measured from service submission.
    #[must_use]
    pub fn deadline(mut self, deadline: Duration) -> JobBuilder {
        self.deadline = Some(deadline);
        self
    }

    /// Records the [`SystemConfig`] the closure will boot with, as
    /// inspectable metadata on the job.
    #[must_use]
    pub fn config(mut self, config: SystemConfig) -> JobBuilder {
        self.config = Some(config);
        self
    }

    /// Attaches the work closure, finishing the job.
    pub fn run(
        self,
        run: impl FnOnce() -> Result<RunReport, String> + Send + 'static,
    ) -> AnalysisJob {
        AnalysisJob {
            label: self.label,
            lane: self.lane,
            deadline: self.deadline,
            config: self.config,
            run: Box::new(run),
        }
    }
}

/// A named family of analysis jobs: the one interface the offline farm
/// ([`run_batch`] via [`jobs_from`]) and the resident service
/// ([`crate::service::AnalysisService::submit_source`]) accept.
/// Implementations live where the workloads do — `ndroid-apps::farm`
/// provides `Gallery`, `Cases`, `CorpusShard`, `Adversarial`, and
/// `Monkey`.
pub trait JobSource {
    /// Stable source name (used in logs and labels).
    fn name(&self) -> &'static str;
    /// Materializes the source's jobs for `config`, in the source's
    /// pinned submission order.
    fn jobs(&self, config: &SystemConfig) -> Vec<AnalysisJob>;
}

impl<S: JobSource + ?Sized> JobSource for Box<S> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn jobs(&self, config: &SystemConfig) -> Vec<AnalysisJob> {
        (**self).jobs(config)
    }
}

impl<S: JobSource + ?Sized> JobSource for &S {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn jobs(&self, config: &SystemConfig) -> Vec<AnalysisJob> {
        (**self).jobs(config)
    }
}

/// Concatenates several sources' jobs in order — the canonical way to
/// assemble a mixed batch (`jobs_from(&[&Gallery, &CorpusShard{..}],
/// &config)`).
pub fn jobs_from(sources: &[&dyn JobSource], config: &SystemConfig) -> Vec<AnalysisJob> {
    sources.iter().flat_map(|s| s.jobs(config)).collect()
}

/// Farm tuning. Only `workers` exists today; a struct so that future
/// knobs (queue depth, steal policy) don't churn the signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Number of worker threads. `1` runs the whole list on one
    /// spawned worker; `0` is clamped to `1` (both by
    /// [`BatchConfig::new`] and defensively by [`run_batch`], so even a
    /// hand-rolled `BatchConfig { workers: 0 }` can never spawn zero
    /// workers and hang the merge).
    pub workers: usize,
}

impl BatchConfig {
    /// A farm with `workers` threads (`0` clamps to `1`).
    pub fn new(workers: usize) -> BatchConfig {
        BatchConfig { workers: workers.max(1) }
    }
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig::new(1)
    }
}

/// The deterministic merge of a batch run: one [`JobResult`] per
/// submitted job, in submission order. Deliberately carries no worker
/// count, schedule, or timing — `BatchReport`s from 1-worker and
/// N-worker runs of the same job list compare equal (and render to
/// byte-identical text), and [`crate::service::AnalysisService::drain`]
/// reproduces the same report for the same jobs in submission order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BatchReport {
    /// Per-job results in submission order.
    pub results: Vec<JobResult>,
}

impl BatchReport {
    /// Jobs that completed.
    pub fn completed(&self) -> usize {
        self.results.iter().filter(|r| matches!(r.outcome, JobOutcome::Completed(_))).count()
    }

    /// Jobs that returned an error.
    pub fn failed(&self) -> usize {
        self.results.iter().filter(|r| matches!(r.outcome, JobOutcome::Failed(_))).count()
    }

    /// Jobs that panicked.
    pub fn crashed(&self) -> usize {
        self.results.iter().filter(|r| matches!(r.outcome, JobOutcome::Crashed(_))).count()
    }

    /// Jobs that exhausted their budget or missed their deadline.
    pub fn deadlined(&self) -> usize {
        self.results.iter().filter(|r| matches!(r.outcome, JobOutcome::Deadline(_))).count()
    }

    /// Completed jobs whose report detected at least one leak.
    pub fn leaking(&self) -> usize {
        self.results
            .iter()
            .filter_map(|r| r.outcome.report())
            .filter(|rep| rep.leaked())
            .count()
    }

    /// Renders one line per job plus a summary footer. Schedule-free by
    /// construction, so this string is the byte-identity witness used
    /// by the determinism tests and the CI golden check.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.results {
            match &r.outcome {
                JobOutcome::Completed(rep) => {
                    let leaks = rep.leaks();
                    let status = if leaks.is_empty() { "clean" } else { "LEAK" };
                    out.push_str(&format!(
                        "{:<32} {:<9} {:<10} {status:<6} leaks={} sinks={} violations={} insns={}\n",
                        r.label,
                        rep.mode.to_string(),
                        rep.engine.to_string(),
                        leaks.len(),
                        rep.sink_events.len(),
                        rep.violations.len(),
                        rep.native_insns,
                    ));
                }
                JobOutcome::Failed(e) => {
                    out.push_str(&format!("{:<32} FAILED {e}\n", r.label));
                }
                JobOutcome::Crashed(msg) => {
                    out.push_str(&format!("{:<32} CRASHED {msg}\n", r.label));
                }
                JobOutcome::Deadline(msg) => {
                    out.push_str(&format!("{:<32} DEADLINE {msg}\n", r.label));
                }
            }
        }
        out.push_str(&format!(
            "total={} completed={} failed={} crashed={} deadline={} leaking={}\n",
            self.results.len(),
            self.completed(),
            self.failed(),
            self.crashed(),
            self.deadlined(),
            self.leaking(),
        ));
        out
    }

    /// Runs a provenance query across every completed job that carries
    /// a frozen store, merging per-job hits **by submission order**
    /// (the job index is part of every hit, sequence numbers stay
    /// per-run). Because the `BatchReport` itself is schedule-free,
    /// the merged result — and its rendering — is byte-identical at
    /// any worker count; jobs without a store (`Off` runs, failures)
    /// contribute nothing.
    pub fn query(&self, query: &ProvQuery) -> BatchQueryResult {
        let mut hits = Vec::new();
        let mut stats = QueryStats::default();
        for (job, r) in self.results.iter().enumerate() {
            let Some(store) = r.outcome.report().and_then(|rep| rep.provenance_store.as_ref())
            else {
                continue;
            };
            let result = query.run(store);
            stats = stats.merged(result.stats);
            hits.extend(result.hits.into_iter().map(|hit| BatchQueryHit {
                job,
                label: r.label.clone(),
                seq: hit.seq,
                event: hit.event,
            }));
        }
        BatchQueryResult { hits, stats }
    }
}

/// One query hit from a batch-wide query: which job (submission
/// index + label) and where in that run's stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchQueryHit {
    /// Submission index of the job within the batch.
    pub job: usize,
    /// The job's label as submitted.
    pub label: String,
    /// Sequence number within that job's recorded stream.
    pub seq: u64,
    /// The matching event.
    pub event: ProvEvent,
}

/// The merged hits and aggregated segment accounting of one
/// [`BatchReport::query`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchQueryResult {
    /// Hits in (submission order, sequence) order.
    pub hits: Vec<BatchQueryHit>,
    /// Segment skip/decode accounting summed across jobs.
    pub stats: QueryStats,
}

impl BatchQueryResult {
    /// Deterministic rendering — one `<label> seq N: <canonical>` line
    /// per hit plus the aggregated stats footer; the byte-identity
    /// witness for the cross-run query gates.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for hit in &self.hits {
            out.push_str(&format!(
                "{} seq {}: {}\n",
                hit.label,
                hit.seq,
                hit.event.canonical()
            ));
        }
        out.push_str(&format!(
            "-- segments {} decoded {} skipped {}\n",
            self.stats.segments, self.stats.decoded, self.stats.skipped
        ));
        out
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Whether a job's error string is a budget exhaustion — the stable
/// substrings of [`ndroid_emu::EmuError::Timeout`] (guest instruction
/// budget, the [`SystemConfig::budget`] knob) and
/// [`ndroid_dvm::DvmError::OutOfFuel`] (interpreter fuel). Both are
/// deterministic functions of the job, so batch and service modes
/// classify them identically.
fn is_budget_exhaustion(msg: &str) -> bool {
    msg.contains("exceeded instruction budget") || msg.contains("fuel exhausted")
}

/// Runs one job closure under `catch_unwind` and classifies the result.
/// Shared verbatim by batch and service workers so a given job yields
/// the same [`JobOutcome`] in either mode.
pub(crate) fn execute_outcome(run: JobFn) -> JobOutcome {
    match catch_unwind(AssertUnwindSafe(run)) {
        Ok(Ok(report)) => JobOutcome::Completed(report),
        Ok(Err(e)) if is_budget_exhaustion(&e) => JobOutcome::Deadline(e),
        Ok(Err(e)) => JobOutcome::Failed(e),
        Err(payload) => JobOutcome::Crashed(panic_message(payload)),
    }
}

/// A job handed to a worker: its submission sequence number, metadata,
/// and either the closure to run or a pre-expired verdict.
pub(crate) struct QueuedJob {
    /// Submission order; the merge key.
    pub seq: u64,
    /// The job's label.
    pub label: String,
    /// The job's lane (informational for the completion sink).
    pub lane: Lane,
    /// `Some(msg)` when the queue already decided the job's fate
    /// (service-side wall-clock deadline expired while queued): the
    /// worker records [`JobOutcome::Deadline`] without running it.
    pub expired: Option<String>,
    /// Time the job spent queued before dequeue (always zero in offline
    /// mode, where the merge must stay schedule-free).
    pub waited: Duration,
    /// The work closure.
    pub run: JobFn,
}

/// A finished job on its way to the merge.
pub(crate) struct CompletedJob {
    /// Submission order; the merge key.
    pub seq: u64,
    /// The job's label.
    pub label: String,
    /// The job's lane.
    pub lane: Lane,
    /// Time the job spent queued (copied from [`QueuedJob::waited`]).
    pub waited: Duration,
    /// What happened.
    pub outcome: JobOutcome,
}

/// The queue workers pull from — the seam between the offline farm and
/// the resident service. `run_batch` pre-loads a [`ShardedQueue`] and
/// lets workers drain it; the service's lane queue blocks in
/// [`JobQueue::next_job`] until work arrives or the service closes.
pub(crate) trait JobQueue: Send + Sync {
    /// The next job for `worker`. Blocks while the queue is open but
    /// empty; `None` means closed-and-drained — the worker exits.
    fn next_job(&self, worker: usize) -> Option<QueuedJob>;
    /// Delivers a finished job to the merge/stream.
    fn complete(&self, done: CompletedJob);
}

/// The worker loop shared by batch and service modes: pull, run under
/// panic isolation, classify, deliver. All mode-specific behavior
/// (stealing, lanes, deadlines, backpressure) lives behind the
/// [`JobQueue`] trait.
pub(crate) fn worker_loop(me: usize, queue: &dyn JobQueue) {
    while let Some(job) = queue.next_job(me) {
        let outcome = match job.expired {
            Some(msg) => JobOutcome::Deadline(msg),
            None => execute_outcome(job.run),
        };
        queue.complete(CompletedJob {
            seq: job.seq,
            label: job.label,
            lane: job.lane,
            waited: job.waited,
            outcome,
        });
    }
}

/// One shard of the sharded job queue: jobs tagged with their
/// submission index so the merge can restore order.
type Shard = Mutex<VecDeque<(u64, AnalysisJob)>>;

/// The offline farm's queue: every job pre-loaded, dealt round-robin
/// across per-worker shards; a worker drains its own shard then steals
/// from neighbors. Results land in a slot table keyed by submission
/// index — no channel, no ordering sensitivity.
pub(crate) struct ShardedQueue {
    shards: Vec<Shard>,
    results: Mutex<Vec<Option<JobResult>>>,
}

impl ShardedQueue {
    pub(crate) fn new(jobs: Vec<AnalysisJob>, workers: usize) -> ShardedQueue {
        let total = jobs.len();
        let shards: Vec<Shard> = (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        for (idx, job) in jobs.into_iter().enumerate() {
            shards[idx % workers].lock().unwrap().push_back((idx as u64, job));
        }
        ShardedQueue {
            shards,
            results: Mutex::new((0..total).map(|_| None).collect()),
        }
    }

    /// Consumes the queue into the submission-ordered report. Panics if
    /// any slot is empty (a worker-loop bug, not a job failure).
    fn into_report(self) -> BatchReport {
        BatchReport {
            results: self
                .results
                .into_inner()
                .unwrap()
                .into_iter()
                .enumerate()
                .map(|(idx, slot)| {
                    slot.unwrap_or_else(|| panic!("job {idx} produced no result"))
                })
                .collect(),
        }
    }
}

impl JobQueue for ShardedQueue {
    fn next_job(&self, worker: usize) -> Option<QueuedJob> {
        let workers = self.shards.len();
        // Own shard first, then steal from neighbors. Every job is
        // already queued, so an empty sweep means the list is drained.
        for off in 0..workers {
            let shard = &self.shards[(worker + off) % workers];
            if let Some((seq, job)) = shard.lock().unwrap().pop_front() {
                return Some(QueuedJob {
                    seq,
                    label: job.label,
                    lane: job.lane,
                    // Offline mode ignores wall-clock deadlines: the
                    // merge must be schedule-free.
                    expired: None,
                    waited: Duration::ZERO,
                    run: job.run,
                });
            }
        }
        None
    }

    fn complete(&self, done: CompletedJob) {
        self.results.lock().unwrap()[done.seq as usize] =
            Some(JobResult { label: done.label, outcome: done.outcome });
    }
}

/// Runs every job and merges the outcomes into a [`BatchReport`].
///
/// Jobs are dealt round-robin onto per-worker queue shards; each worker
/// drains its own shard first, then steals from the others (scanning
/// from its neighbor onward) until every shard is empty. Each job runs
/// under `catch_unwind`, so a panicking job becomes
/// [`JobOutcome::Crashed`] and the worker lives on. Results are merged
/// by submission index — the report is independent of worker count and
/// scheduling.
pub fn run_batch(jobs: Vec<AnalysisJob>, config: BatchConfig) -> BatchReport {
    let total = jobs.len();
    let workers = config.workers.max(1).min(total.max(1));

    let queue = Arc::new(ShardedQueue::new(jobs, workers));
    let mut handles = Vec::with_capacity(workers);
    for me in 0..workers {
        let queue = Arc::clone(&queue);
        handles.push(thread::spawn(move || worker_loop(me, &*queue)));
    }
    for h in handles {
        // Workers catch job panics, so join only fails if the worker
        // loop itself has a bug — surface that loudly.
        h.join().expect("batch worker panicked outside a job");
    }

    let queue = Arc::into_inner(queue).expect("all workers joined");
    let report = queue.into_report();
    debug_assert_eq!(report.results.len(), total);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NativeEngine;
    use crate::system::Mode;

    fn fake_report(insns: u64) -> RunReport {
        RunReport {
            mode: Mode::NDroid,
            engine: NativeEngine::Blocks,
            sink_events: Vec::new(),
            network_log: Vec::new(),
            violations: Vec::new(),
            stats: None,
            native_insns: insns,
            bytecodes: 0,
            provenance: None,
            provenance_store: None,
        }
    }

    fn job_list() -> Vec<AnalysisJob> {
        (0..13u64)
            .map(|i| {
                AnalysisJob::new(format!("job_{i:02}"), move || match i % 5 {
                    3 => Err(format!("budget exhausted on {i}")),
                    4 => panic!("deterministic boom"),
                    _ => Ok(fake_report(i * 100)),
                })
            })
            .collect()
    }

    #[test]
    fn merge_is_submission_ordered_and_schedule_free() {
        let one = run_batch(job_list(), BatchConfig::new(1));
        let four = run_batch(job_list(), BatchConfig::new(4));
        let many = run_batch(job_list(), BatchConfig::new(32));
        assert_eq!(one, four);
        assert_eq!(one, many);
        assert_eq!(one.render(), four.render());
        assert_eq!(one.results.len(), 13);
        assert_eq!(one.results[0].label, "job_00");
        assert_eq!(one.results[12].label, "job_12");
    }

    #[test]
    fn panics_become_crashed_not_lost_workers() {
        let report = run_batch(job_list(), BatchConfig::new(2));
        assert_eq!(report.crashed(), 2); // jobs 4 and 9
        assert_eq!(report.failed(), 2); // jobs 3 and 8
        assert_eq!(report.completed(), 13 - 2 - 2);
        assert!(matches!(
            report.results[4].outcome,
            JobOutcome::Crashed(ref m) if m == "deterministic boom"
        ));
        assert!(matches!(report.results[3].outcome, JobOutcome::Failed(_)));
    }

    #[test]
    fn empty_batch_and_zero_workers() {
        let report = run_batch(Vec::new(), BatchConfig::new(0));
        assert!(report.results.is_empty());
        assert_eq!(
            report.render(),
            "total=0 completed=0 failed=0 crashed=0 deadline=0 leaking=0\n"
        );
    }

    /// Regression: a zero-worker config — whether built through the
    /// clamping constructor or as a bare struct literal — must still
    /// run a non-empty job list to completion rather than spawning
    /// zero workers and hanging the merge.
    #[test]
    fn zero_workers_with_jobs_completes() {
        assert_eq!(BatchConfig::new(0).workers, 1);
        let clamped = run_batch(job_list(), BatchConfig::new(0));
        assert_eq!(clamped.results.len(), 13);
        // The literal bypasses `new`'s clamp; `run_batch` re-clamps.
        let literal = run_batch(job_list(), BatchConfig { workers: 0 });
        assert_eq!(literal, clamped);
        assert_eq!(literal.render(), clamped.render());
    }

    /// A budget-exhaustion error (the stable `EmuError::Timeout` /
    /// `DvmError::OutOfFuel` strings) classifies as `Deadline`, not
    /// `Failed` — identically at any worker count, so the service's
    /// drain contract holds for budget-capped jobs too.
    #[test]
    fn budget_exhaustion_classifies_as_deadline() {
        let jobs = || {
            vec![
                AnalysisJob::new("ok", || Ok(fake_report(1))),
                AnalysisJob::new("budget", || {
                    Err("native execution failed: guest exceeded instruction budget of 0"
                        .to_string())
                }),
                AnalysisJob::new("fuel", || Err("interpreter fuel exhausted".to_string())),
                AnalysisJob::new("other", || Err("plain failure".to_string())),
            ]
        };
        let one = run_batch(jobs(), BatchConfig::new(1));
        let four = run_batch(jobs(), BatchConfig::new(4));
        assert_eq!(one, four);
        assert_eq!(one.deadlined(), 2);
        assert_eq!(one.failed(), 1);
        assert!(matches!(one.results[1].outcome, JobOutcome::Deadline(_)));
        assert!(matches!(one.results[2].outcome, JobOutcome::Deadline(_)));
        assert!(matches!(one.results[3].outcome, JobOutcome::Failed(_)));
        assert!(one.render().contains("DEADLINE"));
    }

    #[test]
    fn builder_carries_metadata() {
        let job = AnalysisJob::builder("x/y")
            .lane(Lane::Interactive)
            .deadline(Duration::from_millis(250))
            .config(SystemConfig::ndroid().quiet(true))
            .run(|| Ok(fake_report(0)));
        assert_eq!(job.label, "x/y");
        assert_eq!(job.lane, Lane::Interactive);
        assert_eq!(job.deadline, Some(Duration::from_millis(250)));
        assert!(job.config.as_ref().is_some_and(|c| c.quiet));
        // `new` keeps the legacy defaults.
        let plain = AnalysisJob::new("p", || Ok(fake_report(0)));
        assert_eq!(plain.lane, Lane::Bulk);
        assert_eq!(plain.deadline, None);
        assert!(plain.config.is_none());
    }

    #[test]
    fn job_sources_concatenate_in_order() {
        struct Fake(&'static str, usize);
        impl JobSource for Fake {
            fn name(&self) -> &'static str {
                self.0
            }
            fn jobs(&self, _config: &SystemConfig) -> Vec<AnalysisJob> {
                let name = self.0;
                (0..self.1)
                    .map(|i| {
                        AnalysisJob::new(format!("{name}/{i}"), move || {
                            Ok(fake_report(i as u64))
                        })
                    })
                    .collect()
            }
        }
        let cfg = SystemConfig::ndroid();
        let boxed: Box<dyn JobSource> = Box::new(Fake("b", 1));
        assert_eq!(boxed.name(), "b");
        let jobs = jobs_from(&[&Fake("a", 2), &boxed], &cfg);
        let labels: Vec<&str> = jobs.iter().map(|j| j.label.as_str()).collect();
        assert_eq!(labels, ["a/0", "a/1", "b/0"]);
    }
}
