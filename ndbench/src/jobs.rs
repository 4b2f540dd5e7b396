//! What the workloads share: the app list, one instrumented app run
//! through every layer, and the deterministic work counts the
//! self-check compares.

use std::ops::AddAssign;

use ndroid_apps::adversarial::{self, CaseApp};
use ndroid_apps::synth::{self, FlowSpec, Sink};
use ndroid_apps::App;
use ndroid_core::{RunReport, SystemConfig};

use crate::trace::JobTrace;

/// The deterministic work a set of jobs did. Every field is a pure
/// function of the jobs, so sums must repeat exactly between repeated
/// runs at one seed and between traced and untraced runs.
///
/// Block counters are read from `report().stats`:
/// `NDroidSystem::ndroid_stats()` leaves all four block fields at 0,
/// because the block cache lives on the system, not the analysis.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub jobs: u64,
    pub native_insns: u64,
    pub bytecodes: u64,
    pub jni_entries: u64,
    pub branch_events: u64,
    pub deep_hooks: u64,
    pub chains_activated: u64,
    pub source_policies: u64,
    pub blocks_built: u64,
    pub block_hits: u64,
    pub block_misses: u64,
    pub block_invalidations: u64,
    pub prov_events: u64,
    pub prov_leak_paths: u64,
    pub tainted_bytes: u64,
    pub leaks: u64,
}

impl Counts {
    /// The counts of one finished job.
    pub fn of(report: &RunReport, tainted_bytes: usize) -> Counts {
        let mut c = Counts {
            jobs: 1,
            native_insns: report.native_insns,
            bytecodes: report.bytecodes,
            tainted_bytes: tainted_bytes as u64,
            leaks: report.leaks().len() as u64,
            ..Counts::default()
        };
        if let Some(s) = &report.stats {
            c.jni_entries = s.jni_entries;
            c.branch_events = s.branch_events;
            c.deep_hooks = s.deep_hooks;
            c.chains_activated = s.chains_activated;
            c.source_policies = s.source_policies;
            c.blocks_built = s.blocks_built;
            c.block_hits = s.block_hits;
            c.block_misses = s.block_misses;
            c.block_invalidations = s.block_invalidations;
        }
        if let Some(p) = &report.provenance {
            c.prov_events = p.recorded;
            c.prov_leak_paths = p.leak_paths as u64;
        }
        c
    }

    /// Mean of a count per job (0 for no jobs).
    pub fn per_job(&self, field: u64) -> f64 {
        crate::stats::ratio(field as f64, self.jobs as f64)
    }
}

impl AddAssign for Counts {
    fn add_assign(&mut self, o: Counts) {
        self.jobs += o.jobs;
        self.native_insns += o.native_insns;
        self.bytecodes += o.bytecodes;
        self.jni_entries += o.jni_entries;
        self.branch_events += o.branch_events;
        self.deep_hooks += o.deep_hooks;
        self.chains_activated += o.chains_activated;
        self.source_policies += o.source_policies;
        self.blocks_built += o.blocks_built;
        self.block_hits += o.block_hits;
        self.block_misses += o.block_misses;
        self.block_invalidations += o.block_invalidations;
        self.prov_events += o.prov_events;
        self.prov_leak_paths += o.prov_leak_paths;
        self.tainted_bytes += o.tainted_bytes;
        self.leaks += o.leaks;
    }
}

/// How a job constructs its app. Cloned into every job closure, so a
/// round of jobs owns its inputs.
#[derive(Clone)]
pub enum AppSource {
    Builder(fn() -> App),
    Spec(FlowSpec),
}

/// One app of a workload with the verdict it must produce.
#[derive(Clone)]
pub struct LabeledApp {
    pub label: String,
    pub source: AppSource,
    pub expect_leak: bool,
}

/// A corpus app's expected verdict: the spec's ground truth, plus the
/// TaintDroid JNI-return over-approximation NDroid inherits (a tainted
/// parameter taints the native return, so a `JavaSend` sink flags
/// whenever the source value was passed in at all).
pub fn corpus_expects_leak(spec: &FlowSpec) -> bool {
    spec.expected_leak() || spec.sink == Sink::JavaSend
}

/// A label and the constructor of its app.
type NamedApp = (&'static str, fn() -> App);

/// Apps that must all be flagged as leaking.
fn leaking(apps: &[NamedApp]) -> Vec<LabeledApp> {
    apps.iter()
        .map(|&(label, f)| LabeledApp {
            label: label.into(),
            source: AppSource::Builder(f),
            expect_leak: true,
        })
        .collect()
}

/// The three case-study gallery apps; each leaks.
pub fn gallery() -> Vec<LabeledApp> {
    use ndroid_apps::{crypto_hider, qq_phonebook, thumb_spy};
    leaking(&[
        ("gallery/qq_phonebook", qq_phonebook::qq_phonebook),
        ("gallery/thumb_spy", thumb_spy::thumb_spy),
        ("gallery/crypto_hider", crypto_hider::crypto_hider),
    ])
}

/// The six Table-I case apps; NDroid detects each.
pub fn table1_cases() -> Vec<LabeledApp> {
    use ndroid_apps::cases;
    leaking(&[
        ("case/case1", cases::case1),
        ("case/case1'", cases::case1_prime),
        ("case/case1'-cb", cases::case1_prime_callback),
        ("case/case2", cases::case2),
        ("case/case3", cases::case3),
        ("case/case4", cases::case4),
    ])
}

/// The 15 adversarial cases, each scored with
/// `adversarial::expected_leak` over its label.
pub fn adversarial_cases() -> Vec<LabeledApp> {
    adversarial::corpus()
        .into_iter()
        .map(|case| LabeledApp {
            label: case.label.into(),
            expect_leak: adversarial::expected_leak(case.label)
                .expect("every corpus label has ground truth"),
            source: match case.app {
                CaseApp::Builder(f) => AppSource::Builder(f),
                CaseApp::Spec(spec) => AppSource::Spec(spec),
            },
        })
        .collect()
}

/// What one instrumented app run returns besides its report.
pub struct AppRun {
    pub report: RunReport,
    pub counts: Counts,
    /// Leak paths found by `flow_graph().leak_paths()` (when asked).
    pub graph_leak_paths: usize,
}

/// Builds, boots, runs and reports one app, each step in its own span
/// of `trace`: `apps.build`, `core.boot` (`App::launch_with`, i.e.
/// `NDroidSystem::from_config` + `load_native`), `core.run`
/// (`run_java` / `run_native`), `provenance.flow_graph` when
/// `leak_paths` is set, `core.report`, and `core.teardown` (dropping
/// the system). Mirrors `App::run_with`.
pub fn run_app(
    source: &AppSource,
    config: SystemConfig,
    leak_paths: bool,
    trace: &mut JobTrace,
) -> Result<AppRun, String> {
    let app = trace.time("apps.build", || match source {
        AppSource::Builder(f) => f(),
        AppSource::Spec(spec) => synth::build(spec),
    });
    // Bookkeeping rides inside the spans, so the job's children leave
    // no gaps between them.
    let (entry, native_entry, mut sys) = trace.time("core.boot", || {
        (app.entry.clone(), app.native_entry, app.launch_with(config))
    });
    let ran = trace.time("core.run", || match native_entry {
        Some(addr) => sys
            .run_native(addr, &[])
            .map(|_| ())
            .map_err(|e| e.to_string()),
        None => sys
            .run_java(&entry.0, &entry.1, &[])
            .map(|_| ())
            .map_err(|e| e.to_string()),
    });
    let graph_leak_paths = if leak_paths && ran.is_ok() {
        trace.time("provenance.flow_graph", || {
            let graph = sys.flow_graph();
            graph
                .sinks()
                .into_iter()
                .map(|s| graph.leak_paths(s).len())
                .sum()
        })
    } else {
        0
    };
    let (report, tainted) = trace.time("core.report", || {
        (sys.report(), sys.shadow.mem.tainted_bytes())
    });
    trace.time("core.teardown", || drop(sys));
    ran?;
    let counts = Counts::of(&report, tainted);
    Ok(AppRun {
        report,
        counts,
        graph_leak_paths,
    })
}
