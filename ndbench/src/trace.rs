//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own files, around its calls
//! into each layer's public functions: one root `job` span per app,
//! session, interactive request or kernel pass, with one child span per
//! layer call beneath it, plus free-standing spans for calls made
//! outside any job (`batch.run_batch`, `service.submit`). Every span
//! has a name, a start, an end and a parent; spans of one job share its
//! id.
//!
//! Aggregates (count, total and self time per span name, child
//! coverage of every `job` span) are folded in as each job finishes, so
//! they cover the whole run; the spans themselves are kept in memory up
//! to [`KEEP_SPANS`] and written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Spans kept for the file written at the end of the run. Aggregates
/// cover every span; the file holds the first `KEEP_SPANS`, so memory
/// does not grow with run length.
const KEEP_SPANS: usize = 200_000;

/// Share of a `job` span its children must cover.
pub const MIN_CHILD_COVERAGE: f64 = 0.90;

/// How well the children of the `job` spans cover them.
pub struct Coverage {
    pub jobs: u64,
    /// Summed child time over summed job time.
    pub overall: f64,
    /// The lowest single job's coverage.
    pub min: f64,
    /// Job spans under [`MIN_CHILD_COVERAGE`].
    pub under: u64,
}

/// One recorded span. `start`/`end` are nanoseconds since the
/// recorder's epoch; `parent` indexes the span's job-local list.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub job: u64,
    pub id: u32,
    pub parent: Option<u32>,
    pub start: u64,
    pub end: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Per-name aggregate: how many spans, their total and self time.
#[derive(Debug, Default, Clone, Copy)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Agg {
    /// Mean self time in microseconds (0 when the layer did no work).
    pub fn self_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }
}

#[derive(Default)]
struct State {
    kept: Vec<Span>,
    by_name: BTreeMap<&'static str, Agg>,
    jobs: u64,
    job_ns: u64,
    covered_ns: u64,
    min_coverage: f64,
    under_covered: u64,
}

/// Collects spans from every thread of a run.
pub struct Recorder {
    epoch: Instant,
    state: Mutex<State>,
}

impl Recorder {
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            state: Mutex::new(State {
                min_coverage: 1.0,
                ..State::default()
            }),
        })
    }

    /// Nanoseconds since the recorder's epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records one span with no parent and no children.
    pub fn single(&self, name: &'static str, job: u64, start: u64, end: u64) {
        self.fold(&[Span {
            name,
            job,
            id: 0,
            parent: None,
            start,
            end,
        }]);
    }

    /// Folds one job's spans (parents before children) into the
    /// aggregates and keeps them for the file.
    fn fold(&self, spans: &[Span]) {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur();
            }
        }
        let mut st = self.state.lock().expect("span recorder poisoned");
        for (s, &covered) in spans.iter().zip(&child_ns) {
            let agg = st.by_name.entry(s.name).or_default();
            agg.count += 1;
            agg.total_ns += s.dur();
            agg.self_ns += s.dur().saturating_sub(covered);
            if s.name == "job" {
                let cov = covered as f64 / s.dur().max(1) as f64;
                st.jobs += 1;
                st.job_ns += s.dur();
                st.covered_ns += covered;
                st.min_coverage = st.min_coverage.min(cov);
                if cov < MIN_CHILD_COVERAGE {
                    st.under_covered += 1;
                }
            }
        }
        let room = KEEP_SPANS.saturating_sub(st.kept.len());
        st.kept.extend(spans.iter().take(room));
    }

    /// The aggregate for span `name`.
    pub fn agg(&self, name: &str) -> Agg {
        let st = self.state.lock().expect("span recorder poisoned");
        st.by_name.get(name).copied().unwrap_or_default()
    }

    /// Child coverage of the `job` spans.
    pub fn coverage(&self) -> Coverage {
        let st = self.state.lock().expect("span recorder poisoned");
        Coverage {
            jobs: st.jobs,
            overall: st.covered_ns as f64 / st.job_ns.max(1) as f64,
            min: st.min_coverage,
            under: st.under_covered,
        }
    }

    /// Writes the kept spans as CSV (`job,id,parent,name,start_ns,end_ns`).
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let st = self.state.lock().expect("span recorder poisoned");
        let mut out = String::from("job,id,parent,name,start_ns,end_ns\n");
        for s in &st.kept {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            let _ = writeln!(
                out,
                "{},{},{},{},{},{}",
                s.job, s.id, parent, s.name, s.start, s.end
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// The spans of one job: a root `job` span and its layer children.
/// Built with no recorder, every call is a plain pass-through, which is
/// how the untraced run uses the same code.
pub struct JobTrace {
    rec: Option<Arc<Recorder>>,
    job: u64,
    spans: Vec<Span>,
}

impl JobTrace {
    /// Opens the root `job` span (when `rec` is present).
    pub fn start(rec: Option<&Arc<Recorder>>, job: u64) -> JobTrace {
        let rec = rec.cloned();
        let mut spans = Vec::new();
        if rec.is_some() {
            spans.reserve(32);
            spans.push(Span {
                name: "job",
                job,
                id: 0,
                parent: None,
                start: 0,
                end: 0,
            });
        }
        JobTrace { rec, job, spans }
    }

    /// Runs `f` inside a child span `name` of the root.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let Some(rec) = &self.rec else { return f() };
        let start = rec.now();
        let out = f();
        let end = rec.now();
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            job: self.job,
            id,
            parent: Some(0),
            start,
            end,
        });
        out
    }

    /// Closes the root span and hands the job's spans to the recorder.
    /// The root spans the job's layer calls: from its first child's
    /// start to its last child's end.
    pub fn finish(mut self) {
        if let Some(rec) = self.rec.take() {
            if let (Some(first), Some(last)) = (self.spans.get(1), self.spans.last()) {
                (self.spans[0].start, self.spans[0].end) = (first.start, last.end);
            }
            rec.fold(&self.spans);
        }
    }
}
