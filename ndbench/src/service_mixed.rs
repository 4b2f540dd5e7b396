//! `service_mixed`: open loop on one resident `AnalysisService` with
//! `ServiceConfig::new(nproc - 1)` (default capacity and aging) and a
//! single generator thread, so threads <= nproc.
//!
//! * Interactive lane: the 3 gallery and 15 adversarial apps, in a
//!   seed-shuffled order, arrive at a fixed rate under
//!   `ProvenanceLevel::Full`; each job computes
//!   `flow_graph().leak_paths()` before reporting. Latency runs from a
//!   request's due time to its result being received.
//! * Bulk lane: 25-step monkey sessions over `gated_leak_app`, forked
//!   from a per-worker warm `Snapshot` exactly as
//!   `Monkey { fork: true }` does. The generator keeps every slot of the
//!   queue filled with bulk work.
//!
//! The generator never spins on `try_submit`: bulk top-ups try once per
//! received result. Interactive requests try once and then block in
//! `submit`, so a wait for a slot behind the bulk backlog counts as
//! latency. Results are consumed as they arrive, polled every 10 us;
//! the generator reports its own lateness.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use ndroid_apps::driver::{drive, gated_leak_app, MonkeyRng, GATED_ENTRIES};
use ndroid_core::batch::{AnalysisJob, JobOutcome, Lane};
use ndroid_core::{
    AnalysisService, Mode, ProvenanceLevel, RunReport, ServiceConfig, Snapshot, SubmitError,
    SystemConfig,
};

use crate::jobs::{self, Counts, LabeledApp};
use crate::stats::{max, min, quantile, ratio, timed_setup};
use crate::trace::{JobTrace, Recorder};
use crate::{Args, Outcome};

/// Interactive requests per second.
const RATE: f64 = 500.0;
/// Monkey events per bulk session.
const BULK_STEPS: usize = 25;
/// Longest the idle generator waits before looking for results again.
/// It busy-waits on the clock, without the service's lock: sleeping made
/// every poll a timer wake-up of an idle vCPU, whose cost follows the
/// host's load (see NOTES.md).
const POLL: Duration = Duration::from_micros(10);
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 51;
/// Bulk sessions re-run inline for the exact-count self-check (the
/// interactive check set is the first pass over the 18 apps).
const CHECK_BULK: u64 = 64;
/// The end-to-end figures are each segment's own, from the run's
/// fastest segment, and in the traced run tracing alternates on and off
/// from segment to segment (`trace.overhead_frac`).
const SEGMENT: Duration = Duration::from_millis(500);

fn bulk_config() -> SystemConfig {
    SystemConfig::new(Mode::NDroid).quiet(true)
}

fn interactive_config() -> SystemConfig {
    SystemConfig::new(Mode::NDroid)
        .quiet(true)
        .provenance(ProvenanceLevel::Full)
}

thread_local! {
    /// This thread's warm image of the booted gated-leak app.
    static WARM: RefCell<Option<Snapshot>> = const { RefCell::new(None) };
}

/// Boots and snapshots the gated-leak app on this thread unless it
/// already holds an image; returns the boot time in seconds.
fn warm_this_thread() -> f64 {
    WARM.with(|w| {
        let mut w = w.borrow_mut();
        if w.is_some() {
            return 0.0;
        }
        let t = Instant::now();
        *w = Some(gated_leak_app().launch_with(bulk_config()).snapshot());
        t.elapsed().as_secs_f64()
    })
}

/// A session leaks iff `enableSync` ran before some `doSync`.
fn session_expects_leak(invocations: &[String]) -> bool {
    invocations
        .iter()
        .skip_while(|m| *m != "enableSync")
        .any(|m| m == "doSync")
}

/// What a job leaves for the generator beside its `RunReport`.
struct Done {
    counts: Counts,
    verdict: Result<(), String>,
    end: Instant,
}

type DoneMap = Arc<Mutex<HashMap<u64, Done>>>;

/// One bulk session: fork from the warm image, drive, check.
fn bulk_session(seed: u64, trace: &mut JobTrace) -> (Done, RunReport) {
    let mut sys = trace.time("snapshot.fork", || {
        warm_this_thread();
        WARM.with(|w| w.borrow().as_ref().expect("warmed above").fork())
    });
    let (dr, tainted) = trace.time("dvm.drive", || {
        let dr = drive(&mut sys, "Lapp/Sync;", &GATED_ENTRIES, BULK_STEPS, seed);
        (dr, sys.shadow.mem.tainted_bytes())
    });
    trace.time("core.teardown", || drop(sys));
    let expect = session_expects_leak(&dr.invocations);
    let verdict = if dr.errors > 0 {
        Err(format!("session {seed}: {} invocations failed", dr.errors))
    } else if dr.report.leaked() != expect {
        Err(format!(
            "session {seed}: leaked={} expected {expect}",
            dr.report.leaked()
        ))
    } else {
        Ok(())
    };
    let counts = Counts::of(&dr.report, tainted);
    (
        Done {
            counts,
            verdict,
            end: Instant::now(),
        },
        dr.report,
    )
}

/// One interactive request: the instrumented app run at `Full`
/// provenance, with its leak paths.
fn interactive_run(app: &LabeledApp, trace: &mut JobTrace) -> Result<(Done, RunReport), String> {
    let run = jobs::run_app(&app.source, interactive_config(), true, trace)?;
    let leaked = run.report.leaked();
    let verdict = if leaked != app.expect_leak {
        Err(format!(
            "{}: leaked={leaked} expected {}",
            app.label, app.expect_leak
        ))
    } else if leaked && run.graph_leak_paths == 0 {
        Err(format!("{}: flagged but no leak path", app.label))
    } else {
        Ok(())
    };
    Ok((
        Done {
            counts: run.counts,
            verdict,
            end: Instant::now(),
        },
        run.report,
    ))
}

#[derive(Clone, Copy)]
enum Req {
    Interactive { k: u64, due: Instant },
    Bulk { i: u64 },
}

/// Set-up product: the running service and the interactive order.
struct Setup {
    service: AnalysisService,
    order: Vec<LabeledApp>,
    warm_boot_s: f64,
}

fn setup(seed: u64, workers: usize) -> Setup {
    let mut order = jobs::gallery();
    order.extend(jobs::adversarial_cases());
    let mut rng = MonkeyRng::new(seed ^ 0x5EED_F1A7);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let service = AnalysisService::start(ServiceConfig::new(workers));
    // One warm-up job per worker; the barrier keeps any worker from
    // taking two, so every worker holds a warm image afterwards.
    let barrier = Arc::new(Barrier::new(workers));
    let boots = Arc::new(Mutex::new(Vec::new()));
    for w in 0..workers {
        let (barrier, boots) = (Arc::clone(&barrier), Arc::clone(&boots));
        let job = AnalysisJob::builder(format!("warm/{w}"))
            .lane(Lane::Bulk)
            .run(move || {
                let t = warm_this_thread();
                boots.lock().expect("boot list poisoned").push(t);
                barrier.wait();
                Ok(WARM.with(|s| s.borrow().as_ref().expect("warmed").fork().report()))
            });
        service
            .submit(job)
            .expect("fresh service accepts warm-up jobs");
    }
    for _ in 0..workers {
        service.recv_result().expect("warm-up result");
    }
    let boots = boots.lock().expect("boot list poisoned");
    Setup {
        service,
        order,
        warm_boot_s: boots.iter().sum::<f64>() / boots.len() as f64,
    }
}

/// Accumulated results of the run.
#[derive(Default)]
struct Tally {
    /// Verdict-correct bulk results received inside the window.
    bulk_ok: u64,
    /// Bulk results received while tracing was on (traced run only).
    bulk_ok_traced: u64,
    counts: Counts,
    latency_s: Vec<f64>,
    late_s: Vec<f64>,
    waited_i_s: Vec<f64>,
    waited_b_s: Vec<f64>,
    deliver_s: Vec<f64>,
    submit_block_s: Vec<f64>,
    full_rejects: u64,
    check_interactive: Counts,
    check_bulk: Counts,
    segments: Vec<Segment>,
}

/// What was received in one `SEGMENT` of the window.
#[derive(Default, Clone)]
struct Segment {
    results: u64,
    native_insns: u64,
    bytecodes: u64,
    /// Interactive latencies, due time to received.
    latency_s: Vec<f64>,
}

/// The exact-count check set run inline: the first pass over the
/// interactive order and the first `CHECK_BULK` sessions.
fn check_set(
    order: &[LabeledApp],
    bulk_base: u64,
    rec: Option<&Arc<Recorder>>,
) -> (Counts, Counts) {
    let (mut inter, mut bulk) = (Counts::default(), Counts::default());
    for (k, app) in order.iter().enumerate() {
        let mut trace = JobTrace::start(rec, k as u64);
        if let Ok((d, _)) = interactive_run(app, &mut trace) {
            inter += d.counts;
        }
        trace.finish();
    }
    for i in 0..CHECK_BULK {
        let mut trace = JobTrace::start(rec, i);
        bulk += bulk_session(bulk_base + i, &mut trace).0.counts;
        trace.finish();
    }
    (inter, bulk)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .saturating_sub(1)
        .max(1);
    let (
        setup_s,
        Setup {
            service,
            order,
            warm_boot_s,
        },
    ) = timed_setup(SETUP_REPS, || setup(args.seed, workers));
    let capacity = service.config().capacity;
    let bulk_base = args.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20;

    let rec = args.trace.then(Recorder::new);
    let done: DoneMap = Arc::new(Mutex::new(HashMap::new()));
    let make_interactive = |req: u64, k: u64, rec: Option<&Arc<Recorder>>| {
        let app = order[(k % order.len() as u64) as usize].clone();
        let (done, rec) = (Arc::clone(&done), rec.cloned());
        AnalysisJob::builder(format!("interactive/{k}/{}", app.label))
            .lane(Lane::Interactive)
            .config(interactive_config())
            .run(move || {
                let mut trace = JobTrace::start(rec.as_ref(), req);
                let r = interactive_run(&app, &mut trace);
                trace.finish();
                let (d, report) = r?;
                done.lock().expect("done map poisoned").insert(req, d);
                Ok(report)
            })
    };
    let make_bulk = |req: u64, i: u64, rec: Option<&Arc<Recorder>>| {
        let (done, rec) = (Arc::clone(&done), rec.cloned());
        AnalysisJob::builder(format!("bulk/{i}"))
            .lane(Lane::Bulk)
            .config(bulk_config())
            .run(move || {
                let mut trace = JobTrace::start(rec.as_ref(), req);
                let (d, report) = bulk_session(bulk_base + i, &mut trace);
                trace.finish();
                done.lock().expect("done map poisoned").insert(req, d);
                Ok(report)
            })
    };

    let mut t = Tally::default();
    let mut pending = HashMap::new();
    let (mut next_req, mut k, mut i) = (0u64, 0u64, 0u64);
    let mut outstanding = 0usize;
    let mut bulk_blocked = false;
    let period = Duration::from_secs_f64(1.0 / RATE);
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(args.seconds);
    let segment_of = |at: Instant| {
        (at.saturating_duration_since(start).as_nanos() / SEGMENT.as_nanos()) as usize
    };
    let traced_at = |at: Instant| rec.as_ref().filter(|_| segment_of(at).is_multiple_of(2));

    // Books one received result; `in_window` results count toward rates.
    type Pending = HashMap<u64, (u64, Req)>;
    let receive = |r: ndroid_core::ServiceResult,
                   in_window: bool,
                   pending: &mut Pending,
                   t: &mut Tally,
                   out: &mut Outcome| {
        let received = Instant::now();
        out.attempted += 1;
        let Some((req, kind)) = pending.remove(&r.seq) else {
            out.failed += 1;
            out.problems
                .push(format!("result for unknown seq {}", r.seq));
            return;
        };
        let d = done.lock().expect("done map poisoned").remove(&req);
        let d = match (&r.outcome, d) {
            (JobOutcome::Completed(_), Some(d)) => d.verdict.clone().map(|_| d),
            (JobOutcome::Completed(_), None) => Err(format!("{}: no job record", r.label)),
            (other, _) => Err(format!("{}: {other:?}", r.label)),
        };
        let d = match d {
            Ok(d) => d,
            Err(e) => {
                out.failed += 1;
                if out.problems.len() < 8 {
                    out.problems.push(e);
                }
                return;
            }
        };
        let seg = segment_of(received);
        if in_window {
            t.counts += d.counts;
            if t.segments.len() <= seg {
                t.segments.resize(seg + 1, Segment::default());
            }
            let s = &mut t.segments[seg];
            s.results += 1;
            s.native_insns += d.counts.native_insns;
            s.bytecodes += d.counts.bytecodes;
        }
        match kind {
            Req::Interactive { k, due } => {
                let latency = (received - due).as_secs_f64();
                t.latency_s.push(latency);
                if in_window {
                    t.segments[seg].latency_s.push(latency);
                }
                t.waited_i_s.push(r.waited.as_secs_f64());
                t.deliver_s.push((received - d.end).as_secs_f64());
                if k < order.len() as u64 {
                    t.check_interactive += d.counts;
                }
            }
            Req::Bulk { i } => {
                t.waited_b_s.push(r.waited.as_secs_f64());
                t.bulk_ok += in_window as u64;
                t.bulk_ok_traced += (in_window && traced_at(received).is_some()) as u64;
                if i < CHECK_BULK {
                    t.check_bulk += d.counts;
                }
            }
        }
    };

    let mut due = start;
    loop {
        let now = Instant::now();
        if now >= end {
            break;
        }
        let rec_now = traced_at(now);
        if now >= due {
            // Interactive request k is due: try once, then block for a
            // slot, so a wait behind the bulk backlog is latency.
            t.late_s.push((now - due).as_secs_f64());
            let span = rec_now.map(|r| r.now());
            let ticket = match service.try_submit(make_interactive(next_req, k, rec_now)) {
                Err(SubmitError::Full { .. }) => {
                    t.full_rejects += 1;
                    service.submit(make_interactive(next_req, k, rec_now))
                }
                other => other,
            };
            t.submit_block_s.push(now.elapsed().as_secs_f64());
            if let (Some(r), Some(s)) = (rec_now, span) {
                r.single("service.submit", next_req, s, r.now());
            }
            match ticket {
                Ok(tk) => {
                    pending.insert(tk.seq, (next_req, Req::Interactive { k, due }));
                    outstanding += 1;
                }
                Err(e) => {
                    out.problems
                        .push(format!("interactive submit failed: {e:?}"));
                    break;
                }
            }
            next_req += 1;
            k += 1;
            due += period;
        } else if let Some(r) = service.try_recv_result() {
            outstanding -= 1;
            bulk_blocked = false;
            receive(r, true, &mut pending, &mut t, &mut out);
        } else if !bulk_blocked && outstanding < capacity + workers {
            // Keep every slot filled with bulk work; after a `Full`,
            // try again only once another result has come back.
            match service.try_submit(make_bulk(next_req, i, rec_now)) {
                Ok(tk) => {
                    pending.insert(tk.seq, (next_req, Req::Bulk { i }));
                    outstanding += 1;
                    next_req += 1;
                    i += 1;
                }
                Err(SubmitError::Full { .. }) => bulk_blocked = true,
                Err(e) => {
                    out.problems.push(format!("bulk submit failed: {e:?}"));
                    break;
                }
            }
        } else {
            let until = now + POLL.min(due.saturating_duration_since(now));
            while Instant::now() < until {
                std::hint::spin_loop();
            }
        }
    }
    let window = start.elapsed().as_secs_f64();
    service.close();
    while let Some(r) = service.recv_result() {
        receive(r, false, &mut pending, &mut t, &mut out);
    }
    drop(service);

    // Exact-count self-check: the check set re-run inline, untraced and
    // traced, must repeat the counts the service produced for it.
    let measured = (t.check_interactive, t.check_bulk);
    println!(
        "counts service_mixed seed={} interactive {:?} bulk {:?}",
        args.seed, measured.0, measured.1
    );
    out.check(
        measured.0.jobs == order.len() as u64 && measured.1.jobs == CHECK_BULK,
        || {
            format!(
                "check set incomplete: {} interactive, {} bulk",
                measured.0.jobs, measured.1.jobs
            )
        },
    );
    for traced in [false, true] {
        let again = check_set(&order, bulk_base, traced.then(Recorder::new).as_ref());
        out.check(again == measured, || {
            format!("check-set counts differ (traced={traced}): {again:?} vs {measured:?}")
        });
    }

    let rss = out.peak_rss_mb();
    let ms = |xs: &[f64], q: f64| quantile(xs, q) * 1e3;
    let us = |xs: &[f64], q: f64| quantile(xs, q) * 1e6;
    if let Some(rec) = rec {
        for (metric, span) in [
            ("apps.build_us", "apps.build"),
            ("core.boot_us", "core.boot"),
            ("core.run_us", "core.run"),
            ("core.report_us", "core.report"),
            ("provenance.flow_graph_us", "provenance.flow_graph"),
            ("snapshot.fork_us", "snapshot.fork"),
            ("dvm.drive_us", "dvm.drive"),
        ] {
            out.set(metric, rec.agg(span).self_us());
        }
        let boot = rec.agg("core.boot").total_ns as f64;
        out.set(
            "core.boot_share",
            ratio(boot, rec.agg("job").total_ns as f64),
        );
        out.set_counts(&t.counts);
        out.set("snapshot.warm_boot_ms", warm_boot_s * 1e3);
        out.set("provenance.record_us", record_cost_us(&order));
        out.set("service.interactive_waited_us_p50", us(&t.waited_i_s, 0.5));
        out.set("service.interactive_waited_us_p90", us(&t.waited_i_s, 0.9));
        out.set("service.bulk_waited_us_p50", us(&t.waited_b_s, 0.5));
        out.set("service.submit_block_us", us(&t.submit_block_s, 0.5));
        out.set("service.deliver_us", us(&t.deliver_s, 0.5));
        out.set("service.full_rejects_per_s", t.full_rejects as f64 / window);
        out.set("service.interactive_p90_ms", ms(&t.latency_s, 0.9));
        out.set("service.interactive_p99_ms", ms(&t.latency_s, 0.99));
        out.set("loadgen.late_p90_ms", ms(&t.late_s, 0.9));
        // Traced segments are the even ones; compare bulk throughput.
        let seg = SEGMENT.as_secs_f64();
        let traced_s: f64 = (0..)
            .map(|n| n as f64 * seg)
            .take_while(|&s0| s0 < window)
            .step_by(2)
            .map(|s0| seg.min(window - s0))
            .sum();
        let plain_rate = ratio((t.bulk_ok - t.bulk_ok_traced) as f64, window - traced_s);
        let traced_rate = ratio(t.bulk_ok_traced as f64, traced_s);
        out.set("trace.overhead_frac", ratio(plain_rate, traced_rate) - 1.0);
        out.finish_trace(&rec, "service_mixed", args.seed);
    } else {
        out.set("setup_s", setup_s);
        out.set("peak_rss_mb", rss);
        // Every figure is the segment's own, from the run's fastest
        // whole segment (see NOTES.md, "Host, noise and bounds"): host
        // contention only ever adds time, and its share of a run varies
        // from run to run.
        let seg_s = SEGMENT.as_secs_f64();
        let whole = &t.segments[..t.segments.len().min((window / seg_s) as usize)];
        let rate = |f: fn(&Segment) -> u64| {
            max(&whole
                .iter()
                .map(|s| f(s) as f64 / seg_s)
                .collect::<Vec<_>>())
        };
        out.set("apps_per_s", rate(|s| s.results));
        out.set("native_mips", rate(|s| s.native_insns) / 1e6);
        out.set("java_mips", rate(|s| s.bytecodes) / 1e6);
        let latency = |q: f64| {
            let per_seg: Vec<f64> = whole
                .iter()
                .filter(|s| !s.latency_s.is_empty())
                .map(|s| quantile(&s.latency_s, q))
                .collect();
            min(&per_seg) * 1e3
        };
        out.set("latency_p50_ms", latency(0.5));
        out.set("latency_p75_ms", latency(0.75));
    }
    out
}

/// `provenance.record_us`: `core.run` self time at `Full` minus at
/// `Off`, over the interactive apps run inline, levels alternating.
fn record_cost_us(order: &[LabeledApp]) -> f64 {
    const ROUNDS: usize = 10;
    let (full, off) = (Recorder::new(), Recorder::new());
    for round in 0..ROUNDS {
        for (k, app) in order.iter().enumerate() {
            let mut levels = [(&full, interactive_config()), (&off, bulk_config())];
            if (round + k) % 2 == 1 {
                levels.swap(0, 1);
            }
            for (rec, config) in levels {
                let mut trace = JobTrace::start(Some(rec), k as u64);
                let _ = jobs::run_app(&app.source, config, false, &mut trace);
                trace.finish();
            }
        }
    }
    full.agg("core.run").self_us() - off.agg("core.run").self_us()
}
