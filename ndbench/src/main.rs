//! NDroid-rs benchmark: three workloads measured end to end (untraced
//! runs) and layer by layer (traced runs). See `NOTES.md` beside this
//! package for why each workload exists and what each metric should
//! move.
//!
//! ```text
//! cargo run --release --manifest-path ndbench/Cargo.toml -- \
//!     --workload corpus_batch --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the
//! per-layer ones.

mod corpus_batch;
mod fig10;
mod jobs;
mod service_mixed;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// End-to-end metrics: every workload reports each one over its own
/// runs (see `NOTES.md` for the per-workload definitions).
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("apps_per_s", "1/s"),
    ("native_mips", "MIPS"),
    ("java_mips", "MIPS"),
    ("latency_p50_ms", "ms"),
    ("latency_p75_ms", "ms"),
];

/// Per-layer metrics of the traced run. A layer that does no work on a
/// workload reports 0 there.
const PER_LAYER: [(&str, &str); 50] = [
    ("apps.build_us", "us"),
    ("core.boot_us", "us"),
    ("core.boot_share", "frac"),
    ("core.run_us", "us"),
    ("core.report_us", "us"),
    ("arm.native_insns", "count"),
    ("arm.exec_ns_per_insn", "ns"),
    ("core.tracer_ns_per_insn", "ns"),
    ("arm.blocks_built", "count"),
    ("arm.block_hits", "count"),
    ("arm.block_misses", "count"),
    ("arm.block_invalidations", "count"),
    ("arm.block_hit_ratio", "frac"),
    ("arm.insns_per_block_built", "count"),
    ("dvm.bytecodes", "count"),
    ("dvm.interp_ns_per_bc", "ns"),
    ("dvm.taint_ns_per_bc", "ns"),
    ("dvm.drive_us", "us"),
    ("jni.entries", "count"),
    ("core.branch_events", "count"),
    ("core.deep_hooks", "count"),
    ("core.chains_activated", "count"),
    ("core.source_policies", "count"),
    ("emu.tainted_bytes", "count"),
    ("fig10.native_x", "x"),
    ("fig10.java_x", "x"),
    ("snapshot.fork_us", "us"),
    ("snapshot.warm_boot_ms", "ms"),
    ("provenance.events", "count"),
    ("provenance.leak_paths", "count"),
    ("provenance.flow_graph_us", "us"),
    ("provenance.record_us", "us"),
    ("batch.job_us_p50", "us"),
    ("batch.job_us_p99", "us"),
    ("batch.idle_frac", "frac"),
    ("batch.tail_ms", "ms"),
    ("service.interactive_waited_us_p50", "us"),
    ("service.interactive_waited_us_p90", "us"),
    ("service.bulk_waited_us_p50", "us"),
    ("service.submit_block_us", "us"),
    ("service.deliver_us", "us"),
    ("service.full_rejects_per_s", "1/s"),
    ("service.interactive_p90_ms", "ms"),
    ("service.interactive_p99_ms", "ms"),
    ("loadgen.late_p90_ms", "ms"),
    ("trace.overhead_frac", "frac"),
    ("trace.jobs", "count"),
    ("trace.child_coverage", "frac"),
    ("trace.child_coverage_min", "frac"),
    ("trace.undercovered_jobs", "count"),
];

/// A CF-Bench kernel's name in metric and span names, e.g.
/// `native_mallocs`.
pub fn kernel_slug(kernel: &str) -> String {
    kernel.to_lowercase().replace(' ', "_")
}

/// The per-kernel Fig. 10 slowdown metric, e.g. `fig10.native_mallocs.x`.
pub fn kernel_metric(kernel: &str) -> String {
    format!("fig10.{}.x", kernel_slug(kernel))
}

/// The parsed command line.
pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload run hands back: work attempted and failed, failed
/// self-checks, and the metrics it measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Records a failed self-check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// The run's host memory high-water mark, in MiB.
    pub fn peak_rss_mb(&mut self) -> f64 {
        stats::peak_rss_mb().unwrap_or_else(|e| {
            self.problems.push(e);
            0.0
        })
    }

    /// Per-job means of the deterministic counts of `c`, plus the
    /// block-cache ratios.
    pub fn set_counts(&mut self, c: &jobs::Counts) {
        let per = |f: u64| c.per_job(f);
        self.set("arm.native_insns", per(c.native_insns));
        self.set("arm.blocks_built", per(c.blocks_built));
        self.set("arm.block_hits", per(c.block_hits));
        self.set("arm.block_misses", per(c.block_misses));
        self.set("arm.block_invalidations", per(c.block_invalidations));
        let lookups = (c.block_hits + c.block_misses) as f64;
        self.set(
            "arm.block_hit_ratio",
            stats::ratio(c.block_hits as f64, lookups),
        );
        self.set(
            "arm.insns_per_block_built",
            stats::ratio(c.native_insns as f64, c.blocks_built as f64),
        );
        self.set("dvm.bytecodes", per(c.bytecodes));
        self.set("jni.entries", per(c.jni_entries));
        self.set("core.branch_events", per(c.branch_events));
        self.set("core.deep_hooks", per(c.deep_hooks));
        self.set("core.chains_activated", per(c.chains_activated));
        self.set("core.source_policies", per(c.source_policies));
        self.set("emu.tainted_bytes", per(c.tainted_bytes));
        self.set("provenance.events", per(c.prov_events));
        self.set("provenance.leak_paths", per(c.prov_leak_paths));
    }

    /// Checks the `job` spans' child coverage, reports it, and writes
    /// the kept spans.
    ///
    /// Children are timed back to back, so a job span reads under
    /// `MIN_CHILD_COVERAGE` only when the OS preempts its thread in the
    /// ~100 ns between two calls (25-70 us on a shared 2-vCPU host).
    /// The check allows one such span per thousand and requires the
    /// children to cover 99% of all job time.
    pub fn finish_trace(&mut self, rec: &trace::Recorder, workload: &str, seed: u64) {
        let cov = rec.coverage();
        self.set("trace.jobs", cov.jobs as f64);
        self.set("trace.child_coverage", cov.overall);
        self.set("trace.child_coverage_min", cov.min);
        self.set("trace.undercovered_jobs", cov.under as f64);
        self.check(cov.jobs > 0, || "traced run recorded no job spans".into());
        self.check(cov.overall >= 0.99 && cov.under * 1000 <= cov.jobs, || {
            format!(
                "job spans under-covered: {} of {} below {:.0}%, overall {:.4}",
                cov.under,
                cov.jobs,
                trace::MIN_CHILD_COVERAGE * 100.0,
                cov.overall
            )
        });
        let path = trace_path(workload, seed);
        if let Err(e) = rec.write_csv(&path) {
            self.problems
                .push(format!("cannot write {}: {e}", path.display()));
        }
    }
}

fn parse_args() -> Result<(String, Args), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(30.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} out of range (0, 120]"));
    }
    Ok((
        workload.ok_or("--workload is required")?,
        Args {
            seed: seed.unwrap_or(1),
            seconds,
            trace: trace.unwrap_or(false),
        },
    ))
}

/// Where the traced run writes its spans: under the build directory,
/// inside the checkout.
pub fn trace_path(workload: &str, seed: u64) -> std::path::PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "ndbench/target".into());
    std::path::Path::new(&target)
        .join("traces")
        .join(format!("{workload}-seed{seed}.csv"))
}

fn main() -> ExitCode {
    let (workload, args) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ndbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = match workload.as_str() {
        "corpus_batch" => corpus_batch::run(&args),
        "fig10_kernels" => fig10::run(&args),
        "service_mixed" => service_mixed::run(&args),
        other => {
            eprintln!("ndbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };

    // Exactly the declared metric set: missing per-layer metrics are
    // layers that did no work on this workload; a missing end-to-end
    // metric is a benchmark bug.
    let mut declared: Vec<(String, &str)> = Vec::new();
    if args.trace {
        declared.extend(PER_LAYER.iter().map(|(n, u)| (n.to_string(), *u)));
        declared.extend(
            ndroid_cfbench::all_kernels()
                .iter()
                .map(|k| (kernel_metric(k.name), "x")),
        );
        for (name, _) in &declared {
            out.metrics.entry(name.clone()).or_insert(0.0);
        }
    } else {
        declared.extend(END_TO_END.iter().map(|(n, u)| (n.to_string(), *u)));
        for (name, _) in &declared {
            let v = out.metrics.get(name).copied().unwrap_or(0.0);
            out.check(v > 0.0, || {
                format!("end-to-end metric {name} is {v}, not positive")
            });
        }
    }
    for (name, v) in &out.metrics {
        if !v.is_finite() {
            out.problems
                .push(format!("metric {name} is not finite: {v}"));
        }
        if !declared.iter().any(|(d, _)| d == name) {
            out.problems.push(format!("metric {name} is not declared"));
        }
    }
    for p in &out.problems {
        eprintln!("ndbench: check failed: {p}");
    }

    let metrics: Vec<String> = declared
        .iter()
        .map(|(name, unit)| {
            let v = out
                .metrics
                .get(name)
                .copied()
                .filter(|v| v.is_finite())
                .unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.problems.is_empty() && out.failed == 0 && out.attempted > 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
