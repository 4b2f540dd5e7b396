//! `fig10_kernels`: the paper's own overhead workload (Fig. 10). One
//! thread runs all 13 CF-Bench kernels, each booted under
//! `Mode::Vanilla` and `Mode::NDroid`. Vanilla and NDroid sections of
//! a kernel run back to back, in alternating order from pass to pass,
//! so host drift cancels in the per-layer differences. Hot native loops
//! make the ARM interpreter and the tracer do nearly all the work;
//! boot, farm, JNI and provenance do none. DroidScope-like mode is left
//! out: at 20-85x slower it would consume the run.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use ndroid_cfbench::{all_kernels, Kernel, KernelKind};
use ndroid_core::{Mode, NDroidSystem};

use crate::jobs::Counts;
use crate::stats::{geomean, median, min, quantile, ratio, timed_setup};
use crate::trace::{JobTrace, Recorder};
use crate::{kernel_metric, kernel_slug, Args, Outcome};

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 15;
/// `peak_rss_mb` is read after this many passes (or at the end of a
/// shorter run): every boot leaks a few KB, so reading it at a fixed
/// amount of work keeps a faster program from reading as a bigger one.
const RSS_PASSES: u64 = 50;

/// Iterations of one timed section of `kernel`, fixed so that every
/// section retires the same work on every host (5-10 ms under NDroid
/// on a 2-vCPU x86-64 virtual machine).
fn iterations(kernel: &Kernel) -> u32 {
    match kernel.name {
        "Native MIPS" => 32_000,
        "Native MSFLOPS" | "Native MDFLOPS" => 50_000,
        "Native MALLOCS" => 20_000,
        "Native Memory Read" | "Native Memory Write" => 45_000,
        "Native Disk Read" => 4_000,
        "Native Disk Write" => 10_000,
        "Java Memory Read" => 150_000,
        _ => 200_000,
    }
}

/// One kernel booted in both modes, with its section names.
struct Booted {
    kernel: Kernel,
    iters: u32,
    vanilla: NDroidSystem,
    ndroid: NDroidSystem,
    span: [&'static str; 2],
}

/// Section span names, `fig10.<kernel>.<vanilla|ndroid>`, in kernel
/// order (made once: spans take `&'static str` names).
fn span_names() -> &'static [[&'static str; 2]] {
    static NAMES: OnceLock<Vec<[&'static str; 2]>> = OnceLock::new();
    NAMES.get_or_init(|| {
        let leak = |s: String| &*Box::leak(s.into_boxed_str());
        all_kernels()
            .iter()
            .map(|k| {
                let slug = kernel_slug(k.name);
                [
                    leak(format!("fig10.{slug}.vanilla")),
                    leak(format!("fig10.{slug}.ndroid")),
                ]
            })
            .collect()
    })
}

/// Boots every kernel under Vanilla and NDroid and warms each system
/// with a tenth of a section, so lazy set-up stays out of the timed
/// sections. Returns the systems and the mean `Kernel::boot` time.
fn boot_all() -> (Vec<Booted>, f64) {
    let mut boot_s = Vec::new();
    let booted = all_kernels()
        .into_iter()
        .zip(span_names())
        .map(|(kernel, &span)| {
            let iters = iterations(&kernel);
            let mut boot = |mode| {
                let t = Instant::now();
                let mut sys = kernel.boot(mode);
                boot_s.push(t.elapsed().as_secs_f64());
                kernel.run(&mut sys, iters / 10);
                sys
            };
            let vanilla = boot(Mode::Vanilla);
            let ndroid = boot(Mode::NDroid);
            Booted {
                iters,
                span,
                kernel,
                vanilla,
                ndroid,
            }
        })
        .collect();
    (booted, boot_s.iter().sum::<f64>() / boot_s.len() as f64)
}

/// One timed section: seconds, and the guest work it retired
/// (`native_insns` for native kernels, `bytecodes` for Java ones).
fn section(b: &mut Booted, ndroid: bool, trace: &mut JobTrace) -> Result<(f64, u64), String> {
    let (kernel, iters) = (&b.kernel, b.iters);
    let sys = if ndroid {
        &mut b.ndroid
    } else {
        &mut b.vanilla
    };
    let work = |s: &NDroidSystem| match kernel.kind {
        KernelKind::Native => s.native_insns(),
        KernelKind::Java => s.bytecodes(),
    };
    let before = work(sys);
    let t = Instant::now();
    let done = trace.time(b.span[ndroid as usize], || {
        catch_unwind(AssertUnwindSafe(|| kernel.run(sys, iters)))
    });
    let secs = t.elapsed().as_secs_f64();
    match done {
        Ok(n) if n == u64::from(iters) => Ok((secs, work(sys) - before)),
        Ok(n) => Err(format!("{}: ran {n} of {iters} iterations", kernel.name)),
        Err(_) => Err(format!("{}: kernel panicked", kernel.name)),
    }
}

/// Per-kernel results over all passes.
#[derive(Default, Clone)]
struct Series {
    vanilla_s: Vec<f64>,
    ndroid_s: Vec<f64>,
    /// Work retired by one section (identical on every section).
    work: Option<u64>,
}

/// One pass: a fresh CF-Bench run.
struct Pass {
    wall_s: f64,
    /// The pass's NDroid section times, one per kernel.
    ndroid_s: Vec<f64>,
    boot_s: f64,
    /// The NDroid systems' counts at the end of the pass.
    counts: Counts,
}

/// Boots and warms all 26 systems, runs every kernel once in each mode
/// (the order alternating with `pass` and kernel index), then reads the
/// NDroid reports. Systems live for one pass, so memory does not grow
/// with run length (sink events of the disk kernels pile up on a
/// long-lived system) and every pass does identical work.
fn run_pass(
    pass: u64,
    rec: Option<&Arc<Recorder>>,
    out: &mut Outcome,
    series: &mut [Series],
) -> Pass {
    let t = Instant::now();
    let mut trace = JobTrace::start(rec, pass);
    let (mut kernels, boot_s) = trace.time("core.boot", boot_all);
    let mut ndroid_s = Vec::with_capacity(kernels.len());
    for (k, b) in kernels.iter_mut().enumerate() {
        let order = if (pass as usize + k).is_multiple_of(2) {
            [false, true]
        } else {
            [true, false]
        };
        for ndroid in order {
            out.attempted += 1;
            let (secs, work) = match section(b, ndroid, &mut trace) {
                Ok(r) => r,
                Err(e) => {
                    out.failed += 1;
                    out.problems.push(e);
                    continue;
                }
            };
            let s = &mut series[k];
            out.check(work > 0 && *s.work.get_or_insert(work) == work, || {
                format!(
                    "{} {}: section retired {work}, earlier sections {:?}",
                    b.kernel.name,
                    if ndroid { "NDroid" } else { "Vanilla" },
                    s.work
                )
            });
            if ndroid {
                s.ndroid_s.push(secs);
                ndroid_s.push(secs);
            } else {
                s.vanilla_s.push(secs);
            }
        }
    }
    // No kernel touches a source, so NDroid must taint nothing.
    let counts = trace.time("core.report", || {
        let mut counts = Counts::default();
        for b in &kernels {
            let c = Counts::of(&b.ndroid.report(), b.ndroid.shadow.mem.tainted_bytes());
            out.check(c.tainted_bytes == 0 && c.leaks == 0, || {
                format!(
                    "{}: NDroid tainted {} bytes, {} leaks",
                    b.kernel.name, c.tainted_bytes, c.leaks
                )
            });
            counts += c;
        }
        counts
    });
    trace.finish();
    Pass {
        wall_s: t.elapsed().as_secs_f64(),
        ndroid_s,
        boot_s,
        counts,
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, _) = timed_setup(SETUP_REPS, boot_all);
    let rec = args.trace.then(Recorder::new);
    let mut series = vec![Series::default(); all_kernels().len()];
    // Per pass: the median and 75th-percentile NDroid section time.
    let (mut pass_latency, mut boot_s) = (Vec::new(), Vec::new());
    let (mut traced_s, mut plain_s) = (Vec::new(), Vec::new());
    let mut pass0: Option<Counts> = None;
    let mut rss = None;

    // In the traced run, even passes are traced and odd ones are not
    // (`trace.overhead_frac`).
    let start = Instant::now();
    let mut pass = 0u64;
    while start.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && pass.is_multiple_of(2);
        let p = run_pass(pass, rec.as_ref().filter(|_| traced), &mut out, &mut series);
        if traced { &mut traced_s } else { &mut plain_s }.push(p.wall_s);
        pass_latency.push([quantile(&p.ndroid_s, 0.5), quantile(&p.ndroid_s, 0.75)]);
        boot_s.push(p.boot_s);
        let first = *pass0.get_or_insert(p.counts);
        out.check(p.counts == first, || {
            format!(
                "pass {pass} counts {:?} differ from pass 0's {first:?}",
                p.counts
            )
        });
        pass += 1;
        if pass == RSS_PASSES {
            rss = Some(out.peak_rss_mb());
        }
    }
    let pass0 = pass0.expect("at least one pass ran");
    // The untraced run ends with one traced pass, which must repeat the
    // untraced passes' counts exactly.
    if !args.trace {
        let mut scratch: Vec<Series> = series
            .iter()
            .map(|s| Series {
                work: s.work,
                ..Series::default()
            })
            .collect();
        let p = run_pass(pass, Some(&Recorder::new()), &mut out, &mut scratch);
        out.check(p.counts == pass0, || {
            format!("traced pass counts {:?} differ from {pass0:?}", p.counts)
        });
    }
    let work: Vec<u64> = series.iter().map(|s| s.work.unwrap_or(0)).collect();
    println!("counts fig10_kernels per-pass {pass0:?} per-section work {work:?}");

    let kinds: Vec<KernelKind> = all_kernels().iter().map(|k| k.kind).collect();
    let per_kernel = |f: &dyn Fn(&Series, u64) -> f64, kind: KernelKind| -> Vec<f64> {
        (0..series.len())
            .filter(|&k| kinds[k] == kind)
            .map(|k| f(&series[k], work[k]))
            .collect()
    };
    let rss = rss.unwrap_or_else(|| out.peak_rss_mb());
    if let Some(rec) = rec {
        let x = |s: &Series, _| {
            let r: Vec<f64> = s
                .ndroid_s
                .iter()
                .zip(&s.vanilla_s)
                .map(|(n, v)| n / v)
                .collect();
            median(&r)
        };
        for (k, kernel) in all_kernels().iter().enumerate() {
            out.set(kernel_metric(kernel.name), x(&series[k], 0));
        }
        out.set(
            "fig10.native_x",
            geomean(&per_kernel(&x, KernelKind::Native)),
        );
        out.set("fig10.java_x", geomean(&per_kernel(&x, KernelKind::Java)));
        out.set_counts(&pass0);
        // Per-pass work and per-unit cost, split by Vanilla/NDroid
        // differencing: Vanilla time is the interpreter's, the NDroid
        // excess is the tracer's (native) or taint tracking's (Java).
        let total = |kind: KernelKind| -> (u64, f64, f64) {
            (0..series.len())
                .filter(|&k| kinds[k] == kind)
                .fold((0, 0.0, 0.0), |(w, v, n), k| {
                    (
                        w + work[k],
                        v + median(&series[k].vanilla_s),
                        n + median(&series[k].ndroid_s),
                    )
                })
        };
        let (insns, nat_v, nat_n) = total(KernelKind::Native);
        let (bcs, java_v, java_n) = total(KernelKind::Java);
        out.set("arm.native_insns", insns as f64);
        out.set("arm.exec_ns_per_insn", ratio(nat_v, insns as f64) * 1e9);
        out.set(
            "core.tracer_ns_per_insn",
            ratio(nat_n - nat_v, insns as f64) * 1e9,
        );
        out.set("dvm.bytecodes", bcs as f64);
        out.set("dvm.interp_ns_per_bc", ratio(java_v, bcs as f64) * 1e9);
        out.set(
            "dvm.taint_ns_per_bc",
            ratio(java_n - java_v, bcs as f64) * 1e9,
        );
        out.set("core.boot_us", median(&boot_s) * 1e6);
        let boot = rec.agg("core.boot").total_ns as f64;
        out.set(
            "core.boot_share",
            ratio(boot, rec.agg("job").total_ns as f64),
        );
        let sections: Vec<f64> = series
            .iter()
            .flat_map(|s| s.vanilla_s.iter().chain(&s.ndroid_s))
            .copied()
            .collect();
        out.set(
            "core.run_us",
            sections.iter().sum::<f64>() / sections.len().max(1) as f64 * 1e6,
        );
        out.set(
            "core.report_us",
            rec.agg("core.report").self_us() / series.len() as f64,
        );
        out.set(
            "trace.overhead_frac",
            ratio(median(&traced_s), median(&plain_s)) - 1.0,
        );
        out.finish_trace(&rec, "fig10_kernels", args.seed);
    } else {
        out.set("setup_s", setup_s);
        out.set("peak_rss_mb", rss);
        // Every timing is taken from the run's fastest sample (see
        // NOTES.md, "Host, noise and bounds"): host contention only ever
        // adds time, and its share of a run varies from run to run.
        let mips = |s: &Series, w: u64| w as f64 / min(&s.ndroid_s) / 1e6;
        // Sections per second of section time, from each kernel's
        // fastest Vanilla and NDroid section.
        let per_pass: f64 = series
            .iter()
            .map(|s| min(&s.vanilla_s) + min(&s.ndroid_s))
            .sum();
        out.set("apps_per_s", ratio(2.0 * series.len() as f64, per_pass));
        out.set(
            "native_mips",
            geomean(&per_kernel(&mips, KernelKind::Native)),
        );
        out.set("java_mips", geomean(&per_kernel(&mips, KernelKind::Java)));
        // Latency of one NDroid kernel section: a pass's own percentile
        // over its 13 sections, in the fastest pass.
        let per_pass = |i: usize| min(&pass_latency.iter().map(|l| l[i]).collect::<Vec<_>>());
        out.set("latency_p50_ms", per_pass(0) * 1e3);
        out.set("latency_p75_ms", per_pass(1) * 1e3);
    }
    out
}
