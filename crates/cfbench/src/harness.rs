//! The Fig. 10 harness: wall-clock overhead of each analysis mode
//! relative to vanilla, per kernel, plus the Native/Java/Overall
//! scores.

use crate::kernels::{all_kernels, Kernel, KernelKind};
use ndroid_core::{Mode, SystemConfig};
use std::time::{Duration, Instant};

/// One row of the Fig. 10 chart.
#[derive(Debug, Clone)]
pub struct KernelRow {
    /// CF-Bench row name.
    pub name: &'static str,
    /// Native or Java.
    pub kind: KernelKind,
    /// Vanilla wall time.
    pub vanilla: Duration,
    /// (mode, wall time, overhead vs. vanilla) per analyzed mode.
    pub results: Vec<(Mode, Duration, f64)>,
}

impl KernelRow {
    /// The overhead under `mode`, if measured.
    pub fn overhead(&self, mode: Mode) -> Option<f64> {
        self.results
            .iter()
            .find(|(m, _, _)| *m == mode)
            .map(|(_, _, o)| *o)
    }
}

/// The full report.
#[derive(Debug, Clone)]
pub struct Fig10Report {
    /// Per-kernel rows, in Fig. 10 order.
    pub rows: Vec<KernelRow>,
    /// Modes measured (excluding vanilla).
    pub modes: Vec<Mode>,
    /// Iterations per kernel invocation.
    pub iterations: u32,
    /// Repetitions averaged (the paper used 30).
    pub repetitions: u32,
}

fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0u32), |(s, n), v| (s + v.max(1e-9).ln(), n + 1));
    if n == 0 {
        1.0
    } else {
        (sum / n as f64).exp()
    }
}

impl Fig10Report {
    /// Geometric-mean overhead of the native kernels under `mode`
    /// ("Native Score").
    pub fn native_score(&self, mode: Mode) -> f64 {
        geomean(
            self.rows
                .iter()
                .filter(|r| r.kind == KernelKind::Native)
                .filter_map(|r| r.overhead(mode)),
        )
    }

    /// Geometric-mean overhead of the Java kernels under `mode`
    /// ("Java Score").
    pub fn java_score(&self, mode: Mode) -> f64 {
        geomean(
            self.rows
                .iter()
                .filter(|r| r.kind == KernelKind::Java)
                .filter_map(|r| r.overhead(mode)),
        )
    }

    /// Geometric-mean overhead across all kernels ("Overall Score").
    pub fn overall_score(&self, mode: Mode) -> f64 {
        geomean(self.rows.iter().filter_map(|r| r.overhead(mode)))
    }

    /// Renders the Fig. 10-style table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:<22}", "kernel"));
        for m in &self.modes {
            out.push_str(&format!("{:>18}", format!("{m} (x)")));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&format!("{:<22}", row.name));
            for m in &self.modes {
                out.push_str(&format!("{:>18.2}", row.overhead(*m).unwrap_or(f64::NAN)));
            }
            out.push('\n');
        }
        for (label, f) in [
            ("Native Score", Fig10Report::native_score as fn(&Fig10Report, Mode) -> f64),
            ("Java Score", Fig10Report::java_score),
            ("Overall Score", Fig10Report::overall_score),
        ] {
            out.push_str(&format!("{label:<22}"));
            for m in &self.modes {
                out.push_str(&format!("{:>18.2}", f(self, *m)));
            }
            out.push('\n');
        }
        out
    }
}

fn measure(
    kernel: &Kernel,
    mode: Mode,
    iterations: u32,
    repetitions: u32,
    tweak: &dyn Fn(SystemConfig) -> SystemConfig,
) -> Duration {
    let mut total = Duration::ZERO;
    for _ in 0..repetitions {
        let mut sys = kernel.boot_with(tweak(SystemConfig::new(mode).quiet(true)));
        // Warm the code path once so page faults/alloc noise stay out.
        kernel.run(&mut sys, 1.max(iterations / 100));
        let start = Instant::now();
        kernel.run(&mut sys, iterations);
        total += start.elapsed();
    }
    total / repetitions
}

/// Runs the whole suite: every kernel under vanilla plus `modes`.
pub fn run_suite(modes: &[Mode], iterations: u32, repetitions: u32) -> Fig10Report {
    run_suite_with(modes, iterations, repetitions, |c| c)
}

/// [`run_suite`] with a configuration tweak applied to every boot —
/// the Fig. 10 A/B entry point (e.g. `|c| c.engine(NativeEngine::Stepper)`
/// measures the uncached per-instruction stepper instead of superblock
/// dispatch).
pub fn run_suite_with(
    modes: &[Mode],
    iterations: u32,
    repetitions: u32,
    tweak: impl Fn(SystemConfig) -> SystemConfig,
) -> Fig10Report {
    let mut rows = Vec::new();
    for kernel in all_kernels() {
        let vanilla = measure(&kernel, Mode::Vanilla, iterations, repetitions, &tweak);
        let base = vanilla.as_secs_f64().max(1e-9);
        let results = modes
            .iter()
            .map(|mode| {
                let t = measure(&kernel, *mode, iterations, repetitions, &tweak);
                (*mode, t, t.as_secs_f64() / base)
            })
            .collect();
        rows.push(KernelRow {
            name: kernel.name,
            kind: kernel.kind,
            vanilla,
            results,
        });
    }
    Fig10Report {
        rows,
        modes: modes.to_vec(),
        iterations,
        repetitions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndroid_core::NativeEngine;

    #[test]
    fn small_suite_produces_sane_overheads() {
        let report = run_suite(&[Mode::NDroid], 2_000, 1);
        assert_eq!(report.rows.len(), 13);
        for row in &report.rows {
            let o = row.overhead(Mode::NDroid).unwrap();
            assert!(o.is_finite() && o > 0.05, "{}: {o}", row.name);
        }
        let rendered = report.render();
        assert!(rendered.contains("Native MIPS"));
        assert!(rendered.contains("Overall Score"));
    }

    #[test]
    fn tracer_work_is_native_only() {
        // The architectural claim behind Fig. 10: NDroid traces every
        // *native* instruction but leaves the interpreter alone. Pinned
        // on deterministic counts rather than wall-clock ratios: on
        // either engine the tracer classifies each retired native
        // instruction exactly once, and the Java kernels retire none.
        for engine in [NativeEngine::Stepper, NativeEngine::Blocks] {
            for kernel in all_kernels() {
                let config = SystemConfig::new(Mode::NDroid).quiet(true).engine(engine);
                let mut sys = kernel.boot_with(config);
                kernel.run(&mut sys, 200);
                let report = sys.report();
                let stats = report.stats.expect("ndroid stats");
                let name = format!("{engine} {}", kernel.name);
                assert_eq!(
                    stats.insns_traced + stats.insns_skipped,
                    report.native_insns,
                    "{name}: the tracer visits every retired native instruction"
                );
                match kernel.kind {
                    KernelKind::Native => {
                        assert!(report.native_insns > 0, "{name}: no native work")
                    }
                    KernelKind::Java => {
                        assert_eq!(
                            report.native_insns, 0,
                            "{name}: Java kernels stay out of the tracer"
                        );
                        assert!(report.bytecodes > 0, "{name}: no bytecodes ran");
                    }
                }
            }
        }
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean([4.0, 1.0].into_iter()) - 2.0).abs() < 1e-9);
        assert_eq!(geomean(std::iter::empty()), 1.0);
    }
}
