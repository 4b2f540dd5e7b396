#![warn(missing_docs)]

//! # ndroid-bench
//!
//! The experiment harness: one binary per table/figure of the paper
//! (see DESIGN.md's experiment index) plus Criterion benches.
//!
//! | Binary            | Reproduces                                   |
//! |-------------------|----------------------------------------------|
//! | `exp_corpus`      | §III stats + Fig. 2 category distribution     |
//! | `exp_case_matrix` | Table I / Fig. 3 detection matrix             |
//! | `exp_casestudies` | Figs. 6–9 analysis logs                       |
//! | `exp_survey`      | §VI manual survey (8 apps)                    |
//! | `exp_multilevel`  | Fig. 5 multilevel hooking statistics          |
//! | `exp_table5`      | Table V per-instruction propagation check     |
//! | `exp_cfbench`     | Fig. 10 CF-Bench overheads                    |
//!
//! Criterion benches: `cfbench` (per-kernel wall time under each mode)
//! and `ablations` (design-decision knobs D1/D2/D5 of DESIGN.md).

/// Formats a percentage for the experiment tables.
pub fn pct(n: usize, total: usize) -> String {
    format!("{:.2}%", 100.0 * n as f64 / total.max(1) as f64)
}

/// The `usize` value following `flag` on the command line, or
/// `default` when the flag is absent or its value does not parse.
pub fn arg_after(flag: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The golden gate the transcript binaries share. With `--bless` on the
/// command line, writes `actual` to `golden_path` (a source-tree path,
/// so the next build's `include_str!` picks it up). Otherwise diffs
/// `actual` against `golden` line by line and exits 1 on any
/// divergence. `what` names the transcript in the messages.
pub fn check_golden(what: &str, actual: &str, golden: &str, golden_path: &str) {
    if std::env::args().any(|a| a == "--bless") {
        std::fs::write(golden_path, actual).expect("write golden");
        println!("\ngolden blessed: {golden_path}");
        return;
    }
    if actual != golden {
        eprintln!("\n{what} DIVERGED from golden:");
        for (i, (a, g)) in actual.lines().zip(golden.lines()).enumerate() {
            if a != g {
                eprintln!("  line {}:\n    actual: {a}\n    golden: {g}", i + 1);
            }
        }
        let (na, ng) = (actual.lines().count(), golden.lines().count());
        if na != ng {
            eprintln!("  line counts differ: actual {na} vs golden {ng}");
        }
        std::process::exit(1);
    }
    println!("\n{what} matches golden");
}

#[cfg(test)]
mod tests {
    #[test]
    fn pct_formats() {
        assert_eq!(super::pct(1, 4), "25.00%");
        assert_eq!(super::pct(0, 0), "0.00%");
    }
}
