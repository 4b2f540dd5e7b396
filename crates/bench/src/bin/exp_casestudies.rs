//! Experiment: Figs. 6–9 — the four case-study analysis logs.
//!
//! Runs the QQPhoneBook, ePhone and PoC replicas under NDroid and
//! prints the analysis trace, which should structurally match the
//! corresponding figure in the paper (same hooks, same taint values,
//! same sinks).

use ndroid_apps::{ephone, poc_case2, poc_case3, qq_phonebook};
use ndroid_core::report::describe_leak;
use ndroid_core::Mode;

fn show(figure: &str, app: ndroid_apps::App) {
    let name = app.name.clone();
    let description = app.description.clone();
    println!("== {figure}: {name} ==");
    println!("   {description}\n");
    let sys = app.run(Mode::NDroid).expect("app run");
    for event in sys.trace.events() {
        println!("  {event}");
    }
    println!();
    if sys.leaks().is_empty() {
        println!("  -> no leak detected\n");
    }
    for leak in sys.leaks() {
        println!("  -> LEAK: {}", describe_leak(leak));
        println!("     data: {}", leak.data);
    }
    if let Some(stats) = sys.report().stats {
        println!(
            "     stats: {} insns traced, {} jni entries, {} source policies, {} chains",
            stats.insns_traced, stats.jni_entries, stats.source_policies, stats.chains_activated
        );
    }
    println!("\n{}\n", "=".repeat(72));
}

fn main() {
    show("Fig. 6", qq_phonebook::qq_phonebook());
    show("Fig. 7", ephone::ephone());
    show("Fig. 8", poc_case2::poc_case2());
    show("Fig. 9", poc_case3::poc_case3());
}
