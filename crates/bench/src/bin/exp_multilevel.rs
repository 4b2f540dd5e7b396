//! Experiment: Fig. 5 — multilevel hooking.
//!
//! Replays the PoC-case-3 app (whose native code drives the
//! `CallVoidMethodA → dvmCallMethodA → dvmInterpret` chain) and prints
//! the hook statistics: how many chains were activated from
//! third-party native code, how many deep hooks actually fired, and —
//! the point of the technique — how many instrumentations *would* have
//! fired if `dvmCallMethod*`/`dvmInterpret` were hooked
//! unconditionally. Also runs a hammering workload where the framework
//! (not the app) calls the same internals to show the gating win.

use ndroid_core::{Mode, NDroidAnalysis};
use ndroid_emu::shadow::ShadowState;
use ndroid_emu::runtime::Analysis;
use ndroid_jni::dvm_addr;

fn main() {
    println!("== Fig. 5 — multilevel hooking ==\n");

    // Real app run.
    let sys = ndroid_apps::poc_case3::poc_case3()
        .run(Mode::NDroid)
        .expect("app run");
    let stats = sys.report().stats.unwrap();
    println!("PoC case 3 under NDroid:");
    println!("  branch events processed:      {}", stats.branch_events);
    println!("  chains activated (T1):        {}", stats.chains_activated);
    println!("  deep hooks fired (T2+):       {}", stats.deep_hooks);
    println!(
        "  unconditional counterfactual: {}",
        stats.unconditional_hooks
    );

    // Synthetic framework churn: dvmInterpret entered 100,000 times by
    // the VM itself (from outside the third-party library). Multilevel
    // gating must not instrument any of them.
    let mut analysis = NDroidAnalysis::new();
    let mut shadow = ShadowState::new();
    let interp = dvm_addr("dvmInterpret");
    let bridge = dvm_addr("dvmCallMethodA");
    for i in 0..100_000u32 {
        // The framework's own interpreter entries (from libdvm).
        analysis.on_branch(&mut shadow, 0x6100_0000 + (i % 64) * 4, bridge);
        analysis.on_branch(&mut shadow, bridge + 0x20, interp);
    }
    println!("\nframework-only churn (200,000 branch events):");
    println!(
        "  chains activated:             {} (gated: none from framework)",
        analysis.stats.chains_activated
    );
    println!(
        "  deep hooks fired:             {}",
        analysis.stats.deep_hooks
    );
    println!(
        "  unconditional counterfactual: {} (what naive hooking pays)",
        analysis.stats.unconditional_hooks
    );
    let saved = analysis.stats.unconditional_hooks - analysis.stats.deep_hooks;
    println!(
        "\nmultilevel hooking avoided {saved} of {} instrumentations ({:.1}%)",
        analysis.stats.unconditional_hooks,
        100.0 * saved as f64 / analysis.stats.unconditional_hooks.max(1) as f64
    );
}
