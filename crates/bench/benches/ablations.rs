//! Ablation benches for the design decisions in DESIGN.md §5, timed by
//! the hermetic `ndroid_testkit::bench` suite (writes
//! `BENCH_ablations.json`; `TESTKIT_BENCH_SMOKE=1` for a CI smoke
//! pass):
//!
//! * **D1 — multilevel hooking**: branch-event processing with gating
//!   vs. unconditional deep hooking.
//! * **D2 — libc modeling vs. tracing**: a modeled `memcpy` host call
//!   vs. an instruction-traced ARM `memcpy` loop.
//! * **D5 — hot-instruction cache**: the traced loop under superblock
//!   dispatch (the §V-C cache) vs. the uncached per-instruction stepper.

use ndroid_arm::reg::RegList;
use ndroid_arm::{Assembler, Cond, Reg};
use ndroid_core::{NDroidAnalysis, NativeEngine, SystemConfig};
use ndroid_dvm::framework::install_framework;
use ndroid_dvm::{Program, Taint};
use ndroid_emu::layout::NATIVE_CODE_BASE;
use ndroid_emu::runtime::Analysis;
use ndroid_emu::shadow::ShadowState;
use ndroid_jni::dvm_addr;
use ndroid_libc::libc_addr;
use ndroid_testkit::bench::{black_box, Suite};

const SRC: u32 = 0x2000_0000;
const DST: u32 = 0x2000_4000;
const LEN: u32 = 4096;

/// D2 baseline: `memcpy` as a single modeled host call.
fn modeled_memcpy_app() -> ndroid_core::NDroidSystem {
    let mut asm = Assembler::new(NATIVE_CODE_BASE);
    asm.push(RegList::of(&[Reg::LR]));
    asm.ldr_const(Reg::R0, DST);
    asm.ldr_const(Reg::R1, SRC);
    asm.ldr_const(Reg::R2, LEN);
    asm.call_abs(libc_addr("memcpy"));
    asm.pop(RegList::of(&[Reg::PC]));
    build_sys(asm, NativeEngine::Blocks)
}

/// D2 ablation: a real ARM byte-copy loop traced instruction by
/// instruction (what NDroid would pay without the Table VI models).
fn traced_memcpy_app(engine: NativeEngine) -> ndroid_core::NDroidSystem {
    let mut asm = Assembler::new(NATIVE_CODE_BASE);
    asm.ldr_const(Reg::R0, DST);
    asm.ldr_const(Reg::R1, SRC);
    asm.ldr_const(Reg::R2, LEN);
    let top = asm.here_label();
    asm.ldrb(Reg::R3, Reg::R1, 0);
    asm.strb(Reg::R3, Reg::R0, 0);
    asm.add_imm(Reg::R0, Reg::R0, 1).unwrap();
    asm.add_imm(Reg::R1, Reg::R1, 1).unwrap();
    asm.subs_imm(Reg::R2, Reg::R2, 1).unwrap();
    asm.b_cond(Cond::Ne, top);
    asm.bx(Reg::LR);
    build_sys(asm, engine)
}

fn build_sys(asm: Assembler, engine: NativeEngine) -> ndroid_core::NDroidSystem {
    let mut program = Program::new();
    install_framework(&mut program);
    let mut sys = ndroid_core::NDroidSystem::from_config(
        program,
        SystemConfig::ndroid().quiet(true).engine(engine),
    );
    let code = asm.assemble().unwrap();
    sys.load_native(&code, "libablate.so");
    sys.shadow.mem.set_range(SRC, LEN, Taint::SMS);
    sys
}

fn ablate_libc_model(suite: &mut Suite) {
    let mut sys = modeled_memcpy_app();
    suite.bench("ablate_libc_model/modeled_memcpy_hostcall", || {
        sys.run_native(NATIVE_CODE_BASE, &[]).unwrap();
    });
    let mut sys = traced_memcpy_app(NativeEngine::Blocks);
    suite.bench("ablate_libc_model/traced_memcpy_arm_loop", || {
        sys.run_native(NATIVE_CODE_BASE, &[]).unwrap();
    });
}

fn ablate_multilevel(suite: &mut Suite) {
    let bridge = dvm_addr("dvmCallMethodA");
    let interp = dvm_addr("dvmInterpret");
    // Framework churn: entries to the shared internals from outside
    // third-party code, which gating ignores.
    let mut a = NDroidAnalysis::new();
    let mut sh = ShadowState::new();
    suite.bench("ablate_multilevel/gated", || {
        for i in 0..1000u32 {
            a.on_branch(&mut sh, 0x6100_0000 + (i % 64), bridge);
            a.on_branch(&mut sh, bridge + 0x20, interp);
        }
        black_box(a.stats.branch_events);
    });
    // Simulate unconditional hooking cost: every inner entry pays a
    // policy lookup + trace-formatting charge (what the paper's naive
    // alternative would do inside dvmInterpret).
    let mut a = NDroidAnalysis::from_config(&SystemConfig::ndroid().gate_hooks(false));
    let mut sh = ShadowState::new();
    suite.bench("ablate_multilevel/ungated_counterfactual", || {
        let mut work = 0u64;
        for i in 0..1000u32 {
            a.on_branch(&mut sh, 0x6100_0000 + (i % 64), bridge);
            a.on_branch(&mut sh, bridge + 0x20, interp);
            // The instrumentation body that gating avoids: frame
            // inspection + taint slot formatting.
            for r in 0..8u32 {
                work = work.wrapping_add(black_box(r as u64 * 31));
            }
            work = work
                .wrapping_add(black_box(format!("dvmInterpret frame {i}").len() as u64));
        }
        black_box(work);
    });
}

fn ablate_decode_cache(suite: &mut Suite) {
    for (name, engine) in [
        ("with_cache", NativeEngine::Blocks),
        ("without_cache", NativeEngine::Stepper),
    ] {
        let mut sys = traced_memcpy_app(engine);
        suite.bench(&format!("ablate_decode_cache/{name}"), || {
            sys.run_native(NATIVE_CODE_BASE, &[]).unwrap();
        });
    }
}

fn main() {
    let mut suite = Suite::new("ablations");
    ablate_libc_model(&mut suite);
    ablate_multilevel(&mut suite);
    ablate_decode_cache(&mut suite);
    suite.finish();
}
