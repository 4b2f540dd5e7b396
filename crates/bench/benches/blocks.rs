//! Superblock (block-level taint compilation) benchmarks: the rate at
//! which straight-line runs compile into effect programs, the fused
//! block dispatch vs the uncached per-instruction `step` + `on_insn`
//! tracer on a hot loop, and the end-to-end cfbench A/B between the
//! `Blocks` and `Stepper` native engines. Writes `BENCH_blocks.json`;
//! `TESTKIT_BENCH_SMOKE=1` runs a minimal pass for CI.

use ndroid_arm::block::{build_block, BlockCache};
use ndroid_arm::{Assembler, Cond, Cpu, Memory, Reg};
use ndroid_cfbench::all_kernels;
use ndroid_core::{Mode, NDroidAnalysis, NativeEngine, SystemConfig};
use ndroid_dvm::{Dvm, Program};
use ndroid_emu::kernel::Kernel;
use ndroid_emu::layout::RETURN_SENTINEL;
use ndroid_emu::runtime::{run_until_return, HostTable, NativeCtx};
use ndroid_emu::shadow::ShadowState;
use ndroid_emu::trace::TraceLog;
use ndroid_testkit::bench::{black_box, Suite};

/// Kernel iterations for the end-to-end cfbench A/B.
const KERNEL_ITERS: u32 = 500;

/// A 64-iteration counted loop (the same shape as the raw `step` bench
/// in `BENCH_taint.json`, so the suites compare like with like).
fn hot_loop(mem: &mut Memory, base: u32) {
    let mut asm = Assembler::new(base);
    asm.mov_imm(Reg::R4, 64).unwrap();
    asm.mov_imm(Reg::R0, 0).unwrap();
    let top = asm.here_label();
    asm.add_imm(Reg::R0, Reg::R0, 1).unwrap();
    asm.add_imm(Reg::R1, Reg::R1, 2).unwrap();
    asm.add_imm(Reg::R2, Reg::R2, 3).unwrap();
    asm.subs_imm(Reg::R4, Reg::R4, 1).unwrap();
    asm.b_cond(Cond::Ne, top);
    asm.bx(Reg::LR);
    let code = asm.assemble().unwrap();
    mem.write_bytes(base, &code.bytes);
}

/// Block compilation rate: decode + taint-lowering for a maximal
/// 64-step straight-line block, built from scratch each time.
fn build_benches(suite: &mut Suite) {
    let base = 0x0001_0000;
    let mut asm = Assembler::new(base);
    for _ in 0..63 {
        asm.add_imm(Reg::R0, Reg::R0, 1).unwrap();
    }
    asm.bx(Reg::LR);
    let code = asm.assemble().unwrap();
    let mut mem = Memory::new();
    mem.write_bytes(base, &code.bytes);

    suite.bench("blocks/build/64insn", || {
        let b = build_block(&mem, base, false, |_| false).expect("block");
        black_box(b.len());
    });
}

/// The A/B at the dispatch level: one hot loop traced by the full
/// NDroid analysis through the production run loop, once stepped per
/// instruction (`step` + `on_insn`) and once through cached effect
/// programs (`on_block`). Each arm's context is built outside the
/// timed closure, so only the dispatch is measured.
fn exec_benches(suite: &mut Suite) {
    let base = 0x0001_0000;
    for (name, engine) in [
        ("stepper_traced", NativeEngine::Stepper),
        ("block_traced", NativeEngine::Blocks),
    ] {
        let mut cpu = Cpu::new();
        let mut mem = Memory::new();
        hot_loop(&mut mem, base);
        let mut dvm = Dvm::new(Program::new());
        let mut shadow = ShadowState::new();
        let mut kernel = Kernel::new();
        let mut trace = TraceLog::disabled();
        let mut analysis = NDroidAnalysis::new();
        let mut budget = u64::MAX;
        let mut blocks = BlockCache::new();
        blocks.enabled = engine == NativeEngine::Blocks;
        let table = HostTable::new();
        let mut ctx = NativeCtx {
            cpu: &mut cpu,
            mem: &mut mem,
            dvm: &mut dvm,
            shadow: &mut shadow,
            kernel: &mut kernel,
            trace: &mut trace,
            analysis: &mut analysis,
            budget: &mut budget,
            blocks: &mut blocks,
        };
        suite.bench(&format!("exec/hot_loop/{name}"), || {
            ctx.cpu.regs[14] = RETURN_SENTINEL;
            ctx.cpu.set_pc(base);
            run_until_return(&mut ctx, &table).expect("hot loop returns");
            black_box(ctx.cpu.regs[0]);
        });
    }
}

/// End-to-end cfbench kernels on the `Stepper` vs `Blocks` native
/// engines — the headline multiple lives here.
fn cfbench_ab_benches(suite: &mut Suite) {
    let kernels = all_kernels();
    for name in ["Native MIPS", "Native Memory Read"] {
        let kernel = kernels
            .iter()
            .find(|k| k.name == name)
            .expect("known kernel");
        for (variant, engine) in [
            ("blocks_off", NativeEngine::Stepper),
            ("blocks_on", NativeEngine::Blocks),
        ] {
            let mut sys =
                kernel.boot_with(SystemConfig::new(Mode::NDroid).quiet(true).engine(engine));
            suite.bench(&format!("cfbench/{name}/{variant}"), || {
                black_box(kernel.run(&mut sys, KERNEL_ITERS));
            });
        }
    }
}

fn main() {
    let mut suite = Suite::new("blocks");
    build_benches(&mut suite);
    exec_benches(&mut suite);
    cfbench_ab_benches(&mut suite);
    suite.finish();
}
