//! End-to-end code-cache behavior through the emulator run loop:
//! `call_guest` dispatches through the session's [`BlockCache`], which
//! persists across calls, and host-side writes to a code page make the
//! next run re-decode the new bytes.

use ndroid_arm::block::BlockCache;
use ndroid_arm::{Assembler, Cond, Cpu, Memory, Reg};
use ndroid_dvm::{Dvm, Program};
use ndroid_emu::kernel::Kernel;
use ndroid_emu::runtime::{call_guest, HostTable, NativeCtx, VanillaAnalysis};
use ndroid_emu::shadow::ShadowState;
use ndroid_emu::trace::TraceLog;
use ndroid_emu::layout;

struct World {
    cpu: Cpu,
    mem: Memory,
    dvm: Dvm,
    shadow: ShadowState,
    kernel: Kernel,
    trace: TraceLog,
    budget: u64,
    blocks: BlockCache,
}

impl World {
    fn new() -> World {
        let mut cpu = Cpu::new();
        cpu.regs[13] = layout::NATIVE_STACK_TOP;
        World {
            cpu,
            mem: Memory::new(),
            dvm: Dvm::new(Program::new()),
            shadow: ShadowState::new(),
            kernel: Kernel::new(),
            trace: TraceLog::new(),
            budget: 1_000_000,
            blocks: BlockCache::new(),
        }
    }

    fn call(&mut self, entry: u32) -> u32 {
        let mut analysis = VanillaAnalysis;
        let table = HostTable::new();
        let mut ctx = NativeCtx {
            cpu: &mut self.cpu,
            mem: &mut self.mem,
            dvm: &mut self.dvm,
            shadow: &mut self.shadow,
            kernel: &mut self.kernel,
            trace: &mut self.trace,
            analysis: &mut analysis,
            budget: &mut self.budget,
            blocks: &mut self.blocks,
        };
        let (r0, _) = call_guest(&mut ctx, &table, entry, &[], |_, _| {}).expect("guest run");
        r0
    }
}

#[test]
fn run_loop_reuses_the_session_cache_across_calls() {
    let mut asm = Assembler::new(layout::NATIVE_CODE_BASE);
    asm.mov_imm(Reg::R4, 25).unwrap();
    asm.mov_imm(Reg::R0, 0).unwrap();
    let top = asm.here_label();
    asm.add_imm(Reg::R0, Reg::R0, 2).unwrap();
    asm.subs_imm(Reg::R4, Reg::R4, 1).unwrap();
    asm.b_cond(Cond::Ne, top);
    asm.bx(Reg::LR);
    let code = asm.assemble().unwrap();

    let mut w = World::new();
    w.mem.write_bytes(code.base, &code.bytes);
    assert_eq!(w.call(code.base), 50);
    let hits_first = w.blocks.hits;
    assert!(hits_first > 0, "hot loop served from the cache");
    assert_eq!(w.call(code.base), 50);
    assert!(
        w.blocks.hits > hits_first,
        "second call reuses blocks from the first (shared session cache)"
    );
}

#[test]
fn host_write_to_code_page_forces_redecode() {
    let base = layout::NATIVE_CODE_BASE;
    let mut asm = Assembler::new(base);
    asm.mov_imm(Reg::R0, 1).unwrap();
    asm.bx(Reg::LR);
    let code = asm.assemble().unwrap();

    let mut w = World::new();
    w.mem.write_bytes(base, &code.bytes);
    assert_eq!(w.call(base), 1);

    // Patch the first instruction to `mov r0, #3` from the host side.
    let mut asm2 = Assembler::new(base);
    asm2.mov_imm(Reg::R0, 3).unwrap();
    let word = u32::from_le_bytes(asm2.assemble().unwrap().bytes[..4].try_into().unwrap());
    w.mem.write_u32(base, word);

    assert_eq!(w.call(base), 3, "run loop decodes the patched bytes");
    assert!(w.blocks.invalidations > 0);
}
