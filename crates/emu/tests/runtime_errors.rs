//! Error-path coverage of the emulator runtime: host-function
//! failures, undefined instructions, and budget exhaustion in nested
//! contexts.

use ndroid_arm::block::BlockCache;
use ndroid_arm::reg::RegList;
use ndroid_arm::{Assembler, Cpu, Memory, Reg};
use ndroid_dvm::{Dvm, Program};
use ndroid_emu::layout;
use ndroid_emu::runtime::{call_guest, HostTable, NativeCtx, VanillaAnalysis};
use ndroid_emu::{EmuError, Kernel, ShadowState, TraceLog};

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
            budget: 100_000,
            blocks: BlockCache::new(),
        }
    }

    fn call(
        &mut self,
        table: &HostTable,
        entry: u32,
    ) -> Result<(u32, ndroid_dvm::Taint), EmuError> {
        let mut analysis = VanillaAnalysis;
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
        call_guest(&mut ctx, table, entry, &[], |_, _| {})
    }
}

fn load(w: &mut World, build: impl FnOnce(&mut Assembler)) -> u32 {
    let mut asm = Assembler::new(layout::NATIVE_CODE_BASE);
    build(&mut asm);
    let code = asm.assemble().unwrap();
    w.mem.write_bytes(code.base, &code.bytes);
    code.base
}

#[test]
fn host_error_carries_function_name() {
    const FAILER: u32 = layout::LIBC_BASE + 0x7000;
    let mut table = HostTable::new();
    table.register(FAILER, "exploder", |_, _| {
        Err(EmuError::Kernel("boom".into()))
    });
    let mut w = World::new();
    let entry = load(&mut w, |asm| {
        asm.push(RegList::of(&[Reg::LR]));
        asm.call_abs(FAILER);
        asm.pop(RegList::of(&[Reg::PC]));
    });
    let err = w.call(&table, entry).unwrap_err();
    match err {
        EmuError::Host { name, message } => {
            assert_eq!(name, "exploder");
            assert!(message.contains("boom"));
        }
        other => panic!("expected Host error, got {other}"),
    }
}

#[test]
fn branch_into_nothing_burns_budget_not_the_host() {
    // Zero-filled memory decodes as `ANDEQ r0, r0, r0` — architecturally
    // valid no-ops — so a wild branch spins until the budget trips
    // (exactly how a real emulator would march through zeroed pages).
    let mut w = World::new();
    w.budget = 500;
    let entry = load(&mut w, |asm| {
        asm.ldr_const(Reg::R12, 0x0BAD_0000); // unmapped, not a host fn
        asm.bx(Reg::R12);
    });
    let err = w.call(&HostTable::new(), entry).unwrap_err();
    assert!(matches!(err, EmuError::Timeout { .. }), "{err}");
}

#[test]
fn truly_undefined_word_is_rejected() {
    let mut w = World::new();
    let entry = load(&mut w, |asm| {
        asm.word(0xF000_0000); // cond=1111 space: undefined in our subset
    });
    let err = w.call(&HostTable::new(), entry).unwrap_err();
    assert!(
        matches!(
            err,
            EmuError::Arm(ndroid_arm::ArmError::UndefinedInstruction { .. })
        ),
        "{err}"
    );
}

#[test]
fn budget_exhaustion_reports_timeout() {
    let mut w = World::new();
    w.budget = 50;
    let entry = load(&mut w, |asm| {
        let top = asm.here_label();
        asm.b(top);
    });
    let err = w.call(&HostTable::new(), entry).unwrap_err();
    assert!(matches!(err, EmuError::Timeout { .. }));
}

#[test]
fn registers_restored_even_after_error() {
    let mut w = World::new();
    w.cpu.regs[4] = 0x1234_5678;
    let sp = w.cpu.regs[13];
    w.budget = 50;
    let entry = load(&mut w, |asm| {
        asm.mov_imm(Reg::R4, 0).unwrap();
        let top = asm.here_label();
        asm.b(top);
    });
    let _ = w.call(&HostTable::new(), entry).unwrap_err();
    assert_eq!(w.cpu.regs[4], 0x1234_5678, "caller state restored on error");
    assert_eq!(w.cpu.regs[13], sp);
}

#[test]
fn duplicate_host_registration_panics() {
    let result = std::panic::catch_unwind(|| {
        let mut table = HostTable::new();
        table.register(0x6800_0000, "a", |_, _| Ok(0));
        table.register(0x6800_0000, "b", |_, _| Ok(0));
    });
    assert!(result.is_err());
}

#[test]
fn host_fn_can_set_secondary_return_register() {
    const WIDE: u32 = layout::LIBC_BASE + 0x7100;
    let mut table = HostTable::new();
    table.register(WIDE, "wide_ret", |ctx, _| {
        ctx.cpu.regs[1] = 0xDEAD_0000;
        Ok(0x0000_BEEF)
    });
    let mut w = World::new();
    let entry = load(&mut w, |asm| {
        asm.push(RegList::of(&[Reg::LR]));
        asm.call_abs(WIDE);
        // Store r0:r1 so the test can see both halves.
        asm.ldr_const(Reg::R2, 0x2000_0000);
        asm.str(Reg::R0, Reg::R2, 0);
        asm.str(Reg::R1, Reg::R2, 4);
        asm.pop(RegList::of(&[Reg::PC]));
    });
    w.call(&table, entry).unwrap();
    assert_eq!(w.mem.read_u32(0x2000_0000), 0x0000_BEEF);
    assert_eq!(w.mem.read_u32(0x2000_0004), 0xDEAD_0000);
}
