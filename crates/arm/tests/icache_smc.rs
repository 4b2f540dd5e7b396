//! Self-modifying-code correctness of the superblock cache: a write to
//! a cached code page must cause the *new* bytes to be decoded on the
//! next fetch (page-wise invalidation via memory write generations),
//! both for in-guest stores and for host-side writes between runs.

use ndroid_arm::asm::encoding_of;
use ndroid_arm::block::{build_block, BlockCache};
use ndroid_arm::exec::{step, step_decoded};
use ndroid_arm::{Assembler, Cond, Cpu, Memory, Reg};

const SENTINEL: u32 = 0xFFFF_FF00;

/// A minimal block dispatcher with the emulator run loop's exit rules:
/// leave a block after any taken branch and after an executed store
/// into the block's own code page.
fn run(cpu: &mut Cpu, mem: &mut Memory, cache: &mut BlockCache, entry: u32) {
    cpu.regs[14] = SENTINEL;
    cpu.set_pc(entry);
    let mut budget = 10_000u32;
    while cpu.pc() != SENTINEL {
        let pc = cpu.pc();
        let block = match cache.lookup(mem, pc, cpu.thumb) {
            Some(block) => block.clone(),
            None => match build_block(mem, pc, cpu.thumb, |_| false) {
                Some(block) => cache.insert(mem, block).clone(),
                None => {
                    step(cpu, mem).expect("step");
                    budget -= 1;
                    continue;
                }
            },
        };
        for s in block.steps() {
            let effect = step_decoded(cpu, mem, s.instr, s.size).expect("step");
            budget -= 1;
            assert!(budget > 0, "runaway guest");
            let own_page_store = s.store_bytes != 0
                && effect.executed
                && effect
                    .addr
                    .is_some_and(|a| block.store_hits_code(a, s.store_bytes));
            if effect.branch.is_some() || own_page_store {
                break;
            }
        }
    }
}

#[test]
fn guest_store_into_own_code_page_is_reexecuted_fresh() {
    // A two-pass loop whose body instruction patches itself: pass 1
    // executes `add r5, r5, #1`, then stores the encoding of
    // `add r5, r5, #10` over it; pass 2 must execute the new bytes.
    let patch = encoding_of(|a| a.add_imm(Reg::R5, Reg::R5, 10).unwrap());
    let base = 0x0001_0000;
    let mut asm = Assembler::new(base);
    asm.mov_imm(Reg::R4, 2).unwrap(); // pass counter
    asm.mov_imm(Reg::R5, 0).unwrap(); // accumulator
    asm.ldr_const(Reg::R2, patch);
    let top = asm.here_label();
    let patchme = asm.here();
    asm.add_imm(Reg::R5, Reg::R5, 1).unwrap();
    asm.ldr_const(Reg::R3, patchme);
    asm.str(Reg::R2, Reg::R3, 0);
    asm.subs_imm(Reg::R4, Reg::R4, 1).unwrap();
    asm.b_cond(Cond::Ne, top);
    asm.mov(Reg::R0, Reg::R5);
    asm.bx(Reg::LR);
    let code = asm.assemble().unwrap();

    let mut mem = Memory::new();
    mem.write_bytes(base, &code.bytes);
    let mut cpu = Cpu::new();
    cpu.regs[13] = 0x0800_0000;
    let mut cache = BlockCache::new();
    run(&mut cpu, &mut mem, &mut cache, base);

    assert_eq!(cpu.regs[0], 11, "1 (original) + 10 (patched), not 2");
    // Every pass stores into the loop's own page, so each pass
    // invalidates it — the cache must notice every time.
    assert!(
        cache.invalidations > 0,
        "the self-store invalidated the code page"
    );
}

#[test]
fn hot_loop_is_served_from_the_cache() {
    let base = 0x0004_0000;
    let mut asm = Assembler::new(base);
    asm.mov_imm(Reg::R4, 50).unwrap();
    let top = asm.here_label();
    asm.add_imm(Reg::R0, Reg::R0, 1).unwrap();
    asm.subs_imm(Reg::R4, Reg::R4, 1).unwrap();
    asm.b_cond(Cond::Ne, top);
    asm.bx(Reg::LR);
    let code = asm.assemble().unwrap();
    let mut mem = Memory::new();
    mem.write_bytes(base, &code.bytes);
    let mut cpu = Cpu::new();
    let mut cache = BlockCache::new();
    run(&mut cpu, &mut mem, &mut cache, base);
    assert_eq!(cpu.regs[0], 50);
    // Pass 1 runs in the entry block, pass 2 compiles the loop body,
    // passes 3..=50 replay it.
    assert_eq!(cache.hits, 48, "loop body compiled once, then replayed");
    assert_eq!(cache.invalidations, 0, "no writes, no invalidations");
}

#[test]
fn host_write_between_runs_invalidates() {
    let base = 0x0002_0000;
    let mut asm = Assembler::new(base);
    asm.mov_imm(Reg::R0, 1).unwrap();
    asm.bx(Reg::LR);
    let code = asm.assemble().unwrap();

    let mut mem = Memory::new();
    mem.write_bytes(base, &code.bytes);
    let mut cpu = Cpu::new();
    let mut cache = BlockCache::new();
    run(&mut cpu, &mut mem, &mut cache, base);
    assert_eq!(cpu.regs[0], 1);

    // Rewrite the first instruction from the host side (the moral
    // equivalent of a JNI/libc host function writing guest memory).
    let patched = encoding_of(|a| {
        a.mov_imm(Reg::R0, 2).unwrap();
    });
    mem.write_u32(base, patched);
    run(&mut cpu, &mut mem, &mut cache, base);
    assert_eq!(cpu.regs[0], 2, "new bytes decoded after the host write");
    assert!(cache.invalidations > 0);
}
