//! The instruction interpreter.
//!
//! [`step`] fetches, decodes and executes one instruction, returning an
//! [`Effect`] record describing what happened (condition outcome, any
//! branch, the effective memory address). NDroid's instruction tracer
//! consumes `(Instr, Effect)` pairs to drive taint propagation without
//! the executor knowing anything about taint — which is exactly what
//! lets the benchmarks compare instrumented vs. vanilla execution.

use crate::cpu::Cpu;
use crate::decode::decode_arm;
use crate::error::ArmError;
use crate::insn::{AddrMode4, DpOp, Instr, MemOffset, MemSize, Op2, ShiftKind, VfpOp, VfpPrec};
use crate::mem::Memory;
use crate::reg::Reg;
use crate::thumb::decode_thumb;

/// A control-flow transfer taken by an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Branch {
    /// Address of the branch instruction (the paper's `I_from`).
    pub from: u32,
    /// Branch target (the paper's `I_to`).
    pub to: u32,
    /// Whether the link register was written (call-like transfer).
    pub link: bool,
}

/// What one [`step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Effect {
    /// The decoded instruction.
    pub instr: Instr,
    /// Address the instruction was fetched from.
    pub pc: u32,
    /// Instruction size in bytes (4 for ARM, 2 or 4 for Thumb).
    pub size: u8,
    /// Whether the instruction was fetched in Thumb state (an
    /// interworking branch may have switched `cpu.thumb` since).
    pub thumb: bool,
    /// Whether the condition passed and the instruction executed.
    pub executed: bool,
    /// Control transfer taken, if any.
    pub branch: Option<Branch>,
    /// Effective start address for memory-accessing instructions.
    pub addr: Option<u32>,
    /// `SVC` immediate, if the instruction was a supervisor call.
    pub svc: Option<u32>,
}

/// Fetches, decodes and executes one instruction at the current PC.
///
/// # Errors
///
/// Propagates decode errors ([`ArmError::UndefinedInstruction`]) and
/// execution errors such as [`ArmError::Unsupported`].
pub fn step(cpu: &mut Cpu, mem: &mut Memory) -> Result<Effect, ArmError> {
    let pc = cpu.pc();
    let (instr, size) = decode_at(mem, pc, cpu.thumb)?;
    step_decoded(cpu, mem, instr, size)
}

/// Decodes the instruction at `pc` in the given instruction set,
/// returning it together with its size in bytes. This is the fetch path
/// [`step`] uses, exposed so block discovery can decode ahead of the
/// program counter.
///
/// # Errors
///
/// [`ArmError::UndefinedInstruction`] for encodings outside the
/// supported subset.
#[inline]
pub fn decode_at(mem: &Memory, pc: u32, thumb: bool) -> Result<(Instr, u8), ArmError> {
    if thumb {
        decode_thumb(mem, pc)
    } else {
        Ok((decode_arm(mem.read_u32(pc), pc)?, 4))
    }
}

/// Executes an already-decoded instruction at the current PC (the
/// back half of [`step`], and how superblocks replay their
/// pre-decoded steps).
///
/// # Errors
///
/// Execution errors such as [`ArmError::Unsupported`].
pub fn step_decoded(
    cpu: &mut Cpu,
    mem: &mut Memory,
    instr: Instr,
    size: u8,
) -> Result<Effect, ArmError> {
    let pc = cpu.pc();
    cpu.insn_count += 1;

    let mut effect = Effect {
        instr,
        pc,
        size,
        thumb: cpu.thumb,
        executed: false,
        branch: None,
        addr: None,
        svc: None,
    };

    if !cpu.cond_passes(instr.cond()) {
        cpu.regs[15] = pc.wrapping_add(size as u32);
        return Ok(effect);
    }
    effect.executed = true;

    let was_thumb = cpu.thumb;
    execute(cpu, mem, &instr, pc, size, &mut effect)?;

    if effect.branch.is_some() {
        // Explicit branch: the executor already set the PC (possibly to
        // the same address, e.g. `b .`).
    } else if cpu.regs[15] == pc && cpu.thumb == was_thumb {
        // No branch: fall through.
        cpu.regs[15] = pc.wrapping_add(size as u32);
    } else {
        // PC changed through a register write (e.g. `mov pc, lr`,
        // `pop {…, pc}`): synthesize the branch record.
        effect.branch = Some(Branch {
            from: pc,
            to: cpu.regs[15],
            link: false,
        });
    }
    Ok(effect)
}

fn execute(
    cpu: &mut Cpu,
    mem: &mut Memory,
    instr: &Instr,
    pc: u32,
    size: u8,
    effect: &mut Effect,
) -> Result<(), ArmError> {
    match *instr {
        Instr::Dp {
            op, s, rd, rn, op2, ..
        } => exec_dp(cpu, op, s, rd, rn, op2),
        Instr::Mul {
            s, rd, rm, rs, acc, ..
        } => {
            let mut result = cpu.read(rm).wrapping_mul(cpu.read(rs));
            if let Some(ra) = acc {
                result = result.wrapping_add(cpu.read(ra));
            }
            cpu.write(rd, result);
            if s {
                cpu.n = result & 0x8000_0000 != 0;
                cpu.z = result == 0;
            }
            Ok(())
        }
        Instr::Mem {
            load,
            size: msize,
            rd,
            rn,
            offset,
            pre,
            up,
            writeback,
            ..
        } => {
            let mut base = cpu.read(rn);
            if rn == Reg::PC && cpu.thumb {
                base &= !3; // Thumb PC-relative loads use the aligned PC.
            }
            let off = match offset {
                MemOffset::Imm(i) => i as u32,
                MemOffset::Reg { rm, kind, amount } => {
                    shift_value(cpu.read(rm), kind, amount as u32, cpu.c).0
                }
            };
            let updated = if up {
                base.wrapping_add(off)
            } else {
                base.wrapping_sub(off)
            };
            let addr = if pre { updated } else { base };
            effect.addr = Some(addr);
            if load {
                let value = match msize {
                    MemSize::Word => mem.read_u32(addr),
                    MemSize::Byte => mem.read_u8(addr) as u32,
                    MemSize::Half => mem.read_u16(addr) as u32,
                    MemSize::SignedByte => mem.read_u8(addr) as i8 as i32 as u32,
                    MemSize::SignedHalf => mem.read_u16(addr) as i16 as i32 as u32,
                };
                if writeback || !pre {
                    cpu.write(rn, updated);
                }
                cpu.write(rd, value);
            } else {
                let value = cpu.read(rd);
                match msize {
                    MemSize::Word => mem.write_u32(addr, value),
                    MemSize::Byte => mem.write_u8(addr, value as u8),
                    MemSize::Half | MemSize::SignedHalf => mem.write_u16(addr, value as u16),
                    MemSize::SignedByte => {
                        return Err(ArmError::Unsupported {
                            addr: pc,
                            what: "signed byte store",
                        })
                    }
                }
                if writeback || !pre {
                    cpu.write(rn, updated);
                }
            }
            Ok(())
        }
        Instr::MemMulti {
            load,
            rn,
            mode,
            writeback,
            regs,
            ..
        } => {
            let base = cpu.read(rn);
            let n = regs.len();
            let start = match mode {
                AddrMode4::Ia => base,
                AddrMode4::Ib => base.wrapping_add(4),
                AddrMode4::Da => base.wrapping_sub(4 * n).wrapping_add(4),
                AddrMode4::Db => base.wrapping_sub(4 * n),
            };
            effect.addr = Some(start);
            let final_base = match mode {
                AddrMode4::Ia | AddrMode4::Ib => base.wrapping_add(4 * n),
                AddrMode4::Da | AddrMode4::Db => base.wrapping_sub(4 * n),
            };
            if load {
                if writeback {
                    cpu.write(rn, final_base);
                }
                for (i, r) in regs.iter().enumerate() {
                    let value = mem.read_u32(start.wrapping_add(4 * i as u32));
                    if r == Reg::PC {
                        // Interworking return (e.g. `pop {pc}`).
                        cpu.thumb = value & 1 != 0;
                        cpu.regs[15] = value & !1;
                    } else {
                        cpu.write(r, value);
                    }
                }
            } else {
                for (i, r) in regs.iter().enumerate() {
                    mem.write_u32(start.wrapping_add(4 * i as u32), cpu.read(r));
                }
                if writeback {
                    cpu.write(rn, final_base);
                }
            }
            Ok(())
        }
        Instr::Branch { link, offset, .. } => {
            let ahead = if cpu.thumb { 4 } else { 8 };
            let target = pc.wrapping_add(ahead).wrapping_add(offset as u32);
            if link {
                let ret = pc.wrapping_add(size as u32) | cpu.thumb as u32;
                cpu.regs[14] = ret;
            }
            cpu.regs[15] = target;
            effect.branch = Some(Branch {
                from: pc,
                to: target,
                link,
            });
            Ok(())
        }
        Instr::BranchExchange { link, rm, .. } => {
            let target = cpu.read(rm);
            if link {
                cpu.regs[14] = pc.wrapping_add(size as u32) | cpu.thumb as u32;
            }
            cpu.thumb = target & 1 != 0;
            cpu.regs[15] = target & !1;
            effect.branch = Some(Branch {
                from: pc,
                to: target & !1,
                link,
            });
            Ok(())
        }
        Instr::Svc { imm, .. } => {
            effect.svc = Some(imm);
            Ok(())
        }
        Instr::Vfp {
            op,
            prec,
            fd,
            fn_,
            fm,
            ..
        } => {
            match prec {
                VfpPrec::F32 => {
                    let a = cpu.read_s(fn_);
                    let b = cpu.read_s(fm);
                    match op {
                        VfpOp::Add => cpu.write_s(fd, a + b),
                        VfpOp::Sub => cpu.write_s(fd, a - b),
                        VfpOp::Mul => cpu.write_s(fd, a * b),
                        VfpOp::Div => cpu.write_s(fd, a / b),
                        VfpOp::Mov => {
                            let v = cpu.read_s(fm);
                            cpu.write_s(fd, v);
                        }
                        VfpOp::Cmp => {
                            let x = cpu.read_s(fd);
                            set_fp_flags(cpu, x as f64, b as f64);
                        }
                    }
                }
                VfpPrec::F64 => {
                    let a = cpu.read_d(fn_);
                    let b = cpu.read_d(fm);
                    match op {
                        VfpOp::Add => cpu.write_d(fd, a + b),
                        VfpOp::Sub => cpu.write_d(fd, a - b),
                        VfpOp::Mul => cpu.write_d(fd, a * b),
                        VfpOp::Div => cpu.write_d(fd, a / b),
                        VfpOp::Mov => {
                            let v = cpu.read_d(fm);
                            cpu.write_d(fd, v);
                        }
                        VfpOp::Cmp => {
                            let x = cpu.read_d(fd);
                            set_fp_flags(cpu, x, b);
                        }
                    }
                }
            }
            Ok(())
        }
        Instr::VfpMem {
            load,
            prec,
            fd,
            rn,
            offset,
            up,
            ..
        } => {
            let base = cpu.read(rn);
            let addr = if up {
                base.wrapping_add(offset as u32)
            } else {
                base.wrapping_sub(offset as u32)
            };
            effect.addr = Some(addr);
            match (load, prec) {
                (true, VfpPrec::F32) => {
                    let v = mem.read_u32(addr);
                    cpu.vfp[(fd & 31) as usize] = v;
                }
                (true, VfpPrec::F64) => {
                    let v = mem.read_u64(addr);
                    cpu.write_d(fd, f64::from_bits(v));
                }
                (false, VfpPrec::F32) => mem.write_u32(addr, cpu.vfp[(fd & 31) as usize]),
                (false, VfpPrec::F64) => mem.write_u64(addr, cpu.read_d(fd).to_bits()),
            }
            Ok(())
        }
        Instr::VfpMrs { .. } => Ok(()), // flags already live in the CPSR model
    }
}

/// Applies the IEEE comparison result to the CPSR flags the way
/// `VCMP` + `VMRS` does.
fn set_fp_flags(cpu: &mut Cpu, a: f64, b: f64) {
    if a.is_nan() || b.is_nan() {
        (cpu.n, cpu.z, cpu.c, cpu.v) = (false, false, true, true);
    } else if a == b {
        (cpu.n, cpu.z, cpu.c, cpu.v) = (false, true, true, false);
    } else if a < b {
        (cpu.n, cpu.z, cpu.c, cpu.v) = (true, false, false, false);
    } else {
        (cpu.n, cpu.z, cpu.c, cpu.v) = (false, false, true, false);
    }
}

/// Barrel shifter: returns (value, carry_out).
fn shift_value(value: u32, kind: ShiftKind, amount: u32, carry_in: bool) -> (u32, bool) {
    if amount == 0 {
        return (value, carry_in);
    }
    match kind {
        ShiftKind::Lsl => {
            if amount < 32 {
                (value << amount, value & (1 << (32 - amount)) != 0)
            } else if amount == 32 {
                (0, value & 1 != 0)
            } else {
                (0, false)
            }
        }
        ShiftKind::Lsr => {
            if amount < 32 {
                (value >> amount, value & (1 << (amount - 1)) != 0)
            } else if amount == 32 {
                (0, value & 0x8000_0000 != 0)
            } else {
                (0, false)
            }
        }
        ShiftKind::Asr => {
            if amount < 32 {
                (
                    ((value as i32) >> amount) as u32,
                    value & (1 << (amount - 1)) != 0,
                )
            } else {
                let fill = if value & 0x8000_0000 != 0 { u32::MAX } else { 0 };
                (fill, value & 0x8000_0000 != 0)
            }
        }
        ShiftKind::Ror => {
            let amt = amount % 32;
            if amt == 0 {
                (value, value & 0x8000_0000 != 0)
            } else {
                let r = value.rotate_right(amt);
                (r, r & 0x8000_0000 != 0)
            }
        }
    }
}

fn exec_dp(cpu: &mut Cpu, op: DpOp, s: bool, rd: Reg, rn: Reg, op2: Op2) -> Result<(), ArmError> {
    let (b, shifter_carry) = match op2 {
        Op2::Imm { imm8, rot4 } => {
            let v = Op2::imm_value(imm8, rot4);
            let c = if rot4 == 0 {
                cpu.c
            } else {
                v & 0x8000_0000 != 0
            };
            (v, c)
        }
        Op2::RegShiftImm { rm, kind, amount } => {
            shift_value(cpu.read(rm), kind, amount as u32, cpu.c)
        }
        Op2::RegShiftReg { rm, kind, rs } => {
            let amount = cpu.read(rs) & 0xFF;
            shift_value(cpu.read(rm), kind, amount, cpu.c)
        }
    };
    let a = cpu.read(rn);
    let cin = cpu.c as u32;

    enum Flags {
        Logical,
        Add(u32, u32, u32),
        Sub(u32, u32, u32),
    }
    let (result, fl) = match op {
        DpOp::And | DpOp::Tst => (a & b, Flags::Logical),
        DpOp::Eor | DpOp::Teq => (a ^ b, Flags::Logical),
        DpOp::Orr => (a | b, Flags::Logical),
        DpOp::Bic => (a & !b, Flags::Logical),
        DpOp::Mov => (b, Flags::Logical),
        DpOp::Mvn => (!b, Flags::Logical),
        DpOp::Add | DpOp::Cmn => (a.wrapping_add(b), Flags::Add(a, b, 0)),
        DpOp::Adc => (a.wrapping_add(b).wrapping_add(cin), Flags::Add(a, b, cin)),
        DpOp::Sub | DpOp::Cmp => (a.wrapping_sub(b), Flags::Sub(a, b, 0)),
        DpOp::Sbc => (
            a.wrapping_sub(b).wrapping_sub(1 - cin),
            Flags::Sub(a, b, 1 - cin),
        ),
        DpOp::Rsb => (b.wrapping_sub(a), Flags::Sub(b, a, 0)),
        DpOp::Rsc => (
            b.wrapping_sub(a).wrapping_sub(1 - cin),
            Flags::Sub(b, a, 1 - cin),
        ),
    };

    if s || op.is_compare() {
        cpu.n = result & 0x8000_0000 != 0;
        cpu.z = result == 0;
        match fl {
            Flags::Logical => cpu.c = shifter_carry,
            Flags::Add(x, y, c) => {
                let wide = x as u64 + y as u64 + c as u64;
                cpu.c = wide > u32::MAX as u64;
                cpu.v = ((x ^ result) & (y ^ result)) & 0x8000_0000 != 0;
            }
            Flags::Sub(x, y, borrow) => {
                let wide = (x as u64).wrapping_sub(y as u64).wrapping_sub(borrow as u64);
                cpu.c = wide <= u32::MAX as u64; // C = NOT borrow
                cpu.v = ((x ^ y) & (x ^ result)) & 0x8000_0000 != 0;
            }
        }
    }
    if !op.is_compare() {
        cpu.write(rd, result);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::cond::Cond;
    use crate::reg::RegList;

    fn run(asm: Assembler, setup: impl FnOnce(&mut Cpu, &mut Memory)) -> (Cpu, Memory) {
        let base = asm.base();
        let code = asm.assemble().expect("assemble");
        let mut mem = Memory::new();
        mem.write_bytes(base, &code.bytes);
        let mut cpu = Cpu::new();
        cpu.set_pc(base);
        cpu.regs[13] = 0x8000;
        cpu.regs[14] = 0xFFFF_FF00;
        setup(&mut cpu, &mut mem);
        let mut steps = 0;
        while cpu.pc() != 0xFFFF_FF00 {
            step(&mut cpu, &mut mem).expect("step");
            steps += 1;
            assert!(steps < 100_000, "runaway program");
        }
        (cpu, mem)
    }

    #[test]
    fn arithmetic_program() {
        let mut asm = Assembler::new(0x1000);
        asm.mov_imm(Reg::R0, 10).unwrap();
        asm.mov_imm(Reg::R1, 32).unwrap();
        asm.add(Reg::R2, Reg::R0, Reg::R1);
        asm.sub_imm(Reg::R2, Reg::R2, 2).unwrap();
        asm.mul(Reg::R3, Reg::R2, Reg::R0);
        asm.bx(Reg::LR);
        let (cpu, _) = run(asm, |_, _| {});
        assert_eq!(cpu.regs[2], 40);
        assert_eq!(cpu.regs[3], 400);
    }

    #[test]
    fn loop_with_branch() {
        // Sum 1..=5 using a countdown loop.
        let mut asm = Assembler::new(0x1000);
        let top = asm.label();
        asm.mov_imm(Reg::R0, 0).unwrap();
        asm.mov_imm(Reg::R1, 5).unwrap();
        asm.bind(top).unwrap();
        asm.add(Reg::R0, Reg::R0, Reg::R1);
        asm.subs_imm(Reg::R1, Reg::R1, 1).unwrap();
        asm.b_cond(Cond::Ne, top);
        asm.bx(Reg::LR);
        let (cpu, _) = run(asm, |_, _| {});
        assert_eq!(cpu.regs[0], 15);
    }

    #[test]
    fn memory_load_store() {
        let mut asm = Assembler::new(0x1000);
        asm.mov_imm(Reg::R1, 0x4000).unwrap();
        asm.mov_imm(Reg::R0, 0xAB).unwrap();
        asm.strb(Reg::R0, Reg::R1, 0);
        asm.ldrb(Reg::R2, Reg::R1, 0);
        asm.str(Reg::R0, Reg::R1, 4);
        asm.ldr(Reg::R3, Reg::R1, 4);
        asm.bx(Reg::LR);
        let (cpu, mem) = run(asm, |_, _| {});
        assert_eq!(cpu.regs[2], 0xAB);
        assert_eq!(cpu.regs[3], 0xAB);
        assert_eq!(mem.read_u8(0x4000), 0xAB);
        assert_eq!(mem.read_u32(0x4004), 0xAB);
    }

    #[test]
    fn push_pop_roundtrip() {
        let mut asm = Assembler::new(0x1000);
        asm.mov_imm(Reg::R4, 0x11).unwrap();
        asm.mov_imm(Reg::R5, 0x22).unwrap();
        asm.push(RegList::of(&[Reg::R4, Reg::R5, Reg::LR]));
        asm.mov_imm(Reg::R4, 0).unwrap();
        asm.mov_imm(Reg::R5, 0).unwrap();
        asm.pop(RegList::of(&[Reg::R4, Reg::R5, Reg::PC]));
        let (cpu, _) = run(asm, |_, _| {});
        assert_eq!(cpu.regs[4], 0x11);
        assert_eq!(cpu.regs[5], 0x22);
        assert_eq!(cpu.sp(), 0x8000);
    }

    #[test]
    fn bl_sets_lr_and_returns() {
        let mut asm = Assembler::new(0x1000);
        let func = asm.label();
        let done = asm.label();
        asm.mov(Reg::R4, Reg::LR); // save the outer return address
        asm.mov_imm(Reg::R0, 1).unwrap();
        asm.bl(func);
        asm.b(done);
        asm.bind(func).unwrap();
        asm.add_imm(Reg::R0, Reg::R0, 41).unwrap();
        asm.bx(Reg::LR);
        asm.bind(done).unwrap();
        asm.bx(Reg::R4);
        let (cpu, _) = run(asm, |_, _| {});
        assert_eq!(cpu.regs[0], 42);
    }

    #[test]
    fn conditional_execution_skips() {
        let mut asm = Assembler::new(0x1000);
        asm.mov_imm(Reg::R0, 5).unwrap();
        asm.cmp_imm(Reg::R0, 5).unwrap();
        asm.emit(Instr::Dp {
            cond: Cond::Ne, // skipped: flags say equal
            op: DpOp::Mov,
            s: false,
            rd: Reg::R1,
            rn: Reg::R0,
            op2: Op2::encode_imm(99).unwrap(),
        });
        asm.emit(Instr::Dp {
            cond: Cond::Eq, // taken
            op: DpOp::Mov,
            s: false,
            rd: Reg::R2,
            rn: Reg::R0,
            op2: Op2::encode_imm(7).unwrap(),
        });
        asm.bx(Reg::LR);
        let (cpu, _) = run(asm, |_, _| {});
        assert_eq!(cpu.regs[1], 0);
        assert_eq!(cpu.regs[2], 7);
    }

    #[test]
    fn flags_from_subtraction() {
        let mut asm = Assembler::new(0x1000);
        asm.cmp_imm(Reg::R0, 1).unwrap(); // 0 - 1: borrow, negative
        asm.bx(Reg::LR);
        let (cpu, _) = run(asm, |_, _| {});
        assert!(cpu.n);
        assert!(!cpu.z);
        assert!(!cpu.c); // borrow occurred
    }

    #[test]
    fn shifted_operand() {
        let mut asm = Assembler::new(0x1000);
        asm.mov_imm(Reg::R0, 3).unwrap();
        asm.emit(Instr::Dp {
            cond: Cond::Al,
            op: DpOp::Mov,
            s: false,
            rd: Reg::R1,
            rn: Reg::R0,
            op2: Op2::RegShiftImm {
                rm: Reg::R0,
                kind: ShiftKind::Lsl,
                amount: 4,
            },
        });
        asm.bx(Reg::LR);
        let (cpu, _) = run(asm, |_, _| {});
        assert_eq!(cpu.regs[1], 48);
    }

    #[test]
    fn effect_records_memory_address() {
        let mut mem = Memory::new();
        let word = crate::encode::encode(&Instr::Mem {
            cond: Cond::Al,
            load: true,
            size: MemSize::Word,
            rd: Reg::R0,
            rn: Reg::R1,
            offset: MemOffset::Imm(8),
            pre: true,
            up: true,
            writeback: false,
        })
        .unwrap();
        mem.write_u32(0x1000, word);
        let mut cpu = Cpu::new();
        cpu.set_pc(0x1000);
        cpu.regs[1] = 0x5000;
        let eff = step(&mut cpu, &mut mem).unwrap();
        assert_eq!(eff.addr, Some(0x5008));
        assert!(eff.executed);
        assert!(eff.branch.is_none());
        assert_eq!(eff.size, 4);
    }

    #[test]
    fn svc_reports_selector() {
        let mut mem = Memory::new();
        let word = crate::encode::encode(&Instr::Svc {
            cond: Cond::Al,
            imm: 0x17,
        })
        .unwrap();
        mem.write_u32(0x1000, word);
        let mut cpu = Cpu::new();
        cpu.set_pc(0x1000);
        let eff = step(&mut cpu, &mut mem).unwrap();
        assert_eq!(eff.svc, Some(0x17));
        assert_eq!(cpu.pc(), 0x1004);
    }

    #[test]
    fn vfp_double_arithmetic() {
        let mut asm = Assembler::new(0x1000);
        asm.vldr_d(0, Reg::R1, 0);
        asm.vldr_d(1, Reg::R1, 8);
        asm.vadd_d(2, 0, 1);
        asm.vmul_d(3, 0, 1);
        asm.vdiv_d(4, 0, 1);
        asm.vstr_d(2, Reg::R1, 16);
        asm.bx(Reg::LR);
        let (cpu, mem) = run(asm, |cpu, mem| {
            cpu.regs[1] = 0x6000;
            mem.write_u64(0x6000, 6.0f64.to_bits());
            mem.write_u64(0x6008, 1.5f64.to_bits());
        });
        assert_eq!(cpu.read_d(2), 7.5);
        assert_eq!(cpu.read_d(3), 9.0);
        assert_eq!(cpu.read_d(4), 4.0);
        assert_eq!(f64::from_bits(mem.read_u64(0x6010)), 7.5);
    }

    #[test]
    fn mov_pc_synthesizes_branch() {
        let mut mem = Memory::new();
        let word = crate::encode::encode(&Instr::Dp {
            cond: Cond::Al,
            op: DpOp::Mov,
            s: false,
            rd: Reg::PC,
            rn: Reg::R0,
            op2: Op2::reg(Reg::R3),
        })
        .unwrap();
        mem.write_u32(0x1000, word);
        let mut cpu = Cpu::new();
        cpu.set_pc(0x1000);
        cpu.regs[3] = 0x2000;
        let eff = step(&mut cpu, &mut mem).unwrap();
        assert_eq!(
            eff.branch,
            Some(Branch {
                from: 0x1000,
                to: 0x2000,
                link: false
            })
        );
        assert_eq!(cpu.pc(), 0x2000);
    }

    #[test]
    fn adc_sbc_carry_chain() {
        // 64-bit add: (2^32 - 1) + 1 using ADDS/ADC.
        let mut asm = Assembler::new(0x1000);
        asm.emit(Instr::Dp {
            cond: Cond::Al,
            op: DpOp::Add,
            s: true,
            rd: Reg::R0,
            rn: Reg::R0,
            op2: Op2::reg(Reg::R2),
        });
        asm.emit(Instr::Dp {
            cond: Cond::Al,
            op: DpOp::Adc,
            s: false,
            rd: Reg::R1,
            rn: Reg::R1,
            op2: Op2::reg(Reg::R3),
        });
        asm.bx(Reg::LR);
        let (cpu, _) = run(asm, |cpu, _| {
            cpu.regs[0] = u32::MAX;
            cpu.regs[1] = 0;
            cpu.regs[2] = 1;
            cpu.regs[3] = 0;
        });
        assert_eq!(cpu.regs[0], 0);
        assert_eq!(cpu.regs[1], 1); // carry propagated
    }
}
