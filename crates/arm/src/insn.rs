//! The decoded instruction model shared by the assembler, decoder,
//! executor and NDroid's instruction tracer.

use crate::cond::Cond;
use crate::reg::{Reg, RegList};
use std::fmt;

/// Data-processing opcodes (the 4-bit `opcode` field of ARM
/// data-processing instructions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum DpOp {
    /// Bitwise AND.
    And = 0x0,
    /// Bitwise exclusive OR.
    Eor = 0x1,
    /// Subtract.
    Sub = 0x2,
    /// Reverse subtract.
    Rsb = 0x3,
    /// Add.
    Add = 0x4,
    /// Add with carry.
    Adc = 0x5,
    /// Subtract with carry.
    Sbc = 0x6,
    /// Reverse subtract with carry.
    Rsc = 0x7,
    /// Test (AND, flags only).
    Tst = 0x8,
    /// Test equivalence (EOR, flags only).
    Teq = 0x9,
    /// Compare (SUB, flags only).
    Cmp = 0xA,
    /// Compare negative (ADD, flags only).
    Cmn = 0xB,
    /// Bitwise OR.
    Orr = 0xC,
    /// Move.
    Mov = 0xD,
    /// Bit clear (AND NOT).
    Bic = 0xE,
    /// Move NOT.
    Mvn = 0xF,
}

impl DpOp {
    /// Decodes the 4-bit opcode field.
    pub fn from_bits(bits: u32) -> DpOp {
        use DpOp::*;
        [
            And, Eor, Sub, Rsb, Add, Adc, Sbc, Rsc, Tst, Teq, Cmp, Cmn, Orr, Mov, Bic, Mvn,
        ][(bits & 0xF) as usize]
    }

    /// Whether the op is a comparison (writes flags only, no `Rd`).
    pub fn is_compare(self) -> bool {
        matches!(self, DpOp::Tst | DpOp::Teq | DpOp::Cmp | DpOp::Cmn)
    }

    /// Whether the op uses `Rn` (MOV and MVN do not).
    pub fn uses_rn(self) -> bool {
        !matches!(self, DpOp::Mov | DpOp::Mvn)
    }
}

/// Barrel-shifter operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ShiftKind {
    /// Logical shift left.
    Lsl = 0,
    /// Logical shift right.
    Lsr = 1,
    /// Arithmetic shift right.
    Asr = 2,
    /// Rotate right.
    Ror = 3,
}

impl ShiftKind {
    /// Decodes the 2-bit shift-type field.
    pub fn from_bits(bits: u32) -> ShiftKind {
        [ShiftKind::Lsl, ShiftKind::Lsr, ShiftKind::Asr, ShiftKind::Ror][(bits & 0x3) as usize]
    }
}

/// The flexible second operand of a data-processing instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op2 {
    /// Rotated 8-bit immediate: value = `imm8.rotate_right(2 * rot4)`.
    Imm {
        /// 8-bit base immediate.
        imm8: u8,
        /// 4-bit rotation (applied as `rotate_right(2 * rot4)`).
        rot4: u8,
    },
    /// Register shifted by an immediate amount.
    RegShiftImm {
        /// Source register.
        rm: Reg,
        /// Shift kind.
        kind: ShiftKind,
        /// Shift amount (0–31; 0 with LSR/ASR means 32 architecturally,
        /// which this simulator does not use).
        amount: u8,
    },
    /// Register shifted by a register amount.
    RegShiftReg {
        /// Source register.
        rm: Reg,
        /// Shift kind.
        kind: ShiftKind,
        /// Register holding the shift amount.
        rs: Reg,
    },
}

impl Op2 {
    /// The immediate's architectural value.
    pub fn imm_value(imm8: u8, rot4: u8) -> u32 {
        (imm8 as u32).rotate_right(2 * rot4 as u32)
    }

    /// Attempts to express `value` as a rotated 8-bit immediate.
    pub fn encode_imm(value: u32) -> Option<Op2> {
        for rot4 in 0..16u8 {
            let rotated = value.rotate_left(2 * rot4 as u32);
            if rotated <= 0xFF {
                return Some(Op2::Imm {
                    imm8: rotated as u8,
                    rot4,
                });
            }
        }
        None
    }

    /// A plain (unshifted) register operand.
    pub fn reg(rm: Reg) -> Op2 {
        Op2::RegShiftImm {
            rm,
            kind: ShiftKind::Lsl,
            amount: 0,
        }
    }

    /// The register read by this operand, if any (ignoring the shift
    /// amount register).
    pub fn rm(self) -> Option<Reg> {
        match self {
            Op2::Imm { .. } => None,
            Op2::RegShiftImm { rm, .. } | Op2::RegShiftReg { rm, .. } => Some(rm),
        }
    }
}

/// Memory access width for single loads/stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSize {
    /// 32-bit word (`LDR`/`STR`).
    Word,
    /// 8-bit unsigned byte (`LDRB`/`STRB`).
    Byte,
    /// 16-bit unsigned halfword (`LDRH`/`STRH`).
    Half,
    /// 8-bit sign-extended byte (`LDRSB`).
    SignedByte,
    /// 16-bit sign-extended halfword (`LDRSH`).
    SignedHalf,
}

impl MemSize {
    /// Access width in bytes.
    pub fn bytes(self) -> u32 {
        match self {
            MemSize::Word => 4,
            MemSize::Byte | MemSize::SignedByte => 1,
            MemSize::Half | MemSize::SignedHalf => 2,
        }
    }
}

/// Addressing offset for single loads/stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemOffset {
    /// Immediate offset (12-bit for word/byte, 8-bit for halfword forms).
    Imm(u16),
    /// Register offset, optionally shifted (shift only valid for
    /// word/byte forms).
    Reg {
        /// Offset register.
        rm: Reg,
        /// Shift applied to `rm`.
        kind: ShiftKind,
        /// Immediate shift amount.
        amount: u8,
    },
}

/// Load/store-multiple addressing modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AddrMode4 {
    /// Increment after (`LDMIA`/`STMIA`) — the default, used by `POP`.
    Ia,
    /// Increment before.
    Ib,
    /// Decrement after.
    Da,
    /// Decrement before — used by `PUSH` (`STMDB`).
    Db,
}

impl AddrMode4 {
    /// (pre-indexed?, upward?) flag pair as encoded in bits P and U.
    pub fn pu(self) -> (bool, bool) {
        match self {
            AddrMode4::Ia => (false, true),
            AddrMode4::Ib => (true, true),
            AddrMode4::Da => (false, false),
            AddrMode4::Db => (true, false),
        }
    }

    /// Decodes the P/U bit pair.
    pub fn from_pu(p: bool, u: bool) -> AddrMode4 {
        match (p, u) {
            (false, true) => AddrMode4::Ia,
            (true, true) => AddrMode4::Ib,
            (false, false) => AddrMode4::Da,
            (true, false) => AddrMode4::Db,
        }
    }
}

/// VFP data-processing operations (subset used by CF-Bench kernels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VfpOp {
    /// Floating-point add.
    Add,
    /// Floating-point subtract.
    Sub,
    /// Floating-point multiply.
    Mul,
    /// Floating-point divide.
    Div,
    /// Copy.
    Mov,
    /// Compare (sets FPSCR flags which `Vmrs` transfers).
    Cmp,
}

/// Floating-point precision selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VfpPrec {
    /// Single precision (`Sx` registers).
    F32,
    /// Double precision (`Dx` registers).
    F64,
}

/// A decoded instruction.
///
/// This enum mirrors the architectural instruction classes NDroid's
/// instruction tracer distinguishes in Table V of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// Data-processing (`ADD`, `MOV`, `CMP`, …).
    Dp {
        /// Condition code.
        cond: Cond,
        /// Opcode.
        op: DpOp,
        /// Set flags?
        s: bool,
        /// Destination register (ignored for compares).
        rd: Reg,
        /// First operand register (ignored for MOV/MVN).
        rn: Reg,
        /// Flexible second operand.
        op2: Op2,
    },
    /// Multiply / multiply-accumulate.
    Mul {
        /// Condition code.
        cond: Cond,
        /// Set flags?
        s: bool,
        /// Destination.
        rd: Reg,
        /// First factor.
        rm: Reg,
        /// Second factor.
        rs: Reg,
        /// Accumulator (for `MLA`).
        acc: Option<Reg>,
    },
    /// Single register load/store.
    Mem {
        /// Condition code.
        cond: Cond,
        /// Load (`true`) or store (`false`).
        load: bool,
        /// Access width / signedness.
        size: MemSize,
        /// Data register.
        rd: Reg,
        /// Base register.
        rn: Reg,
        /// Offset.
        offset: MemOffset,
        /// Pre-indexed addressing?
        pre: bool,
        /// Offset added (`true`) or subtracted.
        up: bool,
        /// Write the updated address back to `rn`?
        writeback: bool,
    },
    /// Load/store multiple (`LDM`/`STM`, including `PUSH`/`POP`).
    MemMulti {
        /// Condition code.
        cond: Cond,
        /// Load (`true`) or store (`false`).
        load: bool,
        /// Base register.
        rn: Reg,
        /// Addressing mode.
        mode: AddrMode4,
        /// Write the final address back to `rn`?
        writeback: bool,
        /// Registers to transfer.
        regs: RegList,
    },
    /// PC-relative branch (`B`/`BL`).
    Branch {
        /// Condition code.
        cond: Cond,
        /// Set LR?
        link: bool,
        /// Signed word offset from `PC + 8` (ARM) or `PC + 4` (Thumb),
        /// already scaled to bytes.
        offset: i32,
    },
    /// Branch (and optionally link) to a register (`BX`/`BLX`).
    BranchExchange {
        /// Condition code.
        cond: Cond,
        /// Set LR?
        link: bool,
        /// Target register.
        rm: Reg,
    },
    /// Supervisor call (software interrupt).
    Svc {
        /// Condition code.
        cond: Cond,
        /// 24-bit comment field (the syscall selector by convention).
        imm: u32,
    },
    /// VFP register-to-register data processing.
    Vfp {
        /// Condition code.
        cond: Cond,
        /// Operation.
        op: VfpOp,
        /// Precision.
        prec: VfpPrec,
        /// Destination FP register index.
        fd: u8,
        /// First source FP register index.
        fn_: u8,
        /// Second source FP register index.
        fm: u8,
    },
    /// VFP load/store (`VLDR`/`VSTR`).
    VfpMem {
        /// Condition code.
        cond: Cond,
        /// Load (`true`) or store.
        load: bool,
        /// Precision.
        prec: VfpPrec,
        /// FP register index.
        fd: u8,
        /// Base core register.
        rn: Reg,
        /// Unsigned byte offset (must be a multiple of 4).
        offset: u16,
        /// Offset added (`true`) or subtracted.
        up: bool,
    },
    /// `VMRS APSR_nzcv, FPSCR` — transfer FP compare flags to CPSR.
    VfpMrs {
        /// Condition code.
        cond: Cond,
    },
}

impl Instr {
    /// The condition code guarding this instruction.
    pub fn cond(&self) -> Cond {
        match *self {
            Instr::Dp { cond, .. }
            | Instr::Mul { cond, .. }
            | Instr::Mem { cond, .. }
            | Instr::MemMulti { cond, .. }
            | Instr::Branch { cond, .. }
            | Instr::BranchExchange { cond, .. }
            | Instr::Svc { cond, .. }
            | Instr::Vfp { cond, .. }
            | Instr::VfpMem { cond, .. }
            | Instr::VfpMrs { cond } => cond,
        }
    }

    /// Whether this instruction can redirect control flow.
    pub fn is_branch(&self) -> bool {
        match self {
            Instr::Branch { .. } | Instr::BranchExchange { .. } => true,
            Instr::Dp { rd, op, .. } => *rd == Reg::PC && !op.is_compare(),
            Instr::Mem { load: true, rd, .. } => *rd == Reg::PC,
            Instr::MemMulti { load: true, regs, .. } => regs.contains(Reg::PC),
            _ => false,
        }
    }

    /// Whether this instruction writes memory (`STR*`, `STM`/`PUSH`,
    /// `VSTR`) — true even for an empty-list `STM`.
    pub fn is_store(&self) -> bool {
        matches!(
            self,
            Instr::Mem { load: false, .. }
                | Instr::MemMulti { load: false, .. }
                | Instr::VfpMem { load: false, .. }
        )
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Dp {
                cond, op, s, rd, rn, op2,
            } => {
                let name = format!("{op:?}").to_lowercase();
                let sfx = if *s && !op.is_compare() { "s" } else { "" };
                write!(f, "{name}{cond}{sfx} ")?;
                if op.is_compare() {
                    write!(f, "{rn}, ")?;
                } else if op.uses_rn() {
                    write!(f, "{rd}, {rn}, ")?;
                } else {
                    write!(f, "{rd}, ")?;
                }
                match op2 {
                    Op2::Imm { imm8, rot4 } => {
                        write!(f, "#{:#x}", Op2::imm_value(*imm8, *rot4))
                    }
                    Op2::RegShiftImm { rm, kind, amount } => {
                        if *amount == 0 && *kind == ShiftKind::Lsl {
                            write!(f, "{rm}")
                        } else {
                            write!(f, "{rm}, {kind:?} #{amount}")
                        }
                    }
                    Op2::RegShiftReg { rm, kind, rs } => write!(f, "{rm}, {kind:?} {rs}"),
                }
            }
            Instr::Mul {
                cond, s, rd, rm, rs, acc,
            } => {
                let sfx = if *s { "s" } else { "" };
                match acc {
                    Some(ra) => write!(f, "mla{cond}{sfx} {rd}, {rm}, {rs}, {ra}"),
                    None => write!(f, "mul{cond}{sfx} {rd}, {rm}, {rs}"),
                }
            }
            Instr::Mem {
                cond, load, size, rd, rn, offset, pre, up, writeback,
            } => {
                let op = if *load { "ldr" } else { "str" };
                let sz = match size {
                    MemSize::Word => "",
                    MemSize::Byte => "b",
                    MemSize::Half => "h",
                    MemSize::SignedByte => "sb",
                    MemSize::SignedHalf => "sh",
                };
                let sign = if *up { "" } else { "-" };
                write!(f, "{op}{cond}{sz} {rd}, [{rn}")?;
                let off = match offset {
                    MemOffset::Imm(i) => format!("#{sign}{i}"),
                    MemOffset::Reg { rm, kind, amount } => {
                        if *amount == 0 {
                            format!("{sign}{rm}")
                        } else {
                            format!("{sign}{rm}, {kind:?} #{amount}")
                        }
                    }
                };
                if *pre {
                    write!(f, ", {off}]{}", if *writeback { "!" } else { "" })
                } else {
                    write!(f, "], {off}")
                }
            }
            Instr::MemMulti {
                cond, load, rn, mode, writeback, regs,
            } => {
                let op = if *load { "ldm" } else { "stm" };
                let m = format!("{mode:?}").to_lowercase();
                let wb = if *writeback { "!" } else { "" };
                write!(f, "{op}{m}{cond} {rn}{wb}, {regs}")
            }
            Instr::Branch { cond, link, offset } => {
                write!(f, "b{}{cond} .{offset:+}", if *link { "l" } else { "" })
            }
            Instr::BranchExchange { cond, link, rm } => {
                write!(f, "b{}x{cond} {rm}", if *link { "l" } else { "" })
            }
            Instr::Svc { cond, imm } => write!(f, "svc{cond} #{imm:#x}"),
            Instr::Vfp {
                cond: _, op, prec, fd, fn_, fm,
            } => {
                let p = if *prec == VfpPrec::F32 { "s" } else { "d" };
                let name = format!("{op:?}").to_lowercase();
                write!(f, "v{name}.{} {p}{fd}, {p}{fn_}, {p}{fm}", if *prec == VfpPrec::F32 { "f32" } else { "f64" }, )
            }
            Instr::VfpMem {
                cond, load, prec, fd, rn, offset, up,
            } => {
                let op = if *load { "vldr" } else { "vstr" };
                let p = if *prec == VfpPrec::F32 { "s" } else { "d" };
                let sign = if *up { "" } else { "-" };
                write!(f, "{op}{cond} {p}{fd}, [{rn}, #{sign}{offset}]")
            }
            Instr::VfpMrs { cond } => write!(f, "vmrs{cond} APSR_nzcv, fpscr"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op2_imm_encode_roundtrip() {
        for value in [0u32, 1, 0xFF, 0x100, 0xFF00, 0xFF000000, 0xF000000F, 0x3FC] {
            let op2 = Op2::encode_imm(value).expect("encodable");
            match op2 {
                Op2::Imm { imm8, rot4 } => assert_eq!(Op2::imm_value(imm8, rot4), value),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn op2_imm_rejects_unencodable() {
        assert!(Op2::encode_imm(0x101).is_none());
        assert!(Op2::encode_imm(0xFFFF).is_none());
        assert!(Op2::encode_imm(0x1FE00001).is_none());
    }

    #[test]
    fn dpop_properties() {
        assert!(DpOp::Cmp.is_compare());
        assert!(!DpOp::Add.is_compare());
        assert!(!DpOp::Mov.uses_rn());
        assert!(DpOp::Add.uses_rn());
        for bits in 0..16 {
            assert_eq!(DpOp::from_bits(bits) as u32, bits);
        }
    }

    #[test]
    fn addr_mode4_pu_roundtrip() {
        for m in [AddrMode4::Ia, AddrMode4::Ib, AddrMode4::Da, AddrMode4::Db] {
            let (p, u) = m.pu();
            assert_eq!(AddrMode4::from_pu(p, u), m);
        }
    }

    #[test]
    fn branch_detection() {
        let b = Instr::Branch {
            cond: Cond::Al,
            link: false,
            offset: 8,
        };
        assert!(b.is_branch());
        let mov_pc = Instr::Dp {
            cond: Cond::Al,
            op: DpOp::Mov,
            s: false,
            rd: Reg::PC,
            rn: Reg::R0,
            op2: Op2::reg(Reg::LR),
        };
        assert!(mov_pc.is_branch());
        let pop_pc = Instr::MemMulti {
            cond: Cond::Al,
            load: true,
            rn: Reg::SP,
            mode: AddrMode4::Ia,
            writeback: true,
            regs: RegList::of(&[Reg::R4, Reg::PC]),
        };
        assert!(pop_pc.is_branch());
        let add = Instr::Dp {
            cond: Cond::Al,
            op: DpOp::Add,
            s: false,
            rd: Reg::R0,
            rn: Reg::R1,
            op2: Op2::reg(Reg::R2),
        };
        assert!(!add.is_branch());
    }

    #[test]
    fn display_smoke() {
        let i = Instr::Dp {
            cond: Cond::Al,
            op: DpOp::Add,
            s: false,
            rd: Reg::R0,
            rn: Reg::R1,
            op2: Op2::encode_imm(4).unwrap(),
        };
        assert_eq!(i.to_string(), "add r0, r1, #0x4");
        let l = Instr::Mem {
            cond: Cond::Al,
            load: true,
            size: MemSize::Word,
            rd: Reg::R0,
            rn: Reg::SP,
            offset: MemOffset::Imm(8),
            pre: true,
            up: true,
            writeback: false,
        };
        assert_eq!(l.to_string(), "ldr r0, [sp, #8]");
    }
}
