//! Experiment: the §VII taint-protection extension.
//!
//! "An app without root privileges can manipulate the taints in DVM. …
//! NDroid can be easily extended to protect taints and prevent
//! evasions through stack manipulation or trusted function
//! modification, because it monitors the memory, hooks major file and
//! memory functions, and inspects every native instruction."
//!
//! This binary runs hostile native libraries that write into the DVM
//! stack (taint-tag smashing), the DVM heap, and libdvm text, and
//! prints what the protector records — plus a legitimate app as the
//! false-positive control.

use ndroid_apps::AppBuilder;
use ndroid_arm::reg::RegList;
use ndroid_arm::Reg;
use ndroid_core::Mode;
use ndroid_dvm::bytecode::DexInsn;
use ndroid_dvm::{InvokeKind, MethodDef, MethodKind};

fn attack(target: u32, what: &str) {
    let mut b = AppBuilder::new("attacker", "hostile VM-region store");
    let c = b.class("Lapp/A;");
    let entry = b.asm.label();
    b.asm.bind(entry).unwrap();
    b.asm.push(RegList::of(&[Reg::LR]));
    b.asm.ldr_const(Reg::R0, target);
    b.asm.mov_imm(Reg::R1, 0).unwrap();
    b.asm.str(Reg::R1, Reg::R0, 0);
    b.asm.pop(RegList::of(&[Reg::PC]));
    let native = b.native_method(c, "smash", "V", true, entry);
    b.method(
        c,
        MethodDef::new(
            "main",
            "V",
            MethodKind::Bytecode(vec![
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: native,
                    args: vec![],
                },
                DexInsn::ReturnVoid,
            ]),
        )
        .with_registers(1),
    );
    let app = b.finish("Lapp/A;", "main").unwrap();
    let mut sys = app.launch(Mode::NDroid);
    sys.run_java("Lapp/A;", "main", &[]).unwrap();
    let violations = sys.report().violations;
    println!("attack: {what}");
    for v in violations.iter() {
        println!(
            "  VIOLATION: store @ pc {:#x} into {:#x} [{}]",
            v.pc, v.addr, v.region
        );
    }
    if violations.is_empty() {
        println!("  (none recorded)");
    }
    println!();
}

fn main() {
    println!("== §VII extension — taint protection ==\n");
    attack(
        ndroid_dvm::stack::STACK_BASE + 0x24,
        "overwrite a taint tag in the interpreted stack (taint scrubbing)",
    );
    attack(
        ndroid_dvm::heap::HEAP_BASE + 0x100,
        "corrupt a DVM heap object (field-taint scrubbing)",
    );
    attack(
        ndroid_emu::layout::LIBDVM_BASE + 0x40,
        "patch libdvm text (trusted-function modification)",
    );

    // Control: a heavy but legitimate JNI user.
    let app = ndroid_apps::poc_case2::poc_case2();
    let entry = app.entry.clone();
    let mut sys = app.launch(Mode::NDroid);
    sys.run_java(&entry.0, &entry.1, &[]).unwrap();
    let violations = sys.report().violations;
    println!(
        "control (PoC case 2, legitimate JNI): {} violations (expected 0)",
        violations.len()
    );
}
