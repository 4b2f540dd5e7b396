//! The §VII taint-protection extension: "an app without root
//! privileges can manipulate the taints in DVM … NDroid can be easily
//! extended to protect taints and prevent evasions through stack
//! manipulation or trusted function modification, because it monitors
//! the memory, hooks major file and memory functions, and inspects
//! every native instruction."
//!
//! These tests drive a hostile native library that writes directly
//! into VM-private regions and assert the protector flags it.

use ndroid::apps::AppBuilder;
use ndroid::arm::reg::RegList;
use ndroid::arm::Reg;
use ndroid::core::{Mode, SystemConfig};
use ndroid::dvm::bytecode::DexInsn;
use ndroid::dvm::{InvokeKind, MethodDef, MethodKind};

fn attack_app(target: u32, name: &str) -> ndroid::apps::App {
    let mut b = AppBuilder::new(name, "hostile store into a VM-private region");
    let c = b.class("Lapp/Attack;");
    let entry = b.asm.label();
    b.asm.bind(entry).unwrap();
    b.asm.push(RegList::of(&[Reg::LR]));
    b.asm.ldr_const(Reg::R0, target);
    b.asm.mov_imm(Reg::R1, 0).unwrap(); // overwrite a taint tag with 0
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
    b.finish("Lapp/Attack;", "main").unwrap()
}

#[test]
fn stack_manipulation_is_flagged() {
    // A taint tag in the interpreted stack lives at 0x44bf....
    let target = ndroid::dvm::stack::STACK_BASE + 0x24;
    let mut sys = attack_app(target, "stack-smash").launch(Mode::NDroid);
    sys.run_java("Lapp/Attack;", "main", &[]).unwrap();
    let violations = sys.report().violations;
    assert_eq!(violations.len(), 1);
    assert_eq!(violations[0].region, "dvm-stack");
    assert_eq!(violations[0].addr, target);
}

#[test]
fn heap_manipulation_is_flagged() {
    let target = ndroid::dvm::heap::HEAP_BASE + 0x100;
    let mut sys = attack_app(target, "heap-smash").launch(Mode::NDroid);
    sys.run_java("Lapp/Attack;", "main", &[]).unwrap();
    let violations = sys.report().violations;
    assert_eq!(violations.len(), 1);
    assert_eq!(violations[0].region, "dvm-heap");
}

#[test]
fn trusted_function_modification_is_flagged() {
    // Overwriting libdvm text (trusted-function modification).
    let target = ndroid::emu::layout::LIBDVM_BASE + 0x40;
    let mut sys = attack_app(target, "libdvm-patch").launch(Mode::NDroid);
    sys.run_java("Lapp/Attack;", "main", &[]).unwrap();
    assert_eq!(sys.report().violations[0].region, "libdvm-text");
}

#[test]
fn normal_apps_trigger_no_violations() {
    let app = ndroid::apps::poc_case2::poc_case2();
    let entry = app.entry.clone();
    let mut sys = app.launch(Mode::NDroid);
    sys.run_java(&entry.0, &entry.1, &[]).unwrap();
    let violations = sys.report().violations;
    assert!(
        violations.is_empty(),
        "legitimate JNI use writes only its own memory: {violations:?}"
    );
}

#[test]
fn protection_can_be_disabled() {
    let target = ndroid::dvm::stack::STACK_BASE;
    let mut sys = attack_app(target, "stack-smash-off")
        .launch_with(SystemConfig::ndroid().protect_taints(false));
    sys.run_java("Lapp/Attack;", "main", &[]).unwrap();
    assert!(sys.report().violations.is_empty());
}
