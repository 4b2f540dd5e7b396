//! Guest-chosen array lengths must never reach the host allocator
//! unchecked: a `jsize` of -1 read as unsigned asks for 16 GiB, and a
//! failed host allocation aborts the whole process (no `catch_unwind`
//! can contain it). Each hostile length — through JNI `NewIntArray` and
//! through bytecode `new-array` — must end its farm job `Failed`, never
//! `Crashed`, and must leave the farm running the jobs around it.

use ndroid_apps::builder::{App, AppBuilder};
use ndroid_apps::farm::app_job;
use ndroid_arm::reg::RegList;
use ndroid_arm::Reg;
use ndroid_core::batch::{run_batch, BatchConfig, JobOutcome};
use ndroid_core::SystemConfig;
use ndroid_dvm::bytecode::DexInsn;
use ndroid_dvm::{ArrayKind, MethodDef, MethodKind};
use ndroid_jni::dvm_addr;

/// A pure-native app calling `NewIntArray(-1)`.
fn jni_new_int_array_minus_one() -> App {
    let mut b = AppBuilder::new("jni-negative-array", "NewIntArray(-1)");
    let main = b.asm.label();
    b.asm.bind(main).unwrap();
    b.asm.push(RegList::of(&[Reg::R4, Reg::LR]));
    b.asm.ldr_const(Reg::R0, u32::MAX);
    b.asm.call_abs(dvm_addr("NewIntArray"));
    b.asm.pop(RegList::of(&[Reg::R4, Reg::PC]));
    b.finish_pure_native(main).unwrap()
}

/// A bytecode app running `new-array` on a register holding `len`.
fn bytecode_new_array(len: u32) -> App {
    let mut b = AppBuilder::new("bytecode-array", "new-array of a hostile length");
    let c = b.class("Lapp/Arrays;");
    b.method(
        c,
        MethodDef::new(
            "main",
            "I",
            MethodKind::Bytecode(vec![
                DexInsn::Const { dst: 0, value: len },
                DexInsn::NewArray {
                    dst: 1,
                    size: 0,
                    kind: ArrayKind::Primitive,
                },
                DexInsn::Return { src: 0 },
            ]),
        )
        .with_registers(2),
    );
    b.finish("Lapp/Arrays;", "main").unwrap()
}

fn bytecode_new_array_minus_one() -> App {
    bytecode_new_array(u32::MAX)
}

fn bytecode_new_array_i32_max() -> App {
    bytecode_new_array(0x7fff_ffff)
}

fn bytecode_new_array_small() -> App {
    bytecode_new_array(400)
}

#[test]
fn hostile_array_lengths_fail_their_job_and_nothing_else() {
    let config = SystemConfig::ndroid().quiet(true);
    let jobs = vec![
        app_job(
            "jni NewIntArray(-1)",
            config.clone(),
            jni_new_int_array_minus_one,
        ),
        app_job("new-array -1", config.clone(), bytecode_new_array_minus_one),
        app_job(
            "new-array 0x7fffffff",
            config.clone(),
            bytecode_new_array_i32_max,
        ),
        app_job("new-array 400", config, bytecode_new_array_small),
    ];
    let report = run_batch(jobs, BatchConfig::new(2));
    let expected = [
        "negative array size -1",
        "negative array size -1",
        "array of 2147483647 elements exceeds",
    ];
    for (result, needle) in report.results.iter().zip(expected) {
        match &result.outcome {
            JobOutcome::Failed(msg) => {
                assert!(msg.contains(needle), "{}: {msg}", result.label);
            }
            other => panic!("{}: expected Failed, got {other:?}", result.label),
        }
    }
    assert!(
        matches!(report.results[3].outcome, JobOutcome::Completed(_)),
        "an ordinary length still allocates: {:?}",
        report.results[3].outcome
    );
}
