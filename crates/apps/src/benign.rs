//! Benign apps: heavy JNI users that leak nothing — false-positive
//! checks for the detection experiments.

use crate::builder::{App, AppBuilder};
use ndroid_arm::reg::RegList;
use ndroid_arm::Reg;
use ndroid_dvm::bytecode::{BinOp, DexInsn};
use ndroid_dvm::{InvokeKind, MethodDef, MethodKind};
use ndroid_jni::dvm_addr;
use ndroid_libc::{libc_addr, libm_addr};

/// A game-engine-style app: native physics over untainted data, sends
/// only a score. No sensitive source is ever touched.
pub fn physics_game() -> App {
    let mut b = AppBuilder::new(
        "physics-game",
        "benign: native arithmetic + network score upload (no sensitive source)",
    );
    let c = b.class("Lcom/game/Physics;");

    // int stepWorld(int seed): xorshift a few times in native code.
    let entry = b.asm.label();
    b.asm.bind(entry).unwrap();
    b.asm.push(RegList::of(&[Reg::R4, Reg::LR]));
    b.asm.mov(Reg::R4, Reg::R0);
    for _ in 0..4 {
        b.asm.lsl_imm(Reg::R1, Reg::R4, 13);
        b.asm.eor(Reg::R4, Reg::R4, Reg::R1);
        b.asm.lsr_imm(Reg::R1, Reg::R4, 17);
        b.asm.eor(Reg::R4, Reg::R4, Reg::R1);
    }
    b.asm.mov(Reg::R0, Reg::R4);
    b.asm.pop(RegList::of(&[Reg::R4, Reg::PC]));
    let step = b.native_method(c, "stepWorld", "II", true, entry);

    let value_of = b
        .program
        .find_method_by_name("Ljava/lang/String;", "valueOf")
        .unwrap();
    let send = b
        .program
        .find_method_by_name("Ljava/net/Socket;", "send")
        .unwrap();
    let dest = b.string_const("scores.game.com");
    b.method(
        c,
        MethodDef::new(
            "main",
            "V",
            MethodKind::Bytecode(vec![
                DexInsn::Const { dst: 0, value: 42 },
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: step,
                    args: vec![0],
                },
                DexInsn::MoveResult { dst: 0 },
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: value_of,
                    args: vec![0],
                },
                DexInsn::MoveResult { dst: 0 },
                DexInsn::ConstString { dst: 1, index: dest },
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: send,
                    args: vec![1, 0],
                },
                DexInsn::ReturnVoid,
            ]),
        )
        .with_registers(2),
    );
    b.finish("Lcom/game/Physics;", "main").unwrap()
}

/// An audio app: touches a sensitive source (the IMEI, for licensing),
/// crunches it natively, but only *logs* locally — never reaches a
/// sink that exfiltrates.
pub fn audio_license_check() -> App {
    let mut b = AppBuilder::new(
        "audio-license",
        "benign: tainted data enters native code but reaches no sink",
    );
    let c = b.class("Lcom/audio/License;");

    // int checksum(String imei): byte sum via strlen+loop (tainted in,
    // tainted out — but never sent anywhere).
    let entry = b.asm.label();
    b.asm.bind(entry).unwrap();
    b.asm.push(RegList::of(&[Reg::R4, Reg::LR]));
    b.asm.mov_imm(Reg::R1, 0).unwrap();
    b.asm.call_abs(dvm_addr("GetStringUTFChars"));
    b.asm.mov(Reg::R4, Reg::R0);
    b.asm.call_abs(libc_addr("strlen"));
    b.asm.pop(RegList::of(&[Reg::R4, Reg::PC]));
    let checksum = b.native_method(c, "checksum", "IL", true, entry);

    let imei = b
        .program
        .find_method_by_name("Landroid/telephony/TelephonyManager;", "getDeviceId")
        .unwrap();
    let value_of = b
        .program
        .find_method_by_name("Ljava/lang/String;", "valueOf")
        .unwrap();
    let log = b
        .program
        .find_method_by_name("Landroid/util/Log;", "d")
        .unwrap();
    let tag = b.string_const("License");
    b.method(
        c,
        MethodDef::new(
            "main",
            "V",
            MethodKind::Bytecode(vec![
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: imei,
                    args: vec![],
                },
                DexInsn::MoveResult { dst: 0 },
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: checksum,
                    args: vec![0],
                },
                DexInsn::MoveResult { dst: 0 },
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: value_of,
                    args: vec![0],
                },
                DexInsn::MoveResult { dst: 0 },
                DexInsn::ConstString { dst: 1, index: tag },
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: log,
                    args: vec![1, 0],
                },
                DexInsn::ReturnVoid,
            ]),
        )
        .with_registers(2),
    );
    b.finish("Lcom/audio/License;", "main").unwrap()
}

/// A scientific app: heavy libm usage in native code with clean data,
/// writes results to its own file.
pub fn dsp_filter() -> App {
    let mut b = AppBuilder::new(
        "dsp-filter",
        "benign: native libm math + clean file write",
    );
    let c = b.class("Lcom/dsp/Filter;");
    let path = b.data_cstr("/data/dsp/output.txt");
    let mode = b.data_cstr("w");
    let fmt = b.data_cstr("result=%d");

    // void compute(): sinf/sqrtf over constants, fprintf the result.
    let entry = b.asm.label();
    b.asm.bind(entry).unwrap();
    b.asm.push(RegList::of(&[Reg::R4, Reg::R5, Reg::LR]));
    b.asm.ldr_const(Reg::R0, 2.0f32.to_bits());
    b.asm.call_abs(libm_addr("sqrtf"));
    b.asm.call_abs(libm_addr("sinf"));
    b.asm.mov(Reg::R4, Reg::R0); // float bits as "result"
    b.asm.ldr_const(Reg::R0, path);
    b.asm.ldr_const(Reg::R1, mode);
    b.asm.call_abs(libc_addr("fopen"));
    b.asm.mov(Reg::R5, Reg::R0);
    b.asm.ldr_const(Reg::R1, fmt);
    b.asm.mov(Reg::R2, Reg::R4);
    b.asm.call_abs(libc_addr("fprintf"));
    b.asm.mov(Reg::R0, Reg::R5);
    b.asm.call_abs(libc_addr("fclose"));
    b.asm.pop(RegList::of(&[Reg::R4, Reg::R5, Reg::PC]));
    let compute = b.native_method(c, "compute", "V", true, entry);

    b.method(
        c,
        MethodDef::new(
            "main",
            "V",
            MethodKind::Bytecode(vec![
                DexInsn::Const { dst: 0, value: 1 },
                DexInsn::BinOpLit {
                    op: BinOp::Add,
                    dst: 0,
                    a: 0,
                    lit: 1,
                },
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: compute,
                    args: vec![],
                },
                DexInsn::ReturnVoid,
            ]),
        )
        .with_registers(1),
    );
    b.finish("Lcom/dsp/Filter;", "main").unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndroid_core::Mode;

    #[test]
    fn physics_game_never_flags() {
        for mode in [Mode::TaintDroid, Mode::NDroid] {
            let sys = physics_game().run(mode).unwrap();
            assert!(sys.leaks().is_empty(), "{mode}: no false positive");
            assert_eq!(sys.all_sink_events().len(), 1, "score was sent");
        }
    }

    #[test]
    fn tainted_but_sinkless_app_never_flags() {
        let sys = audio_license_check().run(Mode::NDroid).unwrap();
        assert!(sys.leaks().is_empty(), "no sink reached, no leak");
        assert!(sys.all_sink_events().is_empty(), "Log.d is not a sink");
        // The native side *did* see tainted data.
        let stats = sys.report().stats.unwrap();
        assert!(stats.source_policies >= 1);
    }

    #[test]
    fn dsp_filter_clean_file_write_not_a_leak() {
        let sys = dsp_filter().run(Mode::NDroid).unwrap();
        assert!(sys.leaks().is_empty());
        assert_eq!(sys.all_sink_events().len(), 1, "fprintf recorded");
        assert!(sys.kernel.fs.contains_key("/data/dsp/output.txt"));
    }
}
