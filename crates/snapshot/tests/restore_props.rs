//! Lockstep-equivalence properties of snapshot save/restore: a machine
//! saved at an arbitrary point and resurrected into a *fresh* machine must
//! be architecturally indistinguishable from one that never stopped — on
//! structured programs with live interrupts and watchdogs, across reflash,
//! and regardless of whether either side runs through the predecode cache.

use avr_core::encode::encode_to_bytes;
use avr_core::{Insn, Reg};
use avr_sim::timer::{TCCR0B_ADDR, TCNT0_ADDR, TIMER0_OVF_VECTOR, TOV0};
use avr_sim::{Fault, Machine};
use mavr_snapshot::{decode_machine, encode_machine};
use proptest::collection::vec as pvec;
use proptest::prelude::*;

/// Word address the structured programs run from, clear of the vector table.
const PROG_WORD: u32 = 64;

fn arch(m: &Machine) -> (u32, u8, u16, u64, Option<Fault>, u64, u64) {
    (
        m.pc(),
        m.sreg(),
        m.sp(),
        m.cycles(),
        m.fault(),
        m.insns_retired,
        m.interrupts_taken,
    )
}

/// Drive both machines one instruction at a time and assert identical
/// architectural state after every instruction; full-state equality
/// (SRAM, flash, every peripheral) is asserted once at the end.
fn lockstep(a: &mut Machine, b: &mut Machine, max_steps: usize) {
    for step in 0..max_steps {
        let ea = a.run(1);
        let eb = b.run(1);
        assert_eq!(ea, eb, "run exit diverged at step {step}");
        assert_eq!(
            arch(a),
            arch(b),
            "architectural state diverged at step {step}"
        );
        if a.fault().is_some() {
            break;
        }
    }
    assert_eq!(
        a.capture_state(),
        b.capture_state(),
        "full state (SRAM/flash/peripherals) diverged"
    );
}

fn insn_strategy() -> impl Strategy<Value = Insn> {
    prop_oneof![
        (any::<u8>()).prop_map(|k| Insn::Ldi { d: Reg::R24, k }),
        (any::<u8>()).prop_map(|k| Insn::Ldi { d: Reg::R25, k }),
        Just(Insn::Add {
            d: Reg::R24,
            r: Reg::R25
        }),
        Just(Insn::Push { r: Reg::R24 }),
        Just(Insn::Pop { d: Reg::R25 }),
        Just(Insn::Inc { d: Reg::R24 }),
        Just(Insn::Nop),
        Just(Insn::Wdr),
        Just(Insn::Bset { s: 7 }), // sei
        Just(Insn::Bclr { s: 7 }), // cli
        Just(Insn::Cpse {
            d: Reg::R24,
            r: Reg::R25
        }),
        Just(Insn::Sbrs { r: Reg::R24, b: 0 }),
        Just(Insn::Rjmp { k: 1 }),
        Just(Insn::Call { k: PROG_WORD }),
        Just(Insn::Ret),
        // Write SRAM and retune the timer mid-run.
        Just(Insn::Sts {
            k: 0x0400,
            r: Reg::R24
        }),
        Just(Insn::Sts {
            k: TCCR0B_ADDR,
            r: Reg::R24
        }),
        Just(Insn::Sts {
            k: TCNT0_ADDR,
            r: Reg::R25
        }),
    ]
}

/// An IRQ-and-watchdog-laden machine running `bytes` at [`PROG_WORD`].
fn live_machine(bytes: &[u8], prescale: u8, wd_timeout: u64, predecode: bool) -> Machine {
    let mut m = Machine::new_atmega2560();
    m.set_predecode(predecode);
    m.load_flash(
        TIMER0_OVF_VECTOR * 4,
        &encode_to_bytes(&[Insn::Reti]).unwrap(),
    );
    m.load_flash(PROG_WORD * 2, bytes);
    m.set_pc_bytes(PROG_WORD * 2);
    m.set_sreg(1 << 7); // I
    m.timer0.tccr_b = prescale;
    m.timer0.timsk = TOV0;
    m.watchdog.enable(wd_timeout, 0);
    m
}

proptest! {
    /// The headline property: run to an arbitrary split point, serialize,
    /// deserialize into a *fresh* machine (with its own independently
    /// chosen predecode setting), and the resumed machine stays lockstep
    /// with one that never stopped — through interrupt delivery and
    /// watchdog expiry.
    #[test]
    fn save_restore_resume_is_lockstep_identical(
        prog in pvec(insn_strategy(), 1..48),
        prescale in 1u8..=3,
        wd_timeout in 200u64..4000,
        split in 0usize..200,
        pd_uninterrupted in any::<bool>(),
        pd_resumed in any::<bool>(),
    ) {
        let bytes = encode_to_bytes(&prog).unwrap();
        let mut uninterrupted = live_machine(&bytes, prescale, wd_timeout, pd_uninterrupted);
        let mut original = live_machine(&bytes, prescale, wd_timeout, true);
        for _ in 0..split {
            uninterrupted.run(1);
            original.run(1);
        }
        // Serialize through the wire format, not just the in-memory state.
        let blob = encode_machine(&original.capture_state());
        let state = decode_machine(&blob).unwrap();
        let mut resumed = Machine::new_atmega2560();
        resumed.set_predecode(pd_resumed);
        resumed.restore_state(&state).unwrap();
        prop_assert_eq!(arch(&resumed), arch(&uninterrupted));
        lockstep(&mut resumed, &mut uninterrupted, 300);
    }

    /// Reflash coherence: snapshot taken *after* an erase + reflash + reset
    /// (the MAVR recovery path) restores the new program, not the old one,
    /// and resumes lockstep-identically.
    #[test]
    fn snapshot_across_reflash_resumes_identically(
        prog_a in pvec(insn_strategy(), 1..32),
        prog_b in pvec(insn_strategy(), 1..32),
        split in 0usize..100,
    ) {
        let bytes_a = encode_to_bytes(&prog_a).unwrap();
        let bytes_b = encode_to_bytes(&prog_b).unwrap();
        let mut m = live_machine(&bytes_a, 2, 1_000_000, true);
        for _ in 0..split {
            m.run(1);
        }
        m.erase_flash();
        m.load_flash(PROG_WORD * 2, &bytes_b);
        m.reset();
        m.set_pc_bytes(PROG_WORD * 2);
        m.run(20);
        let state = decode_machine(&encode_machine(&m.capture_state())).unwrap();
        let mut resumed = Machine::new_atmega2560();
        resumed.restore_state(&state).unwrap();
        lockstep(&mut resumed, &mut m, 200);
    }
}
