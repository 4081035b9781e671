//! Property tests: encode ∘ decode = identity over the whole instruction set.

use avr_core::decode::decode;
use avr_core::encode::{encode, encode_to_bytes};
use avr_core::{Insn, PtrReg, Reg, YZ};
use proptest::prelude::*;

fn any_reg() -> impl Strategy<Value = Reg> {
    (0u8..=31).prop_map(Reg::new)
}

fn upper_reg() -> impl Strategy<Value = Reg> {
    (16u8..=31).prop_map(Reg::new)
}

fn narrow_reg() -> impl Strategy<Value = Reg> {
    (16u8..=23).prop_map(Reg::new)
}

fn even_reg() -> impl Strategy<Value = Reg> {
    (0u8..=15).prop_map(|n| Reg::new(n * 2))
}

fn adiw_reg() -> impl Strategy<Value = Reg> {
    prop_oneof![
        Just(Reg::R24),
        Just(Reg::R26),
        Just(Reg::R28),
        Just(Reg::R30)
    ]
}

fn ptr_mode() -> impl Strategy<Value = PtrReg> {
    prop_oneof![
        Just(PtrReg::X),
        Just(PtrReg::XPostInc),
        Just(PtrReg::XPreDec),
        Just(PtrReg::YPostInc),
        Just(PtrReg::YPreDec),
        Just(PtrReg::ZPostInc),
        Just(PtrReg::ZPreDec),
    ]
}

fn yz() -> impl Strategy<Value = YZ> {
    prop_oneof![Just(YZ::Y), Just(YZ::Z)]
}

fn any_insn() -> impl Strategy<Value = Insn> {
    let nullary = prop_oneof![
        Just(Insn::Nop),
        Just(Insn::Ret),
        Just(Insn::Reti),
        Just(Insn::Icall),
        Just(Insn::Eicall),
        Just(Insn::Ijmp),
        Just(Insn::Eijmp),
        Just(Insn::Sleep),
        Just(Insn::Break),
        Just(Insn::Wdr),
        Just(Insn::Spm),
        Just(Insn::SpmZPostInc),
        Just(Insn::Lpm0),
        Just(Insn::Elpm0),
    ];
    let two_reg = (any_reg(), any_reg()).prop_flat_map(|(d, r)| {
        prop_oneof![
            Just(Insn::Add { d, r }),
            Just(Insn::Adc { d, r }),
            Just(Insn::Sub { d, r }),
            Just(Insn::Sbc { d, r }),
            Just(Insn::And { d, r }),
            Just(Insn::Or { d, r }),
            Just(Insn::Eor { d, r }),
            Just(Insn::Cp { d, r }),
            Just(Insn::Cpc { d, r }),
            Just(Insn::Cpse { d, r }),
            Just(Insn::Mov { d, r }),
            Just(Insn::Mul { d, r }),
        ]
    });
    let imm = (upper_reg(), any::<u8>()).prop_flat_map(|(d, k)| {
        prop_oneof![
            Just(Insn::Ldi { d, k }),
            Just(Insn::Cpi { d, k }),
            Just(Insn::Subi { d, k }),
            Just(Insn::Sbci { d, k }),
            Just(Insn::Ori { d, k }),
            Just(Insn::Andi { d, k }),
        ]
    });
    let one_reg = any_reg().prop_flat_map(|d| {
        prop_oneof![
            Just(Insn::Com { d }),
            Just(Insn::Neg { d }),
            Just(Insn::Swap { d }),
            Just(Insn::Inc { d }),
            Just(Insn::Dec { d }),
            Just(Insn::Asr { d }),
            Just(Insn::Lsr { d }),
            Just(Insn::Ror { d }),
            Just(Insn::Push { r: d }),
            Just(Insn::Pop { d }),
        ]
    });
    let mem = prop_oneof![
        (any_reg(), ptr_mode()).prop_map(|(d, ptr)| Insn::Ld { d, ptr }),
        (any_reg(), ptr_mode()).prop_map(|(r, ptr)| Insn::St { ptr, r }),
        (any_reg(), yz(), 0u8..=63).prop_map(|(d, idx, q)| Insn::Ldd { d, idx, q }),
        (any_reg(), yz(), 0u8..=63).prop_map(|(r, idx, q)| Insn::Std { idx, q, r }),
        (any_reg(), any::<u16>()).prop_map(|(d, k)| Insn::Lds { d, k }),
        (any_reg(), any::<u16>()).prop_map(|(r, k)| Insn::Sts { k, r }),
        (any_reg(), any::<bool>()).prop_map(|(d, post_inc)| Insn::Lpm { d, post_inc }),
        (any_reg(), any::<bool>()).prop_map(|(d, post_inc)| Insn::Elpm { d, post_inc }),
        (any_reg(), 0u8..=63).prop_map(|(d, a)| Insn::In { d, a }),
        (any_reg(), 0u8..=63).prop_map(|(r, a)| Insn::Out { a, r }),
    ];
    let flow = prop_oneof![
        (0u32..0x40_0000).prop_map(|k| Insn::Jmp { k }),
        (0u32..0x40_0000).prop_map(|k| Insn::Call { k }),
        (-2048i16..=2047).prop_map(|k| Insn::Rjmp { k }),
        (-2048i16..=2047).prop_map(|k| Insn::Rcall { k }),
        (0u8..=7, -64i8..=63).prop_map(|(s, k)| Insn::Brbs { s, k }),
        (0u8..=7, -64i8..=63).prop_map(|(s, k)| Insn::Brbc { s, k }),
    ];
    let bits = prop_oneof![
        (0u8..=7).prop_map(|s| Insn::Bset { s }),
        (0u8..=7).prop_map(|s| Insn::Bclr { s }),
        (any_reg(), 0u8..=7).prop_map(|(d, b)| Insn::Bst { d, b }),
        (any_reg(), 0u8..=7).prop_map(|(d, b)| Insn::Bld { d, b }),
        (any_reg(), 0u8..=7).prop_map(|(r, b)| Insn::Sbrc { r, b }),
        (any_reg(), 0u8..=7).prop_map(|(r, b)| Insn::Sbrs { r, b }),
        (0u8..=31, 0u8..=7).prop_map(|(a, b)| Insn::Sbi { a, b }),
        (0u8..=31, 0u8..=7).prop_map(|(a, b)| Insn::Cbi { a, b }),
        (0u8..=31, 0u8..=7).prop_map(|(a, b)| Insn::Sbic { a, b }),
        (0u8..=31, 0u8..=7).prop_map(|(a, b)| Insn::Sbis { a, b }),
    ];
    let pairs = prop_oneof![
        (even_reg(), even_reg()).prop_map(|(d, r)| Insn::Movw { d, r }),
        (upper_reg(), upper_reg()).prop_map(|(d, r)| Insn::Muls { d, r }),
        (narrow_reg(), narrow_reg()).prop_map(|(d, r)| Insn::Mulsu { d, r }),
        (narrow_reg(), narrow_reg()).prop_map(|(d, r)| Insn::Fmul { d, r }),
        (narrow_reg(), narrow_reg()).prop_map(|(d, r)| Insn::Fmuls { d, r }),
        (narrow_reg(), narrow_reg()).prop_map(|(d, r)| Insn::Fmulsu { d, r }),
        (adiw_reg(), 0u8..=63).prop_map(|(d, k)| Insn::Adiw { d, k }),
        (adiw_reg(), 0u8..=63).prop_map(|(d, k)| Insn::Sbiw { d, k }),
    ];
    prop_oneof![nullary, two_reg, imm, one_reg, mem, flow, bits, pairs]
}

proptest! {
    #[test]
    fn encode_decode_round_trip(insn in any_insn()) {
        let words = encode(&insn).expect("valid operands must encode");
        let (decoded, width) = decode(&words);
        prop_assert_eq!(decoded, insn);
        prop_assert_eq!(width as usize, words.len());
        prop_assert_eq!(width, insn.words());
    }

    #[test]
    fn byte_stream_round_trip(insns in proptest::collection::vec(any_insn(), 1..40)) {
        let bytes = encode_to_bytes(&insns).unwrap();
        let mut off = 0usize;
        for insn in &insns {
            let (decoded, width) = avr_core::decode::decode_at(&bytes, off).unwrap();
            prop_assert_eq!(&decoded, insn);
            off += (width * 2) as usize;
        }
        prop_assert_eq!(off, bytes.len());
    }

    #[test]
    fn display_never_panics(insn in any_insn()) {
        let s = insn.to_string();
        prop_assert!(!s.is_empty());
        // brbs/brbc display as their condition aliases (breq, brne, ...);
        // ldd/std with q = 0 display as the plain ld/st forms.
        let aliased = matches!(
            insn,
            Insn::Brbs { .. }
                | Insn::Brbc { .. }
                | Insn::Ldd { q: 0, .. }
                | Insn::Std { q: 0, .. }
        );
        if !aliased {
            prop_assert!(s.starts_with(insn.mnemonic().split(' ').next().unwrap()));
        }
    }
}

/// Inputs proptest once shrank failures to, pinned as plain tests: the
/// vendored proptest shim never replays a regressions file. Both are
/// display aliases (`brbs 0` prints as `brcs`, `ldd r0, Y+0` as `ld`).
#[test]
fn pinned_regressions_round_trip() {
    for insn in [
        Insn::Brbs { s: 0, k: 0 },
        Insn::Ldd {
            d: Reg::new(0),
            idx: YZ::Y,
            q: 0,
        },
    ] {
        let words = encode(&insn).expect("valid operands must encode");
        let (decoded, width) = decode(&words);
        assert_eq!(decoded, insn);
        assert_eq!(width as usize, words.len());
        assert_eq!(width, insn.words());
        assert!(!insn.to_string().is_empty());
    }
}
