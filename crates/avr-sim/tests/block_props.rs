//! Differential properties of the block-fused execution engine: a machine
//! dispatching fused blocks (with compiled micro-op streams, folded flag
//! computation and terminator tail-stepping) must be architecturally
//! indistinguishable from one stepping the predecode cache per instruction
//! *and* from one decoding flash on every fetch — a three-way oracle, run
//! through interrupts, a live watchdog, timer rewrites, heartbeat I/O,
//! mid-run reflashes and single-page writes across the predecode cache's
//! page boundaries.

use avr_core::encode::{encode, encode_to_bytes};
use avr_core::{Insn, PtrReg, Reg, YZ};
use avr_sim::timer::{TCCR0B_ADDR, TCNT0_ADDR, TOV0};
use avr_sim::{Fault, Machine, PORTB_ADDR};
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

/// The three engines under test, built by the same setup closure:
/// block-fused, predecoded-stepping, and uncached-decoding.
fn triple(setup: impl Fn(&mut Machine)) -> [Machine; 3] {
    let mut fused = Machine::new_atmega2560();
    let mut predecoded = Machine::new_atmega2560();
    predecoded.set_block_fusion(false);
    let mut uncached = Machine::new_atmega2560();
    uncached.set_predecode(false);
    setup(&mut fused);
    setup(&mut predecoded);
    setup(&mut uncached);
    [fused, predecoded, uncached]
}

/// Drive all three machines through the same batch schedule and assert
/// identical architectural state at every batch boundary, then full state
/// equality (data space, peripherals, timer residuals) at the end. Batches
/// larger than a block's cycle cost are what let fused dispatch engage;
/// 1-cycle batches squeeze every block out through the horizon check, so a
/// mixed schedule exercises both dispatch regimes and the transitions.
fn lockstep_batched(ms: &mut [Machine; 3], batches: &[u64]) {
    for (i, &budget) in batches.iter().enumerate() {
        let exits: Vec<_> = ms.iter_mut().map(|m| m.run(budget)).collect();
        assert_eq!(
            exits[0], exits[1],
            "fused/predecoded exit diverged at batch {i}"
        );
        assert_eq!(
            exits[1], exits[2],
            "predecoded/uncached exit diverged at batch {i}"
        );
        assert_eq!(
            arch(&ms[0]),
            arch(&ms[1]),
            "fused/predecoded state diverged at batch {i}"
        );
        assert_eq!(
            arch(&ms[1]),
            arch(&ms[2]),
            "predecoded/uncached state diverged at batch {i}"
        );
        if ms[0].fault().is_some() {
            break;
        }
    }
    let s0 = ms[0].capture_state();
    assert_eq!(s0, ms[1].capture_state(), "fused/predecoded full state");
    assert_eq!(s0, ms[2].capture_state(), "predecoded/uncached full state");
}

/// Instruction soup rich in fusable bodies: straight-line ALU runs, stack
/// traffic, pointer loads/stores, timer reads and writes, heartbeat port
/// I/O, and the control flow that terminates blocks.
fn insn_strategy() -> impl Strategy<Value = Insn> {
    prop_oneof![
        (any::<u8>()).prop_map(|k| Insn::Ldi { d: Reg::R24, k }),
        (any::<u8>()).prop_map(|k| Insn::Ldi { d: Reg::R25, k }),
        Just(Insn::Add {
            d: Reg::R24,
            r: Reg::R25
        }),
        Just(Insn::Adc {
            d: Reg::R24,
            r: Reg::R25
        }),
        Just(Insn::Sub {
            d: Reg::R24,
            r: Reg::R25
        }),
        Just(Insn::Cp {
            d: Reg::R24,
            r: Reg::R25
        }),
        (any::<u8>()).prop_map(|k| Insn::Subi { d: Reg::R24, k }),
        Just(Insn::Mul {
            d: Reg::R24,
            r: Reg::R25
        }),
        Just(Insn::Inc { d: Reg::R24 }),
        Just(Insn::Lsr { d: Reg::R24 }),
        Just(Insn::Push { r: Reg::R24 }),
        Just(Insn::Pop { d: Reg::R25 }),
        Just(Insn::Nop),
        Just(Insn::Wdr),
        Just(Insn::Bset { s: 7 }), // sei
        Just(Insn::Bclr { s: 7 }), // cli
        // X -> scratch SRAM, then indirect traffic through it.
        Just(Insn::Ldi { d: Reg::R26, k: 0 }),
        Just(Insn::Ldi { d: Reg::R27, k: 3 }),
        Just(Insn::St {
            ptr: PtrReg::XPostInc,
            r: Reg::R24
        }),
        Just(Insn::Ld {
            d: Reg::R25,
            ptr: PtrReg::XPostInc
        }),
        Just(Insn::Ldd {
            d: Reg::R24,
            idx: YZ::Z,
            q: 2
        }),
        Just(Insn::Adiw { d: Reg::R26, k: 1 }),
        // Timer reads (sync-offset micro-ops) and rewrites underneath the
        // fused engine's overflow fit check.
        Just(Insn::Lds {
            d: Reg::R24,
            k: TCNT0_ADDR
        }),
        Just(Insn::Sts {
            k: TCCR0B_ADDR,
            r: Reg::R24
        }),
        Just(Insn::Sts {
            k: TCNT0_ADDR,
            r: Reg::R25
        }),
        // Heartbeat port traffic: cycle-stamped observer micro-ops.
        Just(Insn::Out {
            a: 0x05,
            r: Reg::R24
        }), // PORTB
        Just(Insn::Sbi { a: 0x05, b: 5 }),
        Just(Insn::Cbi { a: 0x05, b: 5 }),
        Just(Insn::In {
            d: Reg::R25,
            a: 0x05
        }),
        // Block terminators.
        Just(Insn::Cpse {
            d: Reg::R24,
            r: Reg::R25
        }),
        Just(Insn::Sbrs { r: Reg::R24, b: 0 }),
        Just(Insn::Brbs { s: 1, k: 2 }),
        Just(Insn::Rjmp { k: 1 }),
        Just(Insn::Call { k: PROG_WORD }),
        Just(Insn::Ret),
    ]
}

/// A batch schedule mixing 1-cycle crawls with block-sized strides.
fn batch_strategy() -> impl Strategy<Value = Vec<u64>> {
    pvec(prop_oneof![Just(1u64), 2u64..40, 40u64..400], 1..24)
}

/// Words per flash page: the unit the predecode cache fills on a first
/// fetch.
const PAGE_WORDS: u32 = 128;
/// The two-word instruction whose second word is the first word of the
/// next page (page 0 is P, page 1 is P+1 in the property below).
const STRADDLE_WORD: u32 = PAGE_WORDS - 1;
/// The skip at the end of page 1 whose two-word victim opens page 2.
const SKIP_WORD: u32 = 2 * PAGE_WORDS - 1;
/// Words of page 1 between the straddler's second word and the skip.
const MIDDLE: std::ops::Range<u32> = PAGE_WORDS + 1..SKIP_WORD;
/// Data addresses a straddling `lds`/`sts` reads or writes: scratch SRAM,
/// the timer (a block-ending write, a sync-offset read) and the heartbeat
/// port.
const WIDE_DATA: [u16; 5] = [0x0300, 0x0340, TCNT0_ADDR, TCCR0B_ADDR, PORTB_ADDR];

/// A two-word instruction of family `kind` whose second word is chosen by
/// `v`: a `call`/`jmp` into the middle of page 1, or an `lds`/`sts` of one
/// of [`WIDE_DATA`]. Two instructions of one family differ only in their
/// second word.
fn wide(kind: u8, v: u16) -> Insn {
    let k = MIDDLE.start + u32::from(v) % MIDDLE.len() as u32;
    let addr = WIDE_DATA[usize::from(v) % WIDE_DATA.len()];
    match kind % 4 {
        0 => Insn::Call { k },
        1 => Insn::Jmp { k },
        2 => Insn::Lds {
            d: Reg::R25,
            k: addr,
        },
        _ => Insn::Sts {
            k: addr,
            r: Reg::R24,
        },
    }
}

/// `cpse`, `sbrc` or `sbrs`, each on the registers the soup computes with.
fn skip(kind: u8, bit: u8) -> Insn {
    match kind % 3 {
        0 => Insn::Cpse {
            d: Reg::R24,
            r: Reg::R25,
        },
        1 => Insn::Sbrc {
            r: Reg::R24,
            b: bit,
        },
        _ => Insn::Sbrs {
            r: Reg::R24,
            b: bit,
        },
    }
}

/// Encode as many of `prog` as fit in `words` words, then pad with `nop`s
/// to exactly `words`.
fn fit(prog: &[Insn], words: u32) -> Vec<u8> {
    let mut out = Vec::new();
    for insn in prog {
        let enc = encode(insn).unwrap();
        if out.len() / 2 + enc.len() > words as usize {
            break;
        }
        out.extend(enc.iter().flat_map(|w| w.to_le_bytes()));
    }
    out.resize(words as usize * 2, 0); // 0x0000 is `nop`
    out
}

proptest! {
    /// Raw random words: most decode to garbage and fault quickly — the
    /// fused engine must fault at the identical instruction and cycle.
    #[test]
    fn raw_words_execute_identically(
        words in pvec(any::<u16>(), 1..256),
        batches in batch_strategy(),
    ) {
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let mut ms = triple(|m| m.load_flash(0, &bytes));
        lockstep_batched(&mut ms, &batches);
    }

    /// Structured programs with the Timer0 overflow interrupt live, a
    /// `reti` handler at the vector, and an armed watchdog: block dispatch
    /// must respect every event horizon — IRQ delivery points, watchdog
    /// deadlines, timer overflow — exactly as per-instruction stepping
    /// does, even while the program rewrites the timer underneath it.
    #[test]
    fn programs_with_irqs_and_watchdog_execute_identically(
        prog in pvec(insn_strategy(), 1..48),
        prescale in 1u8..=3,
        wd_timeout in 200u64..4000,
        batches in batch_strategy(),
    ) {
        let bytes = encode_to_bytes(&prog).unwrap();
        let mut ms = triple(|m| {
            m.load_flash(avr_sim::timer::TIMER0_OVF_VECTOR * 4,
                         &encode_to_bytes(&[Insn::Reti]).unwrap());
            m.load_flash(PROG_WORD * 2, &bytes);
            m.set_pc_bytes(PROG_WORD * 2);
            m.set_sreg(1 << 7); // I
            m.timer0.tccr_b = prescale;
            m.timer0.timsk = TOV0;
            m.watchdog.enable(wd_timeout, 0);
        });
        lockstep_batched(&mut ms, &batches);
    }

    /// One big fused batch against the same fused engine crawling 1 cycle
    /// at a time: the horizon check squeezes every block out of the crawl,
    /// so this pins the fused/stepped boundary inside a single engine.
    #[test]
    fn batched_run_matches_crawled_run(
        prog in pvec(insn_strategy(), 1..48),
        budget in 1u64..20_000,
    ) {
        let bytes = encode_to_bytes(&prog).unwrap();
        let setup = |m: &mut Machine| {
            m.load_flash(PROG_WORD * 2, &bytes);
            m.set_pc_bytes(PROG_WORD * 2);
            m.watchdog.enable(5_000, 0);
        };
        let mut batched = Machine::new_atmega2560();
        let mut crawled = Machine::new_atmega2560();
        setup(&mut batched);
        setup(&mut crawled);
        let a = batched.run(budget);
        let mut b = crawled.run(1);
        while crawled.cycles() < budget && crawled.fault().is_none() {
            b = crawled.run(1);
        }
        prop_assert_eq!(a, b);
        prop_assert_eq!(batched.capture_state(), crawled.capture_state());
    }

    /// Reflash coherence: after blocks have been discovered and dispatched,
    /// erase the chip and load a different program — stale fused blocks
    /// must not survive the MAVR-style recovery reflash.
    #[test]
    fn reflash_invalidates_stale_blocks(
        prog_a in pvec(insn_strategy(), 1..32),
        prog_b in pvec(insn_strategy(), 1..32),
        batches in batch_strategy(),
    ) {
        let bytes_a = encode_to_bytes(&prog_a).unwrap();
        let bytes_b = encode_to_bytes(&prog_b).unwrap();
        let mut ms = triple(|m| {
            m.load_flash(PROG_WORD * 2, &bytes_a);
            m.set_pc_bytes(PROG_WORD * 2);
        });
        lockstep_batched(&mut ms, &batches);
        // MAVR-style recovery: wipe, flash the re-randomized image, reset.
        for m in ms.iter_mut() {
            m.erase_flash();
            m.load_flash(PROG_WORD * 2, &bytes_b);
            m.reset();
            m.set_pc_bytes(PROG_WORD * 2);
        }
        lockstep_batched(&mut ms, &batches);
    }

    /// In-place patching (no erase): overwrite part of the live program —
    /// per-page invalidation must drop exactly the overlapping blocks.
    #[test]
    fn patch_invalidates_overlapping_blocks(
        prog_a in pvec(insn_strategy(), 8..32),
        prog_b in pvec(insn_strategy(), 1..8),
        patch_at in 0u32..16,
        batches in batch_strategy(),
    ) {
        let bytes_a = encode_to_bytes(&prog_a).unwrap();
        let bytes_b = encode_to_bytes(&prog_b).unwrap();
        let mut ms = triple(|m| {
            m.load_flash(PROG_WORD * 2, &bytes_a);
            m.set_pc_bytes(PROG_WORD * 2);
        });
        lockstep_batched(&mut ms, &batches);
        for m in ms.iter_mut() {
            m.load_flash((PROG_WORD + patch_at) * 2, &bytes_b);
            m.reset();
            m.set_pc_bytes(PROG_WORD * 2);
        }
        lockstep_batched(&mut ms, &batches);
    }

    /// Page-boundary coherence of the fill-on-first-fetch predecode cache.
    /// A two-word instruction straddles pages 0 and 1 (its second word opens
    /// page 1), and a skip ends page 1 with a two-word victim on page 2,
    /// which no fetch has filled when the stepping engine first skips it.
    /// Part-way through the flight, one `load_flash` rewrites page 1 alone,
    /// changing the straddler's second word and some of the code after it:
    /// the entry on page 0 must be decoded afresh and every overlapping
    /// block dropped, in lockstep with the uncached reference.
    #[test]
    fn single_page_writes_across_page_boundaries_execute_identically(
        prefix in pvec(insn_strategy(), 0..40),
        straddle in (any::<u8>(), any::<u16>(), any::<u16>()),
        middle in pvec(insn_strategy(), 0..48),
        skip_at_end in (any::<u8>(), 0u8..8, any::<u8>(), any::<u16>()),
        suffix in pvec(insn_strategy(), 0..16),
        patch in (pvec(insn_strategy(), 0..8), 0u32..100),
        prescale in 1u8..=3,
        before in batch_strategy(),
        after in batch_strategy(),
    ) {
        let (kind, v_old, v_new) = straddle;
        let (old, new) = (wide(kind, v_old), wide(kind, v_new));
        let (old_words, new_words) = (encode(&old).unwrap(), encode(&new).unwrap());
        prop_assert_eq!(old_words[0], new_words[0], "only the second word changes");
        let (skip_kind, bit, victim_kind, victim_v) = skip_at_end;

        // Page 0 from PROG_WORD: the prefix, nop-padded up to the
        // straddler's first word. Page 1: its second word, the middle, the
        // skip. Page 2: the skipped two-word victim, the suffix, and a jump
        // back to the top.
        let mut image = fit(&prefix, STRADDLE_WORD - PROG_WORD);
        image.extend(old_words.iter().flat_map(|w| w.to_le_bytes()));
        image.extend(fit(&middle, MIDDLE.len() as u32));
        image.extend(encode_to_bytes(&[skip(skip_kind, bit), wide(victim_kind, victim_v)]).unwrap());
        let mut tail = suffix.clone();
        tail.push(Insn::Jmp { k: PROG_WORD });
        image.extend(encode_to_bytes(&tail).unwrap());

        let mut ms = triple(|m| {
            m.load_flash(avr_sim::timer::TIMER0_OVF_VECTOR * 4,
                         &encode_to_bytes(&[Insn::Reti]).unwrap());
            m.load_flash(PROG_WORD * 2, &image);
            m.set_pc_bytes(PROG_WORD * 2);
            m.set_sreg(1 << 7); // I
            m.timer0.tccr_b = prescale;
            m.timer0.timsk = TOV0;
        });
        prop_assert_eq!(
            ms[0].flash()[(STRADDLE_WORD * 2) as usize..][..4].to_vec(),
            old_words.iter().flat_map(|w| w.to_le_bytes()).collect::<Vec<u8>>()
        );
        lockstep_batched(&mut ms, &before);

        // Rewrite page 1 alone: the straddler's new second word, and the
        // patch program somewhere in the middle.
        let (patch_prog, patch_at) = patch;
        let page1 = (PAGE_WORDS * 2) as usize;
        let mut fresh = ms[0].flash()[page1..2 * page1].to_vec();
        fresh[..2].copy_from_slice(&new_words[1].to_le_bytes());
        let patch_bytes = fit(&patch_prog, 8);
        let at = (1 + patch_at as usize % (MIDDLE.len() - 8)) * 2;
        fresh[at..at + patch_bytes.len()].copy_from_slice(&patch_bytes);
        for m in ms.iter_mut() {
            m.load_flash(page1 as u32, &fresh);
        }
        prop_assert_eq!(
            ms[0].flash()[(STRADDLE_WORD * 2) as usize..][..4].to_vec(),
            new_words.iter().flat_map(|w| w.to_le_bytes()).collect::<Vec<u8>>()
        );
        lockstep_batched(&mut ms, &after);
    }
}

/// The cycle profiler needs per-instruction attribution, so enabling it
/// must force the engine off the fused path entirely — and the folded
/// profile it emits must be byte-identical whether fusion is configured on
/// or off.
#[test]
fn cycle_profiler_output_is_identical_under_fusion() {
    use avr_core::device::ATMEGA2560;
    use avr_core::image::{FirmwareImage, Symbol, SymbolKind};

    // main: ldi/ldi, call helper, loop; helper: add, inc, ret.
    let main = [
        Insn::Ldi { d: Reg::R24, k: 1 },
        Insn::Ldi { d: Reg::R25, k: 2 },
        Insn::Call { k: PROG_WORD + 8 },
        Insn::Rjmp { k: -5 },
    ];
    let helper = [
        Insn::Add {
            d: Reg::R24,
            r: Reg::R25,
        },
        Insn::Inc { d: Reg::R24 },
        Insn::Ret,
    ];
    let mut image = FirmwareImage::new(ATMEGA2560);
    image.symbols = vec![
        Symbol {
            name: "main".into(),
            addr: PROG_WORD * 2,
            size: 10,
            kind: SymbolKind::Function,
        },
        Symbol {
            name: "helper".into(),
            addr: (PROG_WORD + 8) * 2,
            size: 6,
            kind: SymbolKind::Function,
        },
    ];

    let run_one = |fusion: bool| {
        let mut m = Machine::new_atmega2560();
        m.set_block_fusion(fusion);
        m.load_flash(PROG_WORD * 2, &encode_to_bytes(&main).unwrap());
        m.load_flash((PROG_WORD + 8) * 2, &encode_to_bytes(&helper).unwrap());
        m.set_pc_bytes(PROG_WORD * 2);
        m.enable_cycle_profile(&image);
        m.run(10_000);
        let folded = m.cycle_profile().unwrap().folded();
        let hits = m.block_stats().hits;
        (folded, m.capture_state(), hits)
    };
    let (folded_on, state_on, hits_on) = run_one(true);
    let (folded_off, state_off, hits_off) = run_one(false);
    assert_eq!(
        folded_on, folded_off,
        "folded profile must not depend on fusion"
    );
    assert_eq!(state_on, state_off);
    assert_eq!(hits_on, 0, "profiling forces the per-instruction path");
    assert_eq!(hits_off, 0);
    assert!(!folded_on.is_empty() && folded_on.contains("helper"));
}

/// Fusion is an engine optimization, not an observable: a machine with
/// fusion disabled mid-fleet must produce the same counters.
#[test]
fn block_stats_are_observable_but_inert() {
    let prog = [
        Insn::Ldi { d: Reg::R24, k: 1 },
        Insn::Ldi { d: Reg::R25, k: 2 },
        Insn::Add {
            d: Reg::R24,
            r: Reg::R25,
        },
        Insn::Rjmp { k: -4 },
    ];
    let bytes = encode_to_bytes(&prog).unwrap();
    let mut fused = Machine::new_atmega2560();
    let mut plain = Machine::new_atmega2560();
    plain.set_block_fusion(false);
    for m in [&mut fused, &mut plain] {
        m.load_flash(0, &bytes);
        m.run(1000);
    }
    assert_eq!(fused.capture_state(), plain.capture_state());
    let fs = fused.block_stats();
    assert!(fs.hits > 0, "fused engine dispatched blocks");
    assert_eq!(
        plain.block_stats().hits,
        0,
        "disabled engine dispatched none"
    );
}

/// A block whose last cycle raises the Timer0 overflow: stepping vectors
/// before the block's terminator, so the fused engine must not run the
/// terminator first. Three `nop`s from TCNT0 = 253 at prescale 1 end
/// exactly on the overflow.
#[test]
fn an_overflow_raised_by_a_blocks_last_cycle_is_taken_before_its_terminator() {
    let prog = [Insn::Nop, Insn::Nop, Insn::Nop, Insn::Rjmp { k: -4 }];
    let mut ms = triple(|m| {
        m.load_flash(
            avr_sim::timer::TIMER0_OVF_VECTOR * 4,
            &encode_to_bytes(&[Insn::Reti]).unwrap(),
        );
        m.load_flash(PROG_WORD * 2, &encode_to_bytes(&prog).unwrap());
        m.set_pc_bytes(PROG_WORD * 2);
        m.set_sreg(1 << 7); // I
        m.timer0.tccr_b = 1;
        m.timer0.timsk = TOV0;
        m.timer0.tcnt = 253;
    });
    // The 4-cycle batch ends right after the overflow: stepping stops in
    // the handler's return, a terminator run first stops past the loop's
    // `rjmp`. The longer batches run the loop through more overflows.
    lockstep_batched(&mut ms, &[4, 100, 600]);
    assert!(ms[0].interrupts_taken > 0);
    assert!(ms[0].block_stats().hits > 0, "the loop body fuses");
}

/// `lpm r30, Z+` and `lpm r31, Z+` load into the pointer they increment
/// (undefined on the part): every engine must keep what stepping keeps.
#[test]
fn a_post_increment_load_into_its_own_pointer_matches_stepping() {
    for d in [Reg::R30, Reg::R31] {
        let prog = [
            Insn::Ldi { d: Reg::R30, k: 0 },
            Insn::Ldi { d: Reg::R31, k: 0 },
            Insn::Lpm { d, post_inc: true },
            Insn::Mov {
                d: Reg::R17,
                r: Reg::R30,
            },
            Insn::Mov {
                d: Reg::R18,
                r: Reg::R31,
            },
            Insn::Break,
        ];
        let mut ms = triple(|m| m.load_flash(0, &encode_to_bytes(&prog).unwrap()));
        lockstep_batched(&mut ms, &[100]);
        assert!(ms[0].block_stats().hits > 0, "the body fuses");
    }
}
