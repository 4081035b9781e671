//! Oracle for [`PatchPlan`]: the planned randomizer must agree with the
//! one-pass streaming randomizer it replaced — the same image, permutation
//! and patch report, the same error, and the same RNG state afterwards —
//! on the paper-scale apps, a relaxed build, and images mutated to reach
//! every error path.

use avr_core::decode::decode_at;
use avr_core::encode::encode;
use avr_core::image::{FirmwareImage, Symbol, SymbolKind};
use avr_core::Insn;
use mavr::randomize::{PatchReport, ICALL_REACH_BYTES};
use mavr::{PatchPlan, RandomizeError, RandomizeOptions, RandomizedImage};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;
use synth_firmware::{apps, build, BuildOptions};

/// The one-pass streaming randomizer: decode the text, binary-search
/// every target and patch as it goes.
fn streaming_randomize(
    image: &FirmwareImage,
    rng: &mut impl Rng,
    opts: &RandomizeOptions,
) -> Result<RandomizedImage, RandomizeError> {
    let movable: Vec<&Symbol> = image
        .symbols
        .iter()
        .filter(|s| s.kind == SymbolKind::Function)
        .collect();
    if movable.is_empty() {
        return Ok(RandomizedImage {
            image: image.clone(),
            permutation: Vec::new(),
            report: PatchReport::default(),
        });
    }

    // The movable region must be one contiguous span with nothing fixed
    // inside it.
    let region_start = movable[0].addr;
    let region_end = movable.last().unwrap().end();
    let mut cursor = region_start;
    for s in &movable {
        if s.addr != cursor {
            return Err(RandomizeError::NonContiguousText { addr: cursor });
        }
        cursor = s.end();
    }
    for s in &image.symbols {
        if s.kind != SymbolKind::Function && s.addr >= region_start && s.addr < region_end {
            return Err(RandomizeError::NonContiguousText { addr: s.addr });
        }
    }

    // Which movable functions are targets of data-section pointers?
    let mut constrained = vec![false; movable.len()];
    if opts.constrain_icall_targets {
        for &loc in &image.fn_ptr_locs {
            let word = image.read_word(loc);
            let byte = u32::from(word) * 2;
            if let Some(rank) = rank_of(&movable, byte) {
                constrained[rank] = true;
            }
        }
    }

    // Draw the permutation: a uniform shuffle of placement order, then
    // repair icall-reach violations by swapping violators with
    // unconstrained blocks placed low.
    let n = movable.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    if opts.constrain_icall_targets {
        repair_constraints(&mut order, &movable, &constrained, region_start, rng)?;
    }

    // New address of each movable rank.
    let mut new_addr = vec![0u32; n];
    let mut cursor = region_start;
    for &rank in &order {
        new_addr[rank] = cursor;
        cursor += movable[rank].size;
    }
    debug_assert_eq!(cursor, region_end);

    // Relocate the blocks.
    let mut bytes = image.bytes.clone();
    for (rank, sym) in movable.iter().enumerate() {
        let src = sym.addr as usize..sym.end() as usize;
        let dst = new_addr[rank] as usize;
        bytes[dst..dst + sym.size as usize].copy_from_slice(&image.bytes[src]);
    }

    // Address translation for code targets.
    let map_addr = |old_byte: u32, at: u32| -> Result<u32, RandomizeError> {
        if let Some(rank) = rank_of(&movable, old_byte) {
            return Ok(new_addr[rank] + (old_byte - movable[rank].addr));
        }
        // Outside the movable region: fixed code (vector table) is fine.
        match image.symbol_containing(old_byte) {
            Some(_) => Ok(old_byte),
            None => Err(RandomizeError::UnmappableTarget {
                at,
                target: old_byte,
            }),
        }
    };

    // Streaming patch pass over the executable region: every absolute
    // call/jmp is retargeted; relative branches must stay inside their
    // (moved) block.
    let mut report = PatchReport::default();
    let mut off = 0u32;
    while off + 1 < image.text_end {
        let Some((insn, words)) = decode_at(&image.bytes, off as usize) else {
            break;
        };
        let new_off = map_addr(off, off).unwrap_or(off);
        match insn {
            Insn::Call { k } | Insn::Jmp { k } => {
                let old_target = k * 2;
                let new_target = map_addr(old_target, off)?;
                match insn {
                    Insn::Call { .. } => report.calls_patched += 1,
                    _ => {
                        report.jumps_patched += 1;
                        if let Some(rank) = rank_of(&movable, old_target) {
                            if old_target != movable[rank].addr {
                                report.trampolines_patched += 1;
                            }
                        }
                    }
                }
                let patched = match insn {
                    Insn::Call { .. } => Insn::Call { k: new_target / 2 },
                    _ => Insn::Jmp { k: new_target / 2 },
                };
                let ws = encode(&patched).expect("patched long branch re-encodes");
                let base = new_off as usize;
                bytes[base..base + 2].copy_from_slice(&ws[0].to_le_bytes());
                bytes[base + 2..base + 4].copy_from_slice(&ws[1].to_le_bytes());
            }
            Insn::Rcall { k } | Insn::Rjmp { k } => {
                // Target must stay inside the same function block.
                let target = off.wrapping_add(2).wrapping_add_signed(i32::from(k) * 2);
                let same_block = match (rank_of(&movable, off), rank_of(&movable, target)) {
                    (Some(a), Some(b)) => a == b,
                    // Fixed-region code may branch within itself.
                    (None, None) => true,
                    _ => false,
                };
                if !same_block && !opts.ignore_relaxed_branches {
                    return Err(RandomizeError::RelaxedBranch { at: off });
                }
            }
            _ => {}
        }
        off += words * 2;
    }

    // Patch data-section function pointers (16-bit word addresses).
    for &loc in &image.fn_ptr_locs {
        let word = image.read_word(loc);
        let old_byte = u32::from(word) * 2;
        if rank_of(&movable, old_byte).is_none() && image.symbol_containing(old_byte).is_none() {
            return Err(RandomizeError::BadFunctionPointer { loc });
        }
        let new_byte = map_addr(old_byte, loc)?;
        if new_byte >= ICALL_REACH_BYTES && opts.constrain_icall_targets {
            // Cannot happen when repair_constraints succeeded; a loud check
            // beats a silently truncated pointer.
            return Err(RandomizeError::ConstraintUnsatisfiable);
        }
        let new_word = (new_byte / 2) as u16;
        bytes[loc as usize..loc as usize + 2].copy_from_slice(&new_word.to_le_bytes());
        report.pointers_patched += 1;
    }

    // Rebuild the symbol table at the new addresses.
    let mut symbols: Vec<Symbol> = image
        .symbols
        .iter()
        .map(|s| {
            let mut s = s.clone();
            if s.kind == SymbolKind::Function {
                let rank = rank_of(&movable, s.addr).expect("movable symbol");
                s.addr = new_addr[rank];
            }
            s
        })
        .collect();
    symbols.sort_by_key(|s| s.addr);

    // permutation[i] = new rank of old rank i.
    let mut order_index = vec![0usize; n];
    for (pos, &rank) in order.iter().enumerate() {
        order_index[rank] = pos;
    }

    let out = FirmwareImage {
        device: image.device,
        bytes,
        symbols,
        text_end: image.text_end,
        fn_ptr_locs: image.fn_ptr_locs.clone(),
    };
    debug_assert!(out.validate().is_ok(), "{:?}", out.validate());
    Ok(RandomizedImage {
        image: out,
        permutation: order_index,
        report,
    })
}

/// Rank (index in address order) of the movable symbol containing
/// `byte_addr`, by binary search — the paper's §VI-B3 lookup.
fn rank_of(movable: &[&Symbol], byte_addr: u32) -> Option<usize> {
    let idx = movable.partition_point(|s| s.addr <= byte_addr);
    let rank = idx.checked_sub(1)?;
    movable[rank].contains(byte_addr).then_some(rank)
}

/// Move constrained blocks early enough in the placement order that they
/// stay within icall reach.
fn repair_constraints(
    order: &mut [usize],
    movable: &[&Symbol],
    constrained: &[bool],
    region_start: u32,
    rng: &mut impl Rng,
) -> Result<(), RandomizeError> {
    let limit = ICALL_REACH_BYTES;
    let total_constrained: u32 = constrained
        .iter()
        .zip(movable)
        .filter(|(c, _)| **c)
        .map(|(_, s)| s.size)
        .sum();
    if region_start + total_constrained > limit {
        return Err(RandomizeError::ConstraintUnsatisfiable);
    }
    // Iteratively swap violators with unconstrained blocks placed low.
    for _ in 0..order.len() * 4 {
        // Compute placement and find the first violator.
        let mut cursor = region_start;
        let mut violator_pos = None;
        let mut low_positions = Vec::new();
        for (pos, &rank) in order.iter().enumerate() {
            let end = cursor + movable[rank].size;
            if constrained[rank] && end > limit && violator_pos.is_none() {
                violator_pos = Some(pos);
            }
            if !constrained[rank] && end <= limit {
                low_positions.push(pos);
            }
            cursor = end;
        }
        let Some(vp) = violator_pos else {
            return Ok(());
        };
        if low_positions.is_empty() {
            return Err(RandomizeError::ConstraintUnsatisfiable);
        }
        let lp = low_positions[rng.random_range(0..low_positions.len())];
        order.swap(vp, lp);
    }
    Err(RandomizeError::ConstraintUnsatisfiable)
}

/// The images under test, built once: tiny, plane, copter and rover with
/// the MAVR toolchain, and tiny with the stock (relaxing) one.
fn images() -> &'static [FirmwareImage] {
    static IMAGES: OnceLock<Vec<FirmwareImage>> = OnceLock::new();
    IMAGES.get_or_init(|| {
        let mavr = BuildOptions::safe_mavr();
        let mut images: Vec<FirmwareImage> = [
            apps::tiny_test_app(),
            apps::synth_plane(),
            apps::synth_copter(),
            apps::synth_rover(),
        ]
        .iter()
        .map(|app| build(app, &mavr).unwrap().image)
        .collect();
        images.push(
            build(&apps::tiny_test_app(), &BuildOptions::safe_stock())
                .unwrap()
                .image,
        );
        images
    })
}

/// One plan per unmutated image, as the master keeps it.
fn plans() -> &'static [PatchPlan] {
    static PLANS: OnceLock<Vec<PatchPlan>> = OnceLock::new();
    PLANS.get_or_init(|| images().iter().map(PatchPlan::new).collect())
}

/// Mutate `image` in a way that keeps it structurally valid but can reach
/// an error path: an absolute branch to an arbitrary address, an arbitrary
/// word in the text, a retargeted pointer slot, or a function pinned in
/// place.
fn mutate(image: &mut FirmwareImage, (op, a, b): (u8, u32, u32)) {
    let text_words = (image.text_end / 2).max(1);
    let at = (a % text_words * 2) as usize;
    match op % 4 {
        0 => {
            let k = b & 0x1_ffff;
            let insn = if b >> 31 == 0 {
                Insn::Call { k }
            } else {
                Insn::Jmp { k }
            };
            if at + 4 <= image.text_end as usize {
                let ws = encode(&insn).unwrap();
                image.bytes[at..at + 2].copy_from_slice(&ws[0].to_le_bytes());
                image.bytes[at + 2..at + 4].copy_from_slice(&ws[1].to_le_bytes());
            }
        }
        1 => image.bytes[at..at + 2].copy_from_slice(&(b as u16).to_le_bytes()),
        2 => {
            if !image.fn_ptr_locs.is_empty() {
                let loc = image.fn_ptr_locs[a as usize % image.fn_ptr_locs.len()] as usize;
                image.bytes[loc..loc + 2].copy_from_slice(&(b as u16).to_le_bytes());
            }
        }
        _ => {
            let i = a as usize % image.symbols.len();
            image.symbols[i].kind = SymbolKind::Fixed;
        }
    }
}

/// A result compared field by field (`RandomizedImage` has no `PartialEq`).
type Summary = Result<(FirmwareImage, Vec<usize>, PatchReport), RandomizeError>;

fn summary(r: Result<RandomizedImage, RandomizeError>) -> Summary {
    r.map(|r| (r.image, r.permutation, r.report))
}

fn assert_agree(image: &FirmwareImage, plan: &PatchPlan, seed: u64, opts: &RandomizeOptions) {
    let mut planned_rng = StdRng::seed_from_u64(seed);
    let mut streaming_rng = StdRng::seed_from_u64(seed);
    let planned = summary(plan.apply(image, &mut planned_rng, opts));
    let streaming = summary(streaming_randomize(image, &mut streaming_rng, opts));
    assert_eq!(planned, streaming, "seed {seed:#x}, {opts:?}");
    assert_eq!(
        planned_rng, streaming_rng,
        "RNG state after, seed {seed:#x}"
    );
    // `randomize` is plan-then-apply.
    let mut rng = StdRng::seed_from_u64(seed);
    assert_eq!(summary(mavr::randomize(image, &mut rng, opts)), planned);
}

fn options(constrain: bool, ignore_relaxed: bool) -> RandomizeOptions {
    RandomizeOptions {
        constrain_icall_targets: constrain,
        ignore_relaxed_branches: ignore_relaxed,
    }
}

#[test]
fn the_relaxed_build_is_rejected_unless_ignored() {
    let (relaxed, plan) = (&images()[4], &plans()[4]);
    let err = plan
        .apply(
            relaxed,
            &mut StdRng::seed_from_u64(1),
            &options(true, false),
        )
        .unwrap_err();
    assert!(
        matches!(err, RandomizeError::RelaxedBranch { .. }),
        "{err:?}"
    );
    assert!(plan
        .apply(relaxed, &mut StdRng::seed_from_u64(1), &options(true, true))
        .is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Each app's cached plan, applied under an arbitrary seed and options,
    /// is the streaming randomizer.
    #[test]
    fn planned_randomize_is_the_streaming_randomize(
        which in 0usize..5,
        seed in any::<u64>(),
        constrain in any::<bool>(),
        ignore_relaxed in any::<bool>(),
    ) {
        let image = &images()[which];
        assert_agree(image, &plans()[which], seed, &options(constrain, ignore_relaxed));
    }

    /// The same on tiny images mutated towards every error path, with the
    /// plan built from the mutated image.
    #[test]
    fn planned_randomize_agrees_on_mutated_images(
        relaxed in any::<bool>(),
        ops in proptest::collection::vec((any::<u8>(), any::<u32>(), any::<u32>()), 1..4),
        seed in any::<u64>(),
        constrain in any::<bool>(),
        ignore_relaxed in any::<bool>(),
    ) {
        let mut image = images()[if relaxed { 4 } else { 0 }].clone();
        for &op in &ops {
            mutate(&mut image, op);
        }
        image.validate().unwrap();
        assert_agree(&image, &PatchPlan::new(&image), seed, &options(constrain, ignore_relaxed));
    }
}
