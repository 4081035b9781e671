//! The randomization engine and streaming patcher (§V-B2, §V-B3, §VI-B3).

use avr_core::decode::decode_at;
use avr_core::encode::encode;
use avr_core::image::{FirmwareImage, Symbol, SymbolKind};
use avr_core::Insn;
use rand::seq::SliceRandom;
use rand::Rng;

/// `icall`/`ijmp` and 16-bit function pointers reach only the low 128 KiB
/// of flash (a 16-bit word address). Functions referenced from
/// function-pointer tables must stay below this after shuffling — a
/// constraint the paper does not spell out but any ATmega2560
/// implementation must honor.
pub const ICALL_REACH_BYTES: u32 = 128 * 1024;

/// Options for the randomizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomizeOptions {
    /// Keep functions that are targets of data-section function pointers
    /// within `icall` reach (see [`ICALL_REACH_BYTES`]). Disabling this on
    /// a large image produces indirect calls that jump to the wrong place.
    pub constrain_icall_targets: bool,
    /// Continue when a relative branch escapes its function block instead
    /// of failing. The resulting image is **broken by construction** —
    /// this exists for the ablation that shows why the paper needs
    /// `--no-relax` (§VI-B1).
    pub ignore_relaxed_branches: bool,
}

impl Default for RandomizeOptions {
    fn default() -> Self {
        RandomizeOptions {
            constrain_icall_targets: true,
            ignore_relaxed_branches: false,
        }
    }
}

/// Errors from randomization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RandomizeError {
    /// The movable function region is not contiguous (unsupported layout).
    NonContiguousText {
        /// First address where a gap or interleaving was found.
        addr: u32,
    },
    /// An absolute call/jump targets an address outside every symbol.
    UnmappableTarget {
        /// Address of the instruction.
        at: u32,
        /// The unmappable target (byte address).
        target: u32,
    },
    /// A relative call/jump crosses function blocks — the image was built
    /// with linker relaxation, which randomization cannot survive. This is
    /// the paper's motivation for `--no-relax` (§VI-B1).
    RelaxedBranch {
        /// Address of the offending instruction.
        at: u32,
    },
    /// A function-pointer slot holds a word address outside every function.
    BadFunctionPointer {
        /// Flash byte offset of the slot.
        loc: u32,
    },
    /// The icall-reach constraint cannot be satisfied (too much constrained
    /// code).
    ConstraintUnsatisfiable,
}

impl std::fmt::Display for RandomizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RandomizeError::NonContiguousText { addr } => {
                write!(f, "movable text is not contiguous at {addr:#x}")
            }
            RandomizeError::UnmappableTarget { at, target } => {
                write!(f, "call/jmp at {at:#x} targets unmapped {target:#x}")
            }
            RandomizeError::RelaxedBranch { at } => write!(
                f,
                "relative branch at {at:#x} crosses function blocks (build with --no-relax)"
            ),
            RandomizeError::BadFunctionPointer { loc } => {
                write!(
                    f,
                    "function pointer at {loc:#x} points outside all functions"
                )
            }
            RandomizeError::ConstraintUnsatisfiable => {
                write!(f, "cannot keep all pointer-called functions in icall reach")
            }
        }
    }
}

impl std::error::Error for RandomizeError {}

/// Result of one randomization pass.
#[derive(Debug, Clone)]
pub struct RandomizedImage {
    /// The randomized, patched image (same size, same `text_end`, same
    /// symbol *names* at new addresses).
    pub image: FirmwareImage,
    /// `permutation[i] = j`: the movable function originally at rank `i`
    /// (address order) now sits at rank `j`.
    pub permutation: Vec<usize>,
    /// Patch statistics (what the paper's master processor does per boot).
    pub report: PatchReport,
}

/// Counters from the streaming patch pass (§V-B3, §VI-B3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PatchReport {
    /// Absolute `call` instructions retargeted.
    pub calls_patched: usize,
    /// Absolute `jmp` instructions retargeted (including the vector table
    /// and switch-statement trampolines).
    pub jumps_patched: usize,
    /// Of those, jumps whose target was *inside* a block (trampolines,
    /// resolved by binary search).
    pub trampolines_patched: usize,
    /// Function pointers rewritten in the data section.
    pub pointers_patched: usize,
}

/// Shuffle the function blocks of `image` and patch every reference: a
/// [`PatchPlan`] built for `image`, applied once.
pub fn randomize(
    image: &FirmwareImage,
    rng: &mut impl Rng,
    opts: &RandomizeOptions,
) -> Result<RandomizedImage, RandomizeError> {
    PatchPlan::new(image).apply(image, rng, opts)
}

/// A movable function block: its address and size in the original image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Block {
    addr: u32,
    size: u32,
}

impl Block {
    fn end(&self) -> u32 {
        self.addr + self.size
    }

    fn contains(&self, byte_addr: u32) -> bool {
        byte_addr >= self.addr && byte_addr < self.end()
    }
}

/// An original-image address, resolved against the movable blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Place {
    /// `offset` bytes into the movable block of rank `rank`.
    Moved { rank: usize, offset: u32 },
    /// Fixed code or data: keeps its address under every permutation.
    Fixed(u32),
}

impl Place {
    fn relocate(self, new_addr: &[u32]) -> u32 {
        match self {
            Place::Moved { rank, offset } => new_addr[rank] + offset,
            Place::Fixed(addr) => addr,
        }
    }
}

/// One absolute `call`/`jmp` to retarget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Site {
    /// Where the instruction sits.
    at: Place,
    /// Where it points.
    target: Place,
    /// `call` (else `jmp`).
    call: bool,
}

/// Everything about randomizing one image that does not depend on the
/// permutation, computed once: the movable blocks and the icall-constrained
/// set, every absolute `call`/`jmp` site resolved by §VI-B3's binary search
/// to a (block rank, offset) or a fixed address, and the data-section
/// pointer slots. [`PatchPlan::apply`] then only draws a permutation,
/// copies blocks and writes patches — the per-boot work of the master.
///
/// Errors that depend only on the image are found while building and held
/// back, so `apply` returns each one at the point the one-pass randomizer
/// would have, after the same random draws.
#[derive(Debug, Clone)]
pub struct PatchPlan {
    /// Movable blocks in address order (index = rank).
    blocks: Vec<Block>,
    /// For each symbol of the image, the movable rank holding its address.
    symbol_ranks: Vec<Option<usize>>,
    /// Ranks targeted by a data-section function pointer.
    constrained: Vec<bool>,
    /// The movable region is not one contiguous span of blocks.
    layout_error: Option<RandomizeError>,
    /// Absolute branches in address order, up to `scan_error`.
    sites: Vec<Site>,
    /// The first relative branch that leaves its block, before `scan_error`.
    first_relaxed: Option<u32>,
    /// The first unmappable absolute branch target, which ends the scan.
    scan_error: Option<RandomizeError>,
    /// Patch counters for the absolute branches.
    branches: PatchReport,
    /// Each pointer slot's location and target, in slot order.
    pointers: Vec<Result<(u32, Place), RandomizeError>>,
}

impl PatchPlan {
    /// Plan the randomization of `image`.
    pub fn new(image: &FirmwareImage) -> Self {
        let blocks: Vec<Block> = image
            .symbols
            .iter()
            .filter(|s| s.kind == SymbolKind::Function)
            .map(|s| Block {
                addr: s.addr,
                size: s.size,
            })
            .collect();
        let mut plan = PatchPlan {
            symbol_ranks: image
                .symbols
                .iter()
                .map(|s| rank_of(&blocks, s.addr))
                .collect(),
            constrained: vec![false; blocks.len()],
            blocks,
            layout_error: None,
            sites: Vec::new(),
            first_relaxed: None,
            scan_error: None,
            branches: PatchReport::default(),
            pointers: Vec::new(),
        };
        if plan.blocks.is_empty() {
            return plan;
        }
        plan.layout_error = plan.check_layout(image).err();
        if plan.layout_error.is_some() {
            return plan;
        }
        for &loc in &image.fn_ptr_locs {
            let byte = u32::from(image.read_word(loc)) * 2;
            if let Some(rank) = rank_of(&plan.blocks, byte) {
                plan.constrained[rank] = true;
            }
        }
        plan.scan_text(image);
        plan.pointers = image
            .fn_ptr_locs
            .iter()
            .map(|&loc| {
                let byte = u32::from(image.read_word(loc)) * 2;
                match plan.place(image, byte) {
                    Some(place) => Ok((loc, place)),
                    None => Err(RandomizeError::BadFunctionPointer { loc }),
                }
            })
            .collect();
        plan
    }

    /// The movable region must be one contiguous span with nothing fixed
    /// inside it.
    fn check_layout(&self, image: &FirmwareImage) -> Result<(), RandomizeError> {
        let region_start = self.blocks[0].addr;
        let region_end = self.region_end();
        let mut cursor = region_start;
        for b in &self.blocks {
            if b.addr != cursor {
                return Err(RandomizeError::NonContiguousText { addr: cursor });
            }
            cursor = b.end();
        }
        for s in &image.symbols {
            if s.kind != SymbolKind::Function && s.addr >= region_start && s.addr < region_end {
                return Err(RandomizeError::NonContiguousText { addr: s.addr });
            }
        }
        Ok(())
    }

    fn region_end(&self) -> u32 {
        self.blocks.last().expect("non-empty movable set").end()
    }

    /// Resolve an original address: inside a movable block, or fixed code
    /// (the vector table). `None` lies outside every symbol.
    fn place(&self, image: &FirmwareImage, byte: u32) -> Option<Place> {
        match rank_of(&self.blocks, byte) {
            Some(rank) => Some(Place::Moved {
                rank,
                offset: byte - self.blocks[rank].addr,
            }),
            None => image.symbol_containing(byte).map(|_| Place::Fixed(byte)),
        }
    }

    /// One decode of the executable region: record every absolute
    /// call/jmp, and the first relative branch that leaves its block.
    fn scan_text(&mut self, image: &FirmwareImage) {
        let mut off = 0u32;
        while off + 1 < image.text_end {
            let at = off as usize;
            let word = image
                .bytes
                .get(at..at + 2)
                .map(|w| u16::from_le_bytes([w[0], w[1]]));
            if word.is_some_and(|w| !needs_decode(w)) {
                off += 2;
                continue;
            }
            let Some((insn, words)) = decode_at(&image.bytes, at) else {
                break;
            };
            match insn {
                Insn::Call { k } | Insn::Jmp { k } => {
                    let old_target = k * 2;
                    let Some(target) = self.place(image, old_target) else {
                        self.scan_error = Some(RandomizeError::UnmappableTarget {
                            at: off,
                            target: old_target,
                        });
                        return;
                    };
                    let call = matches!(insn, Insn::Call { .. });
                    if call {
                        self.branches.calls_patched += 1;
                    } else {
                        self.branches.jumps_patched += 1;
                        if matches!(target, Place::Moved { offset, .. } if offset != 0) {
                            self.branches.trampolines_patched += 1;
                        }
                    }
                    self.sites.push(Site {
                        at: self.place(image, off).unwrap_or(Place::Fixed(off)),
                        target,
                        call,
                    });
                }
                Insn::Rcall { k } | Insn::Rjmp { k } => {
                    // Target must stay inside the same function block.
                    let target = off.wrapping_add(2).wrapping_add_signed(i32::from(k) * 2);
                    let same_block =
                        match (rank_of(&self.blocks, off), rank_of(&self.blocks, target)) {
                            (Some(a), Some(b)) => a == b,
                            // Fixed-region code may branch within itself.
                            (None, None) => true,
                            _ => false,
                        };
                    if !same_block && self.first_relaxed.is_none() {
                        self.first_relaxed = Some(off);
                    }
                }
                _ => {}
            }
            off += words * 2;
        }
    }

    /// Draw a permutation with `rng` and produce the randomized, patched
    /// image. `image` must be the image this plan was built from.
    pub fn apply(
        &self,
        image: &FirmwareImage,
        rng: &mut impl Rng,
        opts: &RandomizeOptions,
    ) -> Result<RandomizedImage, RandomizeError> {
        debug_assert_eq!(self.symbol_ranks.len(), image.symbols.len());
        if self.blocks.is_empty() {
            return Ok(RandomizedImage {
                image: image.clone(),
                permutation: Vec::new(),
                report: PatchReport::default(),
            });
        }
        if let Some(e) = &self.layout_error {
            return Err(e.clone());
        }

        // Draw the permutation: a uniform shuffle of placement order, then
        // repair icall-reach violations by swapping violators with
        // unconstrained blocks placed low.
        let region_start = self.blocks[0].addr;
        let n = self.blocks.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(rng);
        if opts.constrain_icall_targets {
            repair_constraints(
                &mut order,
                &self.blocks,
                &self.constrained,
                region_start,
                rng,
            )?;
        }

        // New address of each movable rank.
        let mut new_addr = vec![0u32; n];
        let mut cursor = region_start;
        for &rank in &order {
            new_addr[rank] = cursor;
            cursor += self.blocks[rank].size;
        }
        debug_assert_eq!(cursor, self.region_end());

        // Relocate the blocks.
        let mut bytes = image.bytes.clone();
        for (rank, b) in self.blocks.iter().enumerate() {
            let src = b.addr as usize..b.end() as usize;
            let dst = new_addr[rank] as usize;
            bytes[dst..dst + b.size as usize].copy_from_slice(&image.bytes[src]);
        }

        // Retarget every absolute call/jmp; relative branches must stay
        // inside their (moved) block.
        if let (Some(at), false) = (self.first_relaxed, opts.ignore_relaxed_branches) {
            return Err(RandomizeError::RelaxedBranch { at });
        }
        if let Some(e) = &self.scan_error {
            return Err(e.clone());
        }
        for site in &self.sites {
            let k = site.target.relocate(&new_addr) / 2;
            let patched = if site.call {
                Insn::Call { k }
            } else {
                Insn::Jmp { k }
            };
            let ws = encode(&patched).expect("patched long branch re-encodes");
            let base = site.at.relocate(&new_addr) as usize;
            bytes[base..base + 2].copy_from_slice(&ws[0].to_le_bytes());
            bytes[base + 2..base + 4].copy_from_slice(&ws[1].to_le_bytes());
        }
        let mut report = self.branches;

        // Patch data-section function pointers (16-bit word addresses).
        for pointer in &self.pointers {
            let (loc, target) = pointer.clone()?;
            let new_byte = target.relocate(&new_addr);
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
            .zip(&self.symbol_ranks)
            .map(|(s, rank)| {
                let mut s = s.clone();
                if s.kind == SymbolKind::Function {
                    s.addr = new_addr[rank.expect("movable symbol")];
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
}

/// Whether the plan must decode the instruction starting with `word`: an
/// absolute or relative branch, or one of the other two-word instructions
/// (`lds`/`sts`), whose length the scan needs. Every other word is a
/// one-word instruction the plan skips undecoded.
fn needs_decode(word: u16) -> bool {
    word & 0xfe0c == 0x940c // jmp, call
        || word & 0xfc0f == 0x9000 // lds, sts
        || word & 0xe000 == 0xc000 // rjmp, rcall
}

/// Rank (index in address order) of the movable block containing
/// `byte_addr`, by binary search — the paper's §VI-B3 lookup.
fn rank_of(blocks: &[Block], byte_addr: u32) -> Option<usize> {
    let idx = blocks.partition_point(|b| b.addr <= byte_addr);
    let rank = idx.checked_sub(1)?;
    blocks[rank].contains(byte_addr).then_some(rank)
}

/// Move constrained blocks early enough in the placement order that they
/// stay within icall reach.
fn repair_constraints(
    order: &mut [usize],
    blocks: &[Block],
    constrained: &[bool],
    region_start: u32,
    rng: &mut impl Rng,
) -> Result<(), RandomizeError> {
    let limit = ICALL_REACH_BYTES;
    let total_constrained: u32 = constrained
        .iter()
        .zip(blocks)
        .filter(|(c, _)| **c)
        .map(|(_, b)| b.size)
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
            let end = cursor + blocks[rank].size;
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

#[cfg(test)]
mod tests {
    use super::*;
    use avr_sim::{Machine, RunExit};
    use synth_firmware::{apps, build, BuildOptions};

    fn tiny() -> FirmwareImage {
        build(&apps::tiny_test_app(), &BuildOptions::safe_mavr())
            .unwrap()
            .image
    }

    #[test]
    fn skipped_words_are_one_word_non_branches() {
        for w in (0..=u16::MAX).filter(|&w| !needs_decode(w)) {
            let (insn, words) = avr_core::decode::decode(&[w, 0]);
            assert_eq!(words, 1, "{w:#06x}");
            assert!(
                !matches!(
                    insn,
                    Insn::Call { .. } | Insn::Jmp { .. } | Insn::Rcall { .. } | Insn::Rjmp { .. }
                ),
                "{w:#06x}"
            );
        }
    }

    #[test]
    fn randomized_image_is_well_formed() {
        let img = tiny();
        let r = randomize(
            &img,
            &mut crate::seeded_rng(1),
            &RandomizeOptions::default(),
        )
        .unwrap();
        r.image.validate().unwrap();
        assert_eq!(r.image.code_size(), img.code_size());
        assert_eq!(r.image.text_end, img.text_end);
        assert_eq!(r.image.function_count(), img.function_count());
        assert_ne!(r.image.bytes, img.bytes, "layout must actually change");
        // Same set of names, different addresses for most.
        let moved = img
            .functions()
            .filter(|s| r.image.symbol(&s.name).unwrap().addr != s.addr)
            .count();
        assert!(moved > img.function_count() / 2);
        // Rodata untouched except at the patched function-pointer slots.
        for off in img.text_end..img.code_size() {
            if img.fn_ptr_locs.iter().any(|&l| off == l || off == l + 1) {
                continue;
            }
            assert_eq!(
                r.image.bytes[off as usize], img.bytes[off as usize],
                "non-pointer rodata byte at {off:#x} changed"
            );
        }
    }

    #[test]
    fn permutation_is_a_bijection() {
        let img = tiny();
        let r = randomize(
            &img,
            &mut crate::seeded_rng(2),
            &RandomizeOptions::default(),
        )
        .unwrap();
        let n = r.permutation.len();
        assert_eq!(n, img.function_count());
        let mut seen = vec![false; n];
        for &p in &r.permutation {
            assert!(!seen[p]);
            seen[p] = true;
        }
    }

    #[test]
    fn randomized_firmware_still_runs() {
        // The acid test: shuffle, then boot and verify full behaviour.
        let img = tiny();
        for seed in 0..5 {
            let r = randomize(
                &img,
                &mut crate::seeded_rng(seed),
                &RandomizeOptions::default(),
            )
            .unwrap();
            let mut m = Machine::new_atmega2560();
            m.load_flash(0, &r.image.bytes);
            let exit = m.run(1_200_000);
            assert_eq!(
                exit,
                RunExit::CyclesExhausted,
                "seed {seed}: {:?}",
                m.fault()
            );
            assert!(
                m.heartbeat.toggles().len() >= 10,
                "seed {seed}: heartbeats stopped"
            );
        }
    }

    #[test]
    fn randomized_firmware_telemetry_still_valid() {
        let img = tiny();
        let r = randomize(
            &img,
            &mut crate::seeded_rng(9),
            &RandomizeOptions::default(),
        )
        .unwrap();
        let mut m = avr_sim::Machine::new_atmega2560();
        m.load_flash(0, &r.image.bytes);
        m.run(1_200_000);
        let mut gcs = mavlink_lite::GroundStation::new();
        gcs.ingest(&m.uart0.take_tx());
        assert_eq!(gcs.bad_checksums(), 0);
        assert!(gcs.heartbeats.len() >= 10);
        // And it still processes commands.
        m.uart0.inject(&gcs.param_set(b"KP", 3.0));
        m.run(1_200_000);
        assert_eq!(m.peek_data(synth_firmware::layout::PARAM_SET_COUNT), 1);
    }

    #[test]
    fn randomized_isr_still_ticks() {
        // The ISR is a movable function reached only through interrupt
        // vector 23 — this exercises MAVR's vector-table patching.
        let img = tiny();
        let r = randomize(
            &img,
            &mut crate::seeded_rng(11),
            &RandomizeOptions::default(),
        )
        .unwrap();
        assert_ne!(
            r.image.symbol("timer0_ovf_isr").unwrap().addr,
            img.symbol("timer0_ovf_isr").unwrap().addr,
            "seed 11 moves the ISR"
        );
        let mut m = Machine::new_atmega2560();
        m.load_flash(0, &r.image.bytes);
        m.run(1_200_000);
        assert!(m.fault().is_none());
        let clock = u16::from_le_bytes([
            m.peek_data(synth_firmware::layout::SOFT_CLOCK),
            m.peek_data(synth_firmware::layout::SOFT_CLOCK + 1),
        ]);
        assert!(
            clock > 50,
            "soft clock advanced under the new layout: {clock}"
        );
    }

    #[test]
    fn different_seeds_different_layouts() {
        let img = tiny();
        let a = randomize(
            &img,
            &mut crate::seeded_rng(1),
            &RandomizeOptions::default(),
        )
        .unwrap();
        let b = randomize(
            &img,
            &mut crate::seeded_rng(2),
            &RandomizeOptions::default(),
        )
        .unwrap();
        assert_ne!(a.permutation, b.permutation);
        assert_ne!(a.image.bytes, b.image.bytes);
    }

    #[test]
    fn same_seed_same_layout() {
        let img = tiny();
        let a = randomize(
            &img,
            &mut crate::seeded_rng(3),
            &RandomizeOptions::default(),
        )
        .unwrap();
        let b = randomize(
            &img,
            &mut crate::seeded_rng(3),
            &RandomizeOptions::default(),
        )
        .unwrap();
        assert_eq!(a.image, b.image);
    }

    #[test]
    fn relaxed_image_is_rejected() {
        // A stock-toolchain build has cross-function rcall/rjmp.
        let img = build(&apps::tiny_test_app(), &BuildOptions::safe_stock())
            .unwrap()
            .image;
        let err = randomize(
            &img,
            &mut crate::seeded_rng(1),
            &RandomizeOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, RandomizeError::RelaxedBranch { .. }));
    }

    #[test]
    fn relaxed_image_forced_through_breaks() {
        // The ablation: ignore the relaxed branches and watch the image die.
        let img = build(&apps::tiny_test_app(), &BuildOptions::safe_stock())
            .unwrap()
            .image;
        let opts = RandomizeOptions {
            ignore_relaxed_branches: true,
            ..Default::default()
        };
        let r = randomize(&img, &mut crate::seeded_rng(1), &opts).unwrap();
        let mut m = Machine::new_atmega2560();
        m.load_flash(0, &r.image.bytes);
        let exit = m.run(2_000_000);
        assert!(
            !exit.is_healthy() || m.heartbeat.toggles().len() < 5,
            "a relax-built image should not survive randomization"
        );
    }

    #[test]
    fn fn_pointer_tables_are_patched() {
        let img = tiny();
        let r = randomize(
            &img,
            &mut crate::seeded_rng(4),
            &RandomizeOptions::default(),
        )
        .unwrap();
        for &loc in &img.fn_ptr_locs {
            let old_word = img.read_word(loc);
            let new_word = r.image.read_word(loc);
            let old_sym = img.symbol_containing(u32::from(old_word) * 2).unwrap();
            let new_sym = r.image.symbol_containing(u32::from(new_word) * 2).unwrap();
            assert_eq!(old_sym.name, new_sym.name, "pointer follows its function");
        }
    }

    #[test]
    fn icall_targets_stay_reachable() {
        // Build a big app (full SynthRover) and check the constraint holds
        // across several shuffles.
        let img = build(&apps::synth_rover(), &BuildOptions::safe_mavr())
            .unwrap()
            .image;
        assert!(img.code_size() > ICALL_REACH_BYTES);
        for seed in 0..3 {
            let r = randomize(
                &img,
                &mut crate::seeded_rng(seed),
                &RandomizeOptions::default(),
            )
            .unwrap();
            for &loc in &r.image.fn_ptr_locs {
                let word = r.image.read_word(loc);
                assert!(
                    u32::from(word) * 2 + 2 <= ICALL_REACH_BYTES,
                    "seed {seed}: pointer target escaped icall reach"
                );
            }
        }
    }

    #[test]
    fn patch_report_accounts_for_everything() {
        let img = tiny();
        let r = randomize(
            &img,
            &mut crate::seeded_rng(6),
            &RandomizeOptions::default(),
        )
        .unwrap();
        // Every recorded pointer slot was rewritten.
        assert_eq!(r.report.pointers_patched, img.fn_ptr_locs.len());
        // All 57 vectors are jmp instructions, plus the fillers' jumps.
        assert!(r.report.jumps_patched >= 57);
        // The generated app has switch trampolines.
        assert!(r.report.trampolines_patched > 0);
        // Call-heavy firmware: many absolute calls patched.
        assert!(r.report.calls_patched > 20);
    }

    #[test]
    fn gadgets_move_but_do_not_vanish() {
        // The paper's point exactly: randomization does not remove gadgets
        // — the same epilogues exist — it makes their *addresses* useless
        // to an attacker who only holds the unprotected binary.
        let img = build(&apps::tiny_test_app(), &BuildOptions::vulnerable_mavr())
            .unwrap()
            .image;
        let before = rop_classify(&img).expect("gadgets in the original");
        let r = randomize(
            &img,
            &mut crate::seeded_rng(33),
            &RandomizeOptions::default(),
        )
        .unwrap();
        let after = rop_classify(&r.image).expect("gadgets still present after shuffle");
        assert_ne!(
            (before.0, before.1),
            (after.0, after.1),
            "the gadget addresses must change"
        );
    }

    /// Minimal structural re-scan (kept local so `mavr` does not depend on
    /// the attack crate): find the stk_move and write_mem byte patterns.
    fn rop_classify(img: &FirmwareImage) -> Option<(u32, u32)> {
        use avr_core::{Insn, Reg, YZ};
        let mut stk = None;
        let mut wm = None;
        let mut addr = 0u32;
        while addr + 2 <= img.text_end {
            let (i0, w) = avr_core::decode::decode_at(&img.bytes, addr as usize)?;
            if i0
                == (Insn::Out {
                    a: 0x3e,
                    r: Reg::R29,
                })
                && stk.is_none()
            {
                stk = Some(addr);
            }
            if i0
                == (Insn::Std {
                    idx: YZ::Y,
                    q: 1,
                    r: Reg::R5,
                })
                && wm.is_none()
            {
                wm = Some(addr);
            }
            if let (Some(s), Some(m)) = (stk, wm) {
                return Some((s, m));
            }
            addr += w * 2;
        }
        None
    }

    #[test]
    fn permutations_are_statistically_uniform() {
        // The §V-D/§VIII-B security argument assumes a uniform draw over
        // the n! permutations. Chi-square the position of the first three
        // movable functions across many seeds: each should be uniform over
        // the n ranks.
        let img = tiny();
        let n = img.function_count();
        let trials = 1200usize;
        let mut counts = vec![vec![0u32; n]; 3];
        for seed in 0..trials as u64 {
            let r = randomize(
                &img,
                &mut crate::seeded_rng(seed),
                &RandomizeOptions::default(),
            )
            .unwrap();
            for f in 0..3 {
                counts[f][r.permutation[f]] += 1;
            }
        }
        let expected = trials as f64 / n as f64; // 20 per cell
        for (f, row) in counts.iter().enumerate() {
            let chi2: f64 = row
                .iter()
                .map(|&c| {
                    let d = f64::from(c) - expected;
                    d * d / expected
                })
                .sum();
            // df = n - 1 = 59; the 99.9% quantile is ~99. Allow margin.
            assert!(
                chi2 < 110.0,
                "function {f}: chi-square {chi2:.1} over {n} positions — not uniform"
            );
        }
    }

    #[test]
    fn randomization_has_zero_runtime_overhead() {
        // §IX: "MAVR does not use any runtime data structures or
        // monitoring, thus making it very efficient with minimal overhead."
        // Stronger: zero — the randomized binary executes the same
        // instruction mix (absolute branches keep their width and cycle
        // cost), so the control loop runs at an identical rate.
        let img = tiny();
        let r = randomize(
            &img,
            &mut crate::seeded_rng(21),
            &RandomizeOptions::default(),
        )
        .unwrap();
        let rate = |bytes: &[u8]| {
            let mut m = Machine::new_atmega2560();
            m.load_flash(0, bytes);
            m.run(2_000_000);
            assert!(m.fault().is_none());
            m.heartbeat.toggles().len()
        };
        let original = rate(&img.bytes);
        let randomized = rate(&r.image.bytes);
        assert_eq!(
            original, randomized,
            "identical heartbeat rate: randomization costs zero runtime cycles"
        );
    }

    #[test]
    fn fixed_bootloader_survives_randomization_verbatim() {
        // §VI-B4's warning, demonstrated: pinned code keeps its address and
        // bytes across randomization, so its gadgets stay aim-able.
        let mut opts = BuildOptions::safe_mavr();
        opts.serial_bootloader = true;
        let img = build(&apps::tiny_test_app(), &opts).unwrap().image;
        let bl = img.symbol("__bootloader").unwrap().clone();
        let r = randomize(
            &img,
            &mut crate::seeded_rng(5),
            &RandomizeOptions::default(),
        )
        .unwrap();
        let bl2 = r.image.symbol("__bootloader").unwrap();
        assert_eq!(bl2.addr, bl.addr, "fixed code must not move");
        assert_eq!(
            &r.image.bytes[bl.addr as usize..bl.end() as usize],
            &img.bytes[bl.addr as usize..bl.end() as usize],
            "fixed code must be byte-identical"
        );
        // And the whole thing still runs.
        let mut m = Machine::new_atmega2560();
        m.load_flash(0, &r.image.bytes);
        m.run(1_000_000);
        assert!(m.fault().is_none());
    }

    #[test]
    fn unconstrained_shuffle_breaks_icall_reach() {
        // Why the constraint exists: without it, some shuffle of a >128 KiB
        // image strands a pointer-called function beyond the 16-bit word
        // address a function-pointer slot can express.
        let img = build(&apps::synth_rover(), &BuildOptions::safe_mavr())
            .unwrap()
            .image;
        let opts = RandomizeOptions {
            constrain_icall_targets: false,
            ..Default::default()
        };
        // A function beyond the reach limit cannot be represented in the
        // 16-bit pointer slot: the stored word address silently truncates,
        // so detect the breakage by comparing each slot against the actual
        // address of the function it is supposed to reference.
        let broken = (0..10u64).any(|seed| {
            let r = randomize(&img, &mut crate::seeded_rng(seed), &opts).unwrap();
            r.image.fn_ptr_locs.iter().any(|&loc| {
                let slot_byte = u32::from(r.image.read_word(loc)) * 2;
                // The slot should point at the *start* of some function.
                r.image
                    .symbol_containing(slot_byte)
                    .map(|s| s.addr != slot_byte)
                    .unwrap_or(true)
            })
        });
        assert!(
            broken,
            "within a few seeds an unconstrained shuffle should corrupt a pointer slot"
        );
    }

    #[test]
    fn empty_movable_set_is_identity() {
        let mut img = tiny();
        for s in &mut img.symbols {
            s.kind = SymbolKind::Fixed;
        }
        let r = randomize(
            &img,
            &mut crate::seeded_rng(0),
            &RandomizeOptions::default(),
        )
        .unwrap();
        assert_eq!(r.image.bytes, img.bytes);
        assert!(r.permutation.is_empty());
    }
}
