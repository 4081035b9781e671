//! The predecode cache behind the fast run loop, filled on demand.
//!
//! One [`Predecoded`] entry per flash word, built as a table of
//! *undecoded* placeholders and decoded one page ([`PAGE_WORDS`] words) at
//! a time by the first fetch that meets a placeholder. A flash write resets
//! the entries it may have changed back to undecoded instead of decoding
//! them again, so a programmed or reflashed machine pays decode cost only
//! for the pages it goes on to execute.
//!
//! The invariant every reader relies on: an entry is either undecoded or
//! exactly what [`predecode_at`] returns for the current flash. An undecoded
//! entry never reaches `exec` — each read either checks the width (one
//! compare, see [`is_undecoded`]) or reads only pages a block discovery has
//! already filled.

use avr_core::decode::predecode_at;
use avr_core::{Insn, Predecoded};

/// Words decoded per fill: one 256-byte flash page, which is also the
/// widest fused block ([`avr_core::block::MAX_BLOCK_WORDS`]).
pub(crate) const PAGE_WORDS: usize = 128;

/// The placeholder for a word not decoded since the table was built or the
/// word was last written. Width 0 is a value the decoder never produces
/// (every instruction is one or two words wide).
const UNDECODED: Predecoded = Predecoded {
    insn: Insn::Invalid(0),
    width: 0,
    cycles: 0,
};

/// A table of `words` undecoded entries.
pub(crate) fn undecoded(words: usize) -> Vec<Predecoded> {
    vec![UNDECODED; words]
}

/// Whether `e` is a placeholder that must be filled before it is used.
#[inline(always)]
pub(crate) fn is_undecoded(e: &Predecoded) -> bool {
    e.width == 0
}

/// Decode every undecoded entry of the page holding word `w`.
#[cold]
#[inline(never)]
pub(crate) fn fill_page(table: &mut [Predecoded], flash: &[u8], w: usize) {
    let lo = w / PAGE_WORDS * PAGE_WORDS;
    let hi = (lo + PAGE_WORDS).min(table.len());
    for (i, e) in table[lo..hi].iter_mut().enumerate() {
        if is_undecoded(e) {
            *e = predecode_at(flash, lo + i);
        }
    }
}

/// Fill every page covering words `lo..=hi` (clamped to the table), so a
/// block scan over that span reads only decoded entries.
pub(crate) fn fill_span(table: &mut [Predecoded], flash: &[u8], lo: usize, hi: usize) {
    let Some(last) = table.len().checked_sub(1) else {
        return;
    };
    for page in lo / PAGE_WORDS..=hi.min(last) / PAGE_WORDS {
        fill_page(table, flash, page * PAGE_WORDS);
    }
}

/// Reset the entries a write of `len` bytes at byte address `addr` may have
/// changed: the written words, widened one word to the left because the
/// first written word may be the second word of its predecessor's
/// instruction. A no-op on an unbuilt (empty) table.
pub(crate) fn reset_range(table: &mut [Predecoded], addr: usize, len: usize) {
    if len == 0 {
        return;
    }
    let lo = (addr / 2).saturating_sub(1).min(table.len());
    let hi = ((addr + len - 1) / 2 + 1).min(table.len());
    table[lo..hi].fill(UNDECODED);
}

/// Reset every entry (flash erased or replaced wholesale).
pub(crate) fn reset_all(table: &mut [Predecoded]) {
    table.fill(UNDECODED);
}

#[cfg(test)]
mod tests {
    use super::*;
    use avr_core::decode::predecode_image;

    fn words(ws: &[(usize, u16)], len: usize) -> Vec<u8> {
        let mut flash = vec![0xff; len * 2];
        for &(w, v) in ws {
            flash[w * 2..w * 2 + 2].copy_from_slice(&v.to_le_bytes());
        }
        flash
    }

    #[test]
    fn filled_pages_match_the_eager_decoder() {
        // `call 6` straddling the page 0/1 boundary, `ret` past it.
        let flash = words(
            &[(127, 0x940e), (128, 0x0006), (129, 0x9508)],
            3 * PAGE_WORDS,
        );
        let mut table = undecoded(flash.len() / 2);
        fill_page(&mut table, &flash, 127);
        let eager = predecode_image(&flash);
        assert_eq!(table[..PAGE_WORDS], eager[..PAGE_WORDS]);
        assert_eq!(table[127].insn, Insn::Call { k: 6 });
        assert!(
            table[PAGE_WORDS..].iter().all(is_undecoded),
            "one page only"
        );
        fill_span(&mut table, &flash, 200, 10_000);
        assert_eq!(table, eager, "a span past the end clamps to the table");
    }

    #[test]
    fn a_write_redecodes_the_straddling_word_on_the_previous_page() {
        // `call 6` at word 127 takes its second word from page 1: writing
        // word 128 alone must reset the entry at 127 on page 0, and its next
        // fill must see the new target.
        let mut flash = words(&[(127, 0x940e), (128, 0x0006)], 2 * PAGE_WORDS);
        let mut table = undecoded(flash.len() / 2);
        fill_span(&mut table, &flash, 0, 2 * PAGE_WORDS);
        assert_eq!(table[127].insn, Insn::Call { k: 6 });

        flash[256..258].copy_from_slice(&0x0042u16.to_le_bytes());
        reset_range(&mut table, 256, 2);
        assert!(is_undecoded(&table[127]) && is_undecoded(&table[128]));
        assert!(!is_undecoded(&table[126]) && !is_undecoded(&table[129]));
        fill_page(&mut table, &flash, 127);
        assert_eq!(table[127].insn, Insn::Call { k: 0x42 });
        fill_page(&mut table, &flash, 128);
        assert_eq!(table, predecode_image(&flash));
    }

    #[test]
    fn resets_clamp_to_the_table() {
        let mut empty = Vec::new();
        reset_range(&mut empty, 0, 4);
        reset_all(&mut empty);
        fill_span(&mut empty, &[], 0, 10);
        let mut table = undecoded(4);
        fill_span(&mut table, &[0xff; 8], 0, 3);
        reset_range(&mut table, 6, 100);
        assert!(!is_undecoded(&table[1]) && is_undecoded(&table[2]) && is_undecoded(&table[3]));
    }
}
