//! Property tests: Intel HEX and MAVR container round-trips, and parser
//! robustness against arbitrary and hostile input.

use avr_core::device::ATMEGA2560;
use avr_core::image::{FirmwareImage, Symbol, SymbolKind};
use hexfile::{parse_ihex, write_ihex, MavrContainer};
use proptest::prelude::*;
use std::sync::OnceLock;

/// The tiny app's real container text — the seed every mutation starts
/// from.
fn tiny_container_text() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        use synth_firmware::{apps, build, BuildOptions};
        let fw = build(&apps::tiny_test_app(), &BuildOptions::vulnerable_mavr()).unwrap();
        MavrContainer::new(fw.image).to_text()
    })
}

/// Numbers an attacker would write into a directive field.
const HOSTILE: [u32; 8] = [
    0,
    1,
    0xffff,
    0x1_0000,
    0x3_ffff,
    0x4_0000,
    0xffff_fffe,
    0xffff_ffff,
];

/// One checksum-valid Intel HEX record, so a mutation can reach the
/// parser's address arithmetic rather than stop at the checksum.
fn record(rtype: u8, addr: u16, payload: &[u8]) -> String {
    let mut bytes = vec![payload.len() as u8, (addr >> 8) as u8, addr as u8, rtype];
    bytes.extend_from_slice(payload);
    let sum = bytes.iter().fold(0u8, |a, &b| a.wrapping_add(b));
    let hex: String = bytes.iter().map(|b| format!("{b:02X}")).collect();
    format!(":{hex}{:02X}", sum.wrapping_neg())
}

/// Index of the `k`-th (mod their count) line starting with `first`.
fn nth_line_starting(lines: &[Vec<u8>], first: u8, k: usize) -> Option<usize> {
    let hits: Vec<usize> = (0..lines.len())
        .filter(|&i| lines[i].first() == Some(&first))
        .collect();
    (!hits.is_empty()).then(|| hits[k % hits.len()])
}

/// Apply one `(op, a, b)` mutation to container text.
fn mutate(text: &mut Vec<u8>, (op, a, b): (u8, u32, u32)) {
    let (a, b) = (a as usize, b as usize);
    let mut lines: Vec<Vec<u8>> = text.split(|&c| c == b'\n').map(<[u8]>::to_vec).collect();
    let n = lines.len();
    match op % 6 {
        // Flip one bit.
        0 => {
            if !text.is_empty() {
                let at = a % text.len();
                text[at] ^= 1 << (b % 8);
            }
            return;
        }
        // Delete a short run.
        1 => {
            let at = a % (text.len() + 1);
            let end = (at + b % 64).min(text.len());
            text.drain(at..end);
            return;
        }
        // Insert a syntax character.
        2 => {
            let alphabet = b":;0123456789ABCDEFx \n-";
            let at = a % (text.len() + 1);
            text.insert(at, alphabet[b % alphabet.len()]);
            return;
        }
        // Duplicate a line elsewhere.
        3 => {
            let line = lines[a % n].clone();
            lines.insert(b % (n + 1), line);
        }
        // Replace every number in a directive line with a hostile one.
        4 => {
            let Some(at) = nth_line_starting(&lines, b';', a) else {
                return;
            };
            let line = String::from_utf8_lossy(&lines[at]).into_owned();
            let hostile = format!("{:#x}", HOSTILE[b % HOSTILE.len()]);
            let fields: Vec<&str> = line
                .split(' ')
                .map(|f| {
                    if f.starts_with("0x") {
                        hostile.as_str()
                    } else {
                        f
                    }
                })
                .collect();
            lines[at] = fields.join(" ").into_bytes();
        }
        // Replace a record with a forged, checksum-valid one; an extended
        // linear address moves every later record to a hostile base.
        _ => {
            let Some(at) = nth_line_starting(&lines, b':', a) else {
                return;
            };
            let rtype = [0u8, 1, 4, 3, 5, 2][b % 6];
            let payload = if rtype == 4 {
                (HOSTILE[a % HOSTILE.len()] >> 16).to_be_bytes()[2..].to_vec()
            } else {
                vec![(b >> 24) as u8; (b >> 3) % 4]
            };
            lines[at] = record(rtype, (b >> 8) as u16, &payload).into_bytes();
        }
    }
    *text = lines.join(&b'\n');
}

proptest! {
    #[test]
    fn ihex_round_trips(data in proptest::collection::vec(any::<u8>(), 0..4096),
                        base in 0u32..0x3_0000) {
        let text = write_ihex(&data, base);
        let (got_base, got) = parse_ihex(&text).unwrap();
        if data.is_empty() {
            prop_assert!(got.is_empty());
        } else {
            prop_assert_eq!(got_base, base);
            prop_assert_eq!(got, data);
        }
    }

    #[test]
    fn ihex_output_is_ascii_records(data in proptest::collection::vec(any::<u8>(), 1..256)) {
        let text = write_ihex(&data, 0);
        for line in text.lines() {
            prop_assert!(line.starts_with(':'));
            prop_assert!(line[1..].bytes().all(|b| b.is_ascii_hexdigit()));
            // Record length: 1 count + 2 addr + 1 type + payload + 1 checksum.
            prop_assert!(line.len() >= 11);
        }
        prop_assert!(text.ends_with(":00000001FF\n"));
    }

    #[test]
    fn parser_never_panics_on_noise(noise in proptest::collection::vec(any::<u8>(), 0..512)) {
        let text = String::from_utf8_lossy(&noise).into_owned();
        let _ = parse_ihex(&text); // must not panic
        let _ = MavrContainer::parse(&text); // must not panic
    }

    #[test]
    fn corrupting_one_hex_digit_is_detected(
        data in proptest::collection::vec(any::<u8>(), 16..64),
        pos in 0usize..200,
        delta in 1u8..15,
    ) {
        let text = write_ihex(&data, 0);
        let bytes = text.as_bytes();
        // Find a hex digit to corrupt (skip ':' and newlines).
        let candidates: Vec<usize> = bytes
            .iter()
            .enumerate()
            .filter(|(_, b)| b.is_ascii_hexdigit())
            .map(|(i, _)| i)
            .collect();
        let idx = candidates[pos % candidates.len()];
        let orig = (bytes[idx] as char).to_digit(16).unwrap() as u8;
        let new = (orig + delta) % 16;
        let mut corrupted = text.clone().into_bytes();
        corrupted[idx] = char::from_digit(u32::from(new), 16).unwrap() as u8;
        let corrupted = String::from_utf8(corrupted).unwrap();
        // Either the checksum rejects it, or the corruption hit a length /
        // address / checksum field and a structural error fires; silently
        // returning the original data is the one unacceptable outcome.
        if let Ok((_, parsed)) = parse_ihex(&corrupted) { prop_assert_ne!(parsed, data) }
    }

    #[test]
    fn container_round_trips(
        n_funcs in 1usize..20,
        sizes in proptest::collection::vec(1u32..40, 1..20),
        ptr_count in 0usize..4,
    ) {
        let n = n_funcs.min(sizes.len());
        let mut img = FirmwareImage::new(ATMEGA2560);
        let mut addr = 0u32;
        for (i, sz) in sizes.iter().take(n).enumerate() {
            let size = sz * 2;
            img.symbols.push(Symbol {
                name: format!("f{i}"),
                addr,
                size,
                kind: SymbolKind::Function,
            });
            addr += size;
        }
        img.text_end = addr;
        // A pointer table after text.
        img.symbols.push(Symbol {
            name: "tbl".into(),
            addr,
            size: 8,
            kind: SymbolKind::Object,
        });
        img.bytes = vec![0x5a; (addr + 8) as usize];
        for i in 0..ptr_count.min(4) {
            img.fn_ptr_locs.push(addr + (i as u32) * 2);
        }
        img.validate().unwrap();

        let text = MavrContainer::new(img.clone()).to_text();
        let parsed = MavrContainer::parse(&text).unwrap();
        prop_assert_eq!(parsed.image, img);
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    /// Hostile-input property for the external-flash container decoder:
    /// whatever a mutation does to a real container, parsing returns a
    /// typed error or a container whose text parses back to itself.
    #[test]
    fn mutated_real_container_is_an_error_or_round_trips(
        ops in proptest::collection::vec((any::<u8>(), any::<u32>(), any::<u32>()), 1..5),
    ) {
        let mut text = tiny_container_text().as_bytes().to_vec();
        for &op in &ops {
            mutate(&mut text, op);
        }
        let text = String::from_utf8_lossy(&text);
        if let Ok(container) = MavrContainer::parse(&text) {
            prop_assert_eq!(MavrContainer::parse(&container.to_text()), Ok(container));
        }
    }
}
