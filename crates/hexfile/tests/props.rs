//! Property tests: Intel HEX and MAVR container round-trips, and parser
//! robustness against arbitrary and hostile input.

use avr_core::device::{Device, ATMEGA1284P, ATMEGA2560};
use avr_core::image::{FirmwareImage, Symbol, SymbolKind};
use hexfile::{parse_ihex, write_ihex, MavrContainer, ParseError};
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

/// The first `parse_ihex`, before it decoded into one image: a `Vec` per
/// line and a chunk list. The reference for the differential property.
fn reference_parse_ihex(text: &str) -> Result<(u32, Vec<u8>), ParseError> {
    let mut chunks: Vec<(u32, Vec<u8>)> = Vec::new();
    let mut upper: u32 = 0;
    let mut saw_eof = false;
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let t = raw.trim();
        if t.is_empty() || t.starts_with(';') {
            continue;
        }
        if saw_eof {
            break;
        }
        let Some(hex) = t.strip_prefix(':') else {
            return Err(ParseError::BadStartCode { line });
        };
        let bytes = decode_hex(hex).ok_or(ParseError::BadHexDigits { line })?;
        if bytes.len() < 5 {
            return Err(ParseError::BadLength { line });
        }
        let count = bytes[0] as usize;
        if bytes.len() != count + 5 {
            return Err(ParseError::BadLength { line });
        }
        let sum: u8 = bytes[..bytes.len() - 1]
            .iter()
            .fold(0u8, |a, &b| a.wrapping_add(b));
        let expected = sum.wrapping_neg();
        let found = bytes[bytes.len() - 1];
        if expected != found {
            return Err(ParseError::BadChecksum {
                line,
                expected,
                found,
            });
        }
        let addr = (u32::from(bytes[1]) << 8) | u32::from(bytes[2]);
        let rtype = bytes[3];
        let payload = &bytes[4..bytes.len() - 1];
        match rtype {
            0x00 => chunks.push(((upper << 16) | addr, payload.to_vec())),
            0x01 => saw_eof = true,
            0x04 => {
                if payload.len() != 2 {
                    return Err(ParseError::BadLength { line });
                }
                upper = (u32::from(payload[0]) << 8) | u32::from(payload[1]);
            }
            // Start-address records carry no data we need.
            0x03 | 0x05 => {}
            other => {
                return Err(ParseError::UnknownRecordType {
                    line,
                    record_type: other,
                })
            }
        }
    }
    if !saw_eof {
        return Err(ParseError::MissingEof);
    }
    if chunks.is_empty() {
        return Ok((0, Vec::new()));
    }
    let base = chunks.iter().map(|(a, _)| *a).min().unwrap();
    let end = chunks
        .iter()
        .map(|(a, d)| u64::from(*a) + d.len() as u64)
        .max()
        .unwrap();
    let span = end - u64::from(base);
    if span > u64::from(ATMEGA2560.flash_bytes) {
        return Err(ParseError::TooLarge { span });
    }
    let mut image = vec![0xff; span as usize];
    for (a, d) in chunks {
        let off = (a - base) as usize;
        image[off..off + d.len()].copy_from_slice(&d);
    }
    Ok((base, image))
}

fn decode_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    s.as_bytes()
        .chunks(2)
        .map(|pair| {
            let hi = (pair[0] as char).to_digit(16)?;
            let lo = (pair[1] as char).to_digit(16)?;
            Some((hi * 16 + lo) as u8)
        })
        .collect()
}

/// The container parser as it was before the HEX parser's first pass read
/// the directives: its own pass over the lines, then the one-pass HEX
/// parser. The reference for the container differential property.
fn reference_container_parse(text: &str) -> Result<MavrContainer, ParseError> {
    let mut device: Option<Device> = None;
    let mut text_end = 0u32;
    let mut symbols = Vec::new();
    let mut fn_ptr_locs = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let t = raw.trim();
        let Some(directive) = t.strip_prefix(';') else {
            continue;
        };
        let mut parts = directive.split_whitespace();
        match parts.next() {
            Some("MAVR") => {
                let _version = parts.next();
                let name = parts.next().ok_or_else(|| bad(line, "missing device"))?;
                device = Some(match name {
                    "ATmega2560" => ATMEGA2560,
                    "ATmega1284P" => ATMEGA1284P,
                    other => return Err(bad(line, &format!("unknown device {other}"))),
                });
            }
            Some("TEXTEND") => {
                text_end = parse_num(parts.next(), line)?;
            }
            Some("SYM") => {
                let kind = match parts.next() {
                    Some("F") => SymbolKind::Function,
                    Some("O") => SymbolKind::Object,
                    Some("X") => SymbolKind::Fixed,
                    other => return Err(bad(line, &format!("bad symbol kind {other:?}"))),
                };
                let addr = parse_num(parts.next(), line)?;
                let size = parse_num(parts.next(), line)?;
                let name = parts
                    .next()
                    .ok_or_else(|| bad(line, "missing symbol name"))?
                    .to_string();
                symbols.push(Symbol {
                    name,
                    addr,
                    size,
                    kind,
                });
            }
            Some("PTR") => {
                fn_ptr_locs.push(parse_num(parts.next(), line)?);
            }
            _ => {} // unknown comment — ignore, like any HEX loader
        }
    }
    let device = device.ok_or_else(|| bad(0, "missing ;MAVR header"))?;
    let (base, bytes) = reference_parse_ihex(text)?;
    if base != 0 {
        return Err(bad(0, &format!("HEX body must load at 0, got {base:#x}")));
    }
    let image = FirmwareImage {
        device,
        bytes,
        symbols,
        text_end,
        fn_ptr_locs,
    };
    image.validate().map_err(|reason| bad(0, &reason))?;
    Ok(MavrContainer::new(image))
}

fn bad(line: usize, reason: &str) -> ParseError {
    ParseError::BadDirective {
        line,
        reason: reason.to_string(),
    }
}

fn parse_num(field: Option<&str>, line: usize) -> Result<u32, ParseError> {
    let f = field.ok_or_else(|| bad(line, "missing numeric field"))?;
    let parsed = if let Some(hex) = f.strip_prefix("0x") {
        u32::from_str_radix(hex, 16)
    } else {
        f.parse()
    };
    parsed.map_err(|_| bad(line, &format!("bad number {f}")))
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
        prop_assert_eq!(parse_ihex(&text), reference_parse_ihex(&text));
        prop_assert_eq!(MavrContainer::parse(&text), reference_container_parse(&text));
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

    /// Over the same mutations, the HEX parser and the container
    /// parser give exactly their references' results, errors included.
    #[test]
    fn hex_parser_agrees_with_the_one_pass_reference(
        ops in proptest::collection::vec((any::<u8>(), any::<u32>(), any::<u32>()), 1..5),
    ) {
        let mut text = tiny_container_text().as_bytes().to_vec();
        for &op in &ops {
            mutate(&mut text, op);
        }
        let text = String::from_utf8_lossy(&text);
        prop_assert_eq!(parse_ihex(&text), reference_parse_ihex(&text));
        prop_assert_eq!(MavrContainer::parse(&text), reference_container_parse(&text));
    }
}
