//! Intel HEX encoding and decoding.

use crate::ParseError;
use avr_core::device::{ATMEGA1284P, ATMEGA2560};

/// The most bytes a parsed HEX body may span: the largest flash of any
/// modelled device. Two records far apart would otherwise make the parser
/// allocate the whole gap between them.
pub(crate) const MAX_SPAN: u32 = {
    let (a, b) = (ATMEGA2560.flash_bytes, ATMEGA1284P.flash_bytes);
    if a > b {
        a
    } else {
        b
    }
};

const RECORD_DATA: u8 = 0x00;
const RECORD_EOF: u8 = 0x01;
const RECORD_EXT_LINEAR: u8 = 0x04;

/// Serialize `bytes` (loaded at byte address `base`) as Intel HEX text with
/// 16-byte data records and type-04 extended linear address records at every
/// 64 KiB boundary crossing.
pub fn write_ihex(bytes: &[u8], base: u32) -> String {
    let mut out = String::new();
    let mut upper = u32::MAX; // force an initial ELA record if base > 0xffff
    if base <= 0xffff && (base as usize + bytes.len()) <= 0x1_0000 {
        upper = 0; // small images skip the ELA record, like avr-objcopy
    }
    let mut addr = base;
    for chunk in bytes.chunks(16) {
        // A record must not cross a 64 KiB boundary.
        let mut off = 0usize;
        while off < chunk.len() {
            let hi = addr >> 16;
            if hi != upper {
                upper = hi;
                let payload = [(hi >> 8) as u8, hi as u8];
                push_record(&mut out, 0, RECORD_EXT_LINEAR, &payload);
            }
            let room = (0x1_0000 - (addr & 0xffff)) as usize;
            let take = room.min(chunk.len() - off);
            push_record(
                &mut out,
                (addr & 0xffff) as u16,
                RECORD_DATA,
                &chunk[off..off + take],
            );
            addr += take as u32;
            off += take;
        }
    }
    push_record(&mut out, 0, RECORD_EOF, &[]);
    out
}

fn push_record(out: &mut String, addr: u16, rtype: u8, payload: &[u8]) {
    use std::fmt::Write;
    let mut sum = payload.len() as u8;
    sum = sum
        .wrapping_add((addr >> 8) as u8)
        .wrapping_add(addr as u8)
        .wrapping_add(rtype);
    write!(out, ":{:02X}{:04X}{:02X}", payload.len(), addr, rtype).unwrap();
    for &b in payload {
        write!(out, "{b:02X}").unwrap();
        sum = sum.wrapping_add(b);
    }
    writeln!(out, "{:02X}", sum.wrapping_neg()).unwrap();
}

/// Parse Intel HEX text into `(base_address, bytes)`.
///
/// The returned byte vector is contiguous from the lowest loaded address;
/// gaps are filled with `0xff` (erased flash). Lines starting with `;` are
/// skipped, which is how the MAVR container directives stay compatible with
/// standard loaders.
pub fn parse_ihex(text: &str) -> Result<(u32, Vec<u8>), ParseError> {
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
            RECORD_DATA => chunks.push(((upper << 16) | addr, payload.to_vec())),
            RECORD_EOF => saw_eof = true,
            RECORD_EXT_LINEAR => {
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
    if span > u64::from(MAX_SPAN) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_image_round_trip() {
        let data: Vec<u8> = (0u16..100).map(|i| i as u8).collect();
        let text = write_ihex(&data, 0);
        let (base, parsed) = parse_ihex(&text).unwrap();
        assert_eq!(base, 0);
        assert_eq!(parsed, data);
        assert!(text.ends_with(":00000001FF\n"));
    }

    #[test]
    fn large_image_crosses_64k_boundaries() {
        // 200 KiB image — the Arduplane scale — needs ELA records.
        let data: Vec<u8> = (0..200 * 1024).map(|i| (i * 7) as u8).collect();
        let text = write_ihex(&data, 0);
        assert!(text.contains(":02000004"), "must emit type-04 records");
        let (base, parsed) = parse_ihex(&text).unwrap();
        assert_eq!(base, 0);
        assert_eq!(parsed, data);
    }

    #[test]
    fn far_apart_records_are_too_large_not_a_huge_allocation() {
        // One byte at 0, then one byte at 0xFFFF_FFF0: 56 bytes of text
        // that used to allocate the 4 GiB between them.
        let text = ":01000000AA55\n:02000004FFFFFC\n:01FFF000BB55\n:00000001FF\n";
        assert_eq!(text.len(), 56);
        assert_eq!(
            parse_ihex(text),
            Err(ParseError::TooLarge { span: 0xffff_fff1 })
        );
        // A full-size image still parses.
        let data = vec![0x5a; MAX_SPAN as usize];
        assert_eq!(parse_ihex(&write_ihex(&data, 0)).unwrap().1, data);
        let over = vec![0x5a; MAX_SPAN as usize + 2];
        assert!(matches!(
            parse_ihex(&write_ihex(&over, 0)),
            Err(ParseError::TooLarge { .. })
        ));
    }

    #[test]
    fn nonzero_base() {
        let data = vec![1, 2, 3, 4];
        let text = write_ihex(&data, 0x2_0010);
        let (base, parsed) = parse_ihex(&text).unwrap();
        assert_eq!(base, 0x2_0010);
        assert_eq!(parsed, data);
    }

    #[test]
    fn known_record_format() {
        // The canonical example record.
        let text = write_ihex(
            &[
                0x21, 0x46, 0x01, 0x36, 0x01, 0x21, 0x47, 0x01, 0x36, 0x00, 0x7E, 0xFE, 0x09, 0xD2,
                0x19, 0x01,
            ],
            0x0100,
        );
        assert!(text.starts_with(":10010000214601360121470136007EFE09D21901"));
    }

    #[test]
    fn checksum_rejected() {
        let err = parse_ihex(":0100000000FE\n:00000001FF\n").unwrap_err();
        assert!(matches!(err, ParseError::BadChecksum { .. }));
    }

    #[test]
    fn missing_eof_rejected() {
        let err = parse_ihex(":0100000000FF\n").unwrap_err();
        assert_eq!(err, ParseError::MissingEof);
    }

    #[test]
    fn bad_start_code_rejected() {
        let err = parse_ihex("10010000\n").unwrap_err();
        assert!(matches!(err, ParseError::BadStartCode { line: 1 }));
    }

    #[test]
    fn comments_are_skipped() {
        let text = format!("; MAVR directive line\n{}", write_ihex(&[9], 0));
        let (_, parsed) = parse_ihex(&text).unwrap();
        assert_eq!(parsed, vec![9]);
    }

    #[test]
    fn gaps_fill_with_erased_flash() {
        let mut text = String::new();
        super::push_record(&mut text, 0, 0, &[1]);
        super::push_record(&mut text, 4, 0, &[2]);
        super::push_record(&mut text, 0, 1, &[]);
        let (base, parsed) = parse_ihex(&text).unwrap();
        assert_eq!(base, 0);
        assert_eq!(parsed, vec![1, 0xff, 0xff, 0xff, 2]);
    }

    #[test]
    fn empty_input() {
        assert_eq!(parse_ihex(":00000001FF\n").unwrap(), (0, vec![]));
    }
}
