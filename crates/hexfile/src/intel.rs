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

/// Uppercase hex digit of each nibble value.
const NIBBLE: &[u8; 16] = b"0123456789ABCDEF";

/// The two uppercase hex digits of each byte value.
const HEX_PAIRS: [[u8; 2]; 256] = {
    let mut table = [[0u8; 2]; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = [NIBBLE[b >> 4], NIBBLE[b & 0xf]];
        b += 1;
    }
    table
};

/// Value of each ASCII hex digit (either case); `INVALID` elsewhere.
const HEX_VALUE: [u8; 256] = {
    let mut table = [INVALID; 256];
    let mut i = 0;
    while i < 16 {
        table[NIBBLE[i] as usize] = i as u8;
        table[NIBBLE[i].to_ascii_lowercase() as usize] = i as u8;
        i += 1;
    }
    table
};
/// Has bits outside the low nibble, so an OR over decoded digits shows
/// whether any was invalid.
const INVALID: u8 = 0xff;

/// Payload bytes per data record [`write_ihex`] emits.
const RECORD_BYTES: usize = 16;

/// Serialize `bytes` (loaded at byte address `base`) as Intel HEX text with
/// 16-byte data records and type-04 extended linear address records at every
/// 64 KiB boundary crossing.
pub fn write_ihex(bytes: &[u8], base: u32) -> String {
    let mut out = Vec::with_capacity(ihex_len_bound(bytes.len()));
    write_ihex_into(&mut out, bytes, base);
    String::from_utf8(out).expect("Intel HEX is ASCII")
}

/// An upper bound on [`write_ihex`]'s output length for `len` data bytes:
/// one record per 16-byte chunk, plus at each 64 KiB boundary a split
/// chunk's second record and an extended-address record, plus EOF.
pub(crate) fn ihex_len_bound(len: usize) -> usize {
    const RECORD_OVERHEAD: usize = 12; // ':', count, address, type, checksum, '\n'
    let records = len.div_ceil(RECORD_BYTES) + 2 * (len / 0x1_0000 + 1) + 2;
    records * RECORD_OVERHEAD + 2 * len
}

/// [`write_ihex`] appending to `out`.
pub(crate) fn write_ihex_into(out: &mut Vec<u8>, bytes: &[u8], base: u32) {
    let mut upper = u32::MAX; // force an initial ELA record if base > 0xffff
    if base <= 0xffff && (base as usize + bytes.len()) <= 0x1_0000 {
        upper = 0; // small images skip the ELA record, like avr-objcopy
    }
    let mut addr = base;
    for chunk in bytes.chunks(RECORD_BYTES) {
        // A record must not cross a 64 KiB boundary.
        let mut off = 0usize;
        while off < chunk.len() {
            let hi = addr >> 16;
            if hi != upper {
                upper = hi;
                let payload = [(hi >> 8) as u8, hi as u8];
                push_record(out, 0, RECORD_EXT_LINEAR, &payload);
            }
            let room = (0x1_0000 - (addr & 0xffff)) as usize;
            let take = room.min(chunk.len() - off);
            push_record(
                out,
                (addr & 0xffff) as u16,
                RECORD_DATA,
                &chunk[off..off + take],
            );
            addr += take as u32;
            off += take;
        }
    }
    push_record(out, 0, RECORD_EOF, &[]);
}

/// Append one record (payload of at most [`RECORD_BYTES`]), formatted in
/// a stack buffer and copied out whole.
fn push_record(out: &mut Vec<u8>, addr: u16, rtype: u8, payload: &[u8]) {
    let mut record = [0u8; 1 + 2 * (4 + RECORD_BYTES + 1) + 1];
    let header = [payload.len() as u8, (addr >> 8) as u8, addr as u8, rtype];
    record[0] = b':';
    let mut n = 1;
    let mut sum = 0u8;
    for &b in header.iter().chain(payload) {
        record[n..n + 2].copy_from_slice(&HEX_PAIRS[usize::from(b)]);
        n += 2;
        sum = sum.wrapping_add(b);
    }
    record[n..n + 2].copy_from_slice(&HEX_PAIRS[usize::from(sum.wrapping_neg())]);
    record[n + 2] = b'\n';
    out.extend_from_slice(&record[..n + 3]);
}

/// The lines of `text`, trimmed, with their 1-based line numbers.
fn lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines().enumerate().map(|(i, raw)| (i + 1, raw.trim()))
}

/// A record line's count, address and type, read from its first eight
/// digits, when its length matches its count. `None` means the full
/// decode rejects the line.
fn record_header(t: &str) -> Option<(usize, u32, u8)> {
    let hex = t.strip_prefix(':')?.as_bytes();
    let mut header = [0u8; 4];
    decode_hex(hex.get(..8)?, &mut header).then_some(())?;
    let count = usize::from(header[0]);
    (hex.len() == 2 * (count + 5)).then_some(())?;
    let addr = (u32::from(header[1]) << 8) | u32::from(header[2]);
    Some((count, addr, header[3]))
}

/// Decode hex digit pairs into `out` (`hex.len() == 2 * out.len()`);
/// false if any digit is not hex.
fn decode_hex(hex: &[u8], out: &mut [u8]) -> bool {
    let mut bad = 0u8;
    for (o, pair) in out.iter_mut().zip(hex.chunks_exact(2)) {
        let (hi, lo) = (
            HEX_VALUE[usize::from(pair[0])],
            HEX_VALUE[usize::from(pair[1])],
        );
        bad |= hi | lo;
        *o = (hi << 4) | lo;
    }
    bad & 0xf0 == 0
}

/// Parse Intel HEX text into `(base_address, bytes)`.
///
/// The returned byte vector is contiguous from the lowest loaded address;
/// gaps are filled with `0xff` (erased flash). Lines starting with `;` are
/// skipped, which is how the MAVR container directives stay compatible with
/// standard loaders.
///
/// A first pass ([`scan`]) reads only the record headers, to bound the
/// loaded span before anything is allocated; the second ([`Scanned::load`])
/// validates every record and decodes each data record straight into the
/// image. Errors come in line order, then a missing EOF, then a span too
/// large for any flash.
pub fn parse_ihex(text: &str) -> Result<(u32, Vec<u8>), ParseError> {
    scan(text, |_, _| Ok(()))?.load(text)
}

/// The first pass of [`parse_ihex`] over a text: the span its data records
/// cover, as their headers say.
pub(crate) struct Scanned {
    /// `(lowest address, end)`, or `None` with no data records.
    span: Option<(u32, u64)>,
}

/// Read the data records' span from their headers alone, up to the EOF
/// record, and hand every `;` line (without the `;`) to `comment` on the
/// way, so the MAVR container reads its directives in the same pass. The
/// span stops growing at the first record line with a malformed header:
/// the full decode rejects that line, so nothing after it loads.
pub(crate) fn scan(
    text: &str,
    mut comment: impl FnMut(usize, &str) -> Result<(), ParseError>,
) -> Result<Scanned, ParseError> {
    let mut span: Option<(u32, u64)> = None;
    let mut upper = 0u32;
    let mut loading = true;
    for (line, t) in lines(text) {
        if let Some(c) = t.strip_prefix(';') {
            comment(line, c)?;
            continue;
        }
        if t.is_empty() || !loading {
            continue;
        }
        let Some((count, addr, rtype)) = record_header(t) else {
            loading = false;
            continue;
        };
        match rtype {
            RECORD_DATA => {
                let addr = (upper << 16) | addr;
                let end = u64::from(addr) + count as u64;
                span = Some(span.map_or((addr, end), |(lo, hi)| (lo.min(addr), hi.max(end))));
            }
            RECORD_EOF => loading = false,
            RECORD_EXT_LINEAR => {
                let mut payload = [0u8; 2];
                if count == 2 && decode_hex(&t.as_bytes()[9..13], &mut payload) {
                    upper = u32::from(u16::from_be_bytes(payload));
                } else {
                    loading = false;
                }
            }
            _ => {}
        }
    }
    Ok(Scanned { span })
}

impl Scanned {
    /// The second pass of [`parse_ihex`] over the same text.
    pub(crate) fn load(self, text: &str) -> Result<(u32, Vec<u8>), ParseError> {
        let Some((base, end)) = self
            .span
            .filter(|&(base, end)| end - u64::from(base) <= u64::from(MAX_SPAN))
        else {
            // Nothing to load, or too much: validate before saying which.
            for_each_data_record(text, |_, _| {})?;
            return match self.span {
                None => Ok((0, Vec::new())),
                Some((base, end)) => Err(ParseError::TooLarge {
                    span: end - u64::from(base),
                }),
            };
        };
        let mut image = vec![0xff; (end - u64::from(base)) as usize];
        for_each_data_record(text, |addr, payload| {
            let off = (addr - base) as usize;
            image[off..off + payload.len()].copy_from_slice(payload);
        })?;
        Ok((base, image))
    }
}

/// Validate every record of `text` up to its EOF record, calling `data`
/// with the absolute load address and payload of each data record. The
/// payload is decoded into one stack buffer, reused for every line.
fn for_each_data_record(text: &str, mut data: impl FnMut(u32, &[u8])) -> Result<(), ParseError> {
    // count + address + type + 255 payload bytes + checksum.
    let mut record = [0u8; 260];
    let mut upper: u32 = 0;
    let mut saw_eof = false;
    for (line, t) in lines(text) {
        if t.is_empty() || t.starts_with(';') {
            continue;
        }
        if saw_eof {
            break;
        }
        let Some(hex) = t.strip_prefix(':') else {
            return Err(ParseError::BadStartCode { line });
        };
        let hex = hex.as_bytes();
        if !hex.len().is_multiple_of(2) {
            return Err(ParseError::BadHexDigits { line });
        }
        let len = hex.len() / 2;
        // A line longer than any record still has its digits checked first.
        let digits_ok = match record.get_mut(..len) {
            Some(out) => decode_hex(hex, out),
            None => hex.iter().all(|&c| HEX_VALUE[usize::from(c)] != INVALID),
        };
        if !digits_ok {
            return Err(ParseError::BadHexDigits { line });
        }
        if len < 5 || len != usize::from(record[0]) + 5 {
            return Err(ParseError::BadLength { line });
        }
        let (body, found) = (&record[..len - 1], record[len - 1]);
        let expected = body
            .iter()
            .fold(0u8, |a, &b| a.wrapping_add(b))
            .wrapping_neg();
        if expected != found {
            return Err(ParseError::BadChecksum {
                line,
                expected,
                found,
            });
        }
        let addr = (u32::from(record[1]) << 8) | u32::from(record[2]);
        let payload = &record[4..len - 1];
        match record[3] {
            RECORD_DATA => data((upper << 16) | addr, payload),
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
    Ok(())
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
        let mut text = Vec::new();
        super::push_record(&mut text, 0, 0, &[1]);
        super::push_record(&mut text, 4, 0, &[2]);
        super::push_record(&mut text, 0, 1, &[]);
        let (base, parsed) = parse_ihex(std::str::from_utf8(&text).unwrap()).unwrap();
        assert_eq!(base, 0);
        assert_eq!(parsed, vec![1, 0xff, 0xff, 0xff, 2]);
    }

    #[test]
    fn empty_input() {
        assert_eq!(parse_ihex(":00000001FF\n").unwrap(), (0, vec![]));
    }
}
