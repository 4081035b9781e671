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
/// One walk over the lines ([`scan`]) validates every record and decodes
/// each data record straight into the image, which grows to the span loaded
/// so far and is dropped as soon as that span outgrows any flash. Errors
/// come in line order, then a missing EOF, then a span too large for any
/// flash.
pub fn parse_ihex(text: &str) -> Result<(u32, Vec<u8>), ParseError> {
    scan(text, |_, _| Ok(()))?.body
}

/// The result of [`scan`]: the decoded HEX body, or the first error in it,
/// held back so that the caller's directive errors (found anywhere in the
/// text) come first.
pub(crate) struct Scanned {
    /// `(base address, bytes)` as [`parse_ihex`] returns them.
    pub body: Result<(u32, Vec<u8>), ParseError>,
}

/// Walk `text` once: hand every `;` line (without the `;`) to `comment`,
/// returning its first error at once, and validate and load every record up
/// to the EOF record into [`Scanned::body`].
pub(crate) fn scan(
    text: &str,
    mut comment: impl FnMut(usize, &str) -> Result<(), ParseError>,
) -> Result<Scanned, ParseError> {
    let mut body = Body::default();
    let mut record: Record = [0; 260];
    let mut error = None;
    for (line, t) in lines(text) {
        if let Some(c) = t.strip_prefix(';') {
            comment(line, c)?;
        } else if !t.is_empty() && !body.saw_eof && error.is_none() {
            error = body.record(&mut record, line, t).err();
        }
    }
    let body = match error {
        Some(e) => Err(e),
        None => body.finish(),
    };
    Ok(Scanned { body })
}

/// A decoded record: count + address + type + 255 payload bytes + checksum.
type Record = [u8; 260];

/// The HEX body loaded so far by [`scan`].
#[derive(Default)]
struct Body {
    /// Upper 16 address bits from the last extended linear address record.
    upper: u32,
    saw_eof: bool,
    /// `(lowest address, end)` of the data records, or `None` before the
    /// first one.
    span: Option<(u32, u64)>,
    /// The bytes from the lowest address, while the span fits in
    /// [`MAX_SPAN`]; emptied for good once it does not.
    image: Vec<u8>,
}

impl Body {
    /// Validate one record line `t` (line number `line`) and apply it,
    /// decoding into `record`, one buffer reused for every line.
    fn record(&mut self, record: &mut Record, line: usize, t: &str) -> Result<(), ParseError> {
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
        let (sum, found) = (&record[..len - 1], record[len - 1]);
        let expected = sum
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
            RECORD_DATA => self.load((self.upper << 16) | addr, payload),
            RECORD_EOF => self.saw_eof = true,
            RECORD_EXT_LINEAR => {
                if payload.len() != 2 {
                    return Err(ParseError::BadLength { line });
                }
                self.upper = (u32::from(payload[0]) << 8) | u32::from(payload[1]);
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
        Ok(())
    }

    /// Copy a data record's payload to absolute address `addr`, widening
    /// the image (erased `0xff` in any gap) while the span fits any flash.
    /// The span only grows, so once it does not fit nothing loads again.
    fn load(&mut self, addr: u32, payload: &[u8]) {
        let end = u64::from(addr) + payload.len() as u64;
        let old = self.span;
        let (lo, hi) = old.map_or((addr, end), |(lo, hi)| (lo.min(addr), hi.max(end)));
        self.span = Some((lo, hi));
        if hi - u64::from(lo) > u64::from(MAX_SPAN) {
            self.image = Vec::new();
            return;
        }
        if let Some((old_lo, _)) = old.filter(|&(old_lo, _)| lo < old_lo) {
            let gap = (old_lo - lo) as usize;
            self.image.splice(0..0, std::iter::repeat_n(0xff, gap));
        }
        let needed = (hi - u64::from(lo)) as usize;
        if self.image.len() < needed {
            self.image.resize(needed, 0xff);
        }
        let off = (addr - lo) as usize;
        self.image[off..off + payload.len()].copy_from_slice(payload);
    }

    /// The body: a missing EOF record, then a span too large for any flash,
    /// are errors.
    fn finish(self) -> Result<(u32, Vec<u8>), ParseError> {
        if !self.saw_eof {
            return Err(ParseError::MissingEof);
        }
        match self.span {
            None => Ok((0, Vec::new())),
            Some((lo, hi)) if hi - u64::from(lo) > u64::from(MAX_SPAN) => {
                Err(ParseError::TooLarge {
                    span: hi - u64::from(lo),
                })
            }
            Some((lo, _)) => Ok((lo, self.image)),
        }
    }
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
    fn records_load_alike_in_any_order() {
        // Descending addresses widen the image to the left.
        let mut text = Vec::new();
        super::push_record(&mut text, 8, 0, &[3]);
        super::push_record(&mut text, 4, 0, &[2]);
        super::push_record(&mut text, 2, 0, &[1, 1]);
        super::push_record(&mut text, 0, 1, &[]);
        let (base, parsed) = parse_ihex(std::str::from_utf8(&text).unwrap()).unwrap();
        assert_eq!(base, 2);
        assert_eq!(parsed, vec![1, 1, 2, 0xff, 0xff, 0xff, 3]);
    }

    #[test]
    fn empty_input() {
        assert_eq!(parse_ihex(":00000001FF\n").unwrap(), (0, vec![]));
    }
}
