//! The MAVR container: symbol information prepended to an Intel HEX file.
//!
//! The paper's flash utility "strips all symbol information from the binary
//! before uploading it onto the board, \[so\] we modified it by constructing
//! our own symbol table … and prepending it to the application's hex file"
//! (§V-B1). This module defines that on-the-wire format:
//!
//! ```text
//! ;MAVR 1 ATmega2560
//! ;TEXTEND 0x00035e00
//! ;SYM F 0x0000 0x00e2 __vectors
//! ;SYM F 0x00e2 0x0124 main
//! ;OBJ 0x35e00 0x40 vtable_nav
//! ;PTR 0x00035e02
//! :100000000C94...   (standard Intel HEX body)
//! ```
//!
//! Directive lines start with `;`, which standard Intel HEX loaders ignore,
//! so a MAVR container is still a valid HEX file for ordinary tools — the
//! same compatibility trick the paper relies on when it uploads the modified
//! HEX with stock `avrdude`.

use avr_core::device::{Device, ATMEGA1284P, ATMEGA2560};
use avr_core::image::{FirmwareImage, Symbol, SymbolKind};

use crate::intel::{ihex_len_bound, scan, write_ihex_into};
use crate::ParseError;

/// Format version emitted by this implementation.
pub const FORMAT_VERSION: u32 = 1;

/// A parsed or to-be-written MAVR container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MavrContainer {
    /// The firmware image carried by the container.
    pub image: FirmwareImage,
}

impl MavrContainer {
    /// Wrap an image for upload to the external flash chip.
    pub fn new(image: FirmwareImage) -> Self {
        MavrContainer { image }
    }

    /// Serialize: symbol directives first, then the Intel HEX body, all
    /// written into one buffer sized for the whole text up front.
    pub fn to_text(&self) -> String {
        use std::io::Write;
        let img = &self.image;
        let directives: usize = img.symbols.iter().map(|s| s.name.len() + 32).sum::<usize>()
            + img.fn_ptr_locs.len() * 16
            + 64;
        let mut out = Vec::with_capacity(directives + ihex_len_bound(img.bytes.len()));
        writeln!(out, ";MAVR {} {}", FORMAT_VERSION, img.device.name).unwrap();
        writeln!(out, ";TEXTEND {:#010x}", img.text_end).unwrap();
        for s in &img.symbols {
            let tag = match s.kind {
                SymbolKind::Function => "F",
                SymbolKind::Object => "O",
                SymbolKind::Fixed => "X",
            };
            writeln!(out, ";SYM {} {:#x} {:#x} {}", tag, s.addr, s.size, s.name).unwrap();
        }
        for &p in &img.fn_ptr_locs {
            writeln!(out, ";PTR {p:#x}").unwrap();
        }
        write_ihex_into(&mut out, &img.bytes, 0);
        String::from_utf8(out).expect("directives and Intel HEX are UTF-8")
    }

    /// Parse a container produced by [`MavrContainer::to_text`].
    pub fn parse(text: &str) -> Result<Self, ParseError> {
        let mut device: Option<Device> = None;
        let mut text_end = 0u32;
        let mut symbols = Vec::new();
        let mut fn_ptr_locs = Vec::new();
        // The directives are read in the HEX parser's first pass.
        let scanned = scan(text, |line, directive| {
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
            Ok(())
        })?;
        let device = device.ok_or_else(|| bad(0, "missing ;MAVR header"))?;
        let (base, bytes) = scanned.load(text)?;
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
        Ok(MavrContainer { image })
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_image() -> FirmwareImage {
        let mut img = FirmwareImage::new(ATMEGA2560);
        img.bytes = (0u32..300).map(|i| (i * 3) as u8).collect();
        // keep word alignment
        img.bytes.truncate(300);
        img.symbols = vec![
            Symbol {
                name: "__vectors".into(),
                addr: 0,
                size: 8,
                kind: SymbolKind::Fixed,
            },
            Symbol {
                name: "main".into(),
                addr: 8,
                size: 100,
                kind: SymbolKind::Function,
            },
            Symbol {
                name: "update_gyro".into(),
                addr: 108,
                size: 150,
                kind: SymbolKind::Function,
            },
            Symbol {
                name: "nav_vtable".into(),
                addr: 258,
                size: 42,
                kind: SymbolKind::Object,
            },
        ];
        img.text_end = 258;
        img.fn_ptr_locs = vec![258, 260];
        img
    }

    #[test]
    fn container_round_trip() {
        let img = sample_image();
        let text = MavrContainer::new(img.clone()).to_text();
        let parsed = MavrContainer::parse(&text).unwrap();
        assert_eq!(parsed.image, img);
    }

    #[test]
    fn container_is_valid_plain_hex() {
        let img = sample_image();
        let text = MavrContainer::new(img.clone()).to_text();
        let (base, bytes) = crate::parse_ihex(&text).unwrap();
        assert_eq!(base, 0);
        assert_eq!(bytes, img.bytes);
    }

    #[test]
    fn missing_header_rejected() {
        let text = crate::write_ihex(&[1, 2], 0);
        let err = MavrContainer::parse(&text).unwrap_err();
        assert!(matches!(err, ParseError::BadDirective { .. }));
    }

    #[test]
    fn malformed_symbol_rejected() {
        let text = ";MAVR 1 ATmega2560\n;SYM Q 0x0 0x2 foo\n:00000001FF\n";
        assert!(MavrContainer::parse(text).is_err());
        let text = ";MAVR 1 ATmega2560\n;SYM F zzz 0x2 foo\n:00000001FF\n";
        assert!(MavrContainer::parse(text).is_err());
    }

    #[test]
    fn unknown_device_rejected() {
        let text = ";MAVR 1 Z80\n:00000001FF\n";
        assert!(MavrContainer::parse(text).is_err());
    }

    #[test]
    fn symbol_extent_overflow_is_a_typed_error() {
        // `0xfffffffe + 0x4` wraps a u32: the extent check must not panic
        // (debug) or wrap into bounds (release).
        let text = ";MAVR 1 ATmega2560\n;SYM F 0xfffffffe 0x4 evil\n:020000000C945E\n:00000001FF\n";
        assert!(matches!(
            MavrContainer::parse(text),
            Err(ParseError::BadDirective { reason, .. }) if reason.contains("evil")
        ));
    }

    #[test]
    fn inconsistent_image_rejected() {
        // Symbol extends beyond the carried bytes.
        let text = ";MAVR 1 ATmega2560\n;SYM F 0x0 0x100 foo\n:0100000055AA\n:00000001FF\n";
        assert!(MavrContainer::parse(text).is_err());
    }
}
