//! Intel HEX files and the MAVR prepended-symbol-table container.
//!
//! The paper's preprocessing phase (§VI-B2) parses the pre-strip ELF symbol
//! table on the host, then *prepends* the important symbol information to
//! the Intel HEX file that gets uploaded to the MAVR external flash chip, so
//! that the master processor can move functions as blocks and update
//! function pointers at runtime.
//!
//! This crate implements both halves:
//!
//! * [`intel`] — a standard Intel HEX reader/writer (with type-04 extended
//!   linear address records, required for the ATmega2560's 256 KiB flash),
//! * [`container`] — the MAVR container: symbol table + function-pointer
//!   list + text-end marker prepended to the HEX body as `;`-comment lines
//!   (Intel HEX loaders skip them; the MAVR master parses them).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod container;
pub mod intel;

pub use container::MavrContainer;
pub use intel::{parse_ihex, write_ihex};

/// Errors from parsing HEX files or MAVR containers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// A line did not start with `:` and was not a `;` comment/directive.
    BadStartCode {
        /// 1-based line number.
        line: usize,
    },
    /// Non-hex characters or odd digit count.
    BadHexDigits {
        /// 1-based line number.
        line: usize,
    },
    /// Record length field disagrees with actual byte count.
    BadLength {
        /// 1-based line number.
        line: usize,
    },
    /// Checksum mismatch.
    BadChecksum {
        /// 1-based line number.
        line: usize,
        /// Expected checksum byte.
        expected: u8,
        /// Checksum byte found on the line.
        found: u8,
    },
    /// Unsupported record type.
    UnknownRecordType {
        /// 1-based line number.
        line: usize,
        /// The record type byte.
        record_type: u8,
    },
    /// No type-01 EOF record at the end.
    MissingEof,
    /// The data records span more bytes than any device's flash holds.
    TooLarge {
        /// Bytes from the lowest to the highest loaded address.
        span: u64,
    },
    /// A MAVR directive line was malformed.
    BadDirective {
        /// 1-based line number.
        line: usize,
        /// Explanation.
        reason: String,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::BadStartCode { line } => write!(f, "line {line}: missing ':' start code"),
            ParseError::BadHexDigits { line } => write!(f, "line {line}: invalid hex digits"),
            ParseError::BadLength { line } => write!(f, "line {line}: length mismatch"),
            ParseError::BadChecksum {
                line,
                expected,
                found,
            } => write!(
                f,
                "line {line}: checksum mismatch (expected {expected:#04x}, found {found:#04x})"
            ),
            ParseError::UnknownRecordType { line, record_type } => {
                write!(f, "line {line}: unknown record type {record_type:#04x}")
            }
            ParseError::MissingEof => write!(f, "missing EOF record"),
            ParseError::TooLarge { span } => write!(
                f,
                "HEX body spans {span} bytes, more than the {} bytes of the largest flash",
                intel::MAX_SPAN
            ),
            ParseError::BadDirective { line, reason } => {
                write!(f, "line {line}: bad MAVR directive: {reason}")
            }
        }
    }
}

impl std::error::Error for ParseError {}
