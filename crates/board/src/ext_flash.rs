//! The external flash chip (§V-A1): an M95M02-class 256 KiB SPI EEPROM
//! holding the unrandomized binary and its symbol table.
//!
//! "This flash chip serves as the only entry point to introduce new code
//! onto the MAVR system. The randomized binary is never stored on this
//! external flash memory and the application processor never reads from
//! this flash memory."

use std::sync::{Arc, OnceLock};

use crate::chaos::FaultPlan;
use hexfile::MavrContainer;
use mavr::{PatchPlan, RandomizeError, RandomizeOptions, RandomizedImage};
use rand::Rng;

/// Capacity of the prototype part (matches the application processor's
/// program memory, per §V-A1).
pub const CAPACITY_BYTES: usize = 256 * 1024;

/// Directive prefix of the integrity footer appended to the stored text.
const CRC_DIRECTIVE: &str = ";CRC32 ";

/// Errors from the external flash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlashError {
    /// The uploaded container does not fit the chip.
    TooLarge {
        /// Bytes required.
        required: usize,
    },
    /// Read of an empty chip.
    Empty,
    /// The stored container failed to parse (corruption).
    Corrupt(String),
    /// The CRC-32 footer did not match the stored bytes (bit rot, stuck
    /// cells, or a torn upload).
    IntegrityFailure {
        /// CRC the footer recorded at upload time.
        expected: u32,
        /// CRC computed over the bytes actually read back.
        actual: u32,
    },
}

impl std::fmt::Display for FlashError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlashError::TooLarge { required } => write!(
                f,
                "container needs {required} bytes, chip holds {CAPACITY_BYTES}"
            ),
            FlashError::Empty => write!(f, "external flash is empty"),
            FlashError::Corrupt(why) => write!(f, "stored container corrupt: {why}"),
            FlashError::IntegrityFailure { expected, actual } => write!(
                f,
                "container integrity failure: footer CRC {expected:#010x}, read back {actual:#010x}"
            ),
        }
    }
}

impl std::error::Error for FlashError {}

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the classic byte table, and
/// `CRC_TABLES[k][b]` advances the CRC of byte `b` over `k` more zero
/// bytes, so eight input bytes fold in with eight lookups and no carry
/// chain between them.
const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut n = 0;
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][n] = c;
        n += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut n = 0;
        while n < 256 {
            let prev = tables[t - 1][n];
            tables[t][n] = tables[0][(prev & 0xff) as usize] ^ (prev >> 8);
            n += 1;
        }
        t += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

/// IEEE CRC-32 (802.3, reflected; the `cksum -o3`/zlib polynomial) over
/// `bytes`, table-driven eight bytes at a time. The workspace's one copy:
/// container footers here, and snapshot blobs through
/// `mavr_snapshot::crc32`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xffff_ffffu32;
    let mut chunks = bytes.chunks_exact(8);
    for w in &mut chunks {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][usize::from(w[4])]
            ^ t[2][usize::from(w[5])]
            ^ t[1][usize::from(w[6])]
            ^ t[0][usize::from(w[7])];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

/// The chip: stores the MAVR container verbatim, as `avrdude` would upload
/// it (§VI-B2: "receives the HEX file and stores it verbatim").
///
/// The stored bytes never change after an upload, so a chip holds them in
/// one shared [`Arc`] with two memos beside them: the decode of those
/// bytes (CRC check and container parse, run once on first read) and the
/// [`PatchPlan`] of the decoded image. Cloning a chip only bumps a
/// reference count, which is how every board of a campaign boots from one
/// upload. The memo never stands in for a read under an active fault plan:
/// such a read mangles a transient copy and decodes it in full.
#[derive(Debug, Clone, Default)]
pub struct ExternalFlash {
    stored: Option<Arc<Stored>>,
}

/// One upload: the cells' contents and what has been derived from them.
#[derive(Debug)]
struct Stored {
    bytes: Box<[u8]>,
    decoded: OnceLock<Result<MavrContainer, FlashError>>,
    plan: OnceLock<PatchPlan>,
}

impl Stored {
    fn new(bytes: Vec<u8>) -> Self {
        Stored {
            bytes: bytes.into_boxed_slice(),
            decoded: OnceLock::new(),
            plan: OnceLock::new(),
        }
    }

    /// The memoized [`ExternalFlash::decode`] of the stored bytes.
    fn decoded(&self) -> Result<&MavrContainer, FlashError> {
        self.decoded
            .get_or_init(|| ExternalFlash::decode(&self.bytes))
            .as_ref()
            .map_err(Clone::clone)
    }
}

/// A container read back by the master.
#[derive(Debug)]
pub(crate) enum Readback<'a> {
    /// An inert read: the chip's memoized decode and its patch plan.
    Cached {
        container: &'a MavrContainer,
        plan: &'a PatchPlan,
    },
    /// A read through an active fault plan, decoded in full.
    Fresh(MavrContainer),
}

impl Readback<'_> {
    /// The container read.
    pub(crate) fn container(&self) -> &MavrContainer {
        match self {
            Readback::Cached { container, .. } => container,
            Readback::Fresh(container) => container,
        }
    }

    /// Randomize the container's image: through the cached plan when there
    /// is one, else planned from scratch. Both give the same result.
    pub(crate) fn randomize(
        &self,
        rng: &mut impl Rng,
        opts: &RandomizeOptions,
    ) -> Result<RandomizedImage, RandomizeError> {
        match self {
            Readback::Cached { container, plan } => plan.apply(&container.image, rng, opts),
            Readback::Fresh(container) => mavr::randomize(&container.image, rng, opts),
        }
    }
}

impl ExternalFlash {
    /// An erased chip.
    pub fn new() -> Self {
        ExternalFlash::default()
    }

    /// Upload a container (the flashing step on the host).
    ///
    /// The paper warns about exactly this failure mode: the chip is sized
    /// to the application flash, and the symbol table rides on top, so "a
    /// binary that is perilously close to the maximum allowable size" can
    /// exhaust the chip (§VI-B2).
    pub fn upload(&mut self, container: &MavrContainer) -> Result<(), FlashError> {
        // The chip stores the *binary* content the container denotes:
        // symbol directives + program bytes, plus the CRC-32 integrity
        // footer. Model the footprint as the program bytes plus the
        // encoded directive text (the footer counts: it occupies real
        // cells, so it must not push a near-capacity binary over §VI-B2's
        // line for free).
        let mut text = container.to_text();
        let footer = format!("{CRC_DIRECTIVE}{:08x}\n", crc32(text.as_bytes()));
        // Every `;` line precedes the HEX body, whose lines all start with
        // `:`, except the footer.
        let directive_bytes = text
            .lines()
            .take_while(|l| !l.starts_with(':'))
            .filter(|l| l.starts_with(';'))
            .map(|l| l.len() + 1)
            .sum::<usize>()
            + footer.len();
        text.push_str(&footer);
        let required = container.image.bytes.len() + directive_bytes;
        if required > CAPACITY_BYTES {
            return Err(FlashError::TooLarge { required });
        }
        self.stored = Some(Arc::new(Stored::new(text.into_bytes())));
        Ok(())
    }

    /// Master-side read of the whole stored container: CRC-checked against
    /// the upload-time footer, then parsed (once per upload; later reads
    /// clone the memoized result).
    pub fn read(&self) -> Result<MavrContainer, FlashError> {
        self.stored()?.decoded().cloned()
    }

    /// The master's read through a fault plan. An inert plan borrows the
    /// memo, with the image's patch plan. An active plan corrupts a
    /// transient copy of the cells (the stored container is untouched) and
    /// decodes it in full, so each retry observes a fresh roll of the
    /// configured bit rot.
    pub(crate) fn readback(&self, chaos: &mut FaultPlan) -> Result<Readback<'_>, FlashError> {
        let stored = self.stored()?;
        if chaos.is_active() {
            let mut copy = stored.bytes.to_vec();
            chaos.mangle_flash_read(&mut copy);
            return Self::decode(&copy).map(Readback::Fresh);
        }
        let container = stored.decoded()?;
        let plan = stored.plan.get_or_init(|| PatchPlan::new(&container.image));
        Ok(Readback::Cached { container, plan })
    }

    /// Decode the stored container and plan its randomization now, so
    /// every later inert read (on this chip or any clone) only borrows.
    pub fn warm(&self) {
        let _ = self.readback(&mut FaultPlan::none());
    }

    fn stored(&self) -> Result<&Stored, FlashError> {
        self.stored.as_deref().ok_or(FlashError::Empty)
    }

    /// Verify the integrity footer, strip it, and parse what precedes it.
    fn decode(bytes: &[u8]) -> Result<MavrContainer, FlashError> {
        let text = std::str::from_utf8(bytes).map_err(|e| FlashError::Corrupt(e.to_string()))?;
        let body_len = text
            .trim_end_matches('\n')
            .rfind('\n')
            .map(|i| i + 1)
            .unwrap_or(0);
        let (body, footer_line) = text.split_at(body_len);
        let expected = footer_line
            .trim_end()
            .strip_prefix(CRC_DIRECTIVE)
            .and_then(|hex| u32::from_str_radix(hex.trim(), 16).ok())
            .ok_or_else(|| FlashError::Corrupt("missing ;CRC32 integrity footer".into()))?;
        let actual = crc32(body.as_bytes());
        if actual != expected {
            return Err(FlashError::IntegrityFailure { expected, actual });
        }
        MavrContainer::parse(body).map_err(|e| FlashError::Corrupt(e.to_string()))
    }

    /// Random-access byte read (the streaming interface of §VI-B3; `None`
    /// past the end or when empty).
    pub fn read_byte(&self, offset: usize) -> Option<u8> {
        self.stored.as_ref()?.bytes.get(offset).copied()
    }

    /// Whether anything is stored.
    pub fn is_programmed(&self) -> bool {
        self.stored.is_some()
    }

    /// Erase the chip.
    pub fn erase(&mut self) {
        self.stored = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synth_firmware::{apps, build, BuildOptions};

    /// A chip whose cells hold exactly `bytes`.
    fn holding(bytes: Vec<u8>) -> ExternalFlash {
        ExternalFlash {
            stored: Some(Arc::new(Stored::new(bytes))),
        }
    }

    /// The tiny app's real stored bytes: container text plus CRC footer.
    fn tiny_chip() -> ExternalFlash {
        let fw = build(&apps::tiny_test_app(), &BuildOptions::vulnerable_mavr()).unwrap();
        let mut chip = ExternalFlash::new();
        chip.upload(&mavr::preprocess(&fw.image).unwrap()).unwrap();
        chip
    }

    fn tiny_stored_bytes() -> &'static [u8] {
        static BYTES: std::sync::OnceLock<Box<[u8]>> = std::sync::OnceLock::new();
        BYTES.get_or_init(|| tiny_chip().stored.unwrap().bytes.clone())
    }

    /// Where the footer line starts.
    fn footer_start(bytes: &[u8]) -> usize {
        let body = bytes.strip_suffix(b"\n").unwrap_or(bytes);
        body.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1)
    }

    /// Apply one `(op, a, b)` corruption to stored chip bytes.
    fn corrupt(bytes: &mut Vec<u8>, (op, a, b): (u8, u32, u32)) {
        let (a, b) = (a as usize, b as usize);
        match op % 6 {
            // Bit rot anywhere.
            0 => {
                if !bytes.is_empty() {
                    let at = a % bytes.len();
                    bytes[at] ^= 1 << (b % 8);
                }
            }
            // A torn upload.
            1 => bytes.truncate(a % (bytes.len() + 1)),
            // The footer deleted.
            2 => bytes.truncate(footer_start(bytes)),
            // The footer duplicated.
            3 => {
                let footer = bytes[footer_start(bytes)..].to_vec();
                bytes.extend_from_slice(&footer);
            }
            // A byte that is not UTF-8.
            4 => {
                let at = a % (bytes.len() + 1);
                bytes.insert(at, 0x80 | b as u8);
            }
            // A body mutation under a fresh, checksum-valid footer: the
            // CRC passes and the container parser meets the damage.
            _ => {
                let mut body = bytes[..footer_start(bytes)].to_vec();
                if !body.is_empty() {
                    let at = a % body.len();
                    match b % 3 {
                        0 => body[at] ^= 1 << (b / 3 % 7),
                        1 => drop(body.drain(at..(at + b / 3 % 64).min(body.len()))),
                        _ => body.insert(at, b"0123456789ABCDEF:;\n x"[b / 3 % 21]),
                    }
                }
                let footer = format!("{CRC_DIRECTIVE}{:08x}\n", crc32(&body));
                body.extend_from_slice(footer.as_bytes());
                *bytes = body;
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Hostile input to the chip's decoder (the CRC footer split, then
        /// the container parse): every corruption of the real stored bytes
        /// reads back as a typed error or as a container that parses back
        /// to itself. Nothing panics.
        #[test]
        fn corrupted_chip_reads_are_typed_errors_or_round_trip(
            ops in proptest::collection::vec(
                (proptest::prelude::any::<u8>(), proptest::prelude::any::<u32>(), proptest::prelude::any::<u32>()),
                1..4,
            ),
        ) {
            let mut bytes = tiny_stored_bytes().to_vec();
            for &op in &ops {
                corrupt(&mut bytes, op);
            }
            if let Ok(container) = holding(bytes).read() {
                proptest::prop_assert_eq!(MavrContainer::parse(&container.to_text()), Ok(container));
            }
        }
    }

    #[test]
    fn upload_read_round_trip() {
        let fw = build(&apps::tiny_test_app(), &BuildOptions::safe_mavr()).unwrap();
        let container = mavr::preprocess(&fw.image).unwrap();
        let mut chip = ExternalFlash::new();
        assert!(!chip.is_programmed());
        chip.upload(&container).unwrap();
        assert!(chip.is_programmed());
        let back = chip.read().unwrap();
        assert_eq!(back.image, fw.image);
        assert!(chip.read_byte(0).is_some());
    }

    #[test]
    fn integrity_footer_is_stored_and_checked() {
        let fw = build(&apps::tiny_test_app(), &BuildOptions::safe_mavr()).unwrap();
        let mut chip = ExternalFlash::new();
        chip.upload(&mavr::preprocess(&fw.image).unwrap()).unwrap();
        // The footer is real stored content.
        let stored: Vec<u8> = (0..).map_while(|i| chip.read_byte(i)).collect();
        let text = std::str::from_utf8(&stored).unwrap();
        assert!(text
            .trim_end()
            .lines()
            .last()
            .unwrap()
            .starts_with(";CRC32 "));

        // Flip one stored bit: the read must fail closed with the CRC pair.
        let mut bytes = stored.clone();
        let at = bytes.len() / 3;
        bytes[at] ^= 0x40;
        match holding(bytes).read().unwrap_err() {
            FlashError::IntegrityFailure { expected, actual } => assert_ne!(expected, actual),
            other => panic!("expected IntegrityFailure, got {other:?}"),
        }

        // A chip written without a footer (legacy or torn upload) is corrupt.
        let body_end = text.trim_end_matches('\n').rfind('\n').unwrap() + 1;
        let legacy = holding(stored[..body_end].to_vec());
        assert!(matches!(legacy.read().unwrap_err(), FlashError::Corrupt(_)));
    }

    #[test]
    fn a_warm_cache_never_answers_an_active_plan() {
        use crate::chaos::{ChaosConfig, FaultPlan};
        let chip = tiny_chip();
        chip.warm();
        let memo = chip.stored.as_ref().unwrap().decoded.get().unwrap();
        let memo = memo.as_ref().unwrap() as *const MavrContainer;

        // Every read sticks one byte at 0x00: the CRC check must see it,
        // however warm the memo beside the cells is.
        let mut rot = FaultPlan::new(
            5,
            ChaosConfig {
                flash_stuck_byte: 1.0,
                ..ChaosConfig::off()
            },
        );
        let mut integrity_failures = 0;
        for _ in 0..16 {
            match chip.readback(&mut rot) {
                Err(FlashError::IntegrityFailure { expected, actual }) => {
                    assert_ne!(expected, actual);
                    integrity_failures += 1;
                }
                // A byte stuck at 0xff is not UTF-8.
                Err(FlashError::Corrupt(_)) => {}
                other => panic!("an active plan read {other:?}"),
            }
        }
        assert!(integrity_failures > 0);
        assert_eq!(rot.injected(), 16, "every read rotted");

        // An inert read of the same chip (or a clone) borrows the memo.
        for reader in [&chip, &chip.clone()] {
            match reader.readback(&mut FaultPlan::none()).unwrap() {
                Readback::Cached { container, .. } => {
                    assert!(std::ptr::eq(container, memo));
                    assert_eq!(*container, chip.read().unwrap());
                }
                Readback::Fresh(_) => panic!("inert read bypassed the memo"),
            }
        }
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn empty_chip_errors() {
        let chip = ExternalFlash::new();
        assert_eq!(chip.read().unwrap_err(), FlashError::Empty);
        assert_eq!(chip.read_byte(0), None);
    }

    #[test]
    fn erase_clears() {
        let fw = build(&apps::tiny_test_app(), &BuildOptions::safe_mavr()).unwrap();
        let mut chip = ExternalFlash::new();
        chip.upload(&mavr::preprocess(&fw.image).unwrap()).unwrap();
        chip.erase();
        assert!(!chip.is_programmed());
    }

    #[test]
    fn oversized_container_rejected() {
        // A full-size app (221 KiB) plus its symbol table is fine on the
        // 256 KiB chip; force failure with a near-capacity fake image.
        use avr_core::device::ATMEGA2560;
        use avr_core::image::{FirmwareImage, Symbol, SymbolKind};
        let mut img = FirmwareImage::new(ATMEGA2560);
        img.bytes = vec![0; 255 * 1024];
        img.text_end = 255 * 1024;
        img.symbols = (0..2000u32)
            .map(|i| Symbol {
                name: format!("very_long_function_symbol_name_{i:08}"),
                addr: i * 2,
                size: 2,
                kind: SymbolKind::Function,
            })
            .collect();
        let container = MavrContainer::new(img);
        let mut chip = ExternalFlash::new();
        assert!(matches!(
            chip.upload(&container),
            Err(FlashError::TooLarge { .. })
        ));
    }
}
