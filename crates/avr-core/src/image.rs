//! The firmware-image vocabulary shared by the assembler (`avr-asm`), the
//! randomizer (`mavr`) and the attack library (`rop`).
//!
//! A [`FirmwareImage`] is the flat program-memory image plus exactly the
//! side information the paper's preprocessing phase extracts from the ELF
//! file (§VI-B2): the sorted list of function symbols and the addresses of
//! function pointers embedded in constant/data sections.

use crate::device::Device;

/// Classification of a symbol in the image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SymbolKind {
    /// An executable function block — the unit MAVR shuffles.
    Function,
    /// A non-executable object (constant table, data initializer).
    Object,
    /// Fixed-location code that must not move (interrupt vector table,
    /// bootloader stub). The paper notes the serial bootloader "must sit at
    /// a fixed location" (§VI-B4).
    Fixed,
}

/// One symbol from the (pre-strip) ELF symbol table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Symbol {
    /// Symbol name.
    pub name: String,
    /// Byte address within program memory.
    pub addr: u32,
    /// Size in bytes.
    pub size: u32,
    /// Symbol classification.
    pub kind: SymbolKind,
}

impl Symbol {
    /// Exclusive end address.
    pub fn end(&self) -> u32 {
        self.addr + self.size
    }

    /// Whether `addr` falls inside this symbol.
    pub fn contains(&self, addr: u32) -> bool {
        addr >= self.addr && addr < self.end()
    }
}

/// A flat AVR program-memory image with symbol and pointer metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FirmwareImage {
    /// The device this image targets.
    pub device: Device,
    /// Raw program memory, little-endian words, starting at flash address 0.
    pub bytes: Vec<u8>,
    /// All symbols, sorted by ascending address.
    pub symbols: Vec<Symbol>,
    /// Byte offset where executable code ends; everything at or above this
    /// offset is constant/data storage. The streaming patcher uses this to
    /// decide between instruction patching and pointer patching (§VI-B3).
    pub text_end: u32,
    /// Byte offsets (within `bytes`) of 16-bit **word-address** function
    /// pointers embedded in constant/data sections — C++ vtables and global
    /// call-routing arrays in the paper (§VI-B2).
    pub fn_ptr_locs: Vec<u32>,
}

impl FirmwareImage {
    /// Create an empty image for `device`.
    pub fn new(device: Device) -> Self {
        FirmwareImage {
            device,
            bytes: Vec::new(),
            symbols: Vec::new(),
            text_end: 0,
            fn_ptr_locs: Vec::new(),
        }
    }

    /// Total code size in bytes (the quantity in the paper's Table III).
    pub fn code_size(&self) -> u32 {
        self.bytes.len() as u32
    }

    /// Read the 16-bit word at byte offset `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr + 1` is out of bounds or `addr` is odd.
    pub fn read_word(&self, addr: u32) -> u16 {
        assert!(addr.is_multiple_of(2), "unaligned word read at {addr:#x}");
        let a = addr as usize;
        u16::from_le_bytes([self.bytes[a], self.bytes[a + 1]])
    }

    /// Write the 16-bit word at byte offset `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr + 1` is out of bounds or `addr` is odd.
    pub fn write_word(&mut self, addr: u32, w: u16) {
        assert!(addr.is_multiple_of(2), "unaligned word write at {addr:#x}");
        let a = addr as usize;
        self.bytes[a..a + 2].copy_from_slice(&w.to_le_bytes());
    }

    /// Look up a symbol by name.
    pub fn symbol(&self, name: &str) -> Option<&Symbol> {
        self.symbols.iter().find(|s| s.name == name)
    }

    /// The function symbols in address order — the set MAVR permutes.
    pub fn functions(&self) -> impl Iterator<Item = &Symbol> {
        self.symbols
            .iter()
            .filter(|s| s.kind == SymbolKind::Function)
    }

    /// Number of movable function symbols (the paper's Table I metric).
    pub fn function_count(&self) -> usize {
        self.functions().count()
    }

    /// The symbol with the largest start address ≤ `addr`, by binary search —
    /// the lookup the paper's patcher performs for switch-table trampoline
    /// targets that point *into* a function (§VI-B3).
    pub fn symbol_at_or_before(&self, addr: u32) -> Option<&Symbol> {
        let idx = self.symbols.partition_point(|s| s.addr <= addr);
        idx.checked_sub(1).map(|i| &self.symbols[i])
    }

    /// The symbol containing `addr`, if any.
    pub fn symbol_containing(&self, addr: u32) -> Option<&Symbol> {
        self.symbol_at_or_before(addr).filter(|s| s.contains(addr))
    }

    /// Validate internal consistency; returns a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if !self.bytes.len().is_multiple_of(2) {
            return Err(format!("image length {} is odd", self.bytes.len()));
        }
        if self.bytes.len() as u32 > self.device.flash_bytes {
            return Err(format!(
                "image ({} bytes) exceeds {} flash ({} bytes)",
                self.bytes.len(),
                self.device.name,
                self.device.flash_bytes
            ));
        }
        if self.text_end as usize > self.bytes.len() {
            return Err(format!(
                "text_end {:#x} beyond image end {:#x}",
                self.text_end,
                self.bytes.len()
            ));
        }
        let mut prev_addr = 0u32;
        for (i, s) in self.symbols.iter().enumerate() {
            if i > 0 && s.addr < prev_addr {
                return Err(format!("symbol {} out of address order", s.name));
            }
            prev_addr = s.addr;
            // Checked: a hostile container can carry any `addr + size`.
            match s.addr.checked_add(s.size) {
                Some(end) if end as usize <= self.bytes.len() => {}
                _ => return Err(format!("symbol {} extends past image end", s.name)),
            }
            if s.addr % 2 != 0 {
                return Err(format!("symbol {} at odd address {:#x}", s.name, s.addr));
            }
        }
        for &loc in &self.fn_ptr_locs {
            if loc as usize + 2 > self.bytes.len() {
                return Err(format!("function pointer loc {loc:#x} out of bounds"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::ATMEGA2560;

    fn sample() -> FirmwareImage {
        let mut img = FirmwareImage::new(ATMEGA2560);
        img.bytes = vec![0; 64];
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
                size: 20,
                kind: SymbolKind::Function,
            },
            Symbol {
                name: "loop_fn".into(),
                addr: 28,
                size: 16,
                kind: SymbolKind::Function,
            },
            Symbol {
                name: "table".into(),
                addr: 44,
                size: 8,
                kind: SymbolKind::Object,
            },
        ];
        img.text_end = 44;
        img
    }

    #[test]
    fn word_round_trip() {
        let mut img = sample();
        img.write_word(10, 0xbeef);
        assert_eq!(img.read_word(10), 0xbeef);
        assert_eq!(img.bytes[10], 0xef);
        assert_eq!(img.bytes[11], 0xbe);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn odd_read_panics() {
        sample().read_word(1);
    }

    #[test]
    fn symbol_queries() {
        let img = sample();
        assert_eq!(img.function_count(), 2);
        assert_eq!(img.symbol("main").unwrap().addr, 8);
        assert_eq!(img.symbol_at_or_before(9).unwrap().name, "main");
        assert_eq!(img.symbol_at_or_before(28).unwrap().name, "loop_fn");
        assert_eq!(img.symbol_containing(27).unwrap().name, "main");
        assert!(img.symbol_at_or_before(0).is_some());
        // Gap between loop_fn end (44) covered by table at 44.
        assert_eq!(img.symbol_containing(45).unwrap().name, "table");
    }

    #[test]
    fn validation_catches_problems() {
        let img = sample();
        assert!(img.validate().is_ok());

        let mut bad = sample();
        bad.bytes.push(0);
        assert!(bad.validate().unwrap_err().contains("odd"));

        let mut bad = sample();
        bad.symbols.swap(1, 2);
        assert!(bad.validate().unwrap_err().contains("order"));

        let mut bad = sample();
        bad.symbols[3].size = 1000;
        assert!(bad.validate().unwrap_err().contains("past image end"));

        let mut bad = sample();
        bad.fn_ptr_locs.push(63);
        assert!(bad.validate().unwrap_err().contains("out of bounds"));

        let mut bad = sample();
        bad.text_end = 100;
        assert!(bad.validate().is_err());
    }
}
