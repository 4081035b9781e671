//! The versioned, CRC-guarded snapshot wire format.
//!
//! Every snapshot is one self-describing blob:
//!
//! ```text
//! +--------+---------+------+-------------+-----------+-------+
//! | magic  | version | kind | payload_len |  payload  | crc32 |
//! | 8 B    | u16     | u8   | u64         | ...       | u32   |
//! +--------+---------+------+-------------+-----------+-------+
//! ```
//!
//! All integers are little-endian. The CRC (IEEE 802.3 polynomial) covers
//! the payload only, so a flipped bit anywhere in the state is caught
//! before a corrupted machine is ever resurrected. The [`Kind`] byte keeps
//! one decoder from swallowing another's payload: a campaign checkpoint
//! handed to [`decode_machine`] fails loudly instead of misparsing.
//!
//! Payloads are built with [`Writer`] and parsed with [`Reader`] — a
//! bounds-checked cursor that never panics on truncated or malformed
//! input; every structural problem surfaces as a [`SnapshotError`].

use avr_sim::{
    AdcState, EepromState, Fault, HeartbeatState, MachineState, Pwm, Timer0State, UartState,
    WatchdogState, PORTB_ADDR,
};
/// IEEE CRC-32, shared with the board crate's container footers.
pub use mavr_board::ext_flash::crc32;

/// Leading magic of every snapshot blob.
pub const MAGIC: &[u8; 8] = b"MAVRSNAP";

/// Current format version. Bump on any payload layout change.
/// v2: board payloads (kind 3, since retired) carried the fault plan's
/// RNG state and the master's resilience counters.
/// v3: machine payloads carry the physical-world peripherals — ADC,
/// PWM compare latches, and the PORTB output latch. v2 blobs still
/// decode: the new fields default and the PORTB latch is backfilled
/// from the data image, where v2 encoders stored it.
/// v4: campaign shard checkpoint outcomes carry the supervised-job failure
/// record (quarantine kind + attempts). v3 blobs still decode: no job
/// the pre-supervision engine ran could have been quarantined, so the
/// field defaults to "no failure".
pub const VERSION: u16 = 4;

/// What a snapshot blob contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A complete [`MachineState`].
    MachineFull,
    /// One shard of a sharded fleet campaign: a contiguous job range and
    /// its completed outcomes (payload owned by the `fleet` crate). The
    /// only campaign checkpoint kind.
    ShardCheckpoint,
}

impl Kind {
    fn to_u8(self) -> u8 {
        match self {
            Kind::MachineFull => 1,
            Kind::ShardCheckpoint => 6,
        }
    }

    fn from_u8(v: u8) -> Option<Kind> {
        match v {
            1 => Some(Kind::MachineFull),
            // 2 (machine delta), 3 (board), 4 (whole-campaign checkpoint)
            // and 5 (world) are retired kinds: they decode as `BadKind`.
            6 => Some(Kind::ShardCheckpoint),
            _ => None,
        }
    }
}

/// Why a snapshot blob could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Fewer bytes than the structure requires.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// The blob does not start with [`MAGIC`].
    BadMagic,
    /// The blob's version is newer than this decoder.
    UnsupportedVersion(u16),
    /// Unknown [`Kind`] byte.
    BadKind(u8),
    /// The blob is a valid snapshot of the wrong kind.
    WrongKind {
        /// Kind the caller expected.
        expected: Kind,
        /// Kind the blob declares.
        found: Kind,
    },
    /// Payload checksum mismatch — the state is corrupt, refuse to load it.
    CrcMismatch {
        /// CRC stored in the blob.
        stored: u32,
        /// CRC computed over the payload.
        computed: u32,
    },
    /// Structurally invalid payload (bad enum tag, a non-canonical
    /// field, …).
    Malformed(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated { needed, have } => {
                write!(f, "truncated snapshot: needed {needed} bytes, have {have}")
            }
            SnapshotError::BadMagic => write!(f, "not a MAVR snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (decoder is v{VERSION})"
                )
            }
            SnapshotError::BadKind(k) => write!(f, "unknown snapshot kind {k}"),
            SnapshotError::WrongKind { expected, found } => {
                write!(
                    f,
                    "wrong snapshot kind: expected {expected:?}, found {found:?}"
                )
            }
            SnapshotError::CrcMismatch { stored, computed } => write!(
                f,
                "snapshot CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            SnapshotError::Malformed(why) => write!(f, "malformed snapshot: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

// ---- payload writer / reader ----

/// Little-endian payload builder; [`Writer::finish`] wraps the payload in
/// the header + CRC framing.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty payload.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian u16.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Append an optional u64 as a presence bool plus the value (0 when
    /// absent); read back by [`Reader::optional_u64`].
    pub fn put_optional_u64(&mut self, v: Option<u64>) {
        self.put_bool(v.is_some());
        self.put_u64(v.unwrap_or(0));
    }

    /// Append a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Wrap the payload into a complete snapshot blob of the given kind.
    pub fn finish(self, kind: Kind) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.buf.len() + 23);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.push(kind.to_u8());
        out.extend_from_slice(&(self.buf.len() as u64).to_le_bytes());
        let crc = crc32(&self.buf);
        out.extend_from_slice(&self.buf);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }
}

/// Bounds-checked little-endian payload cursor. Carries the blob's
/// declared format version so payload decoders can gate fields that were
/// appended in later versions.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    version: u16,
}

impl<'a> Reader<'a> {
    /// Validate the framing of `blob` — magic, version, kind byte, payload
    /// length, CRC — and return its kind plus a cursor over the payload.
    pub fn open(blob: &'a [u8]) -> Result<(Kind, Reader<'a>), SnapshotError> {
        if blob.len() < MAGIC.len() {
            return Err(SnapshotError::Truncated {
                needed: MAGIC.len(),
                have: blob.len(),
            });
        }
        if &blob[..MAGIC.len()] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let header = MAGIC.len() + 2 + 1 + 8;
        if blob.len() < header {
            return Err(SnapshotError::Truncated {
                needed: header,
                have: blob.len(),
            });
        }
        let version = u16::from_le_bytes([blob[8], blob[9]]);
        if version > VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let kind = Kind::from_u8(blob[10]).ok_or(SnapshotError::BadKind(blob[10]))?;
        // The length field is untrusted: a value too large to add up
        // saturates, so it reads as a truncated blob.
        let len = u64::from_le_bytes(blob[11..19].try_into().expect("8 bytes"));
        let total = usize::try_from(len)
            .ok()
            .and_then(|len| len.checked_add(header + 4))
            .unwrap_or(usize::MAX);
        if blob.len() < total {
            return Err(SnapshotError::Truncated {
                needed: total,
                have: blob.len(),
            });
        }
        let len = total - header - 4;
        let payload = &blob[header..header + len];
        let stored = u32::from_le_bytes(
            blob[header + len..header + len + 4]
                .try_into()
                .expect("4 bytes"),
        );
        let computed = crc32(payload);
        if stored != computed {
            return Err(SnapshotError::CrcMismatch { stored, computed });
        }
        Ok((
            kind,
            Reader {
                buf: payload,
                pos: 0,
                version,
            },
        ))
    }

    /// The format version the blob declares (`<=` [`VERSION`]).
    pub fn version(&self) -> u16 {
        self.version
    }

    /// Like [`Reader::open`], additionally requiring the blob's kind.
    pub fn open_expecting(blob: &'a [u8], expected: Kind) -> Result<Reader<'a>, SnapshotError> {
        let (kind, r) = Reader::open(blob)?;
        if kind != expected {
            return Err(SnapshotError::WrongKind {
                expected,
                found: kind,
            });
        }
        Ok(r)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let have = self.buf.len() - self.pos;
        if have < n {
            return Err(SnapshotError::Truncated { needed: n, have });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian u16.
    pub fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    /// Read a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Read a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Read a bool byte, rejecting anything but 0 or 1.
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(SnapshotError::Malformed(format!("bool byte {v}"))),
        }
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<Vec<u8>, SnapshotError> {
        let len = self.u64()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// Read a u64 element count for a run of `item_bytes`-byte items. A
    /// count the rest of the payload cannot hold is truncation, reported
    /// before the caller reserves room for it.
    pub fn count(&mut self, item_bytes: usize) -> Result<usize, SnapshotError> {
        let n = self.u64()?;
        let have = self.buf.len() - self.pos;
        if n > (have / item_bytes) as u64 {
            return Err(SnapshotError::Truncated {
                needed: usize::try_from(n)
                    .unwrap_or(usize::MAX)
                    .saturating_mul(item_bytes),
                have,
            });
        }
        Ok(n as usize)
    }

    /// Read an optional u64 written as a presence bool plus a value that
    /// is 0 when absent. Any other absent value is rejected: it would
    /// decode to the same state as 0 and re-encode to different bytes.
    pub fn optional_u64(&mut self, what: &str) -> Result<Option<u64>, SnapshotError> {
        let present = self.bool()?;
        let v = self.u64()?;
        match (present, v) {
            (true, v) => Ok(Some(v)),
            (false, 0) => Ok(None),
            (false, v) => Err(SnapshotError::Malformed(format!("absent {what} holds {v}"))),
        }
    }

    /// Assert the payload is fully consumed (trailing garbage is an error:
    /// it means the decoder and encoder disagree about the layout).
    pub fn done(&self) -> Result<(), SnapshotError> {
        if self.pos != self.buf.len() {
            return Err(SnapshotError::Malformed(format!(
                "{} trailing payload bytes",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

// ---- fault encoding ----

fn put_fault(w: &mut Writer, f: Option<Fault>) {
    match f {
        None => w.put_u8(0),
        Some(Fault::InvalidOpcode { addr, word }) => {
            w.put_u8(1);
            w.put_u32(addr);
            w.put_u16(word);
        }
        Some(Fault::PcOutOfBounds { pc }) => {
            w.put_u8(2);
            w.put_u32(pc);
        }
        Some(Fault::Break { addr }) => {
            w.put_u8(3);
            w.put_u32(addr);
        }
        Some(Fault::StackOutOfBounds { sp }) => {
            w.put_u8(4);
            w.put_u16(sp);
        }
        Some(Fault::DataOutOfBounds { addr }) => {
            w.put_u8(5);
            w.put_u32(addr);
        }
        Some(Fault::WatchdogTimeout) => w.put_u8(6),
    }
}

fn get_fault(r: &mut Reader<'_>) -> Result<Option<Fault>, SnapshotError> {
    Ok(match r.u8()? {
        0 => None,
        1 => Some(Fault::InvalidOpcode {
            addr: r.u32()?,
            word: r.u16()?,
        }),
        2 => Some(Fault::PcOutOfBounds { pc: r.u32()? }),
        3 => Some(Fault::Break { addr: r.u32()? }),
        4 => Some(Fault::StackOutOfBounds { sp: r.u16()? }),
        5 => Some(Fault::DataOutOfBounds { addr: r.u32()? }),
        6 => Some(Fault::WatchdogTimeout),
        t => return Err(SnapshotError::Malformed(format!("fault tag {t}"))),
    })
}

// ---- peripheral / core field groups ----

/// The small (non-memory-array) part of a machine state: CPU registers of
/// the core proper plus every peripheral.
fn put_machine_core(w: &mut Writer, s: &MachineState) {
    w.put_u32(s.pc);
    w.put_u64(s.cycles);
    put_fault(w, s.fault);
    w.put_bool(s.irq_delay);
    w.put_u64(s.insns_retired);
    w.put_u64(s.interrupts_taken);
    // UART.
    w.put_bytes(&s.uart0.rx);
    w.put_bytes(&s.uart0.tx);
    w.put_u64(s.uart0.rx_bytes);
    w.put_u64(s.uart0.tx_bytes);
    // Heartbeat.
    w.put_u64(s.heartbeat.toggles.len() as u64);
    for &t in &s.heartbeat.toggles {
        w.put_u64(t);
    }
    w.put_bool(s.heartbeat.last_level);
    // Watchdog.
    w.put_optional_u64(s.watchdog.timeout);
    w.put_u64(s.watchdog.last_reset);
    // Timer0.
    w.put_u8(s.timer0.tcnt);
    w.put_u8(s.timer0.tccr_b);
    w.put_u8(s.timer0.timsk);
    w.put_u8(s.timer0.tifr);
    w.put_u64(s.timer0.residual);
    // ADC (v3+).
    w.put_u8(s.adc.admux);
    w.put_u8(s.adc.control);
    w.put_u8(s.adc.adcsrb);
    w.put_u16(s.adc.data);
    w.put_optional_u64(s.adc.converting);
    w.put_bool(s.adc.adif);
    w.put_bool(s.adc.first);
    for ch in s.adc.channels {
        w.put_u16(ch);
    }
    // PWM compare latches and the PORTB output latch (v3+).
    w.put_u8(s.pwm.ocr0a);
    w.put_u8(s.pwm.ocr0b);
    w.put_u8(s.portb);
}

fn get_machine_core(r: &mut Reader<'_>, s: &mut MachineState) -> Result<(), SnapshotError> {
    s.pc = r.u32()?;
    s.cycles = r.u64()?;
    s.fault = get_fault(r)?;
    s.irq_delay = r.bool()?;
    s.insns_retired = r.u64()?;
    s.interrupts_taken = r.u64()?;
    s.uart0 = UartState {
        rx: r.bytes()?,
        tx: r.bytes()?,
        rx_bytes: r.u64()?,
        tx_bytes: r.u64()?,
    };
    let n = r.count(8)?;
    let mut toggles = Vec::with_capacity(n);
    for _ in 0..n {
        toggles.push(r.u64()?);
    }
    s.heartbeat = HeartbeatState {
        toggles,
        last_level: r.bool()?,
    };
    s.watchdog = WatchdogState {
        timeout: r.optional_u64("watchdog timeout")?,
        last_reset: r.u64()?,
    };
    s.timer0 = Timer0State {
        tcnt: r.u8()?,
        tccr_b: r.u8()?,
        timsk: r.u8()?,
        tifr: r.u8()?,
        residual: r.u64()?,
    };
    if r.version() >= 3 {
        let admux = r.u8()?;
        let control = r.u8()?;
        let adcsrb = r.u8()?;
        let data = r.u16()?;
        let converting = r.optional_u64("ADC countdown")?;
        let adif = r.bool()?;
        let first = r.bool()?;
        let mut channels = [0u16; avr_sim::adc::ADC_CHANNELS];
        for ch in &mut channels {
            *ch = r.u16()?;
        }
        s.adc = AdcState {
            admux,
            control,
            adcsrb,
            data,
            converting,
            adif,
            first,
            channels,
        };
        s.pwm = Pwm {
            ocr0a: r.u8()?,
            ocr0b: r.u8()?,
        };
        s.portb = r.u8()?;
    }
    // v2 blobs predate the physical-world peripherals: `s` keeps its
    // defaults, and the caller backfills the PORTB latch from the data
    // image.
    Ok(())
}

fn put_eeprom(w: &mut Writer, e: &EepromState) {
    w.put_bytes(&e.bytes);
    w.put_u16(e.addr);
    w.put_u8(e.data);
    w.put_bool(e.master_enable);
    w.put_u64(e.writes);
}

fn get_eeprom(r: &mut Reader<'_>) -> Result<EepromState, SnapshotError> {
    Ok(EepromState {
        bytes: r.bytes()?,
        addr: r.u16()?,
        data: r.u8()?,
        master_enable: r.bool()?,
        writes: r.u64()?,
    })
}

fn empty_machine_state() -> MachineState {
    MachineState {
        flash: Vec::new(),
        data: Vec::new(),
        eeprom: EepromState::default(),
        pc: 0,
        cycles: 0,
        fault: None,
        irq_delay: false,
        uart0: UartState::default(),
        heartbeat: HeartbeatState::default(),
        watchdog: WatchdogState::default(),
        timer0: Timer0State::default(),
        adc: AdcState::default(),
        pwm: Pwm::default(),
        portb: 0,
        insns_retired: 0,
        interrupts_taken: 0,
    }
}

fn put_machine_state(w: &mut Writer, s: &MachineState) {
    put_machine_core(w, s);
    w.put_bytes(&s.flash);
    w.put_bytes(&s.data);
    put_eeprom(w, &s.eeprom);
}

fn get_machine_state(r: &mut Reader<'_>) -> Result<MachineState, SnapshotError> {
    let mut s = empty_machine_state();
    get_machine_core(r, &mut s)?;
    s.flash = r.bytes()?;
    s.data = r.bytes()?;
    s.eeprom = get_eeprom(r)?;
    if r.version() < 3 {
        // v2 encoders kept the PORTB latch only in the data image.
        if let Some(&v) = s.data.get(usize::from(PORTB_ADDR)) {
            s.portb = v;
        }
    }
    Ok(s)
}

// ---- public encoders / decoders ----

/// Encode a complete machine state as one snapshot blob.
pub fn encode_machine(s: &MachineState) -> Vec<u8> {
    let mut w = Writer::new();
    put_machine_state(&mut w, s);
    w.finish(Kind::MachineFull)
}

/// Decode a [`Kind::MachineFull`] blob.
pub fn decode_machine(blob: &[u8]) -> Result<MachineState, SnapshotError> {
    let mut r = Reader::open_expecting(blob, Kind::MachineFull)?;
    let s = get_machine_state(&mut r)?;
    r.done()?;
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use avr_core::encode::encode_to_bytes;
    use avr_core::{Insn, Reg};
    use avr_sim::Machine;

    fn busy_machine() -> Machine {
        let mut m = Machine::new_atmega2560();
        // ldi r24,1 ; sts 0x0400 ; inc ; rjmp -3 — touches SRAM forever.
        m.load_flash(
            0,
            &encode_to_bytes(&[
                Insn::Ldi { d: Reg::R24, k: 1 },
                Insn::Sts {
                    k: 0x0400,
                    r: Reg::R24,
                },
                Insn::Inc { d: Reg::R24 },
                Insn::Rjmp { k: -4 },
            ])
            .unwrap(),
        );
        m.uart0.inject(&[1, 2, 3]);
        m.watchdog.enable(1_000_000, 0);
        m.run(5_000);
        m
    }

    #[test]
    fn machine_round_trip_is_exact() {
        let m = busy_machine();
        let state = m.capture_state();
        let blob = encode_machine(&state);
        assert_eq!(decode_machine(&blob).unwrap(), state);
    }

    #[test]
    fn corruption_is_detected() {
        let m = busy_machine();
        let mut blob = encode_machine(&m.capture_state());
        let mid = blob.len() / 2;
        blob[mid] ^= 0x40;
        assert!(matches!(
            decode_machine(&blob),
            Err(SnapshotError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn framing_errors_are_loud() {
        let m = busy_machine();
        let blob = encode_machine(&m.capture_state());
        // Truncation at every interesting boundary.
        for cut in [0, 4, 10, 18, blob.len() - 1] {
            assert!(matches!(
                decode_machine(&blob[..cut]),
                Err(SnapshotError::Truncated { .. })
            ));
        }
        // A length field near u64::MAX is truncation, not an overflow.
        for len in [u64::MAX - 5, u64::MAX] {
            let mut bad = blob.clone();
            bad[11..19].copy_from_slice(&len.to_le_bytes());
            assert!(matches!(
                decode_machine(&bad),
                Err(SnapshotError::Truncated { .. })
            ));
        }
        // Bad magic.
        let mut bad = blob.clone();
        bad[0] = b'X';
        assert_eq!(decode_machine(&bad), Err(SnapshotError::BadMagic));
        // Future version.
        let mut bad = blob.clone();
        bad[8] = 0xff;
        assert!(matches!(
            decode_machine(&bad),
            Err(SnapshotError::UnsupportedVersion(_))
        ));
        // Unknown kind bytes, including the retired machine delta (2),
        // board (3), campaign checkpoint (4) and world (5) kinds.
        for kind in [2, 3, 4, 5, 9] {
            let mut bad = blob.clone();
            bad[10] = kind;
            assert_eq!(decode_machine(&bad), Err(SnapshotError::BadKind(kind)));
        }
        // Wrong (but valid) kind.
        let shard_kind = Writer::new().finish(Kind::ShardCheckpoint);
        assert!(matches!(
            decode_machine(&shard_kind),
            Err(SnapshotError::WrongKind { .. })
        ));
    }

    #[test]
    fn a_count_the_payload_cannot_hold_is_truncation() {
        // Every field up to the heartbeat toggle count, then a count of
        // 2^40 toggles with nothing behind it.
        let mut w = Writer::new();
        w.put_u32(0);
        w.put_u64(0);
        put_fault(&mut w, None);
        w.put_bool(false);
        w.put_u64(0);
        w.put_u64(0);
        w.put_bytes(&[]);
        w.put_bytes(&[]);
        w.put_u64(0);
        w.put_u64(0);
        w.put_u64(1 << 40);
        // The whole run is reported missing before a toggle is read.
        assert_eq!(
            decode_machine(&w.finish(Kind::MachineFull)),
            Err(SnapshotError::Truncated {
                needed: 8 << 40,
                have: 0
            })
        );
    }

    #[test]
    fn restore_from_decoded_blob_runs_identically() {
        let mut a = busy_machine();
        let blob = encode_machine(&a.capture_state());
        let mut b = Machine::new_atmega2560();
        b.restore_state(&decode_machine(&blob).unwrap()).unwrap();
        a.run(50_000);
        b.run(50_000);
        assert_eq!(a.capture_state(), b.capture_state());
    }

    /// The exact v2 `put_machine_core` layout: everything up to and
    /// including Timer0, none of the physical-world peripherals.
    fn put_machine_core_v2(w: &mut Writer, s: &MachineState) {
        w.put_u32(s.pc);
        w.put_u64(s.cycles);
        put_fault(w, s.fault);
        w.put_bool(s.irq_delay);
        w.put_u64(s.insns_retired);
        w.put_u64(s.interrupts_taken);
        w.put_bytes(&s.uart0.rx);
        w.put_bytes(&s.uart0.tx);
        w.put_u64(s.uart0.rx_bytes);
        w.put_u64(s.uart0.tx_bytes);
        w.put_u64(s.heartbeat.toggles.len() as u64);
        for &t in &s.heartbeat.toggles {
            w.put_u64(t);
        }
        w.put_bool(s.heartbeat.last_level);
        w.put_bool(s.watchdog.timeout.is_some());
        w.put_u64(s.watchdog.timeout.unwrap_or(0));
        w.put_u64(s.watchdog.last_reset);
        w.put_u8(s.timer0.tcnt);
        w.put_u8(s.timer0.tccr_b);
        w.put_u8(s.timer0.timsk);
        w.put_u8(s.timer0.tifr);
        w.put_u64(s.timer0.residual);
    }

    /// Stamp a freshly framed blob as an older version. The CRC covers the
    /// payload only, so rewriting the header version keeps the blob valid.
    fn stamp_version(mut blob: Vec<u8>, version: u16) -> Vec<u8> {
        blob[8..10].copy_from_slice(&version.to_le_bytes());
        blob
    }

    fn encode_machine_v2(s: &MachineState) -> Vec<u8> {
        let mut w = Writer::new();
        put_machine_core_v2(&mut w, s);
        w.put_bytes(&s.flash);
        w.put_bytes(&s.data);
        put_eeprom(&mut w, &s.eeprom);
        stamp_version(w.finish(Kind::MachineFull), 2)
    }

    #[test]
    fn v2_machine_blob_still_round_trips() {
        let m = busy_machine();
        let mut state = m.capture_state();
        // A v2 writer never carried the PORTB latch as its own field; it
        // lived only in the data image.
        state.data[usize::from(PORTB_ADDR)] = 0xa5;
        let got = decode_machine(&encode_machine_v2(&state)).unwrap();
        assert_eq!(got.portb, 0xa5, "latch backfilled from the data image");
        assert_eq!(got.adc, AdcState::default());
        assert_eq!(got.pwm, Pwm::default());
        let mut expect = state;
        expect.portb = 0xa5;
        assert_eq!(got, expect);
    }
}
