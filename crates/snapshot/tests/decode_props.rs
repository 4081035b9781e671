//! Hostile-input property for the machine snapshot decoder: corrupt the
//! payload of a real snapshot (a flown tiny-app machine), re-stamp the
//! framing so every mutation reaches the payload decoder, and the result
//! is a typed error or a state that re-encodes to the same bytes and
//! restores into a machine without panicking.

use std::sync::OnceLock;

use avr_sim::Machine;
use mavr_snapshot::{crc32, decode_machine, encode_machine};
use proptest::prelude::*;
use synth_firmware::{apps, build, BuildOptions};

/// Header bytes before the payload: magic, version, kind, payload length.
const HEADER: usize = 19;

/// Numbers a corruption or an attacker would write into a field.
const HOSTILE: [u64; 10] = [
    0,
    1,
    2,
    7,
    0xff,
    8704,
    262_144,
    1 << 32,
    u64::MAX / 8,
    u64::MAX,
];

/// Bytes at each end of the payload's head that the targeted mutations
/// aim at: the core registers and UART lengths at the start; the watchdog,
/// Timer0, ADC, PWM, PORTB and flash-length fields at the end.
const WINDOW: usize = 80;

/// A real machine snapshot and the shape of its payload.
struct Seed {
    blob: Vec<u8>,
    /// Bytes of every field up to and including the flash length.
    head: usize,
    /// Lengths of the flash, data-space and EEPROM arrays.
    arrays: [usize; 3],
}

/// The tiny app flown for 300k cycles, with UART bytes queued after the
/// flight. Its watchdog is off and its ADC idle, so their absent values
/// are on the wire as zeros.
fn seed() -> &'static Seed {
    static SEED: OnceLock<Seed> = OnceLock::new();
    SEED.get_or_init(|| {
        let fw = build(&apps::tiny_test_app(), &BuildOptions::safe_mavr()).unwrap();
        let mut m = Machine::new_atmega2560();
        m.load_flash(0, &fw.image.bytes);
        m.run(300_000);
        assert!(m.fault().is_none(), "seed machine crashed");
        m.uart0.inject(&[0xfe, 0x09, 0x00]);
        let s = m.capture_state();
        assert!(
            !s.heartbeat.toggles.is_empty(),
            "seed machine never toggled"
        );
        let blob = encode_machine(&s);
        let arrays = [s.flash.len(), s.data.len(), s.eeprom.bytes.len()];
        let head = blob.len() - HEADER - 4 - tail_bytes(&arrays, 0) + 8;
        Seed { blob, head, arrays }
    })
}

/// Bytes from array `i`'s length prefix to the payload's end. The arrays
/// trail the payload, each length-prefixed: flash, data space, then the
/// EEPROM followed by its 12 bytes of register fields.
fn tail_bytes(arrays: &[usize; 3], i: usize) -> usize {
    arrays[i..].iter().map(|n| 8 + n).sum::<usize>() + 12
}

/// Frame `payload` like the original blob: same magic, version and kind,
/// with its length and CRC re-stamped.
fn reframe(header: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut blob = header[..11].to_vec();
    blob.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    blob.extend_from_slice(payload);
    blob.extend_from_slice(&crc32(payload).to_le_bytes());
    blob
}

/// A position in one of the two [`WINDOW`]s of a `head`-byte head.
fn in_window(head: usize, a: usize) -> usize {
    let w = WINDOW.min(head);
    if a & 1 == 0 {
        (a >> 1) % w
    } else {
        head - 1 - (a >> 1) % w
    }
}

/// One corruption of `payload`, aimed mostly at the small fields of its
/// head, where every length, tag and presence flag lives.
fn mutate(payload: &mut Vec<u8>, seed: &Seed, (op, a, b): (u8, u32, u32)) {
    let (a, b) = (a as usize, b as usize);
    let head = seed.head.min(payload.len()).max(1);
    let at = in_window(head, a);
    let hostile = HOSTILE[b % HOSTILE.len()].to_le_bytes();
    match op % 7 {
        // Flip one bit of a small field.
        0 => {
            if let Some(byte) = payload.get_mut(at) {
                *byte ^= 1 << (b % 8);
            }
        }
        // Flip one bit anywhere.
        1 => {
            if !payload.is_empty() {
                let at = a % payload.len();
                payload[at] ^= 1 << (b % 8);
            }
        }
        // Overwrite eight bytes from a small field on with a hostile number.
        2 => {
            let end = (at + 8).min(payload.len());
            payload[at..end].copy_from_slice(&hostile[..end - at]);
        }
        // Truncate.
        3 => payload.truncate(a % (payload.len() + 1)),
        // Delete a short run from the small fields.
        4 => {
            let end = (at + 1 + b % 16).min(payload.len());
            payload.drain(at..end);
        }
        // Resize one array consistently: its length prefix and its bytes.
        // Located from the payload's end, where earlier head mutations
        // leave it in place.
        5 => {
            let i = a % 3;
            let Some(at) = payload.len().checked_sub(tail_bytes(&seed.arrays, i)) else {
                return;
            };
            let old = seed.arrays[i];
            let new = [0, 2, old - 1, old + 1, old / 2][b % 5];
            payload[at..at + 8].copy_from_slice(&(new as u64).to_le_bytes());
            let bytes = at + 8..at + 8 + old;
            let mut resized = payload[bytes.clone()].to_vec();
            resized.resize(new, 0xff);
            payload.splice(bytes, resized);
        }
        // Insert a short run of one byte among the small fields.
        _ => {
            let run = vec![(b >> 8) as u8; 1 + b % 16];
            payload.splice(at..at, run);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    /// Whatever a mutation does to a real machine snapshot's payload,
    /// decoding gives a typed error or a state that re-encodes to the
    /// same bytes, and restoring that state never panics.
    #[test]
    fn mutated_machine_snapshot_is_an_error_or_round_trips(
        ops in proptest::collection::vec((any::<u8>(), any::<u32>(), any::<u32>()), 1..4),
    ) {
        let seed = seed();
        let blob = &seed.blob;
        let mut payload = blob[HEADER..blob.len() - 4].to_vec();
        for &op in &ops {
            mutate(&mut payload, seed, op);
        }
        let mutated = reframe(blob, &payload);
        if let Ok(state) = decode_machine(&mutated) {
            prop_assert!(
                encode_machine(&state) == mutated,
                "the decoded state re-encodes to different bytes"
            );
            let mut m = Machine::new_atmega2560();
            if m.restore_state(&state).is_ok() {
                m.run(1_000);
            }
        }
    }
}
