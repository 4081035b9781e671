//! Cycle-accurate ATmega2560 machine simulator for the MAVR reproduction.
//!
//! This crate is the "hardware" the paper's attacks run on: a Harvard
//! architecture machine with
//!
//! * word-addressed program flash that the program counter can never leave,
//! * a single linear data space in which the 32 general-purpose registers,
//!   the I/O registers (including the stack pointer at `0x3d`/`0x3e` and
//!   SREG at `0x3f`) and physical SRAM are all memory mapped — the property
//!   the paper's `stk_move` and `write_mem_gadget` gadgets depend on,
//! * a polled UART carrying MAVLink traffic from the (possibly malicious)
//!   ground station,
//! * a heartbeat GPIO pin the MAVR master processor watches to detect the
//!   "executing garbage" aftermath of a failed ROP attempt, and
//! * fault detection: executing a reserved opcode, running the PC out of
//!   flash, or a watchdog expiry stops the machine with a [`Fault`].
//!
//! # Example
//!
//! ```
//! use avr_core::{encode::encode_to_bytes, Insn, Reg};
//! use avr_sim::Machine;
//!
//! // ldi r24, 42 ; sts 0x0400, r24 ; break
//! let prog = encode_to_bytes(&[
//!     Insn::Ldi { d: Reg::R24, k: 42 },
//!     Insn::Sts { k: 0x0400, r: Reg::R24 },
//!     Insn::Break,
//! ])
//! .unwrap();
//! let mut m = Machine::new_atmega2560();
//! m.load_flash(0, &prog);
//! m.run(100);
//! assert_eq!(m.read_data(0x0400), 42);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adc;
mod alu;
mod blockcache;
pub mod eeprom;
mod fault;
pub mod forensics;
mod icache;
mod machine;
mod periph;
pub mod profiler;
pub mod timer;

pub use adc::{Adc, AdcState};
pub use blockcache::BlockStats;
pub use eeprom::{Eeprom, EepromState};
pub use fault::{Fault, RunExit};
pub use forensics::CrashReport;
pub use machine::{Machine, MachineState, SimCounters, SizeMismatch, Trace, HEARTBEAT_BIT};
pub use periph::{
    Heartbeat, HeartbeatState, PortB, Pwm, Uart, UartState, Watchdog, WatchdogState, PORTB_ADDR,
};
pub use profiler::{CycleProfile, Flow, FuncCycles};
pub use timer::{Timer0, Timer0State};
