//! Image commands: build, assemble, info, randomize, survivors, scan,
//! disasm, attack.

use crate::args::Args;
use crate::{fail, CliError};
use avr_core::image::FirmwareImage;
use hexfile::MavrContainer;
use mavr_fleet::{ATTACK_TARGET, ATTACK_VALUES};
use synth_firmware::{apps, BuildOptions};

/// Load a firmware image from a MAVR container or plain Intel HEX file.
pub(crate) fn load_image(path: &str) -> Result<FirmwareImage, CliError> {
    let text = std::fs::read_to_string(path).map_err(fail)?;
    if text.lines().any(|l| l.starts_with(";MAVR")) {
        Ok(MavrContainer::parse(&text).map_err(fail)?.image)
    } else {
        let (base, bytes) = hexfile::parse_ihex(&text).map_err(fail)?;
        if base != 0 {
            return Err(CliError::Failed(format!(
                "image must load at 0, found base {base:#x}"
            )));
        }
        let len = bytes.len() as u32;
        Ok(FirmwareImage {
            device: avr_core::device::ATMEGA2560,
            bytes,
            symbols: Vec::new(),
            text_end: len,
            fn_ptr_locs: Vec::new(),
        })
    }
}

pub(crate) fn cmd_build(args: &Args) -> Result<String, CliError> {
    let name = args.required("an app name")?;
    let spec = apps::by_name(name)
        .ok_or_else(|| CliError::Usage(format!("unknown app `{name}` ({})", apps::APP_NAMES)))?;
    let toolchain = match args.value("--toolchain") {
        None | Some("mavr") => avr_asm::ToolchainOptions::mavr(),
        Some("stock") => avr_asm::ToolchainOptions::stock(),
        Some(other) => {
            return Err(CliError::Usage(format!(
                "unknown toolchain `{other}` (stock, mavr)"
            )))
        }
    };
    let options = BuildOptions {
        toolchain,
        vulnerable: args.flag("vulnerable"),
        serial_bootloader: args.flag("bootloader"),
    };
    let fw = synth_firmware::build(&spec, &options).map_err(fail)?;
    let container = mavr::preprocess(&fw.image).map_err(fail)?;
    let text = container.to_text();
    let mut out = format!(
        "built {}: {} bytes, {} functions, {} pointer slots{}\n",
        spec.name,
        fw.image.code_size(),
        fw.image.function_count(),
        fw.image.fn_ptr_locs.len(),
        if options.vulnerable {
            " (VULNERABLE build)"
        } else {
            ""
        }
    );
    if let Some(path) = args.out() {
        std::fs::write(path, &text).map_err(fail)?;
        out.push_str(&format!("wrote MAVR container to {path}\n"));
    } else {
        out.push_str("(pass -o FILE to write the MAVR container)\n");
    }
    Ok(out)
}

/// Assemble, link and preprocess; the container is written only with `-o`.
pub(crate) fn cmd_assemble(args: &Args) -> Result<String, CliError> {
    let path = args.required("a source file")?;
    let src = std::fs::read_to_string(path).map_err(fail)?;
    let program = avr_asm::parse_program(&src).map_err(fail)?;
    let image = avr_asm::link(&program).map_err(fail)?;
    let mut out = format!(
        "assembled {}: {} bytes, {} functions
",
        path,
        image.code_size(),
        image.function_count()
    );
    if let Some(dst) = args.out() {
        let container = mavr::preprocess(&image).map_err(fail)?;
        std::fs::write(dst, container.to_text()).map_err(fail)?;
        out.push_str(&format!(
            "wrote MAVR container to {dst}
"
        ));
    }
    Ok(out)
}

pub(crate) fn cmd_info(args: &Args) -> Result<String, CliError> {
    let img = load_image(args.required("a file")?)?;
    let mut out = format!(
        "device      {}\ncode size   {} bytes\ntext end    {:#x}\nfunctions   {}\nsymbols     {}\nfn pointers {}\n",
        img.device.name,
        img.code_size(),
        img.text_end,
        img.function_count(),
        img.symbols.len(),
        img.fn_ptr_locs.len(),
    );
    if img.function_count() > 0 {
        out.push_str(&format!(
            "entropy     {:.0} bits (log2 n!)\n",
            mavr::math::entropy_bits(img.function_count() as u64)
        ));
    }
    Ok(out)
}

pub(crate) fn cmd_randomize(args: &Args) -> Result<String, CliError> {
    let img = load_image(args.required("a container file")?)?;
    if img.function_count() == 0 {
        return Err(CliError::Failed(
            "no symbols — randomize needs a MAVR container, not plain HEX".into(),
        ));
    }
    let seed = args.get("--seed")?.unwrap_or(0x2015);
    let mut rng = mavr::seeded_rng(seed);
    let r = mavr::randomize(&img, &mut rng, &mavr::RandomizeOptions::default()).map_err(fail)?;
    let moved = img
        .functions()
        .filter(|s| r.image.symbol(&s.name).unwrap().addr != s.addr)
        .count();
    let mut out = format!(
        "randomized with seed {seed}: {moved}/{} functions moved\n",
        img.function_count()
    );
    if let Some(dst) = args.out() {
        // The application processor receives a plain binary — write ihex.
        std::fs::write(dst, hexfile::write_ihex(&r.image.bytes, 0)).map_err(fail)?;
        out.push_str(&format!("wrote randomized Intel HEX to {dst}\n"));
    }
    if args.flag("verify") {
        let mut m = crate::sim::machine_with(&r.image.bytes);
        let exit = m.run(1_500_000);
        out.push_str(&format!(
            "verify: {exit:?}, {} heartbeat toggles\n",
            m.heartbeat.toggles().len()
        ));
        if m.fault().is_some() || m.heartbeat.toggles().len() < 5 {
            return Err(CliError::Failed(
                "verification failed: randomized image does not fly".into(),
            ));
        }
    }
    Ok(out)
}

pub(crate) fn cmd_survivors(args: &Args) -> Result<String, CliError> {
    let (a, b) = match args.positional.as_slice() {
        [a, b, ..] => (a, b),
        _ => return Err(CliError::Usage("survivors needs two files".into())),
    };
    let orig = load_image(a)?;
    let rand = load_image(b)?;
    let opts = rop::ScanOptions::default();
    let total = rop::scan(
        &orig,
        &rop::ScanOptions {
            dedup: false,
            ..opts
        },
    )
    .len();
    let alive = rop::scanner::survivors(&orig, &rand, &opts);
    Ok(format!(
        "gadget start addresses: {total}; still valid after randomization: {alive} ({:.2}%)\n",
        100.0 * alive as f64 / total.max(1) as f64
    ))
}

pub(crate) fn cmd_scan(args: &Args) -> Result<String, CliError> {
    let img = load_image(args.required("a file")?)?;
    let opts = rop::ScanOptions {
        max_insns: args.get("--max-insns")?.unwrap_or(6),
        dedup: !args.flag("no-dedup"),
    };
    let gadgets = rop::scan(&img, &opts);
    let mut out = format!(
        "{} gadgets (max {} insns, dedup {})\n",
        gadgets.len(),
        opts.max_insns,
        opts.dedup
    );
    match rop::scanner::classify(&img) {
        Some(map) => {
            out.push_str(&format!(
                "stk_move at {:#x}, write_mem_gadget at {:#x} — attack-capable\n",
                map.stk_move, map.write_mem_std
            ));
        }
        None => out.push_str("paper gadget pair not found\n"),
    }
    if args.flag("listing") {
        for g in gadgets.iter().take(25) {
            out.push_str(&g.listing());
            out.push('\n');
        }
    }
    Ok(out)
}

pub(crate) fn cmd_disasm(args: &Args) -> Result<String, CliError> {
    let img = load_image(args.required("a file")?)?;
    let start = args.get("--start")?.unwrap_or(0);
    let len = args.get("--len")?.unwrap_or(64);
    let mut out = String::new();
    for line in avr_core::disasm::disassemble(&img.bytes, start, len) {
        if let Some(sym) = img.symbol_containing(line.addr) {
            if sym.addr == line.addr {
                out.push_str(&format!("\n<{}>:\n", sym.name));
            }
        }
        out.push_str(&format!("{line}\n"));
    }
    Ok(out)
}

pub(crate) fn cmd_attack(args: &Args) -> Result<String, CliError> {
    let img = load_image(args.required("a container file")?)?;
    let target = args.get("--target")?.unwrap_or(ATTACK_TARGET);
    let vals = match args.value("--values") {
        None => ATTACK_VALUES,
        Some(list) => {
            let values = list
                .split(',')
                .map(|s| u8::from_str_radix(s.trim(), 16))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|_| CliError::Usage("bad --values (hex bytes, comma separated)".into()))?;
            values
                .try_into()
                .map_err(|_| CliError::Usage("--values needs exactly 3 bytes".into()))?
        }
    };
    let ctx = rop::attack::AttackContext::discover(&img).map_err(fail)?;
    let payload = match args.value("--variant") {
        Some("v1") => ctx.v1_payload(target, vals),
        None | Some("v2") => ctx.v2_payload(&[(target, vals)]).map_err(fail)?,
        Some(other) => return Err(CliError::Usage(format!("unknown variant `{other}`"))),
    };
    let mut gcs = mavlink_lite::GroundStation::new();
    let wire = gcs.exploit_packet(&payload).map_err(fail)?;
    let hex: Vec<String> = wire.iter().map(|b| format!("{b:02x}")).collect();
    Ok(format!(
        "gadgets: stk_move {:#x}, write_mem {:#x}\nbuffer {:#06x}, original ret {:02x?}\npayload {} bytes, wire {} bytes\n{}\n",
        ctx.gadgets.stk_move,
        ctx.gadgets.write_mem_std,
        ctx.buffer,
        ctx.orig_ret,
        payload.len(),
        wire.len(),
        hex.join("")
    ))
}

#[cfg(test)]
mod tests {
    use crate::run;
    use crate::test_util::{s, tmp};

    #[test]
    fn build_info_randomize_pipeline() {
        let container = tmp("tiny.mavrhex");
        let out = run(&s(&["build", "tiny", "--vulnerable", "-o", &container])).unwrap();
        assert!(out.contains("VULNERABLE"));
        let info = run(&s(&["info", &container])).unwrap();
        assert!(info.contains("functions   60"));
        let rand_out = tmp("tiny-rand.hex");
        let out = run(&s(&[
            "randomize",
            &container,
            "--seed",
            "5",
            "-o",
            &rand_out,
        ]))
        .unwrap();
        assert!(out.contains("functions moved"));
        // The randomized plain HEX simulates fine but cannot be randomized.
        let sim = run(&s(&["simulate", &rand_out, "--cycles", "500000"])).unwrap();
        assert!(sim.contains("CyclesExhausted"), "{sim}");
        assert!(run(&s(&["randomize", &rand_out])).is_err());
    }

    #[test]
    fn scan_and_disasm() {
        let container = tmp("tiny2.mavrhex");
        run(&s(&["build", "tiny", "-o", &container])).unwrap();
        let scan = run(&s(&["scan", &container])).unwrap();
        assert!(scan.contains("attack-capable"));
        let dis = run(&s(&["disasm", &container, "--start", "0x0", "--len", "16"])).unwrap();
        assert!(dis.contains("jmp"), "{dis}");
        assert!(dis.contains("<__vectors>"));
    }

    #[test]
    fn attack_emits_wire_packet() {
        let container = tmp("tiny3.mavrhex");
        run(&s(&["build", "tiny", "--vulnerable", "-o", &container])).unwrap();
        let out = run(&s(&["attack", &container, "--values", "01,02,03"])).unwrap();
        assert!(out.contains("payload 198 bytes"));
        assert!(out.contains("fe"), "wire dump present");
        // v1 variant too.
        let out = run(&s(&["attack", &container, "--variant", "v1"])).unwrap();
        assert!(out.contains("payload"));
    }

    #[test]
    fn randomize_verify_and_survivors() {
        let container = tmp("tiny4.mavrhex");
        run(&s(&["build", "tiny", "-o", &container])).unwrap();
        let rand_out = tmp("tiny4-rand.hex");
        let out = run(&s(&[
            "randomize",
            &container,
            "--seed",
            "4",
            "-o",
            &rand_out,
            "--verify",
        ]))
        .unwrap();
        assert!(out.contains("verify: CyclesExhausted"), "{out}");
        let surv = run(&s(&["survivors", &container, &rand_out])).unwrap();
        assert!(surv.contains("still valid"), "{surv}");
        let out = run(&s(&["randomize", &container, "--seed", "0x10"])).unwrap();
        assert!(out.contains("randomized with seed 16:"), "{out}");
    }

    #[test]
    fn assemble_pipeline() {
        let src_path = tmp("prog.s");
        std::fs::write(
            &src_path,
            ".device atmega2560
.vectors 2
.vector 0 main
.func main
halt:
    rjmp halt
.endfunc
",
        )
        .unwrap();
        let container = tmp("prog.mavrhex");
        let out = run(&s(&["assemble", &src_path, "-o", &container])).unwrap();
        assert!(out.contains("functions"));
        let info = run(&s(&["info", &container])).unwrap();
        assert!(info.contains("functions   "));
        // A randomize of a 1-function program is a no-move but must work.
        assert!(run(&s(&["randomize", &container])).is_ok());
    }
}
