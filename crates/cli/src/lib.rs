//! Command implementations behind the `mavr-cli` binary.
//!
//! Every subcommand is one row of `COMMANDS`: its usage line, its help
//! text, the options and flags it accepts, and the function that runs it.
//! Parsing rejects whatever a row does not declare and the help text is
//! built from the same rows, so neither can drift from what dispatches.
//! Each handler maps parsed arguments to an output string, so the whole
//! surface is unit-testable without spawning processes; the thin
//! `src/bin/mavr-cli.rs` wrapper does I/O and exit codes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;
mod campaign;
mod image;
mod sim;

use args::Args;

/// CLI errors, rendered to stderr by the binary.
#[derive(Debug)]
pub enum CliError {
    /// Bad usage; the string is the message to print along with help.
    Usage(String),
    /// Anything that went wrong running the command.
    Failed(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Failed(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CliError {}

fn fail(e: impl std::fmt::Display) -> CliError {
    CliError::Failed(e.to_string())
}

/// One subcommand: everything the parser, the help text and the dispatcher
/// know about it.
struct Command {
    name: &'static str,
    /// Usage after the command name; names every option and flag below.
    usage: &'static str,
    /// Help paragraph, wrapped by [`help`].
    about: &'static str,
    /// Options that take a value, spelled as typed (`--seed`, `-o`).
    options: &'static [&'static str],
    /// Bare flags, without the leading `--`.
    flags: &'static [&'static str],
    run: fn(&Args) -> Result<String, CliError>,
}

/// `fleet` and `chaos` describe the same campaign spec.
const CAMPAIGN_USAGE: &str = "[app] [--boards N] [--scenario LIST|all] \
    [--loss L1,L2,..] [--fault F1,F2,..] [--seed N] [--warmup N] [--cycles N] \
    [--threads N] [--tenant N] [--progress] [--no-fusion] [--physics] \
    [--metrics-out FILE] [--json | --jsonl] [-o FILE]";
const CAMPAIGN_OPTIONS: &[&str] = &[
    "--boards",
    "--scenario",
    "--loss",
    "--fault",
    "--seed",
    "--warmup",
    "--cycles",
    "--threads",
    "--tenant",
    "--metrics-out",
    "-o",
];
const CAMPAIGN_FLAGS: &[&str] = &["progress", "no-fusion", "physics", "json", "jsonl"];

/// Every subcommand, in help order.
const COMMANDS: &[Command] = &[
    Command {
        name: "build",
        usage: "<app> [--toolchain stock|mavr] [--vulnerable] [--bootloader] [-o FILE]",
        about: "Build a synthetic autopilot (plane|copter|rover|tiny) and write the \
            preprocessed MAVR container.",
        options: &["--toolchain", "-o"],
        flags: &["vulnerable", "bootloader"],
        run: image::cmd_build,
    },
    Command {
        name: "assemble",
        usage: "<file.s> [-o FILE]",
        about: "Assemble the .s dialect into a preprocessed MAVR container.",
        options: &["-o"],
        flags: &[],
        run: image::cmd_assemble,
    },
    Command {
        name: "info",
        usage: "<file>",
        about: "Summarize a container / HEX image.",
        options: &[],
        flags: &[],
        run: image::cmd_info,
    },
    Command {
        name: "randomize",
        usage: "<file> [--seed N] [-o FILE] [--verify]",
        about: "Shuffle function blocks and patch the binary (what the master does); \
            --verify boots the result on the simulator.",
        options: &["--seed", "-o"],
        flags: &["verify"],
        run: image::cmd_randomize,
    },
    Command {
        name: "survivors",
        usage: "<original> <randomized>",
        about: "Count gadget addresses that survived a randomization.",
        options: &[],
        flags: &[],
        run: image::cmd_survivors,
    },
    Command {
        name: "scan",
        usage: "<file> [--max-insns N] [--no-dedup] [--listing]",
        about: "Gadget census and classification (Figs. 4-5).",
        options: &["--max-insns"],
        flags: &["no-dedup", "listing"],
        run: image::cmd_scan,
    },
    Command {
        name: "disasm",
        usage: "<file> [--start ADDR] [--len BYTES]",
        about: "Disassemble, annotated with symbols when present.",
        options: &["--start", "--len"],
        flags: &[],
        run: image::cmd_disasm,
    },
    Command {
        name: "simulate",
        usage: "<file> [--cycles N]",
        about: "Boot the image on the ATmega2560 simulator and report health.",
        options: &["--cycles"],
        flags: &[],
        run: sim::cmd_simulate,
    },
    Command {
        name: "profile",
        usage: "<file> [--cycles N] [--top N] [--folded FILE]",
        about: "Run the image under the cycle-attributed profiler: a shadow call \
            stack charges every simulated cycle to a function (inclusive and \
            exclusive, across calls, interrupts and tail jumps). Prints the top-N \
            hottest functions; --folded writes collapsed call stacks \
            (`frame;frame cycles`) ready for a flamegraph renderer. Needs a MAVR \
            container (symbols).",
        options: &["--cycles", "--top", "--folded"],
        flags: &[],
        run: sim::cmd_profile,
    },
    Command {
        name: "attack",
        usage: "<file> [--target ADDR] [--values a,b,c] [--variant v1|v2]",
        about: "Build the paper's ROP exploit packet against the image.",
        options: &["--target", "--values", "--variant"],
        flags: &[],
        run: image::cmd_attack,
    },
    Command {
        name: "trace",
        usage: "[--scenario boot|clean-attack|stealthy-attack] [--seed N] [--cycles N] \
            [-o FILE]",
        about: "Run a scenario with the flight recorder attached: dump the event \
            stream as JSON lines, print a per-kind summary, and (for attacks) the \
            post-mortem crash narrative with gadget attribution.",
        options: &["--scenario", "--seed", "--cycles", "-o"],
        flags: &[],
        run: sim::cmd_trace,
    },
    Command {
        name: "snapshot",
        usage: "<file> [--cycles N] [--restore SNAP] [-o SNAP] [--digest FILE]",
        about: "Run an image to an absolute cycle target, optionally resuming from a \
            saved snapshot; write the CRC-guarded machine snapshot (-o) and/or a \
            deterministic state digest (--digest). A save/restore split reaches \
            the same digest as an uninterrupted run.",
        options: &["--cycles", "--restore", "-o", "--digest"],
        flags: &[],
        run: sim::cmd_snapshot,
    },
    Command {
        name: "replay",
        usage: "[--seed N] [--cycles N] [--interval N] [-o SNAP]",
        about: "Fly the V2 stealthy exploit against a stock build and a \
            MAVR-randomized variant, record keyframe timelines of both, and bisect \
            the exact first cycle where the randomized execution departs from the \
            stock one; prints the divergence and the post-mortem crash report (-o \
            writes the pre-divergence snapshot).",
        options: &["--seed", "--cycles", "--interval", "-o"],
        flags: &[],
        run: sim::cmd_replay,
    },
    Command {
        name: "fly",
        usage: "[--scenario hover|drop|turbulent] [--seed N] [--steps N] [--json] \
            [-o FILE]",
        about: "Fly one closed loop: the SynthQuadFlight firmware samples the physics \
            arena's sensors through the ADC and drives a rigid body through PWM, in \
            lockstep (16000 cycles per 1 ms world step). Prints the flight summary \
            (altitude held, peak excursion, ground impacts, recovery outages); \
            --json emits the trajectory as JSON lines. Same arguments, same flight \
            — bit for bit.",
        options: &["--scenario", "--seed", "--steps", "-o"],
        flags: &["json"],
        run: sim::cmd_fly,
    },
    Command {
        name: "fleet",
        usage: CAMPAIGN_USAGE,
        about: "Fly a many-UAV campaign over deterministic lossy links: every \
            (scenario, loss, board) cell gets its own randomized board and link \
            pair; prints the attack-success / recovery-rate table (or the full \
            report as JSON). Identical arguments give byte-identical JSON, whatever \
            --threads is. The flags describe the same campaign spec `serve --spec` \
            runs, to the same report bytes: resumable, budgeted or Ctrl-C-safe \
            campaigns run there. --jsonl -o FILE streams outcome lines as boards \
            finish. --progress streams live status lines to stderr; --metrics-out \
            dumps the campaign metrics registry at exit (Prometheus text if FILE \
            ends in .prom, JSON lines otherwise) — the dump is byte-identical \
            whatever --threads is. --no-fusion turns off block-fused simulation \
            (slower, identical report bytes; only the sim_block_* metrics change). \
            --physics flies every board inside the physics arena (pair with the \
            quad app): cells gain altitude-excursion, crash-rate and \
            altitude-lost-per-recovery columns, still byte-identical whatever \
            --threads is.",
        options: CAMPAIGN_OPTIONS,
        flags: CAMPAIGN_FLAGS,
        run: |args| campaign::run_campaign_cmd(args, &[0.0]),
    },
    Command {
        name: "chaos",
        usage: CAMPAIGN_USAGE,
        about: "Fleet campaign with fault injection across every board's recovery \
            pipeline: ext-flash bit rot, reflash-stream corruption (bit flips, \
            dropped/duplicated/reordered frames, truncation) and power loss \
            mid-reflash. Sweeps --fault rates (default 0,5e-5,1e-4,2e-4,5e-4) as an \
            extra matrix axis and reports reflash-retry, degraded-boot and brick \
            rates per cell. --fault 0 reproduces `fleet` output byte-for-byte; the \
            sweep is deterministic like fleet's.",
        options: CAMPAIGN_OPTIONS,
        flags: CAMPAIGN_FLAGS,
        run: |args| campaign::run_campaign_cmd(args, campaign::DEFAULT_FAULT_SWEEP),
    },
    Command {
        name: "serve",
        usage: "--dir DIR (--spec FILE | --socket PATH | --stdio) [--max-jobs N] \
            [--shard-jobs N] [--tenant N] [--progress] [--deadline-s N] \
            [--store-fault RATE] [--store-fault-seed N]",
        about: "The campaign service. --spec FILE runs one campaign to completion (or \
            to --max-jobs / Ctrl-C — either flushes valid shard checkpoints that \
            rerunning the same command resumes; a completed run auto-merges its \
            report; --shard-jobs and --tenant override the spec; --progress \
            streams status with ETA). --socket PATH serves the ND-JSON control \
            protocol on a Unix socket, running pending shards between requests; \
            --stdio serves the protocol on stdin/stdout (no background work). \
            --deadline-s N trips the cooperative interrupt after N seconds \
            (checkpoints flush, exit 0); --store-fault RATE with \
            --store-fault-seed N injects seeded disk faults into every durable \
            store write (chaos harness). Campaign results are byte-identical \
            however the run was sliced, sharded, interrupted or SIGKILLed.",
        options: &[
            "--dir",
            "--spec",
            "--socket",
            "--max-jobs",
            "--shard-jobs",
            "--tenant",
            "--deadline-s",
            "--store-fault",
            "--store-fault-seed",
        ],
        flags: &["stdio", "progress"],
        run: campaign::cmd_serve,
    },
    Command {
        name: "submit",
        usage: "SPEC.json (--socket PATH | --dir DIR) [--shard-jobs N] [--tenant N]",
        about: "Register a campaign from a JSON spec: with a running service via its \
            socket, or directly into a campaign root directory. Resubmitting an \
            identical spec is idempotent; mutating a campaign's spec under the \
            same name is refused.",
        options: &["--socket", "--dir", "--shard-jobs", "--tenant"],
        flags: &[],
        run: campaign::cmd_submit,
    },
    Command {
        name: "status",
        usage: "(--socket PATH | --dir DIR) [--campaign NAME] [--json]",
        about: "Campaign progress: jobs done, shards complete, report merged. --dir \
            reads shard checkpoints directly (no service needed); --socket asks a \
            running service.",
        options: &["--socket", "--dir", "--campaign"],
        flags: &["json"],
        run: campaign::cmd_status,
    },
    Command {
        name: "merge",
        usage: "--campaign DIR [-o FILE] [--metrics-out FILE]",
        about: "Fold a completed campaign's shard checkpoints into report.json — \
            byte-identical to one uninterrupted, unsharded `fleet --json` run — \
            streaming one shard at a time (constant memory at any campaign size). \
            -o copies the report; --metrics-out writes the merged metrics registry.",
        options: &["--campaign", "-o", "--metrics-out"],
        flags: &[],
        run: campaign::cmd_merge,
    },
];

/// The help text, built from the `COMMANDS` table.
pub fn help() -> String {
    let mut out = String::from(
        "mavr-cli — tools for the MAVR (ICDCS 2015) reproduction\n\n\
         USAGE: mavr-cli <command> [args]\n\n\
         Numbers are decimal or 0x hex; --out is the long spelling of -o.\n\n\
         COMMANDS:\n",
    );
    for c in COMMANDS {
        // A usage line only breaks between `[..]` / `(..)` groups.
        let mut groups: Vec<String> = Vec::new();
        let mut depth = 0;
        for word in c.usage.split_whitespace() {
            match groups.last_mut() {
                Some(group) if depth > 0 => *group = format!("{group} {word}"),
                _ => groups.push(word.to_string()),
            }
            depth += word.matches(['[', '(']).count();
            depth -= word.matches([']', ')']).count();
        }
        push_wrapped(
            &mut out,
            &format!("  {}", c.name),
            groups.iter().map(String::as_str),
        );
        push_wrapped(&mut out, HELP_INDENT, c.about.split_whitespace());
    }
    out
}

const HELP_INDENT: &str = "        ";

/// Append `lead` then `words`, wrapped at 78 columns with continuation
/// lines indented by [`HELP_INDENT`].
fn push_wrapped<'a>(out: &mut String, lead: &str, words: impl Iterator<Item = &'a str>) {
    let mut line = lead.to_string();
    for word in words {
        if !line.trim().is_empty() {
            if line.chars().count() + 1 + word.chars().count() > 78 {
                out.push_str(&line);
                out.push('\n');
                line = HELP_INDENT.to_string();
            } else {
                line.push(' ');
            }
        }
        line.push_str(word);
    }
    out.push_str(&line);
    out.push('\n');
}

/// Dispatch a command line (without the program name).
pub fn run(raw: &[String]) -> Result<String, CliError> {
    let Some((name, rest)) = raw.split_first() else {
        return Ok(help());
    };
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        return Ok(help());
    }
    let cmd = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| CliError::Usage(format!("unknown command `{name}`")))?;
    (cmd.run)(&args::parse_args(cmd, rest)?)
}

#[cfg(test)]
mod test_util {
    pub fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    pub fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("mavr-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::test_util::s;
    use super::*;

    #[test]
    fn every_row_documents_exactly_what_it_declares() {
        let text = help();
        for c in COMMANDS {
            assert!(
                text.contains(&format!("\n  {} ", c.name)),
                "help does not document subcommand `{}`",
                c.name
            );
            let mut in_usage: Vec<&str> = c
                .usage
                .split_whitespace()
                .map(|t| t.trim_matches(|ch| "[]()|".contains(ch)))
                .filter(|t| t.starts_with('-'))
                .collect();
            let mut declared: Vec<String> = c.options.iter().map(|o| o.to_string()).collect();
            declared.extend(c.flags.iter().map(|f| format!("--{f}")));
            in_usage.sort_unstable();
            declared.sort_unstable();
            assert_eq!(in_usage, declared, "usage of `{}` vs its row", c.name);
        }
    }

    #[test]
    fn undeclared_options_and_flags_are_usage_errors() {
        // A misspelled flag used to be accepted and ignored.
        assert!(matches!(
            run(&s(&["fleet", "tiny", "--no-fuson"])),
            Err(CliError::Usage(_))
        ));
        // A real option of another command is just as unknown here.
        assert!(matches!(
            run(&s(&["info", "x.mavrhex", "--boards", "3"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&s(&["scan", "x.mavrhex", "--json"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&s(&["status", "--dir", "d", "-o", "out"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn bad_usage_is_reported() {
        assert!(matches!(run(&s(&["frobnicate"])), Err(CliError::Usage(_))));
        assert!(matches!(run(&s(&["build"])), Err(CliError::Usage(_))));
        assert!(matches!(
            run(&s(&["build", "x-wing"])),
            Err(CliError::Usage(_))
        ));
        assert!(run(&s(&[])).unwrap().contains("USAGE"));
        assert!(matches!(
            run(&s(&["serve", "--dir", "/tmp/x"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(run(&s(&["submit"])), Err(CliError::Usage(_))));
        assert!(matches!(run(&s(&["merge"])), Err(CliError::Usage(_))));
    }
}
