//! Command-line parsing against one [`Command`] row.

use crate::{CliError, Command};
use std::collections::{HashMap, HashSet};

/// One command's parsed arguments. Holds its row, so every read can be
/// checked against what the row declares.
pub(crate) struct Args {
    cmd: &'static Command,
    /// Positional arguments, in order.
    pub positional: Vec<String>,
    options: HashMap<String, String>,
    flags: HashSet<String>,
}

/// A value type [`Args::get`] can read from an option.
pub(crate) trait OptValue: Sized {
    /// Parse one option value; `None` when it is not a valid `Self`.
    fn parse_opt(s: &str) -> Option<Self>;
}

macro_rules! int_opt_value {
    ($($t:ty),*) => {$(
        /// Decimal, or hex with a `0x` prefix.
        impl OptValue for $t {
            fn parse_opt(s: &str) -> Option<Self> {
                match s.strip_prefix("0x") {
                    Some(hex) => <$t>::from_str_radix(hex, 16).ok(),
                    None => s.parse().ok(),
                }
            }
        }
    )*};
}
int_opt_value!(u8, u16, u32, u64, usize);

impl OptValue for f64 {
    fn parse_opt(s: &str) -> Option<Self> {
        s.parse().ok()
    }
}

impl Args {
    /// The raw value of option `key`, `None` when absent.
    pub fn value(&self, key: &str) -> Option<&str> {
        debug_assert!(
            self.cmd.options.contains(&key),
            "`{}` reads undeclared option {key}",
            self.cmd.name
        );
        self.options.get(key).map(String::as_str)
    }

    /// The typed value of option `key`: `None` when it is absent, a usage
    /// error when it does not parse (junk, or out of range for `T`).
    pub fn get<T: OptValue>(&self, key: &str) -> Result<Option<T>, CliError> {
        self.value(key)
            .map(|s| T::parse_opt(s).ok_or_else(|| CliError::Usage(format!("bad {key} `{s}`"))))
            .transpose()
    }

    /// Whether bare flag `--name` was given.
    pub fn flag(&self, name: &str) -> bool {
        debug_assert!(
            self.cmd.flags.contains(&name),
            "`{}` reads undeclared flag --{name}",
            self.cmd.name
        );
        self.flags.contains(name)
    }

    /// The output path, from `-o` or `--out`.
    pub fn out(&self) -> Option<&str> {
        self.value("-o")
    }

    /// The first positional argument, which the command cannot run without.
    pub fn required(&self, what: &str) -> Result<&str, CliError> {
        self.positional
            .first()
            .map(String::as_str)
            .ok_or_else(|| CliError::Usage(format!("{} needs {what}", self.cmd.name)))
    }
}

/// Split the arguments after `cmd`'s name into positionals, options and
/// flags, refusing any option or flag its row does not declare.
pub(crate) fn parse_args(cmd: &'static Command, raw: &[String]) -> Result<Args, CliError> {
    let mut args = Args {
        cmd,
        positional: Vec::new(),
        options: HashMap::new(),
        flags: HashSet::new(),
    };
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        if !a.starts_with('-') || a.len() == 1 {
            args.positional.push(a.clone());
            continue;
        }
        let key = if a == "--out" { "-o" } else { a.as_str() };
        if cmd.options.contains(&key) {
            let v = it
                .next()
                .ok_or_else(|| CliError::Usage(format!("{a} needs a value")))?;
            args.options.insert(key.to_string(), v.clone());
        } else if let Some(flag) = a.strip_prefix("--").filter(|f| cmd.flags.contains(f)) {
            args.flags.insert(flag.to_string());
        } else {
            return Err(CliError::Usage(format!("`{}` has no option {a}", cmd.name)));
        }
    }
    Ok(args)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::s;

    static ROW: Command = Command {
        name: "test",
        usage: "",
        about: "",
        options: &["--seed", "-o", "--start", "--target", "--len", "--cycles"],
        flags: &["vulnerable"],
        run: |_| Ok(String::new()),
    };

    #[test]
    fn parse_args_splits_correctly() {
        let a = parse_args(
            &ROW,
            &s(&["file.hex", "--seed", "9", "--vulnerable", "-o", "out"]),
        )
        .unwrap();
        assert_eq!(a.positional, vec!["file.hex"]);
        assert_eq!(a.options["--seed"], "9");
        assert_eq!(a.options["-o"], "out");
        assert!(a.flags.contains("vulnerable"));
        assert!(parse_args(&ROW, &s(&["--seed"])).is_err());
        // `--out` is `-o`.
        assert_eq!(
            parse_args(&ROW, &s(&["--out", "f"])).unwrap().out(),
            Some("f")
        );

        // The typed reader: decimal or 0x hex at every width; overflow and
        // junk are usage errors, an absent key is `None`.
        let a = parse_args(
            &ROW,
            &s(&[
                "--seed",
                "18446744073709551615",
                "--start",
                "0x1f",
                "--target",
                "0x10000",
                "--len",
                "12x",
            ]),
        )
        .unwrap();
        assert_eq!(a.get::<u64>("--seed").unwrap(), Some(u64::MAX));
        assert_eq!(a.get::<u16>("--start").unwrap(), Some(0x1f));
        assert_eq!(a.get::<u64>("--target").unwrap(), Some(0x10000));
        assert!(matches!(a.get::<u32>("--seed"), Err(CliError::Usage(_))));
        assert!(matches!(a.get::<u16>("--target"), Err(CliError::Usage(_))));
        assert!(matches!(a.get::<usize>("--len"), Err(CliError::Usage(_))));
        assert_eq!(a.get::<u64>("--cycles").unwrap(), None);
    }
}
