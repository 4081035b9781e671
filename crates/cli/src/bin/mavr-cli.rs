//! The `mavr-cli` command-line tool. All logic lives in the `mavr_tools`
//! library; this wrapper handles process I/O and exit codes.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match mavr_tools::run(&args) {
        Ok(out) => print!("{out}"),
        Err(e) => {
            eprintln!("mavr: {e}");
            if matches!(e, mavr_tools::CliError::Usage(_)) {
                eprintln!("\n{}", mavr_tools::help());
            }
            std::process::exit(1);
        }
    }
}
