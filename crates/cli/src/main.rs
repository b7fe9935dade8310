//! `foces` — the command-line entry point. All logic lives in
//! [`foces_cli::commands`]; `main` only wires argv and exit codes.

use foces_cli::commands;

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&raw) {
        Ok(out) => {
            print!("{}", out.report);
            if out.exit_code != 0 {
                std::process::exit(out.exit_code);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
