//! `perfbench`: see the library documentation and `perfbench/NOTES.md`.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match perfbench::Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", perfbench::USAGE);
            return ExitCode::from(2);
        }
    };
    match perfbench::run(&args) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
