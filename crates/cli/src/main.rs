//! `toss-cli` — a command-line front end for the TOSS system.
//!
//! ```text
//! toss-cli load  --db store.json --collection dblp file1.xml [file2.xml …]
//! toss-cli xpath --db store.json --collection dblp "<xpath>"
//! toss-cli build-seo --db store.json --epsilon 3 --out seo.json [--rules rules.txt]
//! toss-cli query --db store.json --seo seo.json --collection dblp \
//!       --root inproceedings [--eq tag=value] [--contains tag=value] \
//!       [--similar tag=value] [--below tag=term] [--tax] \
//!       [--explain] [--trace-out spans.jsonl]
//! toss-cli stats --db store.json [--json]
//! toss-cli dot --seo seo.json
//! ```
//!
//! `query` runs in-process through `toss_serve::Service` in budget class
//! `batch` (`--timeout-ms 0` means its 30 s ceiling); `query` and `serve`
//! open the store by `toss_serve::open_store`. A subcommand accepts only
//! the flags it reads (there is no `--part-of`); any other is an error.

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message);
            // budget/overload failures are operational, not usage errors
            if e.code == commands::EXIT_USAGE {
                eprintln!();
                eprintln!("{}", commands::USAGE);
            }
            ExitCode::from(e.code)
        }
    }
}
