//! Command-line entry point regenerating the paper's figures and tables.
//!
//! ```text
//! cargo run -p otis-bench --bin reproduce -- list     # list experiment ids
//! cargo run -p otis-bench --bin reproduce -- fig12    # one experiment
//! cargo run -p otis-bench --bin reproduce -- all      # everything
//! ```

use otis_bench::{run_experiment, EXPERIMENTS};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "list" || args[0] == "--help" || args[0] == "-h" {
        println!("usage: reproduce <experiment-id | all | list>");
        println!();
        println!("available experiments:");
        for (id, description, _) in EXPERIMENTS {
            println!("  {id:<14} {description}");
        }
        return ExitCode::SUCCESS;
    }
    if args[0] == "all" {
        for (id, description, run) in EXPERIMENTS {
            println!("==================================================================");
            println!("== {id}: {description}");
            println!("==================================================================");
            println!("{}", run());
        }
        return ExitCode::SUCCESS;
    }
    for id in &args {
        match run_experiment(id) {
            Some(report) => println!("{report}"),
            None => {
                eprintln!("unknown experiment id '{id}'; see `reproduce list`");
                return ExitCode::from(2);
            }
        }
    }
    ExitCode::SUCCESS
}
