//! Runs the experiments of `mbac_experiments::runner::EXPERIMENTS`:
//!
//! ```text
//! exp                 # every experiment, in the paper's order
//! exp fig5 topology   # the named ones
//! ```
//!
//! `MBAC_QUICK=1` runs each at its smoke budget, `MBAC_SCALE=s` scales
//! the full budgets by `s`. CSVs and `MANIFEST.json` go to `results/`
//! under the working directory. An unknown name exits 1 and lists the
//! names.

use mbac_experiments::{runner, Budget};
use std::process::ExitCode;

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    match runner::run(&names, &Budget::from_env()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
