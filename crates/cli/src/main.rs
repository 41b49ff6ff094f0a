//! `mbacctl` — robust measurement-based admission control, on the
//! command line.
//!
//! Subcommands:
//! * `design`   — the §5.3 robust design procedure (window + target);
//! * `theory`   — evaluate the overflow formulas at one parameter point;
//! * `simulate` — continuous-load simulation (RCBR or trace-driven);
//! * `serve-bench` — closed-loop decision-plane benchmark;
//! * `churn`    — flow-lifecycle churn smoke (timing-wheel calendar);
//! * `trace`    — generate / inspect LRD rate traces.

mod args;
mod commands;

use args::{ArgError, Args};

const TOP_USAGE: &str = "\
mbacctl <command> [flags]

commands:
  design     compute the robust MBAC configuration for a link
  theory     evaluate the Grossglauser-Tse overflow formulas
  simulate   run the continuous-load simulator
  serve-bench  benchmark the sharded admission decision plane
  churn      run the flow-lifecycle churn smoke at --flows scale
  trace      generate or inspect rate traces
  help       show usage for a command (`mbacctl help design`, or
             `mbacctl design --help`)";

/// A subcommand's usage text and entry point.
type Command = (&'static str, fn(&Args) -> Result<(), ArgError>);

fn command(name: &str) -> Option<Command> {
    Some(match name {
        "design" => (commands::design::USAGE, commands::design::run),
        "theory" => (commands::theory::USAGE, commands::theory::run),
        "simulate" => (commands::simulate::USAGE, commands::simulate::run),
        "serve-bench" => (commands::serve_bench::USAGE, commands::serve_bench::run),
        "churn" => (commands::churn::USAGE, commands::churn::run),
        "trace" => (commands::trace::USAGE, commands::trace::run),
        _ => return None,
    })
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let Some(cmd) = argv.next() else {
        eprintln!("{TOP_USAGE}");
        std::process::exit(2);
    };
    let rest: Vec<String> = argv.collect();
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        match rest.first().and_then(|c| command(c)) {
            Some((usage, _)) => println!("{usage}"),
            None => println!("{TOP_USAGE}"),
        }
        return;
    }
    let Some((usage, run)) = command(&cmd) else {
        eprintln!("unknown command '{cmd}'\n\n{TOP_USAGE}");
        std::process::exit(2);
    };
    if rest.iter().any(|w| w == "--help" || w == "-h") {
        println!("{usage}");
        return;
    }
    let result = Args::parse(rest).and_then(|a| match a.positional().first() {
        // Only `trace` reads positional words (`trace gen <file>`).
        // Elsewhere a word that is no `--name value` flag (`-t-m`, a
        // value missing its flag) would be read by nothing.
        Some(word) if cmd != "trace" => Err(ArgError(format!(
            "unexpected argument '{word}': flags take the form --name <value>"
        ))),
        _ => run(&a),
    });
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
