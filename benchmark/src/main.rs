//! `mbac-benchmark`: the repo's end-to-end + per-layer benchmark.
//!
//! ```text
//! mbac-benchmark run [--workload <name>|all] [--seed S] [--seconds T]
//!                    [--trace 0|1 | --traced] [--aa] [--out-dir DIR]
//! mbac-benchmark compare <a.json> <b.json>
//! mbac-benchmark list | manifest
//! ```
//!
//! `run --workload <name>` measures one workload in this process and
//! prints its table and, last, the one-line JSON result. `run` with
//! no workload (or `all`) runs each workload in a child process of
//! this same binary — so peak memory and set-up are each workload's
//! own — and writes one combined result file. See `README.md`.

mod compare;
mod digest;
mod fingerprint;
mod harness;
mod json;
mod metrics;
mod spans;
mod stats;
mod workloads;

use json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
pub const RUN_SECONDS: u64 = 10;
/// The seed used when none is given, and the held-out seed: develop a
/// change on the first, confirm it on the second.
pub const DEFAULT_SEED: u64 = 24_301;
pub const HELD_OUT_SEED: u64 = 12_648_430;

/// Stack of the measuring thread (the main thread's default size).
const MEASURE_STACK_BYTES: usize = 8 << 20;

const USAGE: &str = "\
mbac-benchmark run [--workload <name>|all] [--seed S] [--seconds T]
                   [--trace 0|1 | --traced] [--aa] [--out-dir DIR]
mbac-benchmark compare <a.json> <b.json>
mbac-benchmark list       workloads and metrics, one a line
mbac-benchmark manifest   the contents of BENCHMARK.json";

struct RunArgs {
    /// `workload` may be `all`.
    opts: harness::Options,
    aa: bool,
}

impl RunArgs {
    /// `<stem>.seed<S>.<traced|untraced><tag>.json` under the out dir.
    fn result_file(&self, stem: &str, tag: &str) -> PathBuf {
        let pass = if self.opts.traced {
            "traced"
        } else {
            "untraced"
        };
        self.opts
            .out_dir
            .join(format!("{stem}.seed{}.{pass}{tag}.json", self.opts.seed))
    }
}

/// Result files, span logs and sink files go under the build's target
/// directory, which `.gitignore` already covers.
fn default_out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new("benchmark").join("target"));
    target.join("mbac-benchmark")
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = harness::Options {
        workload: "all".into(),
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        traced: false,
        out_dir: default_out_dir(),
    };
    let mut aa = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => run.workload = value()?.clone(),
            "--seed" => {
                run.seed = value()?
                    .parse()
                    .map_err(|_| "--seed expects an unsigned integer")?
            }
            "--seconds" => {
                run.seconds = value()?.parse().map_err(|_| "--seconds expects a number")?;
                if !(run.seconds > 0.0 && run.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                run.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other}")),
                }
            }
            "--traced" => run.traced = true,
            "--aa" => aa = true,
            "--out-dir" => run.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    Ok(RunArgs { opts: run, aa })
}

/// Measures one workload in this process.
fn run_one(run: &RunArgs) -> Result<bool, String> {
    let options = run.opts.clone();
    // On a thread of its own: a thread's stack is a fresh page-aligned
    // mapping, so the simulator's stack frames (the RNG state above
    // all) sit at the same offsets in every process. The main thread's
    // stack start moves with ASLR and with the size of the environment
    // in 16-byte steps, and on this code that alone moves `ar1_dense`
    // by ±13 % from one process to the next.
    let result = std::thread::Builder::new()
        .name("measure".into())
        .stack_size(MEASURE_STACK_BYTES)
        .spawn(move || harness::run(&options))
        .map_err(|e| format!("cannot start the measuring thread: {e}"))?
        .join()
        .map_err(|_| "the measuring thread panicked".to_string())??;
    let file = run.result_file(&run.opts.workload, "");
    std::fs::write(&file, result.to_pretty())
        .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
    harness::print_table(&result);
    println!("  result file: {}", file.display());
    println!("{}", harness::result_line(&result).to_line());
    Ok(result
        .get("correct")
        .and_then(Json::as_bool)
        .unwrap_or(false))
}

/// Runs `workload` in a child process and returns its result file.
fn run_child(run: &RunArgs, workload: &str) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let output = Command::new(exe)
        .args(["run", "--workload", workload])
        .args(["--seed", &run.opts.seed.to_string()])
        .args(["--seconds", &run.opts.seconds.to_string()])
        .args(["--trace", if run.opts.traced { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&run.opts.out_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    // Everything but the child's one-line result, which the combined
    // file supersedes.
    let mut lines: Vec<&str> = stdout.lines().collect();
    lines.pop();
    for line in lines {
        println!("{line}");
    }
    let file = run.result_file(workload, "");
    let text = std::fs::read_to_string(&file).map_err(|e| {
        format!(
            "the {workload} run left no result ({e}); exit status {}",
            output.status
        )
    })?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))
}

/// Runs every workload, each in its own process, and combines them.
fn run_set(run: &RunArgs) -> Result<Json, String> {
    let mut workloads = Vec::new();
    for name in workloads::NAMES {
        workloads.push((name.to_string(), run_child(run, name)?));
    }
    Ok(Json::obj([
        ("schema", Json::str("mbac-benchmark/v1-set")),
        ("seed", Json::UInt(run.opts.seed)),
        ("seconds", Json::Num(run.opts.seconds)),
        ("traced", Json::Bool(run.opts.traced)),
        ("fingerprint", fingerprint::fingerprint()),
        ("workloads", Json::Obj(workloads)),
    ]))
}

fn set_is_correct(set: &Json) -> bool {
    set.get("workloads")
        .map(Json::members)
        .unwrap_or_default()
        .iter()
        .all(|(_, w)| w.get("correct").and_then(Json::as_bool).unwrap_or(false))
}

fn write_set(run: &RunArgs, set: &Json, tag: &str) -> Result<PathBuf, String> {
    let file = run.result_file("result", tag);
    std::fs::write(&file, set.to_pretty())
        .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
    println!("result file: {}", file.display());
    Ok(file)
}

fn run_command(args: &[String]) -> Result<bool, String> {
    let run = parse_run(args)?;
    std::fs::create_dir_all(&run.opts.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", run.opts.out_dir.display()))?;
    if run.aa {
        if run.opts.workload != "all" || run.opts.traced {
            return Err("--aa runs the full untraced set; drop --workload / --trace".into());
        }
        let a = run_set(&run)?;
        write_set(&run, &a, ".aa1")?;
        let b = run_set(&run)?;
        write_set(&run, &b, ".aa2")?;
        let rows = compare::rows(&a, &b);
        compare::print_aa(&rows);
        let agree = rows.iter().all(|r| r.rel_diff().abs() <= r.bound);
        return Ok(agree && set_is_correct(&a) && set_is_correct(&b));
    }
    if run.opts.workload == "all" {
        let set = run_set(&run)?;
        write_set(&run, &set, "")?;
        return Ok(set_is_correct(&set));
    }
    run_one(&run)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("mbac-benchmark measures optimized builds only: build with --release");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_command(&args[1..]),
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare_files(Path::new(a), Path::new(b)),
            _ => Err(format!("compare takes two result files\n{USAGE}")),
        },
        Some("list") => {
            for name in workloads::NAMES {
                println!("workload   {name}: {}", metrics::workload_why(name));
            }
            for m in metrics::END_TO_END {
                println!(
                    "end_to_end {} [{}] better={} bound={}",
                    m.name,
                    m.unit,
                    m.better.name(),
                    m.bound
                );
            }
            for m in metrics::per_layer() {
                println!(
                    "per_layer  {} [{}] better={}",
                    m.name,
                    m.unit,
                    m.better.name()
                );
            }
            Ok(true)
        }
        Some("manifest") => {
            print!("{}", metrics::manifest().to_pretty());
            Ok(true)
        }
        _ => Err(USAGE.into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}
