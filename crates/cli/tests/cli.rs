//! End-to-end tests of the `mbacctl` binary.

use std::process::Command;
use std::time::Duration;

fn mbacctl(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_mbacctl"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn no_args_prints_usage_and_fails() {
    let out = mbacctl(&[]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("commands:"));
}

#[test]
fn help_subcommands() {
    for cmd in [
        "design",
        "theory",
        "simulate",
        "serve-bench",
        "churn",
        "trace",
    ] {
        let out = mbacctl(&["help", cmd]);
        assert!(out.status.success(), "help {cmd}");
        assert!(
            String::from_utf8_lossy(&out.stdout).contains("mbacctl"),
            "help {cmd} shows usage"
        );
    }
}

/// `-t-m 99` is two words, not a flag: each command that takes no
/// positional word names the first one and exits 1, instead of running
/// with the flag's default (`T_m = 1.41` for this `simulate`).
#[test]
fn stray_words_are_rejected_not_dropped() {
    let simulate = "simulate --capacity 50 --holding 10 -t-m 99 --samples 2";
    for (line, word) in [
        (simulate, "-t-m"),
        ("design stray --capacity 100", "stray"),
        ("theory stray", "stray"),
        ("serve-bench --ticks 2 stray", "stray"),
        ("churn stray --flows 10", "stray"),
    ] {
        let args: Vec<&str> = line.split(' ').collect();
        let out = mbacctl(&args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{line}: {err}");
        assert!(
            err.starts_with("error: ") && err.contains(&format!("'{word}'")),
            "{line}: {err}"
        );
        assert_eq!(err.lines().count(), 1, "{line}: {err}");
    }
}

/// `serve-bench -h` prints the usage; it used to run the default
/// 32-link bench.
#[test]
fn dash_h_prints_usage_instead_of_running() {
    let out = mbacctl(&["serve-bench", "-h"]);
    let usage = mbacctl(&["help", "serve-bench"]).stdout;
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&usage)
    );
}

/// `<command> --help` (or `-h`), anywhere after the command, prints that
/// command's usage and exits 0; it used to fail with `--help requires a
/// value`.
#[test]
fn help_flag_after_any_command_prints_its_usage() {
    for cmd in [
        "design",
        "theory",
        "simulate",
        "serve-bench",
        "churn",
        "trace",
    ] {
        let usage = mbacctl(&["help", cmd]).stdout;
        for args in [
            &[cmd, "--help"][..],
            &[cmd, "-h"],
            &[cmd, "--seed", "3", "--help"],
        ] {
            let out = mbacctl(args);
            assert!(out.status.success(), "{args:?}: {out:?}");
            assert_eq!(
                String::from_utf8_lossy(&out.stdout),
                String::from_utf8_lossy(&usage),
                "{args:?}"
            );
        }
    }
}

#[test]
fn design_produces_configuration() {
    let out = mbacctl(&[
        "design",
        "--capacity",
        "400",
        "--sd",
        "0.3",
        "--holding",
        "1000",
        "--p-q",
        "0.001",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("memory window"));
    assert!(text.contains("adjusted target"));
    // T_m = 1000/sqrt(400) = 50.
    assert!(text.contains("50.000"), "window rule value:\n{text}");
}

#[test]
fn design_rejects_bad_probability() {
    let out = mbacctl(&[
        "design",
        "--capacity",
        "400",
        "--sd",
        "0.3",
        "--holding",
        "1000",
        "--p-q",
        "1.5",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("probability"));
}

#[test]
fn theory_evaluates_formulas() {
    let out = mbacctl(&[
        "theory",
        "--cov",
        "0.3",
        "--th-tilde",
        "31.6",
        "--t-c",
        "1.0",
        "--t-m",
        "8",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("eqn(37)"));
    assert!(text.contains("eqn(38)"));
    assert!(text.contains("gamma"));
}

/// The deleted kernel-selection flag of `simulate` and `serve-bench`,
/// now an unknown flag like any other. Spelled in two pieces so a grep
/// for the removed knob over the sources finds nothing.
const REMOVED_KERNEL_FLAG: &str = concat!("--kernel", "-dispatch");

#[test]
fn unknown_flag_is_reported() {
    let out = mbacctl(&[
        "theory",
        "--cov",
        "0.3",
        "--th-tilde",
        "10",
        "--t-c",
        "1",
        "--oops",
        "1",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag --oops"));
    let out = mbacctl(&small_sim_args(&[REMOVED_KERNEL_FLAG, "scalar"]));
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains(&format!("unknown flag {REMOVED_KERNEL_FLAG}")),
        "{err}"
    );
}

#[test]
fn trace_gen_info_roundtrip() {
    let dir = std::env::temp_dir().join("mbacctl_test");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("t.txt");
    let path = file.to_str().unwrap();
    let out = mbacctl(&["trace", "gen", path, "--slots", "2048", "--seed", "9"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = mbacctl(&["trace", "info", path]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Hurst"));
    assert!(text.contains("mean rate"));
    std::fs::remove_file(file).unwrap();
}

#[test]
fn simulate_small_run_reports_result() {
    let out = mbacctl(&[
        "simulate",
        "--capacity",
        "50",
        "--holding",
        "50",
        "--samples",
        "40",
        "--p-q",
        "0.01",
        "--seed",
        "3",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("overflow probability"));
    assert!(text.contains("mean utilization"));
}

#[test]
fn simulate_rejects_missing_capacity() {
    let out = mbacctl(&["simulate", "--holding", "50"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--capacity is required"));
}

/// The small deterministic simulate invocation shared by the metrics
/// tests below.
fn small_sim_args<'a>(extra: &[&'a str]) -> Vec<&'a str> {
    let mut args = vec![
        "simulate",
        "--capacity",
        "50",
        "--holding",
        "50",
        "--samples",
        "30",
        "--p-q",
        "0.01",
        "--seed",
        "5",
    ];
    args.extend_from_slice(extra);
    args
}

#[test]
fn simulate_metrics_out_stdout_emits_schema_json() {
    let out = mbacctl(&small_sim_args(&["--metrics-out", "-"]));
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    // Schema shape: versioned header plus the documented metric names.
    assert!(text.contains("\"schema\": \"mbac-metrics/v1\""), "{text}");
    for name in [
        "\"sim.ticks\"",
        "\"sim.admitted\"",
        "\"sim.load\"",
        "\"engine.occupancy\"",
        "\"ctl.admissible\"",
        "\"sim.pf.samples\"",
        "\"sim.pf.overflows\"",
        "\"type\": \"histogram\"",
        "\"type\": \"counter\"",
        "\"type\": \"gauge\"",
    ] {
        assert!(text.contains(name), "missing {name} in:\n{text}");
    }
    // Timing is opt-in; the default snapshot must be deterministic.
    assert!(!text.contains("engine.tick_ns"));
    // The human-readable report still follows the JSON.
    assert!(text.contains("overflow probability"));
}

/// The file half of `--metrics-out`. No flag picks the flow engine, so
/// engine equality is held below the CLI, by `crates/sim/tests/session.rs`
/// and the runner's engine tests.
#[test]
fn simulate_metrics_out_file_roundtrip_and_engine_equality() {
    let dir = std::env::temp_dir().join("mbacctl_metrics_test");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("metrics.json");
    let out = mbacctl(&small_sim_args(&["--metrics-out", file.to_str().unwrap()]));
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&file).unwrap();
    assert!(json.contains("\"schema\": \"mbac-metrics/v1\""));
    assert!(json.contains("\"sim.admitted\""), "{json}");
    std::fs::remove_file(file).unwrap();
}

/// No flag picks the flow engine: every `--engine` value is refused as
/// an unknown flag (the boxed engine is a test twin, not a user choice).
#[test]
fn simulate_rejects_bad_engine() {
    for engine in ["quantum", "boxed"] {
        let out = mbacctl(&small_sim_args(&["--engine", engine]));
        assert_eq!(out.status.code(), Some(1));
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown flag --engine"), "{err}");
    }
}

#[test]
fn simulate_rejects_nonpositive_capacity_without_panicking() {
    let out = mbacctl(&[
        "simulate",
        "--capacity",
        "-5",
        "--holding",
        "50",
        "--samples",
        "10",
    ]);
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(1), "clean exit, not a panic");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("capacity must be positive"),
        "friendly message, got: {err}"
    );
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn simulate_impulsive_rejects_too_few_flows_without_panicking() {
    let out = mbacctl(&[
        "simulate",
        "--load",
        "impulsive",
        "--capacity",
        "50",
        "--flows",
        "1",
        "--observe",
        "1.0",
        "--reps",
        "10",
    ]);
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(1), "clean exit, not a panic");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("at least 2 estimation flows"),
        "friendly message, got: {err}"
    );
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn simulate_impulsive_rejects_empty_observe_times_without_panicking() {
    let out = mbacctl(&[
        "simulate",
        "--load",
        "impulsive",
        "--capacity",
        "50",
        "--flows",
        "50",
        "--observe",
        "",
        "--reps",
        "10",
    ]);
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(1), "clean exit, not a panic");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("observe times must not be empty"),
        "friendly message, got: {err}"
    );
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn simulate_impulsive_rejects_infinite_observe_time_without_hanging() {
    let started = std::time::Instant::now();
    let out = mbacctl(&[
        "simulate",
        "--load",
        "impulsive",
        "--capacity",
        "100",
        "--flows",
        "100",
        "--observe",
        "1,inf",
        "--reps",
        "50",
    ]);
    assert!(
        started.elapsed() < std::time::Duration::from_secs(1),
        "rejected before any replication runs"
    );
    assert_eq!(out.status.code(), Some(1), "clean exit, not a panic");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("observe times must be finite and non-negative, got inf"),
        "friendly message, got: {err}"
    );
}

#[test]
fn simulate_impulsive_small_run_reports_result() {
    let out = mbacctl(&[
        "simulate",
        "--load",
        "impulsive",
        "--capacity",
        "50",
        "--flows",
        "50",
        "--observe",
        "1.0,5.0",
        "--reps",
        "50",
        "--holding",
        "20",
        "--seed",
        "9",
        "--workers",
        "2",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("M0 admitted"), "{text}");
    assert!(text.contains("p_f ="), "{text}");
}

#[test]
fn simulate_impulsive_rejects_oversized_loads_without_aborting_or_hanging() {
    // Unbounded, the first spawns its burst until memory runs out, the
    // second aborts allocating its replications (exit 134), the third
    // runs for days and the fourth admits about 10^15 fresh extras.
    let cases = [
        "--capacity 100 --flows 99999999999 --reps 1",
        "--capacity 100 --flows 100 --reps 99999999999",
        "--capacity 100 --flows 1000000 --reps 100000000",
        "--capacity 1e15 --flows 10 --reps 1",
    ];
    for flags in cases {
        let args: Vec<&str> = ["simulate", "--load", "impulsive", "--observe", "1"]
            .into_iter()
            .chain(flags.split(' '))
            .collect();
        let start = std::time::Instant::now();
        let out = mbacctl(&args);
        assert_eq!(out.status.code(), Some(1), "{flags}: clean exit");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.starts_with("error: invalid configuration: the workload would hold more than"),
            "{flags}: {err}"
        );
        assert_eq!(err.lines().count(), 1, "{flags}: {err}");
        assert!(start.elapsed().as_secs() < 5, "{flags} took too long");
    }
}

/// The continuous load holds about `c/μ` flows and advances every one
/// of them each tick. Unbounded, the first case ran the host out of
/// memory (exit 137 after ≈ 49 s), the next two ran past 10 s, and the
/// last — a link too small to carry one mean flow, where `T̃_h` is
/// ≈ 3·10⁶ — ran 1.3·10⁸ empty ticks.
#[test]
fn simulate_continuous_rejects_unbounded_populations_at_once() {
    let too_many = "the workload would hold more than 268435456 admitted flows";
    let cases = [
        ("--capacity 1e9", too_many),
        ("--capacity 1e11", too_many),
        ("--capacity 1e308", too_many),
        ("--capacity 100 --mean 99999999999", "cannot carry one flow"),
    ];
    let dir = std::env::temp_dir();
    for (flags, what) in cases {
        let args: Vec<&str> = ["simulate", "--holding", "100", "--samples", "2"]
            .into_iter()
            .chain(flags.split(' '))
            .collect();
        let out = mbacctl_within(&args, &dir, Duration::from_secs(5));
        let out = out.unwrap_or_else(|| panic!("{flags}: still running after 5 s"));
        assert_eq!(out.status.code(), Some(1), "{flags}: clean exit");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.starts_with("error: invalid configuration: ") && err.contains(what),
            "{flags}: {err}"
        );
        assert_eq!(err.lines().count(), 1, "{flags}: {err}");
    }
}

#[test]
fn simulate_routed_rejects_oversized_runs_without_aborting_or_hanging() {
    // Unbounded, the first panics sizing its replications ("capacity
    // overflow", exit 101), the second seeds flows until the host runs
    // out of memory (exit 137), and the third and fourth run for days:
    // each count of the fourth is within its bound, the run they make
    // (8 replications of 4 routes) is not.
    let cases = [
        "--reps 18446744073709551615",
        "--flows-per-route 100000000000",
        "--ticks 100000000000",
        "--ticks 100000000 --flows-per-route 10000",
    ];
    for flags in cases {
        let args: Vec<&str> = ["simulate", "--load", "routed", "--capacity", "100"]
            .into_iter()
            .chain(["--holding", "10"])
            .chain(flags.split(' '))
            .collect();
        let start = std::time::Instant::now();
        let out = mbacctl(&args);
        assert_eq!(out.status.code(), Some(1), "{flags}: clean exit");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.starts_with("error: invalid configuration: the workload would hold more than"),
            "{flags}: {err}"
        );
        assert_eq!(err.lines().count(), 1, "{flags}: {err}");
        assert!(start.elapsed().as_secs() < 5, "{flags} took too long");
    }
}

/// A network that can admit without bound: with `--capacity 1e15` and
/// unbounded attempts the closed loop registered flows until the flow
/// table's allocation failed (exit 134 under a 3 GB memory limit; the
/// host's memory without one).
#[test]
fn simulate_routed_rejects_unbounded_populations_at_once() {
    let too_many = "the workload would hold more than 268435456 admitted flows";
    let dir = std::env::temp_dir();
    for capacity in ["1e15", "1e308"] {
        let args = [
            "simulate",
            "--load",
            "routed",
            "--capacity",
            capacity,
            "--holding",
            "10",
            "--attempts",
            "99999999999",
            "--ticks",
            "5",
            "--warmup",
            "1",
        ];
        let out = mbacctl_within(&args, &dir, Duration::from_secs(5));
        let out = out.unwrap_or_else(|| panic!("{capacity}: still running after 5 s"));
        assert_eq!(out.status.code(), Some(1), "{capacity}: clean exit");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.starts_with("error: invalid configuration: ") && err.contains(too_many),
            "{capacity}: {err}"
        );
        assert_eq!(err.lines().count(), 1, "{capacity}: {err}");
    }
}

#[test]
fn simulate_poisson_rejects_unbounded_arrival_rates_without_panicking_or_hanging() {
    // `inf` used to panic on a zero mean inter-arrival time (exit 101);
    // `1e300` ran an arrival at every float step, for ever.
    let cases = [
        ("inf", "arrival rate must be finite, got inf"),
        (
            "1e300",
            "the workload would hold more than 268435456 expected arrivals",
        ),
    ];
    for (lambda, want) in cases {
        let start = std::time::Instant::now();
        let out = mbacctl(&[
            "simulate",
            "--capacity",
            "50",
            "--load",
            "poisson",
            "--lambda",
            lambda,
            "--holding",
            "10",
            "--samples",
            "2",
        ]);
        assert_eq!(out.status.code(), Some(1), "--lambda {lambda}: clean exit");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.starts_with("error: invalid configuration: ") && err.contains(want),
            "--lambda {lambda}: {err}"
        );
        assert_eq!(err.lines().count(), 1, "--lambda {lambda}: {err}");
        assert!(
            start.elapsed().as_secs() < 1,
            "--lambda {lambda} took too long"
        );
    }
}

/// A scratch trace file holding `text`, unique to this test process.
fn trace_file(name: &str, text: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mbacctl_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join(name);
    std::fs::write(&file, text).unwrap();
    file
}

#[test]
fn malformed_trace_files_are_rejected_without_panicking() {
    // Each used to reach `Trace::new`'s asserts (exit 101) on every
    // command that reads a trace.
    let cases = [
        ("nan.txt", "1\nnan\n", "bad rate on line 2"),
        ("neg.txt", "-3\n", "bad rate on line 1"),
        ("inf.txt", "inf\n", "bad rate on line 1"),
        ("slot.txt", "# slot 0\n1\n", "bad slot on line 1"),
    ];
    for (name, text, want) in cases {
        let file = trace_file(name, text);
        let path = file.to_str().unwrap();
        for command in [
            &[
                "simulate",
                "--capacity",
                "30",
                "--holding",
                "20",
                "--trace",
                path,
            ][..],
            &["serve-bench", "--trace", path],
            &["trace", "info", path],
        ] {
            let out = mbacctl(command);
            assert_eq!(out.status.code(), Some(1), "{command:?}: clean exit");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(
                err.starts_with("error: ") && err.contains(want),
                "{command:?}: {err}"
            );
            assert_eq!(err.lines().count(), 1, "{command:?}: {err}");
        }
        std::fs::remove_file(file).unwrap();
    }
}

#[test]
fn continuous_loads_reject_unbounded_tick_horizons_without_hanging() {
    // Each derives a warm-up near 10^301 ticks and used to run past any
    // timeout.
    let slot = trace_file("slot1e300.txt", "# slot 1e300\n1\n2\n");
    let slot = slot.to_str().unwrap();
    let cases = [
        &["--holding", "20", "--t-m", "1e300"][..],
        &["--holding", "1e300"],
        &["--holding", "20", "--t-c", "1e300"],
        &["--holding", "20", "--trace", slot],
    ];
    for flags in cases {
        let args: Vec<&str> = ["simulate", "--capacity", "30"]
            .into_iter()
            .chain(flags.iter().copied())
            .collect();
        let start = std::time::Instant::now();
        let out = mbacctl(&args);
        assert_eq!(out.status.code(), Some(1), "{flags:?}: clean exit");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            err,
            "error: invalid configuration: the workload would hold more than 268435456 ticks\n",
            "{flags:?}"
        );
        assert!(start.elapsed().as_secs() < 5, "{flags:?} took too long");
    }
    std::fs::remove_file(slot).unwrap();
}

#[test]
fn simulate_poisson_small_run_reports_result() {
    let out = mbacctl(&[
        "simulate",
        "--load",
        "poisson",
        "--capacity",
        "50",
        "--lambda",
        "0.5",
        "--holding",
        "50",
        "--samples",
        "20",
        "--p-q",
        "0.01",
        "--seed",
        "3",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("blocking probability"), "{text}");
    assert!(text.contains("overflow probability"), "{text}");
}

#[test]
fn simulate_rejects_unknown_load_model() {
    let out = mbacctl(&["simulate", "--capacity", "50", "--load", "bursty"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--load must be continuous, impulsive, poisson or routed"),
        "{err}"
    );
}

#[test]
fn simulate_rejects_trace_with_rcbr_flags() {
    let out = mbacctl(&[
        "simulate",
        "--capacity",
        "50",
        "--holding",
        "50",
        "--trace",
        "whatever.txt",
        "--mean",
        "1.0",
    ]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("mutually exclusive"), "{err}");
}

/// The small deterministic serve-bench invocation shared by the tests
/// below.
fn small_serve_args<'a>(extra: &[&'a str]) -> Vec<&'a str> {
    let mut args = vec![
        "serve-bench",
        "--links",
        "3",
        "--flows-per-link",
        "6",
        "--ticks",
        "8",
        "--requests-per-tick",
        "2",
        "--capacity",
        "7",
        "--seed",
        "11",
    ];
    args.extend_from_slice(extra);
    args
}

/// The deterministic half of a serve-bench report: everything printed
/// before the `timing:` block (the decision totals).
fn decision_block(stdout: &[u8]) -> String {
    let text = String::from_utf8_lossy(stdout);
    text.split("timing:").next().unwrap().to_string()
}

#[test]
fn serve_bench_small_run_reports_decisions_and_timing() {
    let out = mbacctl(&small_serve_args(&[]));
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("serve bench:"), "{text}");
    // 3 links x 8 ticks x 2 requests = 48 decisions.
    assert!(text.contains("total                : 48"), "{text}");
    assert!(text.contains("admitted / rejected"), "{text}");
    assert!(text.contains("p50 / p99 / mean"), "{text}");
    assert!(text.contains("decisions per second"), "{text}");
}

/// The timing block says how many stamped decisions its quantiles rest
/// on: all of a short run, a fixed budget of a longer one — on either
/// plane, and without touching the decision block.
#[test]
fn serve_bench_reports_its_latency_sample_count() {
    let samples = |args: &[&str]| {
        let out = mbacctl(args);
        assert!(out.status.success(), "{args:?}");
        let text = String::from_utf8_lossy(&out.stdout).into_owned();
        let line = text.lines().find(|l| l.contains("latency samples"));
        let line = line.unwrap_or_else(|| panic!("{args:?}: {text}"));
        assert!(!decision_block(&out.stdout).contains("latency samples"));
        line.split(": ").nth(1).unwrap().to_string()
    };
    assert_eq!(samples(&small_serve_args(&[])), "48 of 48 decisions");
    let routed = ["serve-bench", "--topology", "parking-lot:3", "--ticks", "5"];
    assert_eq!(samples(&routed), "80 of 80 decisions");
    // 8 links x 100 ticks x 32 requests: past the budget of 16384.
    let long = "serve-bench --links 8 --flows-per-link 4 --ticks 100 --requests-per-tick 32";
    let long: Vec<&str> = long.split(' ').collect();
    assert_eq!(samples(&long), "16384 of 25600 decisions");
}

#[test]
fn serve_bench_unknown_flag_is_reported() {
    for flag in ["--oops", REMOVED_KERNEL_FLAG, "--engine"] {
        let out = mbacctl(&small_serve_args(&[flag, "scalar"]));
        assert!(!out.status.success());
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown flag {flag}")), "{err}");
    }
}

#[test]
fn serve_bench_rejects_zero_shards_without_panicking() {
    let out = mbacctl(&small_serve_args(&["--shards", "0"]));
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(1), "clean exit, not a panic");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("invalid configuration"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn serve_bench_rejects_zero_links_without_panicking() {
    let out = mbacctl(&["serve-bench", "--links", "0"]);
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(1), "clean exit, not a panic");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("invalid configuration"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn serve_bench_rejects_bad_source() {
    let out = mbacctl(&small_serve_args(&["--source", "fractal"]));
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--source must be rcbr or ar1"));
}

#[test]
fn serve_bench_rejects_trace_with_model_flags() {
    let out = mbacctl(&small_serve_args(&[
        "--trace",
        "whatever.txt",
        "--mean",
        "1.0",
    ]));
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("mutually exclusive"));
}

#[test]
fn serve_bench_sharded_decisions_match_default_shape() {
    // Shards/producers are performance knobs: the decision block must
    // not change with the plane shape (on a single-core host the run
    // falls back to serial and says so — the totals still match). The
    // routed row's 18000 ticks are three of parking-lot:3's threaded
    // windows (5461 ticks) and a short fourth.
    let routed = [
        "serve-bench",
        "--topology",
        "parking-lot:3",
        "--flows-per-route",
        "10",
        "--ticks",
        "18000",
        "--requests-per-tick",
        "2",
        "--capacity",
        "24",
        "--noise-sd",
        "0.05",
    ];
    let sharded = ["--shards", "4", "--producers", "2"];
    let shapes = [
        (small_serve_args(&[]), small_serve_args(&sharded)),
        (routed.to_vec(), [&routed[..], &sharded].concat()),
    ];
    for (base, sharded) in shapes {
        let (base, sharded) = (mbacctl(&base), mbacctl(&sharded));
        assert!(base.status.success());
        assert!(
            sharded.status.success(),
            "{}",
            String::from_utf8_lossy(&sharded.stderr)
        );
        let base_block = decision_block(&base.stdout);
        let sharded_block = decision_block(&sharded.stdout);
        // Strip the header/note lines (they name the shape) and compare
        // the decision totals proper.
        let totals = |block: &str| {
            block
                .lines()
                .skip_while(|l| !l.starts_with("decisions:"))
                .map(String::from)
                .collect::<Vec<_>>()
        };
        assert_eq!(
            totals(&base_block),
            totals(&sharded_block),
            "plane shape leaked into the decision totals"
        );
    }
}

#[test]
fn simulate_rejects_unwritable_metrics_out() {
    let out = mbacctl(&small_sim_args(&[
        "--metrics-out",
        "/nonexistent-dir/metrics.json",
    ]));
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot write"));
}

// ---------------------------------------------------------------------
// Routed (multi-hop topology) surfaces
// ---------------------------------------------------------------------

#[test]
fn simulate_routed_reports_per_link_and_per_route() {
    let out = mbacctl(&[
        "simulate",
        "--load",
        "routed",
        "--capacity",
        "10",
        "--holding",
        "8",
        "--topology",
        "parking-lot:2",
        "--ticks",
        "80",
        "--warmup",
        "20",
        "--reps",
        "2",
        "--seed",
        "3",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("routed load: topology = parking-lot:2"),
        "{text}"
    );
    assert!(text.contains("worst-link p_f"), "{text}");
    // parking-lot(2): 2 links, 3 routes (one 2-hop, two 1-hop).
    assert!(text.contains("link 1:"), "{text}");
    assert!(text.contains("route 0 (2 hops)"), "{text}");
    assert!(text.contains("route 2 (1 hop)"), "{text}");
}

#[test]
fn simulate_routed_is_worker_invariant() {
    let run = |workers: &str| {
        let out = mbacctl(&[
            "simulate",
            "--load",
            "routed",
            "--capacity",
            "10",
            "--holding",
            "8",
            "--topology",
            "star:2",
            "--ticks",
            "60",
            "--warmup",
            "15",
            "--reps",
            "3",
            "--seed",
            "7",
            "--workers",
            workers,
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    assert_eq!(run("1"), run("4"), "worker count leaked into the report");
}

#[test]
fn simulate_routed_rejects_bad_topology() {
    let out = mbacctl(&[
        "simulate",
        "--load",
        "routed",
        "--capacity",
        "10",
        "--holding",
        "8",
        "--topology",
        "mesh:3",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--topology"));
}

#[test]
fn serve_bench_topology_reports_routed_decisions() {
    let out = mbacctl(&[
        "serve-bench",
        "--topology",
        "parking-lot:2",
        "--capacity",
        "14",
        "--flows-per-route",
        "4",
        "--ticks",
        "8",
        "--requests-per-tick",
        "2",
        "--seed",
        "11",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("serve bench (routed): topology = parking-lot:2"),
        "{text}"
    );
    // 3 routes x 8 ticks x 2 requests = 48 decisions.
    assert!(text.contains("total                : 48"), "{text}");
}

#[test]
fn serve_bench_topology_rejects_link_flags() {
    let out = mbacctl(&["serve-bench", "--topology", "star:2", "--links", "3"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("mutually exclusive"));
}

#[test]
fn serve_bench_rejects_overlong_route_without_panicking() {
    // Hop indices travel as u8: a 300-hop route used to wrap its vote
    // count modulo 256 and could admit over a rejecting hop.
    let out = mbacctl(&["serve-bench", "--topology", "parking-lot:300"]);
    assert_eq!(out.status.code(), Some(1), "clean exit, not a panic");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("hops must be <= 255"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn oversized_stars_are_rejected_without_aborting() {
    // `Topology::star` allocates a route per leg before any `validate`
    // runs: 10^11 legs used to abort on the allocation (exit 134) in
    // both commands that take a topology.
    let cases = [
        "serve-bench --topology star:99999999999 --ticks 2",
        "simulate --load routed --capacity 100 --holding 10 --topology star:99999999999 --ticks 5",
    ];
    for command in cases {
        let args: Vec<&str> = command.split(' ').collect();
        let start = std::time::Instant::now();
        let out = mbacctl(&args);
        assert_eq!(out.status.code(), Some(1), "{command}: clean exit");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with("error: "), "{command}: {err}");
        assert!(err.contains("legs must be <= 4096"), "{command}: {err}");
        assert_eq!(err.lines().count(), 1, "{command}: {err}");
        assert!(start.elapsed().as_secs() < 1, "{command} took too long");
    }
}

/// The timing block says where the round went: the replay (`elapsed`),
/// the workload generation beside it and the run's `wall` time, which
/// holds both, on either plane.
#[test]
fn serve_bench_reports_generation_beside_elapsed() {
    let seconds = |text: &str, label: &str| -> f64 {
        let timing = text.split("timing:").nth(1).expect("a timing block");
        let line = timing.lines().find(|l| l.trim_start().starts_with(label));
        let line = line.unwrap_or_else(|| panic!("no `{label}` line: {text}"));
        let value = line.split(": ").nth(1).unwrap().trim_end_matches(" s");
        value.parse().unwrap_or_else(|_| panic!("{line}"))
    };
    let links = "serve-bench --links 8 --flows-per-link 200 --ticks 3";
    let routed = "serve-bench --topology parking-lot:3 --flows-per-route 200 --ticks 3";
    for command in [links, routed] {
        let args: Vec<&str> = command.split(' ').collect();
        let out = mbacctl(&args);
        assert!(out.status.success(), "{command}");
        let text = String::from_utf8_lossy(&out.stdout);
        let (replay, generation) = (seconds(&text, "elapsed"), seconds(&text, "generation"));
        assert!(replay > 0.0 && generation > 0.0, "{command}: {text}");
        assert!(
            seconds(&text, "wall") >= replay.max(generation),
            "{command}: {text}"
        );
        for timing in ["generation", "wall"] {
            assert!(!decision_block(&out.stdout).contains(timing));
        }
    }
}

/// A serial run holds one window of ticks at a time, so it is held to
/// the workload bound a tick at a time: this run is more events than a
/// materialised one may hold (2^28), and goes ahead. It would take
/// minutes, so the test stops it once it is past the checks, which
/// answer within milliseconds.
#[test]
fn serve_bench_streams_a_run_past_the_materialised_bound() {
    // The threaded row draws 2.88e8 link snapshots, past 2^28: its
    // windows hold a few ticks of them at a time, as the serial ones do.
    for args in [
        "serve-bench --links 32 --requests-per-tick 32 --ticks 300000",
        "serve-bench --links 32 --requests-per-tick 32 --ticks 9000000 --shards 2 --producers 1",
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_mbacctl"))
            .args(args.split(' '))
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("binary runs");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        let exited = loop {
            let exited = child.try_wait().expect("waitable");
            if exited.is_some() || std::time::Instant::now() >= deadline {
                break exited;
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        };
        let _ = child.kill();
        let out = child.wait_with_output().expect("reaped");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(exited.is_none(), "{args}: exited {exited:?}: {err}");
    }
}

#[test]
fn serve_bench_rejects_nonpositive_topology_capacity_without_panicking() {
    // The shape constructors `expect` a valid capacity; the flag used
    // to reach them unchecked on the routed path.
    for spec in ["single", "parking-lot:3", "star:3"] {
        let out = mbacctl(&["serve-bench", "--topology", spec, "--capacity", "-1"]);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{spec}: clean exit, not a panic"
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("capacity must be positive"), "{spec}: {err}");
        assert!(!err.contains("panicked"), "{spec}: {err}");
    }
}

#[test]
fn serve_bench_rejects_bad_memory_time_scale_without_panicking() {
    // `FilteredEstimator::new` asserts on t_m; the flag used to reach
    // it unchecked in both bench shapes.
    for shape in [&[][..], &["--topology", "parking-lot:3"]] {
        for t_m in ["-1", "nan"] {
            let mut args = vec!["serve-bench", "--ticks", "5", "--t-m", t_m];
            args.extend_from_slice(shape);
            let out = mbacctl(&args);
            assert_eq!(out.status.code(), Some(1), "{args:?}: clean exit");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(err.contains("t_m must be finite and non-negative"), "{err}");
            assert_eq!(err.lines().count(), 1, "{err}");
        }
    }
}

#[test]
fn non_finite_source_statistics_are_rejected_without_panicking() {
    // Bare `<= 0.0` guards let NaN and inf through to model and theory
    // constructors that assert on them (exit 101) or, where nothing
    // asserts, into the run: `--noise-sd inf` rejected every request,
    // `--capacity inf` admitted every one, `theory --t-m inf` printed
    // eqn (37) = 0 beside eqn (38) = 1.
    const SERVE: &[&str] = &["serve-bench", "--links", "2", "--ticks", "5"];
    const ROUTED: &[&str] = &["serve-bench", "--topology", "parking-lot:3", "--ticks", "5"];
    const SIM: &[&str] = &["simulate", "--capacity", "50", "--holding", "20"];
    const DESIGN: &[&str] = &["design", "--capacity", "100", "--holding", "1000"];
    const THEORY_COV: &[&str] = &["theory", "--th-tilde", "10", "--t-c", "1"];
    const THEORY_TH: &[&str] = &["theory", "--cov", "0.3", "--t-c", "1"];
    const THEORY_TC: &[&str] = &["theory", "--cov", "0.3", "--th-tilde", "10"];
    const THEORY_TM: &[&str] = &["theory", "--cov", "0.3", "--th-tilde", "10", "--t-c", "1"];
    const POISSON: &[&str] = &[
        "simulate",
        "--load",
        "poisson",
        "--capacity",
        "50",
        "--lambda",
        "0.5",
        "--holding",
        "20",
    ];
    const SIM_ROUTED: &[&str] = &[
        "simulate",
        "--load",
        "routed",
        "--capacity",
        "50",
        "--holding",
        "20",
        "--ticks",
        "5",
    ];
    let cases: [(&[&str], &[&str], &str); 24] = [
        (SERVE, &["--mean", "nan"], "mean must be positive"),
        (SERVE, &["--mean", "inf"], "mean must be finite"),
        (SERVE, &["--sd", "nan"], "sd must be non-negative"),
        (SERVE, &["--sd", "inf"], "sd must be finite"),
        (SERVE, &["--t-c", "inf"], "t-c must be finite"),
        (
            SERVE,
            &["--source", "ar1", "--t-c", "inf"],
            "t-c must be finite",
        ),
        (SIM, &["--mean", "nan"], "mean must be positive"),
        (SIM, &["--t-c", "inf"], "t-c must be finite"),
        (DESIGN, &["--sd", "inf"], "sd must be finite"),
        (THEORY_COV, &["--cov", "nan"], "cov must be positive"),
        (THEORY_COV, &["--cov", "inf"], "cov must be finite"),
        (THEORY_TH, &["--th-tilde", "inf"], "th-tilde must be finite"),
        (THEORY_TC, &["--t-c", "nan"], "t-c must be positive"),
        (THEORY_TC, &["--t-c", "inf"], "t-c must be finite"),
        (THEORY_TM, &["--t-m", "nan"], "t-m must be non-negative"),
        (THEORY_TM, &["--t-m", "inf"], "t-m must be finite"),
        (
            ROUTED,
            &["--noise-sd", "inf"],
            "noise standard deviation must be finite",
        ),
        (SERVE, &["--capacity", "inf"], "capacity must be finite"),
        // `FilteredEstimator::new` asserts on T_m: on this thread for
        // the continuous and Poisson loads, on a pool worker for routed.
        (SIM, &["--t-m", "inf"], "t-m must be finite"),
        (SIM, &["--t-m", "nan"], "t-m must be non-negative"),
        (POISSON, &["--t-m", "inf"], "t-m must be finite"),
        (POISSON, &["--t-m", "nan"], "t-m must be non-negative"),
        (SIM_ROUTED, &["--t-m", "inf"], "t-m must be finite"),
        (SIM_ROUTED, &["--t-m", "nan"], "t-m must be non-negative"),
    ];
    for (base, flags, want) in cases {
        let args = [base, flags].concat();
        let out = mbacctl(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: clean exit");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.starts_with("error:") && err.contains(want),
            "{args:?}: {err}"
        );
        assert_eq!(err.lines().count(), 1, "{args:?}: {err}");
    }
}

#[test]
fn serve_bench_rejects_oversized_shard_count_at_once() {
    // One ring and one consumer thread per shard: 10^8 of them used to
    // be built before anything could fail. The workload is generated
    // after the shape check, so a large one must not delay the error.
    for shape in [&[][..], &["--topology", "parking-lot:3"]] {
        let mut args = vec!["serve-bench", "--ticks", "200000", "--shards", "99999999"];
        args.extend_from_slice(shape);
        let start = std::time::Instant::now();
        let out = mbacctl(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: clean exit");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("shards must be at most 1024"), "{err}");
        assert_eq!(err.lines().count(), 1, "{err}");
        assert!(start.elapsed().as_secs() < 5, "{args:?} took too long");
    }
}

#[test]
fn serve_bench_rejects_oversized_workloads_without_aborting() {
    // The generated workload is sized up front from these flags: each
    // of the first five used to abort on the allocation (exit 134), the
    // sixth overflowed into a panicking pool worker, and the seventh
    // went on admitting flows for ever. A serial run is held to the
    // bound one tick at a time, which the first and sixth pass: their
    // length stops them. The last holds too many rate samples in one
    // tick.
    let cases = [
        "--links 4 --ticks 99999999999",
        "--links 4 --ticks 20 --requests-per-tick 99999999999",
        "--links 99999999999 --ticks 2",
        "--topology parking-lot:3 --ticks 99999999999",
        "--topology parking-lot:3 --ticks 20 --requests-per-tick 99999999999",
        "--links 2 --ticks 18446744073709551615 --requests-per-tick 3",
        "--flows-per-link 99999999999",
        "--links 64 --flows-per-link 5000000 --ticks 1",
    ];
    for flags in cases {
        let args: Vec<&str> = std::iter::once("serve-bench")
            .chain(flags.split(' '))
            .collect();
        let start = std::time::Instant::now();
        let out = mbacctl(&args);
        assert_eq!(out.status.code(), Some(1), "{flags}: clean exit");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.starts_with("error: invalid configuration: the workload would hold more than"),
            "{flags}: {err}"
        );
        assert_eq!(err.lines().count(), 1, "{flags}: {err}");
        assert!(start.elapsed().as_secs() < 5, "{flags} took too long");
    }
}

/// A run whose ticks reach past the largest `f64` time used to panic
/// advancing its flows to ∞ (exit 101), on every shape.
#[test]
fn serve_bench_rejects_a_run_past_the_largest_time() {
    for shape in [
        "",
        "--shards 2",
        "--topology parking-lot:3",
        "--topology star:3 --shards 2",
    ] {
        let args: Vec<&str> = ["serve-bench", "--ticks", "12", "--tick", "1e308"]
            .into_iter()
            .chain(shape.split_whitespace())
            .collect();
        let out = mbacctl(&args);
        assert_eq!(out.status.code(), Some(1), "{shape}: clean exit");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("run length (ticks × tick) must be finite"),
            "{shape}: {err}"
        );
        assert_eq!(err.lines().count(), 1, "{shape}: {err}");
    }
}

#[test]
fn serve_bench_rejects_oversized_rings_without_aborting() {
    // Rings are allocated up front: 10^11 slots used to abort on the
    // allocation (exit 134), and 10^19 has no power of two above it,
    // which a release build wrapped into a 2-slot ring.
    let stream = std::env::temp_dir().join("mbacctl_oversized_ring.jsonl");
    let stream = stream.to_str().unwrap();
    let cases: [(&[&str], &str); 4] = [
        (
            &["--ring-capacity", "99999999999"],
            "ring capacity must be at most 1048576",
        ),
        (
            &[
                "--ring-capacity",
                "99999999999",
                "--topology",
                "parking-lot:3",
            ],
            "ring capacity must be at most 1048576",
        ),
        (
            &["--ring-capacity", "9999999999999999999"],
            "ring capacity must be at most 1048576",
        ),
        (
            &["--metrics-stream", stream, "--stream-ring", "99999999999"],
            "--stream-ring must be in 1..=1048576",
        ),
    ];
    for (flags, want) in cases {
        let args = [&["serve-bench", "--ticks", "5"], flags].concat();
        let out = mbacctl(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: clean exit");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.starts_with("error:") && err.contains(want),
            "{args:?}: {err}"
        );
        assert_eq!(err.lines().count(), 1, "{args:?}: {err}");
    }
}

#[test]
fn simulate_metrics_stream_writes_v2_jsonl() {
    let dir = std::env::temp_dir().join("mbacctl_stream_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sim_stream.jsonl");
    let out = mbacctl(&small_sim_args(&[
        "--metrics-stream",
        path.to_str().unwrap(),
        "--stream-sample",
        "1.0",
        "--stream-flush",
        "16",
        // Oversized ring: the run outpaces the writer's idle sleep, and
        // this test is about the record shapes, not backpressure.
        "--stream-ring",
        "65536",
    ]));
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("metrics stream:"), "{text}");
    assert!(text.contains("0 dropped"), "no drops expected:\n{text}");
    let body = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = body.lines().collect();
    assert!(lines.len() >= 3, "header + records + summary:\n{body}");
    assert!(
        lines[0].contains("\"schema\": \"mbac-metrics/v2-stream\""),
        "{}",
        lines[0]
    );
    assert!(lines[0].contains("\"k\": \"header\""));
    assert!(
        body.contains("\"k\": \"sample\""),
        "sampled at 1.0:\n{body}"
    );
    assert!(body.contains("\"k\": \"interval\""), "{body}");
    let last = lines.last().unwrap();
    assert!(last.contains("\"k\": \"summary\""), "{last}");
    assert!(last.contains("\"dropped\": 0"), "{last}");
}

#[test]
fn simulate_rejects_bad_stream_sample() {
    let out = mbacctl(&small_sim_args(&[
        "--metrics-stream",
        "/tmp/never_written.jsonl",
        "--stream-sample",
        "1.5",
    ]));
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--stream-sample"));
}

#[test]
fn serve_bench_metrics_stream_writes_v2_jsonl() {
    let dir = std::env::temp_dir().join("mbacctl_stream_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("serve_stream.jsonl");
    let out = mbacctl(&[
        "serve-bench",
        "--links",
        "2",
        "--flows-per-link",
        "4",
        "--ticks",
        "8",
        "--requests-per-tick",
        "2",
        "--capacity",
        "8",
        "--seed",
        "3",
        "--metrics-stream",
        path.to_str().unwrap(),
        "--stream-sample",
        "1.0",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("metrics stream:"), "{text}");
    assert!(text.contains("0 dropped"), "{text}");
    let body = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = body.lines().collect();
    assert!(
        lines[0].contains("\"schema\": \"mbac-metrics/v2-stream\""),
        "{}",
        lines[0]
    );
    // 2 links x 8 ticks x 2 requests = 32 decisions, all sampled.
    assert_eq!(body.matches("\"k\": \"sample\"").count(), 32, "{body}");
    // The interval snapshots carry plane-namespaced instrument names.
    assert!(body.contains("serve.shard0.requests"), "{body}");
    assert!(lines.last().unwrap().contains("\"k\": \"summary\""));
}

#[test]
fn churn_reports_a_conserving_run() {
    let out = mbacctl(&["churn", "--flows", "2000", "--ticks", "50"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().find(|l| l.contains("in system / admitted"));
    let counts = line.unwrap_or_else(|| panic!("{text}")).split(": ").nth(1);
    let (in_system, admitted) = counts.unwrap().split_once(" / ").unwrap();
    // The population is held at --flows: one replacement per departure.
    assert_eq!(in_system, "2000", "{text}");
    assert!(admitted.parse::<u64>().unwrap() > 2000, "{text}");
    // Each tick's replacements are one run, priced per admitted flow.
    let cost = text.lines().find(|l| l.contains("lifecycle cost"));
    assert!(
        cost.is_some_and(|l| l.ends_with(" ns/admitted flow")),
        "{text}"
    );
}

/// `churn` takes neither `--engine` nor `--verify`: both are unknown.
#[test]
fn churn_rejects_bad_engine_and_verify() {
    for (flag, value) in [("--engine", "boxed"), ("--verify", "true")] {
        let out = mbacctl(&["churn", "--flows", "10", "--ticks", "2", flag, value]);
        assert_eq!(out.status.code(), Some(1), "clean exit, not a panic");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown flag {flag}")), "{err}");
    }
}

/// `--flows 99999999999` used to admit flows until the host ran out of
/// memory; an oversized population or run is refused before anything
/// is admitted.
#[test]
fn churn_rejects_oversized_populations_at_once() {
    for (flags, what) in [
        ("--flows 99999999999", "flows"),
        ("--flows 18446744073709551615", "flows"),
        ("--flows 1000000 --ticks 99999999999", "flow-ticks"),
    ] {
        let args: Vec<&str> = std::iter::once("churn").chain(flags.split(' ')).collect();
        let start = std::time::Instant::now();
        let out = mbacctl(&args);
        assert_eq!(out.status.code(), Some(1), "{flags}: clean exit");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.starts_with("error: invalid configuration: the workload would hold more than")
                && err.contains(what),
            "{flags}: {err}"
        );
        assert_eq!(err.lines().count(), 1, "{flags}: {err}");
        assert!(start.elapsed().as_secs() < 5, "{flags} took too long");
    }
}

/// The values each numeric flag is tried with, one flag at a time.
const HOSTILE_VALUES: [&str; 9] = [
    "nan",
    "inf",
    "-inf",
    "-1",
    "0",
    "5e-324",
    "1e300",
    "18446744073709551616",
    "",
];

/// [`HOSTILE_VALUES`] and three more, which the sweeps of `simulate`
/// (RCBR and trace-driven), `churn` and `trace gen` take: `--capacity
/// 1e308` and `--mean 99999999999` found continuous loads that never
/// ended, and `--t-c 1e308` (routed) and `churn --tick 1e308` runs whose
/// clock reached ∞. `design` and `theory` keep the short list until
/// their quadrature is bounded (`--holding 99999999999` runs for
/// minutes), and so does `serve-bench`: `--ticks 99999999999` is a run
/// its bounds allow, of hours, in flat memory.
const WIDE_VALUES: [&str; 12] = [
    "nan",
    "inf",
    "-inf",
    "-1",
    "0",
    "5e-324",
    "1e-320",
    "1e300",
    "1e308",
    "99999999999",
    "18446744073709551616",
    "",
];

/// The flags that take a value in the usage block of `command` that
/// starts with `head`: its first line and the indented lines after it.
/// With a `mode`, a block that lists its flags mode by mode (a line
/// `  <mode>: …` and the lines under it) gives the flags common to every
/// mode and those of `mode` only.
fn usage_flags(command: &str, head: &str, mode: Option<&str>) -> Vec<String> {
    let out = mbacctl(&["help", command]);
    let usage = String::from_utf8_lossy(&out.stdout).into_owned();
    let mut lines = usage.lines().skip_while(|l| !l.starts_with(head));
    let first = lines
        .next()
        .unwrap_or_else(|| panic!("no '{head}' in:\n{usage}"));
    let block = std::iter::once(first).chain(lines.take_while(|l| l.starts_with(' ')));
    // A mode's label is a first word, before a colon, that is no flag.
    let label = |line: &str| {
        let (before, _) = line.split_once(':')?;
        let word = before.split_whitespace().next()?;
        (!before.contains("--")).then_some(word.to_string())
    };
    let mut current: Option<String> = None;
    let block = block.filter(|&line| {
        if let Some(word) = label(line) {
            current = Some(word);
        }
        current.is_none() || current.as_deref() == mode
    });
    let words: Vec<&str> = block
        .flat_map(str::split_whitespace)
        .map(|w| w.trim_matches(|c| c == '[' || c == ']'))
        .collect();
    let mut flags: Vec<String> = words
        .windows(2)
        .filter(|w| w[0].starts_with("--") && w[1].starts_with('<'))
        .map(|w| w[0].trim_start_matches("--").to_string())
        .collect();
    flags.sort();
    flags.dedup();
    flags
}

/// Runs `mbacctl args` in `dir`; `None` if it is still running after
/// `limit` (it is killed).
fn mbacctl_within(
    args: &[&str],
    dir: &std::path::Path,
    limit: Duration,
) -> Option<std::process::Output> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mbacctl"))
        .args(args)
        .current_dir(dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary runs");
    let start = std::time::Instant::now();
    while child.try_wait().expect("child status").is_none() {
        if start.elapsed() > limit {
            child.kill().ok();
            child.wait().ok();
            return None;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    Some(child.wait_with_output().expect("child output"))
}

/// One command shape the hostile sweep drives: its usage block (and
/// mode), the words before its flags, each numeric flag with a valid
/// value, and the flags its usage lists that the sweep leaves out —
/// files, and the flags of the command's other shape.
struct Sweep {
    command: &'static str,
    head: &'static str,
    mode: Option<&'static str>,
    prefix: Vec<&'static str>,
    flags: Vec<(&'static str, &'static str)>,
    left_out: Vec<&'static str>,
    values: &'static [&'static str],
}

/// `serve-bench` on the per-link shape or on `topology`, serial (one
/// shard) or threaded (two), at small valid values; the stream flags
/// take effect with `--metrics-stream`.
fn serve_bench_sweep(topology: Option<&'static str>, shards: &'static str) -> Sweep {
    let mut prefix = vec!["serve-bench", "--metrics-stream", "stream.jsonl"];
    let mut flags = vec![
        ("ticks", "12"),
        ("tick", "0.1"),
        ("requests-per-tick", "2"),
        ("holding", "10"),
        ("capacity", "8"),
        ("seed", "3"),
        ("shards", shards),
        ("producers", "1"),
        ("ring-capacity", "16"),
        ("p-ce", "1e-2"),
        ("t-m", "2"),
        ("mean", "1"),
        ("sd", "0.3"),
        ("t-c", "1"),
        ("stream-sample", "0.5"),
        ("stream-flush", "10"),
        ("stream-ring", "64"),
    ];
    let left_out = match topology {
        None => {
            flags.extend([("links", "2"), ("flows-per-link", "5")]);
            vec!["flows-per-route", "noise-sd"]
        }
        Some(topology) => {
            prefix.extend(["--topology", topology]);
            flags.extend([("flows-per-route", "5"), ("noise-sd", "0.05")]);
            vec!["flows-per-link", "links"]
        }
    };
    Sweep {
        command: "serve-bench",
        head: "mbacctl serve-bench",
        mode: None,
        prefix,
        flags,
        left_out: [left_out, vec!["metrics-stream", "trace"]].concat(),
        values: &HOSTILE_VALUES,
    }
}

/// `simulate --load mode`, with `words` after the mode, the flags every
/// load shares and the mode's own `flags`, at small valid values; the
/// stream flags take effect with `--metrics-stream`.
fn simulate_sweep(
    mode: &'static str,
    words: &[&'static str],
    flags: &[(&'static str, &'static str)],
) -> Sweep {
    let shared = [
        ("capacity", "20"),
        ("mean", "1"),
        ("sd", "0.3"),
        ("t-c", "1"),
        ("seed", "3"),
        ("stream-sample", "0.5"),
        ("stream-flush", "10"),
        ("stream-ring", "64"),
    ];
    Sweep {
        command: "simulate",
        head: "mbacctl simulate",
        mode: Some(mode),
        prefix: [&["simulate", "--load", mode][..], words]
            .concat()
            .into_iter()
            .chain(["--metrics-stream", "stream.jsonl"])
            .collect(),
        flags: [&shared[..], flags].concat(),
        left_out: vec!["metrics-out", "metrics-stream", "trace"],
        values: &WIDE_VALUES,
    }
}

/// [`simulate_sweep`] on the trace `trace.txt` in place of RCBR flows:
/// `--mean`, `--sd` and `--t-c` may not be given with `--trace`.
fn simulate_trace_sweep(mode: &'static str, flags: &[(&'static str, &'static str)]) -> Sweep {
    let rcbr = ["mean", "sd", "t-c"];
    let mut sweep = simulate_sweep(mode, &["--trace", "trace.txt"], flags);
    sweep.flags.retain(|(flag, _)| !rcbr.contains(flag));
    sweep.left_out.extend(rcbr);
    sweep
}

/// Every numeric flag of `design`, `theory`, `trace gen`, `serve-bench`
/// (per link and routed, serial and threaded), `simulate` (every load;
/// the continuous, impulsive and Poisson loads also on a trace) and
/// `churn`, read from the command's usage text, set in turn to each
/// of the sweep's values ([`HOSTILE_VALUES`] or [`WIDE_VALUES`]) with
/// every other flag at a valid value: the
/// command exits 0, or 1 with exactly one `error:` line, within 10 s,
/// and never panics. A flag added to a usage text without an entry here
/// fails the test.
#[test]
fn hostile_flag_values_exit_cleanly() {
    let plain = |command, head, prefix, flags, values| Sweep {
        command,
        head,
        mode: None,
        prefix,
        flags,
        left_out: Vec::new(),
        values,
    };
    // The flags of the loads that run on RCBR flows and on a trace.
    let continuous = [
        ("holding", "10"),
        ("t-m", "2"),
        ("p-ce", "1e-2"),
        ("p-q", "1e-2"),
        ("samples", "2"),
    ];
    let impulsive = [
        ("flows", "40"),
        ("observe", "1,5"),
        ("reps", "20"),
        ("holding", "10"),
        ("p-ce", "1e-2"),
        ("workers", "1"),
    ];
    let poisson = [
        ("lambda", "2"),
        ("holding", "10"),
        ("t-m", "2"),
        ("p-ce", "1e-2"),
        ("p-q", "1e-2"),
        ("samples", "2"),
    ];
    let sweeps = [
        plain(
            "design",
            "mbacctl design",
            vec!["design"],
            vec![
                ("capacity", "100"),
                ("mean", "1"),
                ("sd", "0.3"),
                ("holding", "1000"),
                ("p-q", "1e-3"),
                ("tc-min", "0.1"),
                ("tc-max", "10"),
            ],
            &HOSTILE_VALUES,
        ),
        plain(
            "theory",
            "mbacctl theory",
            vec!["theory"],
            vec![
                ("cov", "0.3"),
                ("th-tilde", "5"),
                ("t-c", "1"),
                ("t-m", "5"),
                ("p-ce", "1e-3"),
                ("p-q", "1e-3"),
            ],
            &HOSTILE_VALUES,
        ),
        plain(
            "trace",
            "mbacctl trace gen",
            vec!["trace", "gen", "out.txt"],
            vec![
                ("slots", "1024"),
                ("mean", "1"),
                ("cov", "0.3"),
                ("hurst", "0.8"),
                ("levels", "32"),
                ("slot", "1"),
                ("seed", "7"),
            ],
            &WIDE_VALUES,
        ),
        serve_bench_sweep(None, "1"),
        serve_bench_sweep(None, "2"),
        serve_bench_sweep(Some("parking-lot:3"), "1"),
        serve_bench_sweep(Some("star:3"), "2"),
        simulate_sweep("continuous", &[], &continuous),
        simulate_sweep("impulsive", &[], &impulsive),
        simulate_sweep("poisson", &[], &poisson),
        simulate_trace_sweep("continuous", &continuous),
        simulate_trace_sweep("impulsive", &impulsive),
        simulate_trace_sweep("poisson", &poisson),
        simulate_sweep(
            "routed",
            &["--topology", "parking-lot:3"],
            &[
                ("holding", "10"),
                ("ticks", "40"),
                ("warmup", "10"),
                ("flows-per-route", "2"),
                ("attempts", "2"),
                ("noise-sd", "0.05"),
                ("t-m", "2"),
                ("p-ce", "1e-2"),
                ("reps", "2"),
                ("workers", "1"),
            ],
        ),
        plain(
            "churn",
            "mbacctl churn",
            vec!["churn"],
            vec![
                ("flows", "1000"),
                ("ticks", "20"),
                ("tick", "0.25"),
                ("holding", "250"),
                ("seed", "7"),
            ],
            &WIDE_VALUES,
        ),
    ];
    let dir = std::env::temp_dir().join(format!("mbacctl_hostile_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let gen = [
        "trace",
        "gen",
        "trace.txt",
        "--slots",
        "1024",
        "--seed",
        "3",
    ];
    let out = mbacctl_within(&gen, &dir, Duration::from_secs(10)).expect("trace gen ends");
    assert!(out.status.success(), "{out:?}");
    let mut failures = Vec::new();
    for sweep in sweeps {
        let head = sweep.head;
        let mut listed: Vec<String> = sweep.flags.iter().map(|(f, _)| f.to_string()).collect();
        listed.extend(sweep.left_out.iter().map(|f| f.to_string()));
        listed.sort();
        assert_eq!(
            usage_flags(sweep.command, head, sweep.mode),
            listed,
            "{head}: usage flags vs table"
        );
        // The words of a run with flag `k` (if any) set to `value`.
        let words = |k: Option<usize>, value: &str| {
            let mut args: Vec<String> = sweep.prefix.iter().map(|w| w.to_string()).collect();
            for (j, &(flag, good)) in sweep.flags.iter().enumerate() {
                args.push(format!("--{flag}"));
                args.push(if Some(j) == k { value } else { good }.to_string());
            }
            args
        };
        // Every valid value together is a run that succeeds, so each
        // hostile value is what a failure comes from.
        let valid = words(None, "");
        let valid: Vec<&str> = valid.iter().map(String::as_str).collect();
        let out = mbacctl_within(&valid, &dir, Duration::from_secs(10));
        let code = out.as_ref().and_then(|out| out.status.code());
        assert_eq!(code, Some(0), "mbacctl {}: {out:?}", valid.join(" "));
        for k in 0..sweep.flags.len() {
            for &bad in sweep.values {
                let args = words(Some(k), bad);
                let args: Vec<&str> = args.iter().map(String::as_str).collect();
                let case = format!(
                    "mbacctl {} (--{} '{bad}')",
                    args.join(" "),
                    sweep.flags[k].0
                );
                let verdict = match mbacctl_within(&args, &dir, Duration::from_secs(10)) {
                    None => Some("still running after 10 s".to_string()),
                    Some(out) => {
                        let err = String::from_utf8_lossy(&out.stderr);
                        let errors = err.lines().filter(|l| l.starts_with("error:")).count();
                        match out.status.code() {
                            _ if err.contains("panicked") => Some(format!("panicked: {err}")),
                            Some(0) => None,
                            Some(1) if errors == 1 => None,
                            code => Some(format!("exit {code:?}: {err}")),
                        }
                    }
                };
                failures.extend(verdict.map(|v| format!("{case}: {v}")));
            }
        }
    }
    // A routed run holds a window of its requests on either shape, so
    // its length is what bounds it: 2^40 events over the run, not the
    // 2^28 requests a whole-run route table was held to.
    for routed in [
        "serve-bench --topology parking-lot:3 --ticks 99999999999",
        "serve-bench --topology parking-lot:3 --ticks 99999999999 --shards 2 --producers 1",
    ] {
        let args: Vec<&str> = routed.split(' ').collect();
        match mbacctl_within(&args, &dir, Duration::from_secs(5)) {
            None => failures.push(format!("mbacctl {routed}: still running after 5 s")),
            Some(out) => {
                let err = String::from_utf8_lossy(&out.stderr);
                let held = "error: invalid configuration: the workload would hold more than \
                            1099511627776 events\n";
                if out.status.code() != Some(1) || err != held {
                    failures.push(format!("mbacctl {routed}: {out:?}"));
                }
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    std::fs::remove_dir_all(dir).unwrap();
}
