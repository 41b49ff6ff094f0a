//! Records the compiler and the flags this binary was built with, so
//! every result file can say what produced its numbers.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    // Cargo hands build scripts the flags it resolved from RUSTFLAGS,
    // `build.rustflags` and `target.*.rustflags`, 0x1f-separated.
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS")
        .unwrap_or_default()
        .replace('\x1f', " ");
    println!("cargo:rustc-env=MBAC_BENCHMARK_RUSTC={version}");
    println!("cargo:rustc-env=MBAC_BENCHMARK_RUSTFLAGS={flags}");
    println!("cargo:rerun-if-changed=build.rs");
    println!("cargo:rerun-if-env-changed=RUSTFLAGS");
}
