//! What produced a result: host, toolchain, flags, kernel dispatch,
//! commit. Numbers from different fingerprints are not comparable, and
//! `compare` says so when they differ.

use crate::json::Json;
use mbac_num::KernelDispatch;

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `L1d=32K L2=4096K …` from cpu0's cache directory.
fn cache_sizes() -> String {
    let mut out = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let (Some(level), Some(size)) =
            (read(&format!("{dir}/level")), read(&format!("{dir}/size")))
        else {
            continue;
        };
        let kind = match read(&format!("{dir}/type")).as_deref().map(str::trim) {
            Some("Data") => "d",
            Some("Instruction") => "i",
            _ => "",
        };
        out.push(format!("L{}{}={}", level.trim(), kind, size.trim()));
    }
    if out.is_empty() {
        "unknown".into()
    } else {
        out.join(" ")
    }
}

/// The checked-out commit, read from `.git` without running git; the
/// driver's checkout is not a repository, so this is often `unknown`.
fn git_commit() -> String {
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(reference) => read(&format!(".git/{reference}"))
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

pub fn fingerprint() -> Json {
    Json::obj([
        ("nproc", Json::UInt(nproc() as u64)),
        ("cpu_model", Json::Str(cpu_model())),
        ("cache_sizes", Json::Str(cache_sizes())),
        ("rustc", Json::str(env!("MBAC_BENCHMARK_RUSTC"))),
        ("rustflags", Json::str(env!("MBAC_BENCHMARK_RUSTFLAGS"))),
        (
            "kernel_dispatch",
            Json::str(KernelDispatch::current().name()),
        ),
        ("git_commit", Json::Str(git_commit())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_names_every_field() {
        let fp = fingerprint();
        for key in [
            "nproc",
            "cpu_model",
            "cache_sizes",
            "rustc",
            "rustflags",
            "kernel_dispatch",
            "git_commit",
        ] {
            assert!(fp.get(key).is_some(), "{key}");
        }
        assert!(fp.get("nproc").and_then(Json::as_u64).unwrap() >= 1);
        assert!(fp
            .get("rustc")
            .and_then(Json::as_str)
            .unwrap()
            .starts_with("rustc"));
    }
}
