//! Records the toolchain facts the host block reports: the rustc version
//! and the `target-cpu` the crates were compiled for.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC_VERSION={version}");

    // `-C target-cpu=X` arrives either as one `-Ctarget-cpu=X` argument or
    // as `-C` followed by `target-cpu=X`.
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    let cpu = flags
        .split('\x1f')
        .filter_map(|f| f.trim_start_matches("-C").strip_prefix("target-cpu="))
        .next_back()
        .unwrap_or("default")
        .to_string();
    println!("cargo:rustc-env=PERFBENCH_TARGET_CPU={cpu}");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
    println!("cargo:rerun-if-env-changed=RUSTC");
}
