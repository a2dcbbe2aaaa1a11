//! Embeds `rustc -vV` of the compiler building the benchmark, for the host
//! fingerprint recorded with every result.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("-vV")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .unwrap_or_default();
    let line: Vec<&str> = version
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    println!("cargo:rustc-env=PERFBENCH_RUSTC={}", line.join("; "));
    println!("cargo:rerun-if-changed=build.rs");
}
