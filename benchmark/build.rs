//! Stamps the binary with the toolchain, build profile and (when the
//! source tree is a git checkout) the commit it was built from.

use std::process::Command;

fn capture(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = capture(&rustc, &["--version"]).unwrap_or_else(|| "unknown".to_string());
    let commit = capture("git", &["rev-parse", "--short=12", "HEAD"])
        .unwrap_or_else(|| "unknown".to_string());
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".to_string());
    println!("cargo:rustc-env=BENCH_RUSTC={version}");
    println!("cargo:rustc-env=BENCH_COMMIT={commit}");
    println!("cargo:rustc-env=BENCH_PROFILE={profile}");
    println!("cargo:rerun-if-changed=build.rs");
    for git in ["../.git/HEAD", "../.git/refs/heads"] {
        if std::path::Path::new(git).exists() {
            println!("cargo:rerun-if-changed={git}");
        }
    }
}
