//! Records the run metadata every result carries: toolchain, build
//! profile and source revision.

use std::path::Path;
use std::process::Command;

fn output(command: &mut Command) -> Option<String> {
    let out = command.output().ok().filter(|o| o.status.success())?;
    Some(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = output(Command::new(rustc).arg("-V")).unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=BENCH_RUSTC={version}");
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".to_string());
    println!("cargo:rustc-env=BENCH_PROFILE={profile}");
    // Only the repository's own history names the revision; a source
    // checkout without one reports "unknown" rather than whatever
    // repository happens to enclose it.
    let manifest = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| ".".to_string());
    let root = Path::new(&manifest).join("..");
    let rev = if root.join(".git").exists() {
        output(
            Command::new("git")
                .arg("-C")
                .arg(&root)
                .args(["rev-parse", "HEAD"]),
        )
    } else {
        None
    };
    println!(
        "cargo:rustc-env=BENCH_GIT_REV={}",
        rev.unwrap_or_else(|| "unknown".to_string())
    );
    println!("cargo:rerun-if-changed=build.rs");
    if root.join(".git/HEAD").exists() {
        println!("cargo:rerun-if-changed=../.git/HEAD");
    }
}
