//! Stamps the compiler version and the source revision into the binary, so
//! every result line names the toolchain and code it measured.

use std::path::Path;
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
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");

    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let git = Path::new(&manifest).join("../.git");
    println!("cargo:rustc-env=PERFBENCH_GIT_REV={}", git_revision(&git));
    // Watch only paths that exist: a missing watched path would rerun this
    // script, and rebuild the benchmark, on every invocation.
    println!("cargo:rerun-if-changed=build.rs");
    for watched in ["HEAD", "refs", "packed-refs"] {
        if git.join(watched).exists() {
            println!("cargo:rerun-if-changed=../.git/{watched}");
        }
    }
}

/// Reads `HEAD` (following one symbolic ref) without running git; a
/// checkout without `.git` reports "unknown".
fn git_revision(git: &Path) -> String {
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}
