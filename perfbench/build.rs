//! Stamps the binary with the toolchain and source it was built from, so
//! every result names the code that produced it.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *hash ^= u64::from(*b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            files(&path, out);
        } else {
            out.push(path);
        }
    }
}

fn main() {
    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let root = manifest
        .parent()
        .expect("the benchmark sits inside the repo");

    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");

    let commit = root
        .join(".git")
        .exists()
        .then(|| {
            Command::new("git")
                .arg("-C")
                .arg(root)
                .args(["rev-parse", "HEAD"])
                .output()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
        })
        .flatten()
        .map_or_else(
            || "none (not a git checkout)".to_string(),
            |c| c.trim().to_string(),
        );
    println!("cargo:rustc-env=PERFBENCH_GIT_COMMIT={commit}");

    // A digest of the sources under test, which identifies the code even
    // where there is no git metadata.
    let mut paths = Vec::new();
    for dir in ["crates", "vendor"] {
        files(&root.join(dir), &mut paths);
    }
    paths.push(root.join("Cargo.lock"));
    paths.sort();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for path in &paths {
        if let (Ok(rel), Ok(bytes)) = (path.strip_prefix(root), std::fs::read(path)) {
            fnv(&mut digest, rel.to_string_lossy().as_bytes());
            fnv(&mut digest, &bytes);
        }
    }
    println!("cargo:rustc-env=PERFBENCH_SOURCE_DIGEST={digest:016x}");
    println!(
        "cargo:rustc-env=PERFBENCH_PROFILE={}",
        std::env::var("PROFILE").unwrap_or_default()
    );
    for dir in ["crates", "vendor", "Cargo.lock"] {
        println!("cargo:rerun-if-changed={}", root.join(dir).display());
    }
}
