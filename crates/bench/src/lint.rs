//! `repro lint` — the panic-hygiene lint.
//!
//! The cluster, execution and storage crates sit on the error-propagation
//! spine of the system: a stray `unwrap()` there turns a recoverable
//! condition (worker death, memory pressure, a rejected plan, a missing
//! page file) into a process abort. This lint scans their non-test source
//! for `.unwrap()` / `.expect(` and fails on any occurrence. There are no
//! exceptions: a lock goes through `pc_object::sync`, which recovers from a
//! panicked holder, and an invariant is carried by the types or surfaced as
//! a typed `PcError`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Directories scanned (workspace-relative). Only `src/` trees: tests,
/// benches, and examples are free to unwrap.
const SCANNED: &[&str] = &[
    "crates/cluster/src",
    "crates/exec/src",
    "crates/storage/src",
];

/// One offending line.
struct Offence {
    /// Workspace-relative path.
    path: String,
    line: usize,
    /// The trimmed source line.
    text: String,
}

fn workspace_root() -> PathBuf {
    // crates/bench/../../ == the workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            rust_sources(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
    out.sort();
}

/// Scans the source `src` of the file at workspace-relative `path`.
/// Everything from the first `#[cfg(test)]` to the end of the file is test
/// code by the repo's convention (test modules close the file) and is
/// skipped; so are comment lines.
fn scan_file(path: &str, src: &str) -> Vec<Offence> {
    let mut out = Vec::new();
    for (i, raw) in src.lines().enumerate() {
        let line = raw.trim();
        if line.contains("#[cfg(test)]") {
            break;
        }
        if line.starts_with("//") {
            continue;
        }
        if line.contains(".unwrap()") || line.contains(".expect(") {
            out.push(Offence {
                path: path.to_string(),
                line: i + 1,
                text: line.to_string(),
            });
        }
    }
    out
}

/// Runs the lint over the scanned trees.
fn check() -> Vec<Offence> {
    let root = workspace_root();
    let mut files = Vec::new();
    for dir in SCANNED {
        rust_sources(&root.join(dir), &mut files);
    }
    files
        .iter()
        .flat_map(|f| {
            let rel = f.strip_prefix(&root).unwrap_or(f).to_string_lossy();
            let src = std::fs::read_to_string(f).unwrap_or_default();
            scan_file(&rel.replace('\\', "/"), &src)
        })
        .collect()
}

/// CLI entry: prints a report, returns true when clean.
pub fn lint() -> bool {
    let offences = check();
    if offences.is_empty() {
        println!(
            "repro lint: no unwrap()/expect() in non-test code of {}",
            SCANNED.join(", ")
        );
        return true;
    }
    let mut msg = String::new();
    let _ = writeln!(
        msg,
        "repro lint: {} unwrap()/expect() call(s) in non-test code:\n",
        offences.len()
    );
    for o in &offences {
        let _ = writeln!(msg, "  {}:{}: {}", o.path, o.line, o.text);
    }
    let _ = writeln!(
        msg,
        "\nconvert to `?` (PcError has a variant for every recoverable condition),\ntake locks through `pc_object::sync`, or make the invariant structural."
    );
    eprint!("{msg}");
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tree_is_lint_clean() {
        assert!(lint(), "`repro lint` failed: see its report above");
    }

    #[test]
    fn scan_skips_comments_and_test_code() {
        let src = [
            "fn f() {",
            "    let x = g().unwrap();",
            "    // a comment may say h().unwrap()",
            "}",
            "#[cfg(test)]",
            "mod tests {",
            "    fn t() { g().unwrap(); }",
            "}",
        ]
        .join("\n");
        let found = scan_file("crates/x/src/lib.rs", &src);
        assert_eq!(found.len(), 1, "only the non-test, non-comment line");
        assert_eq!(found[0].path, "crates/x/src/lib.rs");
        assert_eq!(found[0].line, 2);
        assert_eq!(found[0].text, "let x = g().unwrap();");
    }
}
