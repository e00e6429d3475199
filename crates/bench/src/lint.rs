//! `repro lint` — the panic-hygiene lint.
//!
//! The cluster and execution crates sit on the error-propagation spine of
//! the system: a stray `unwrap()` there turns a recoverable condition
//! (worker death, memory pressure, a rejected plan) into a process abort.
//! This lint scans the non-test source of `crates/cluster` and
//! `crates/exec` for `.unwrap()` / `.expect(` and fails on any occurrence
//! not recorded in the allowlist at `LINT_ALLOW.txt` (workspace root).
//!
//! The allowlist is a ratchet, not an excuse file: every current entry is
//! either a mutex whose poisoning already implies a panicked peer or an
//! invariant established on the adjacent line. New unwraps fail CI until
//! either converted to `?` or deliberately added to the allowlist in the
//! same PR — and an entry whose line is gone fails it too, so a fixed
//! unwrap takes its entry with it.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Directories scanned (workspace-relative). Only `src/` trees: tests,
/// benches, and examples are free to unwrap.
const SCANNED: &[&str] = &["crates/cluster/src", "crates/exec/src"];

/// One offending line.
struct Offence {
    /// Workspace-relative path.
    path: String,
    line: usize,
    /// The trimmed source line (what the allowlist matches on).
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

/// Scans one file. Everything from the first `#[cfg(test)]` to the end of
/// the file is test code by the repo's convention (test modules close the
/// file) and is skipped; so are comment lines.
fn scan_file(root: &Path, path: &Path) -> Vec<Offence> {
    let Ok(src) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let rel = path
        .strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/");
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
                path: rel.clone(),
                line: i + 1,
                text: line.to_string(),
            });
        }
    }
    out
}

/// The allowlist: `path: trimmed-line` entries, one per line; `#` comments
/// and blanks ignored. An offence is allowed when some entry's path equals
/// its path and the entry's text equals the trimmed line — line numbers
/// deliberately don't participate, so pure code motion never churns it.
fn allowlist(root: &Path) -> Vec<(String, String)> {
    let Ok(src) = std::fs::read_to_string(root.join("LINT_ALLOW.txt")) else {
        return Vec::new();
    };
    src.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let (path, text) = l.split_once(": ")?;
            Some((path.trim().to_string(), text.trim().to_string()))
        })
        .collect()
}

/// What one lint run found.
struct Report {
    /// Offending lines the allowlist does not cover.
    offences: Vec<Offence>,
    /// Allowlist entries (`path`, `line`) no scanned line matches any more:
    /// the unwrap was fixed, so the entry must go.
    stale: Vec<(String, String)>,
    /// Allowlist size.
    entries: usize,
}

/// Runs the lint over the scanned trees against the allowlist.
fn check() -> Report {
    let root = workspace_root();
    let allow = allowlist(&root);
    let mut files = Vec::new();
    for dir in SCANNED {
        rust_sources(&root.join(dir), &mut files);
    }
    let found: Vec<Offence> = files.iter().flat_map(|f| scan_file(&root, f)).collect();
    let matches = |o: &Offence, (p, t): &(String, String)| *p == o.path && *t == o.text;
    let stale = allow
        .iter()
        .filter(|e| !found.iter().any(|o| matches(o, e)))
        .cloned()
        .collect();
    let offences = found
        .into_iter()
        .filter(|o| !allow.iter().any(|e| matches(o, e)))
        .collect();
    Report {
        offences,
        stale,
        entries: allow.len(),
    }
}

/// CLI entry: prints a report, returns true when clean.
pub fn lint() -> bool {
    let r = check();
    if r.offences.is_empty() && r.stale.is_empty() {
        println!(
            "repro lint: no unallowlisted unwrap()/expect() in {} ({} allowlist entries, none stale)",
            SCANNED.join(", "),
            r.entries
        );
        return true;
    }
    let mut msg = String::new();
    if !r.offences.is_empty() {
        let _ = writeln!(
            msg,
            "repro lint: {} unallowlisted unwrap()/expect() call(s) in non-test code:\n",
            r.offences.len()
        );
        for o in &r.offences {
            let _ = writeln!(msg, "  {}:{}: {}", o.path, o.line, o.text);
        }
        let _ = writeln!(
            msg,
            "\nconvert to `?` (PcError has a variant for every recoverable condition), or\nadd `path: trimmed-line` to LINT_ALLOW.txt with a justification comment."
        );
    }
    if !r.stale.is_empty() {
        let _ = writeln!(
            msg,
            "repro lint: {} stale LINT_ALLOW.txt entr(ies) — the line is gone, delete the entry:\n",
            r.stale.len()
        );
        for (path, text) in &r.stale {
            let _ = writeln!(msg, "  {path}: {text}");
        }
    }
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
    fn allowlist_matches_on_path_and_content() {
        // A missing file would read as an empty (and so never stale) list.
        assert!(
            check().entries > 0,
            "LINT_ALLOW.txt missing or empty at the workspace root"
        );
    }
}
