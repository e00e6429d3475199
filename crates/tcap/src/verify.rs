//! Static verification of TCAP programs.
//!
//! The paper's safety argument for TCAP is that the IR "retains enough
//! information to allow for program analysis"; this module is that analysis
//! turned into a gatekeeper. [`verify`] runs three passes over a
//! [`TcapProgram`] and returns structured, rustc-style diagnostics:
//!
//! 1. **Well-formedness** (`TV00xx`, errors) — every referenced vector list
//!    has a producer, every referenced column is declared by that producer,
//!    list names and declared columns are unique, each operation's output
//!    declaration matches its shape (an `APPLY` appends exactly one column,
//!    a `FILTER` appends none, a `JOIN` emits exactly the union of its copy
//!    lists, …), and the statement graph is acyclic.
//! 2. **Type flow** (`TV01xx`, errors) — a column-type lattice
//!    ([`ColType`]: object / boolean / hash / numeric / unknown) is seeded at
//!    `INPUT` statements and propagated through copies and kernel
//!    applications using the operation metadata the compiler emits
//!    (`equalityCheck`, `bool_and`, `hashOne`, …). Mismatches the executor
//!    would only discover at runtime — filtering on a non-boolean column,
//!    joining on a non-hash column, hashing a raw object — are rejected
//!    here, before a single page is pinned. Opaque kernels (`methodCall`,
//!    `attAccess`, `native`) produce `Unknown`, which unifies with
//!    everything: the verifier never rejects a plan it cannot prove wrong.
//! 3. **Liveness lints** (`TV02xx`, warnings) — columns computed but never
//!    consumed and statements no `OUTPUT` sink depends on. These are
//!    advisory: the optimizer's dead-column rule removes them, so a warning
//!    after optimization usually indicates a rule that stopped early.
//!
//! Every diagnostic carries a stable code, the statement index it anchors to
//! (TCAP statements print one per line, so statement *i* is line *i + 1*),
//! and renders with a source snippet — making the output snapshot-testable
//! (see `tests/verify_diags/`).
//!
//! Verification is wired into the real execution paths: the optimizer
//! asserts verify-cleanliness after every rule application (debug-default,
//! overridable via `PC_VERIFY_RULES=0|1`), and `pc-core`/`pc-cluster` verify
//! each compiled plan before accepting it.

use crate::analyze::{live_stmts, referenced_cols, TcapGraph};
use crate::ir::{is_copy_role, meta_get, ColRef, TcapOp, TcapProgram};
use std::collections::{BTreeSet, HashMap};
use std::fmt;

// ------------------------------------------------------------- diagnostics

/// How bad a [`Diagnostic`] is: errors reject the plan, warnings do not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The plan is rejected; executing it would panic or corrupt results.
    Error,
    /// Advisory lint; the plan still runs.
    Warning,
}

/// One verifier finding: a stable code, a severity, the statement it anchors
/// to, and a human message (plus optional notes). Rendering mimics rustc.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable error code, e.g. `"TV0001"`. `TV00xx` = well-formedness,
    /// `TV01xx` = type flow, `TV02xx` = liveness lints.
    pub code: &'static str,
    /// Error or warning.
    pub severity: Severity,
    /// Index of the statement the diagnostic anchors to (line = index + 1).
    pub stmt: usize,
    /// One-line description of the defect.
    pub message: String,
    /// Optional `= note:` lines.
    pub notes: Vec<String>,
}

impl Diagnostic {
    fn error(code: &'static str, stmt: usize, message: String) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            stmt,
            message,
            notes: Vec::new(),
        }
    }

    fn warning(code: &'static str, stmt: usize, message: String) -> Self {
        Diagnostic {
            code,
            severity: Severity::Warning,
            stmt,
            message,
            notes: Vec::new(),
        }
    }

    fn note(mut self, n: impl Into<String>) -> Self {
        self.notes.push(n.into());
        self
    }

    /// Renders this diagnostic rustc-style against the program's printed
    /// source (one statement per line).
    pub fn render(&self, lines: &[String]) -> String {
        let head = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        let line_no = self.stmt + 1;
        let width = line_no.to_string().len();
        let gutter = " ".repeat(width);
        let mut out = format!("{head}[{}]: {}\n", self.code, self.message);
        out.push_str(&format!("{gutter}--> tcap:{line_no}\n"));
        out.push_str(&format!("{gutter} |\n"));
        let src = lines.get(self.stmt).map(String::as_str).unwrap_or("");
        out.push_str(&format!("{line_no} | {src}\n"));
        out.push_str(&format!("{gutter} |\n"));
        for n in &self.notes {
            out.push_str(&format!("{gutter} = note: {n}\n"));
        }
        out
    }
}

/// The result of [`verify`]: all diagnostics plus the printed program they
/// anchor into.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// All findings, sorted by (statement, code).
    pub diags: Vec<Diagnostic>,
    /// The program's printed statements, one per line (the "source file"
    /// spans refer into).
    pub lines: Vec<String>,
}

impl VerifyReport {
    /// True when the report carries no errors (warnings are permitted).
    pub fn is_clean(&self) -> bool {
        self.errors().next().is_none()
    }

    /// The error-severity diagnostics.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diags.iter().filter(|d| d.severity == Severity::Error)
    }

    /// The warning-severity diagnostics.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diags
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }

    /// The distinct codes present, in report order.
    pub fn codes(&self) -> Vec<&'static str> {
        let mut seen = Vec::new();
        for d in &self.diags {
            if !seen.contains(&d.code) {
                seen.push(d.code);
            }
        }
        seen
    }

    /// Whether any diagnostic carries `code`.
    pub fn has_code(&self, code: &str) -> bool {
        self.diags.iter().any(|d| d.code == code)
    }

    /// Renders every diagnostic, rustc-style, followed by a summary line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diags {
            out.push_str(&d.render(&self.lines));
            out.push('\n');
        }
        let errs = self.errors().count();
        let warns = self.warnings().count();
        match (errs, warns) {
            (0, 0) => out.push_str("plan verifies clean\n"),
            (0, w) => out.push_str(&format!("plan verifies clean ({w} warning(s))\n")),
            (e, 0) => out.push_str(&format!("plan rejected: {e} error(s)\n")),
            (e, w) => out.push_str(&format!("plan rejected: {e} error(s), {w} warning(s)\n")),
        }
        out
    }

    /// `Ok(report)` when clean of errors, `Err(rendered diagnostics)` when
    /// not — the form the executor acceptance paths consume.
    pub fn into_result(self) -> Result<VerifyReport, String> {
        if self.is_clean() {
            Ok(self)
        } else {
            Err(self.render())
        }
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

// -------------------------------------------------------------- type lattice

/// The verifier's column-type lattice. `Unknown` is the top element: opaque
/// kernels (`methodCall`/`attAccess`/`native`) produce it, and it unifies
/// with every requirement — the verifier only rejects provable mismatches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColType {
    /// A column of stored objects (INPUT, FLATMAP, AGGREGATE results).
    Obj,
    /// A boolean column (comparisons, boolean connectives).
    Bool,
    /// A hash column (HASH output; the only legal join key).
    Hash,
    /// A numeric scalar (arithmetic output).
    Num,
    /// Statically unknowable (opaque kernel output).
    Unknown,
}

impl ColType {
    fn name(self) -> &'static str {
        match self {
            ColType::Obj => "object",
            ColType::Bool => "boolean",
            ColType::Hash => "hash",
            ColType::Num => "numeric",
            ColType::Unknown => "unknown",
        }
    }
}

/// The result type an APPLY's kernel produces, keyed on its `type` metadata.
fn apply_result_type(meta_ty: Option<&str>) -> ColType {
    match meta_ty {
        Some("equalityCheck")
        | Some("comparison")
        | Some("const_comparison")
        | Some("bool_and")
        | Some("bool_or")
        | Some("bool_not") => ColType::Bool,
        Some("arithmetic") => ColType::Num,
        Some("hashOne") => ColType::Hash,
        Some("multiSelect") => ColType::Obj,
        _ => ColType::Unknown,
    }
}

/// The input arity an APPLY's kernel requires, keyed on its `type` metadata
/// (`None` = unconstrained: method calls take any number of arguments).
fn apply_arity(meta_ty: Option<&str>) -> Option<usize> {
    match meta_ty {
        Some("equalityCheck")
        | Some("comparison")
        | Some("arithmetic")
        | Some("bool_and")
        | Some("bool_or") => Some(2),
        Some("bool_not") | Some("const_comparison") | Some("hashOne") => Some(1),
        _ => None,
    }
}

// ------------------------------------------------------------------ verify

/// Runs all verifier passes over `prog` and returns the full report.
pub fn verify(prog: &TcapProgram) -> VerifyReport {
    let lines: Vec<String> = prog.stmts.iter().map(|s| s.to_string()).collect();
    let mut diags = Vec::new();

    check_names(prog, &mut diags);
    check_refs(prog, &mut diags);
    check_shapes(prog, &mut diags);
    let acyclic = check_cycles(prog, &mut diags);
    if acyclic {
        check_types(prog, &mut diags);
    }
    check_liveness(prog, &mut diags);

    diags.sort_by_key(|d| (d.stmt, d.code));
    VerifyReport { diags, lines }
}

/// Convenience for acceptance paths: `Err(rendered errors)` on rejection.
pub fn require_clean(prog: &TcapProgram) -> Result<(), String> {
    verify(prog).into_result().map(|_| ())
}

/// Whether `optimize` should assert verify-cleanliness after every rule
/// application. Defaults to on in debug builds (so every `cargo test` run
/// checks each rewrite at its birthplace) and off in release builds;
/// `PC_VERIFY_RULES=1|0` overrides either way.
pub fn post_rule_checks_enabled() -> bool {
    match std::env::var("PC_VERIFY_RULES") {
        Ok(v) if v == "0" => false,
        Ok(v) if v == "1" => true,
        _ => cfg!(debug_assertions),
    }
}

// --------------------------------------------------- pass 1: names and refs

fn check_names(prog: &TcapProgram, diags: &mut Vec<Diagnostic>) {
    let mut first_def: HashMap<&str, usize> = HashMap::new();
    for (i, s) in prog.stmts.iter().enumerate() {
        if let Some(&prev) = first_def.get(s.output.name.as_str()) {
            diags.push(
                Diagnostic::error(
                    "TV0002",
                    i,
                    format!("vector list `{}` is defined more than once", s.output.name),
                )
                .note(format!("first defined at tcap:{}", prev + 1)),
            );
        } else {
            first_def.insert(s.output.name.as_str(), i);
        }
        let mut seen_cols: BTreeSet<&str> = BTreeSet::new();
        for c in &s.output.cols {
            if !seen_cols.insert(c.as_str()) {
                diags.push(Diagnostic::error(
                    "TV0004",
                    i,
                    format!(
                        "column `{c}` appears more than once in the declaration of `{}`",
                        s.output.name
                    ),
                ));
            }
        }
    }
}

fn check_refs(prog: &TcapProgram, diags: &mut Vec<Diagnostic>) {
    for (i, s) in prog.stmts.iter().enumerate() {
        let mut missing_lists: BTreeSet<&str> = BTreeSet::new();
        for (role, r) in s.op.refs() {
            let Some(producer) = prog.producer(&r.list) else {
                // Report each undefined list once per statement.
                if missing_lists.insert(r.list.as_str()) {
                    diags.push(
                        Diagnostic::error(
                            "TV0001",
                            i,
                            format!(
                                "{} reads from undefined vector list `{}`",
                                s.op.name(),
                                r.list
                            ),
                        )
                        .note(format!("no statement produces `{}`", r.list)),
                    );
                }
                continue;
            };
            for c in &r.cols {
                if !producer.output.cols.contains(c) {
                    diags.push(
                        Diagnostic::error(
                            "TV0003",
                            i,
                            format!(
                                "{} {role} references column `{c}` which `{}` does not declare",
                                s.op.name(),
                                r.list
                            ),
                        )
                        .note(format!(
                            "`{}` declares ({})",
                            r.list,
                            producer.output.cols.join(",")
                        )),
                    );
                }
            }
        }
    }
}

// --------------------------------------------------------- pass 2: shapes

fn check_shapes(prog: &TcapProgram, diags: &mut Vec<Diagnostic>) {
    for (i, s) in prog.stmts.iter().enumerate() {
        let out = &s.output;
        for c in s.op.copy().iter().flat_map(|copy| &copy.cols) {
            if !out.cols.contains(c) {
                diags.push(Diagnostic::error(
                    "TV0007",
                    i,
                    format!(
                        "{} copies column `{c}` but `{}` does not declare it",
                        s.op.name(),
                        out.name
                    ),
                ));
            }
        }
        match &s.op {
            TcapOp::Apply { .. } | TcapOp::FlatMap { .. } | TcapOp::Hash { .. } => {
                let created = s.appended().count();
                if created != 1 {
                    diags.push(
                        Diagnostic::error(
                            "TV0006",
                            i,
                            format!(
                                "{} must append exactly one new column to `{}`, found {}",
                                s.op.name(),
                                out.name,
                                created
                            ),
                        )
                        .note("output declaration = copied columns + the kernel's result column"),
                    );
                }
            }
            TcapOp::Filter { copy, .. } => {
                for c in out.cols.iter().filter(|c| !copy.cols.contains(c)) {
                    diags.push(
                        Diagnostic::error(
                            "TV0006",
                            i,
                            format!(
                                "FILTER appends no columns but `{}` declares `{c}`",
                                out.name
                            ),
                        )
                        .note("a FILTER's output is exactly its copied columns"),
                    );
                }
            }
            TcapOp::Join {
                lhs_hash,
                lhs_copy,
                rhs_hash,
                rhs_copy,
                ..
            } => {
                // Copy lists must read the same vector lists as the hash
                // refs: the executor resolves copy slots against the hash
                // side inputs, and the statement graph only edges on the
                // hash lists — a divergent copy list would dodge both.
                for (side, h, c) in [("lhs", lhs_hash, lhs_copy), ("rhs", rhs_hash, rhs_copy)] {
                    if c.list != h.list {
                        diags.push(
                            Diagnostic::error(
                                "TV0009",
                                i,
                                format!(
                                    "JOIN {side} copy reads `{}` but its hash reads `{}`",
                                    c.list, h.list
                                ),
                            )
                            .note("a join side's copy list must match its hash list"),
                        );
                    }
                }
                for c in lhs_copy.cols.iter().filter(|c| rhs_copy.cols.contains(*c)) {
                    diags.push(
                        Diagnostic::error(
                            "TV0008",
                            i,
                            format!("JOIN copies column `{c}` from both sides"),
                        )
                        .note("join sides must carry disjoint column names"),
                    );
                }
                for c in lhs_copy.cols.iter().chain(rhs_copy.cols.iter()) {
                    if !out.cols.contains(c) {
                        diags.push(Diagnostic::error(
                            "TV0007",
                            i,
                            format!(
                                "JOIN copies column `{c}` but `{}` does not declare it",
                                out.name
                            ),
                        ));
                    }
                }
                for c in out
                    .cols
                    .iter()
                    .filter(|c| !lhs_copy.cols.contains(c) && !rhs_copy.cols.contains(c))
                {
                    diags.push(
                        Diagnostic::error(
                            "TV0006",
                            i,
                            format!("JOIN appends no columns but `{}` declares `{c}`", out.name),
                        )
                        .note("a JOIN's output is the union of its two copy lists"),
                    );
                }
            }
            TcapOp::Aggregate { .. } => {
                if out.cols.len() != 1 {
                    diags.push(Diagnostic::error(
                        "TV0006",
                        i,
                        format!(
                            "AGGREGATE must declare exactly one output column on `{}`, found {}",
                            out.name,
                            out.cols.len()
                        ),
                    ));
                }
            }
            TcapOp::Output { .. } => {
                if !out.cols.is_empty() {
                    diags.push(
                        Diagnostic::error(
                            "TV0006",
                            i,
                            format!(
                                "OUTPUT is a sink but `{}` declares ({})",
                                out.name,
                                out.cols.join(",")
                            ),
                        )
                        .note("an OUTPUT statement's declaration must be empty"),
                    );
                }
            }
            TcapOp::Input { .. } => {}
        }
    }
}

// --------------------------------------------------------- pass 3: cycles

fn check_cycles(prog: &TcapProgram, diags: &mut Vec<Diagnostic>) -> bool {
    let g = TcapGraph::build(prog);
    match g.topo_order() {
        Ok(_) => true,
        Err(cycle) => {
            let lists: Vec<String> = cycle
                .stuck
                .iter()
                .map(|&i| format!("`{}`", prog.stmts[i].output.name))
                .collect();
            let anchor = cycle.stuck.first().copied().unwrap_or(0);
            diags.push(
                Diagnostic::error(
                    "TV0005",
                    anchor,
                    "statement graph contains a dependency cycle".to_string(),
                )
                .note(format!(
                    "statements stuck on the cycle: {}",
                    lists.join(", ")
                )),
            );
            false
        }
    }
}

// ------------------------------------------------------- pass 4: type flow

fn check_types(prog: &TcapProgram, diags: &mut Vec<Diagnostic>) {
    // Process in topological order so types flow forward even when the
    // textual order is shuffled (the graph is known acyclic here).
    let g = TcapGraph::build(prog);
    let order = match g.topo_order() {
        Ok(o) => o,
        Err(_) => return,
    };

    // (list, col) -> type
    let mut ty: HashMap<(String, String), ColType> = HashMap::new();
    let lookup = |ty: &HashMap<(String, String), ColType>, r: &ColRef, c: &str| -> ColType {
        ty.get(&(r.list.clone(), c.to_string()))
            .copied()
            .unwrap_or(ColType::Unknown)
    };

    for &i in &order {
        let s = &prog.stmts[i];
        let out_name = s.output.name.clone();
        // Copied columns keep their type.
        for (role, r) in s.op.refs() {
            if is_copy_role(role) {
                for c in &r.cols {
                    let t = lookup(&ty, r, c);
                    ty.insert((out_name.clone(), c.clone()), t);
                }
            }
        }
        match &s.op {
            TcapOp::Input { .. } => {
                for c in &s.output.cols {
                    ty.insert((out_name.clone(), c.clone()), ColType::Obj);
                }
            }
            TcapOp::Apply { input, meta, .. } => {
                let meta_ty = meta_get(meta, "type");
                if let Some(want) = apply_arity(meta_ty) {
                    if input.cols.len() != want {
                        diags.push(
                            Diagnostic::error(
                                "TV0103",
                                i,
                                format!(
                                    "kernel of type `{}` takes {want} input column(s), found {}",
                                    meta_ty.unwrap_or("?"),
                                    input.cols.len()
                                ),
                            )
                            .note(format!("inputs: ({})", input.cols.join(","))),
                        );
                    }
                }
                match meta_ty {
                    Some("bool_and") | Some("bool_or") | Some("bool_not") => {
                        for c in &input.cols {
                            let t = lookup(&ty, input, c);
                            if t != ColType::Bool && t != ColType::Unknown {
                                diags.push(Diagnostic::error(
                                    "TV0104",
                                    i,
                                    format!(
                                        "boolean connective `{}` applied to {} column `{c}`",
                                        meta_ty.unwrap_or("?"),
                                        t.name()
                                    ),
                                ));
                            }
                        }
                    }
                    Some("arithmetic") => {
                        for c in &input.cols {
                            let t = lookup(&ty, input, c);
                            if t == ColType::Obj || t == ColType::Bool {
                                diags.push(Diagnostic::error(
                                    "TV0106",
                                    i,
                                    format!("arithmetic applied to {} column `{c}`", t.name()),
                                ));
                            }
                        }
                    }
                    Some("comparison") | Some("const_comparison") => {
                        for c in &input.cols {
                            let t = lookup(&ty, input, c);
                            if t == ColType::Obj {
                                diags.push(
                                    Diagnostic::error(
                                        "TV0106",
                                        i,
                                        format!("comparison applied to object column `{c}`"),
                                    )
                                    .note("extract a scalar attribute first"),
                                );
                            }
                        }
                    }
                    _ => {}
                }
                let result = apply_result_type(meta_ty);
                for c in s.appended() {
                    ty.insert((out_name.clone(), c.clone()), result);
                }
            }
            TcapOp::Hash { input, .. } => {
                if input.cols.len() != 1 {
                    diags.push(Diagnostic::error(
                        "TV0103",
                        i,
                        format!(
                            "HASH takes exactly one input column, found {}",
                            input.cols.len()
                        ),
                    ));
                }
                for c in &input.cols {
                    if lookup(&ty, input, c) == ColType::Obj {
                        diags.push(
                            Diagnostic::error(
                                "TV0105",
                                i,
                                format!("cannot hash object column `{c}`"),
                            )
                            .note("extract a key first (the hash kernel rejects raw objects)"),
                        );
                    }
                }
                for c in s.appended() {
                    ty.insert((out_name.clone(), c.clone()), ColType::Hash);
                }
            }
            TcapOp::FlatMap { .. } => {
                for c in s.appended() {
                    ty.insert((out_name.clone(), c.clone()), ColType::Obj);
                }
            }
            TcapOp::Filter { bool_col, .. } => {
                if bool_col.cols.len() != 1 {
                    diags.push(Diagnostic::error(
                        "TV0103",
                        i,
                        format!(
                            "FILTER takes exactly one condition column, found {}",
                            bool_col.cols.len()
                        ),
                    ));
                }
                for c in &bool_col.cols {
                    let t = lookup(&ty, bool_col, c);
                    if t != ColType::Bool && t != ColType::Unknown {
                        diags.push(
                            Diagnostic::error(
                                "TV0101",
                                i,
                                format!("FILTER condition `{c}` is a {} column", t.name()),
                            )
                            .note("the condition must be boolean"),
                        );
                    }
                }
            }
            TcapOp::Join {
                lhs_hash, rhs_hash, ..
            } => {
                for r in [lhs_hash, rhs_hash] {
                    if r.cols.len() != 1 {
                        diags.push(Diagnostic::error(
                            "TV0103",
                            i,
                            format!(
                                "JOIN takes exactly one hash column per side, found {}",
                                r.cols.len()
                            ),
                        ));
                    }
                    for c in &r.cols {
                        let t = lookup(&ty, r, c);
                        if t != ColType::Hash && t != ColType::Unknown {
                            diags.push(
                                Diagnostic::error(
                                    "TV0102",
                                    i,
                                    format!("JOIN key `{c}` is a {} column", t.name()),
                                )
                                .note("join keys must be HASH results"),
                            );
                        }
                    }
                }
            }
            TcapOp::Aggregate { key, value, .. } => {
                for (role, r) in [("key", key), ("value", value)] {
                    if r.cols.len() != 1 {
                        diags.push(Diagnostic::error(
                            "TV0103",
                            i,
                            format!(
                                "AGGREGATE takes exactly one {role} column, found {}",
                                r.cols.len()
                            ),
                        ));
                    }
                }
                for c in &s.output.cols {
                    ty.insert((out_name.clone(), c.clone()), ColType::Obj);
                }
            }
            TcapOp::Output { input, .. } => {
                if input.cols.len() != 1 {
                    diags.push(Diagnostic::error(
                        "TV0103",
                        i,
                        format!(
                            "OUTPUT writes exactly one column, found {}",
                            input.cols.len()
                        ),
                    ));
                }
            }
        }
    }
}

// ----------------------------------------------------- pass 5: liveness

fn check_liveness(prog: &TcapProgram, diags: &mut Vec<Diagnostic>) {
    // Dead created columns: a kernel result no consumer ever reads, on a
    // list that *does* have consumers (fully-unconsumed statements are
    // TV0202's business).
    let referenced = referenced_cols(prog);
    for (i, s) in prog.stmts.iter().enumerate() {
        if prog.consumers(&s.output.name).is_empty() {
            continue;
        }
        for c in s.appended() {
            if !referenced.contains(&(s.output.name.clone(), c.clone())) {
                diags.push(
                    Diagnostic::warning(
                        "TV0201",
                        i,
                        format!(
                            "column `{c}` of `{}` is computed but never consumed",
                            s.output.name
                        ),
                    )
                    .note("the dead-column optimizer rule would remove it"),
                );
            }
        }
    }

    // Unreachable statements: nothing an OUTPUT depends on (only meaningful
    // when the program has sinks; §7-style fragments have none).
    let Some(live) = live_stmts(prog) else {
        return;
    };
    for (i, s) in prog.stmts.iter().enumerate() {
        if !live[i] {
            diags.push(
                Diagnostic::warning(
                    "TV0202",
                    i,
                    format!("no OUTPUT depends on statement `{}`", s.output.name),
                )
                .note("dead statements are pruned by the optimizer"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_program;

    const CLEAN: &str = "\
In(emp) <= INPUT('db', 'emps', 'Sel_1', []);
W_1(emp,mt1) <= APPLY(In(emp), In(emp), 'Sel_1', 'method_call_1', [('type', 'methodCall'), ('methodName', 'getSalary')]);
W_2(emp,bl1) <= APPLY(W_1(mt1), W_1(emp), 'Sel_1', 'gtc_1', [('type', 'const_comparison'), ('op', 'gt')]);
Flt_1(emp) <= FILTER(W_2(bl1), W_2(emp), 'Sel_1', []);
Out_1() <= OUTPUT(Flt_1(emp), 'db', 'out', 'Writer_1', []);
";

    #[test]
    fn clean_program_verifies_clean() {
        let prog = parse_program(CLEAN).unwrap();
        let report = verify(&prog);
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.diags.len(), 0, "{}", report.render());
    }

    #[test]
    fn undefined_list_is_tv0001() {
        let mut prog = parse_program(CLEAN).unwrap();
        if let TcapOp::Filter { bool_col, .. } = &mut prog.stmts[3].op {
            bool_col.list = "Nope".into();
        }
        let report = verify(&prog);
        assert!(report.has_code("TV0001"), "{}", report.render());
        assert!(!report.is_clean());
    }

    #[test]
    fn unknown_column_is_tv0003() {
        let mut prog = parse_program(CLEAN).unwrap();
        if let TcapOp::Apply { input, .. } = &mut prog.stmts[2].op {
            input.cols = vec!["ghost".into()];
        }
        let report = verify(&prog);
        assert!(report.has_code("TV0003"), "{}", report.render());
    }

    #[test]
    fn cycle_is_tv0005() {
        let mut prog = parse_program(CLEAN).unwrap();
        // W_1 reads W_2's output: a two-statement cycle.
        if let TcapOp::Apply { input, copy, .. } = &mut prog.stmts[1].op {
            input.list = "W_2".into();
            copy.list = "W_2".into();
        }
        let report = verify(&prog);
        assert!(report.has_code("TV0005"), "{}", report.render());
    }

    #[test]
    fn filter_on_numeric_column_is_tv0101() {
        let mut prog = parse_program(CLEAN).unwrap();
        // Retype the comparison kernel as arithmetic: bl1 becomes numeric.
        if let TcapOp::Apply { meta, .. } = &mut prog.stmts[2].op {
            meta.retain(|(k, _)| k != "type");
            meta.push(("type".into(), "arithmetic".into()));
        }
        let report = verify(&prog);
        // The retype also breaks arithmetic arity (1 input), so TV0103 may
        // fire too — TV0101 is what we require.
        assert!(report.has_code("TV0101"), "{}", report.render());
    }

    #[test]
    fn hashing_an_object_is_tv0105() {
        let prog = parse_program(
            "\
In(emp) <= INPUT('db', 'emps', 'J_1', []);
H_1(emp,hash1) <= HASH(In(emp), In(emp), 'J_1', [('type', 'hashOne')]);
",
        )
        .unwrap();
        let report = verify(&prog);
        assert!(report.has_code("TV0105"), "{}", report.render());
    }

    #[test]
    fn dead_column_and_unreachable_stmt_are_warnings_only() {
        let prog = parse_program(
            "\
In(emp) <= INPUT('db', 'emps', 'Sel_1', []);
W_1(emp,mt1) <= APPLY(In(emp), In(emp), 'Sel_1', 'm_1', [('type', 'methodCall'), ('methodName', 'getAge')]);
W_2(emp,mt2) <= APPLY(W_1(emp), W_1(emp), 'Sel_1', 'm_2', [('type', 'methodCall'), ('methodName', 'getName')]);
Out_1() <= OUTPUT(W_2(emp), 'db', 'out', 'Writer_1', []);
Spur(emp) <= FILTER(W_2(mt2), W_2(emp), 'Sel_2', []);
",
        )
        .unwrap();
        let report = verify(&prog);
        assert!(report.is_clean(), "{}", report.render());
        assert!(report.has_code("TV0201"), "{}", report.render());
        assert!(report.has_code("TV0202"), "{}", report.render());
    }

    #[test]
    fn rendering_is_rustc_shaped() {
        let mut prog = parse_program(CLEAN).unwrap();
        if let TcapOp::Filter { bool_col, .. } = &mut prog.stmts[3].op {
            bool_col.list = "Nope".into();
        }
        let r = verify(&prog).render();
        assert!(r.contains("error[TV0001]"), "{r}");
        assert!(r.contains("--> tcap:4"), "{r}");
        assert!(r.contains("4 | Flt_1(emp) <= FILTER(Nope(bl1)"), "{r}");
    }
}
