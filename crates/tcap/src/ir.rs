//! The TCAP statement and program representation.

use std::fmt;

/// A vector-list declaration: the left-hand side of a statement,
/// e.g. `WDNm_1(dep,emp,sup,nm1)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VecListDecl {
    pub name: String,
    pub cols: Vec<String>,
}

impl VecListDecl {
    pub fn new(name: impl Into<String>, cols: &[&str]) -> Self {
        VecListDecl {
            name: name.into(),
            cols: cols.iter().map(|s| s.to_string()).collect(),
        }
    }
}

/// A reference to (a subset of) the columns of a named vector list,
/// e.g. `In(dep)` or `WDNm_1(dep,emp,sup,nm1)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColRef {
    pub list: String,
    pub cols: Vec<String>,
}

impl ColRef {
    pub fn new(list: impl Into<String>, cols: &[&str]) -> Self {
        ColRef {
            list: list.into(),
            cols: cols.iter().map(|s| s.to_string()).collect(),
        }
    }
}

/// Key-value metadata attached to a TCAP operation. "Only informational and
/// does not affect execution... but vital during optimization" (§5.2).
pub type Meta = Vec<(String, String)>;

/// Looks up a metadata key.
pub fn meta_get<'a>(meta: &'a Meta, key: &str) -> Option<&'a str> {
    meta.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
}

/// The one definition of each op's column references: `(role, ref)` pairs
/// in argument order. Expanded for `&TcapOp` and `&mut TcapOp`, so the
/// shared and mutable views cannot drift apart.
macro_rules! labelled_refs {
    ($op:expr) => {
        match $op {
            TcapOp::Input { .. } => vec![],
            TcapOp::Apply { input, copy, .. }
            | TcapOp::FlatMap { input, copy, .. }
            | TcapOp::Hash { input, copy, .. } => vec![("input", input), ("copy", copy)],
            TcapOp::Filter { bool_col, copy, .. } => {
                vec![("condition", bool_col), ("copy", copy)]
            }
            TcapOp::Join {
                lhs_hash,
                lhs_copy,
                rhs_hash,
                rhs_copy,
                ..
            } => vec![
                ("lhs hash", lhs_hash),
                ("lhs copy", lhs_copy),
                ("rhs hash", rhs_hash),
                ("rhs copy", rhs_copy),
            ],
            TcapOp::Aggregate { key, value, .. } => vec![("key", key), ("value", value)],
            TcapOp::Output { input, .. } => vec![("input", input)],
        }
    };
}

/// Whether a [`TcapOp::refs`] role names a copy list (`copy`, `lhs copy`,
/// `rhs copy`) rather than a ref the op computes on.
pub fn is_copy_role(role: &str) -> bool {
    role.ends_with("copy")
}

/// One TCAP operation (the right-hand side of a statement).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TcapOp {
    /// Reads a stored set into the initial vector list.
    /// `In(emp) <= INPUT('mydb', 'myset', 'Reader_1', []);`
    Input {
        db: String,
        set: String,
        computation: String,
        meta: Meta,
    },
    /// Applies a compiled pipeline stage to `input` columns, appending one
    /// new column; `copy` columns are shallow-copied through.
    Apply {
        input: ColRef,
        copy: ColRef,
        computation: String,
        stage: String,
        meta: Meta,
    },
    /// Keeps only the rows whose `bool_col` is true.
    Filter {
        bool_col: ColRef,
        copy: ColRef,
        computation: String,
        meta: Meta,
    },
    /// Hashes the given column(s) into a new hash column (join key prep).
    Hash {
        input: ColRef,
        copy: ColRef,
        computation: String,
        meta: Meta,
    },
    /// Equi-join on two hash columns; emits the union of both copy lists.
    Join {
        lhs_hash: ColRef,
        lhs_copy: ColRef,
        rhs_hash: ColRef,
        rhs_copy: ColRef,
        computation: String,
        meta: Meta,
    },
    /// Applies a set-valued stage: each input row yields zero or more output
    /// rows; `copy` columns are replicated accordingly (lowering of
    /// `MultiSelectionComp`; an op-set extension documented in DESIGN.md).
    FlatMap {
        input: ColRef,
        copy: ColRef,
        computation: String,
        stage: String,
        meta: Meta,
    },
    /// Aggregates `value` by `key` (the pipe sink of an `AggregateComp`).
    Aggregate {
        key: ColRef,
        value: ColRef,
        computation: String,
        meta: Meta,
    },
    /// Writes a column of objects to a stored set.
    Output {
        input: ColRef,
        db: String,
        set: String,
        computation: String,
        meta: Meta,
    },
}

impl TcapOp {
    /// Name of the `Computation` object this op was compiled from.
    pub fn computation(&self) -> &str {
        match self {
            TcapOp::Input { computation, .. }
            | TcapOp::Apply { computation, .. }
            | TcapOp::Filter { computation, .. }
            | TcapOp::Hash { computation, .. }
            | TcapOp::Join { computation, .. }
            | TcapOp::FlatMap { computation, .. }
            | TcapOp::Aggregate { computation, .. }
            | TcapOp::Output { computation, .. } => computation,
        }
    }

    /// The operation's metadata map.
    pub fn meta(&self) -> &Meta {
        match self {
            TcapOp::Input { meta, .. }
            | TcapOp::Apply { meta, .. }
            | TcapOp::Filter { meta, .. }
            | TcapOp::Hash { meta, .. }
            | TcapOp::Join { meta, .. }
            | TcapOp::FlatMap { meta, .. }
            | TcapOp::Aggregate { meta, .. }
            | TcapOp::Output { meta, .. } => meta,
        }
    }

    /// The op's keyword, as the printer emits it (e.g. `"APPLY"`).
    pub fn name(&self) -> &'static str {
        match self {
            TcapOp::Input { .. } => "INPUT",
            TcapOp::Apply { .. } => "APPLY",
            TcapOp::Filter { .. } => "FILTER",
            TcapOp::Hash { .. } => "HASH",
            TcapOp::Join { .. } => "JOIN",
            TcapOp::FlatMap { .. } => "FLATMAP",
            TcapOp::Aggregate { .. } => "AGGREGATE",
            TcapOp::Output { .. } => "OUTPUT",
        }
    }

    /// Every [`ColRef`] the op reads, in argument order, labelled with its
    /// role for diagnostics. Roles ending in `copy` (see [`is_copy_role`])
    /// are shallow-copied through; the others are computed on.
    pub fn refs(&self) -> Vec<(&'static str, &ColRef)> {
        labelled_refs!(self)
    }

    /// [`TcapOp::refs`], mutably: the same refs in the same order.
    pub fn refs_mut(&mut self) -> Vec<(&'static str, &mut ColRef)> {
        labelled_refs!(self)
    }

    /// The copy list of an APPLY, FLATMAP, HASH or FILTER (the ref labelled
    /// `copy`); `None` for the other ops.
    pub fn copy(&self) -> Option<&ColRef> {
        let (_, copy) = self.refs().into_iter().find(|(role, _)| *role == "copy")?;
        Some(copy)
    }

    /// [`TcapOp::copy`], mutably.
    pub fn copy_mut(&mut self) -> Option<&mut ColRef> {
        let (_, copy) = self
            .refs_mut()
            .into_iter()
            .find(|(role, _)| *role == "copy")?;
        Some(copy)
    }

    /// Names of the vector lists this op consumes.
    pub fn input_lists(&self) -> Vec<&str> {
        match self {
            TcapOp::Input { .. } => vec![],
            TcapOp::Apply { input, copy, .. }
            | TcapOp::FlatMap { input, copy, .. }
            | TcapOp::Hash { input, copy, .. } => {
                let mut v = vec![input.list.as_str()];
                if copy.list != input.list {
                    v.push(copy.list.as_str());
                }
                v
            }
            TcapOp::Filter { bool_col, copy, .. } => {
                let mut v = vec![bool_col.list.as_str()];
                if copy.list != bool_col.list {
                    v.push(copy.list.as_str());
                }
                v
            }
            TcapOp::Join {
                lhs_hash, rhs_hash, ..
            } => {
                vec![lhs_hash.list.as_str(), rhs_hash.list.as_str()]
            }
            TcapOp::Aggregate { key, value, .. } => {
                let mut v = vec![key.list.as_str()];
                if value.list != key.list {
                    v.push(value.list.as_str());
                }
                v
            }
            TcapOp::Output { input, .. } => vec![input.list.as_str()],
        }
    }
}

/// One TCAP statement: `output <= OP(...);`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcapStmt {
    pub output: VecListDecl,
    pub op: TcapOp,
}

impl TcapStmt {
    /// The columns an APPLY, FLATMAP or HASH appends: its output declaration
    /// minus its copy list. Empty for every other op (a FILTER appends
    /// nothing; undeclared extras on one are a shape error, not a result).
    pub fn appended(&self) -> impl Iterator<Item = &String> {
        let copy = match &self.op {
            TcapOp::Filter { .. } => None,
            op => op.copy(),
        };
        self.output
            .cols
            .iter()
            .filter(move |c| copy.is_some_and(|copy| !copy.cols.contains(c)))
    }

    /// The one column the statement appends; `None` when it appends zero or
    /// several.
    pub fn created(&self) -> Option<&str> {
        let mut appended = self.appended();
        match (appended.next(), appended.next()) {
            (Some(c), None) => Some(c),
            _ => None,
        }
    }
}

/// A complete TCAP program: an ordered list of statements forming a DAG.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TcapProgram {
    pub stmts: Vec<TcapStmt>,
}

impl TcapProgram {
    pub fn new(stmts: Vec<TcapStmt>) -> Self {
        TcapProgram { stmts }
    }

    /// Finds the statement producing list `name`.
    pub fn producer(&self, name: &str) -> Option<&TcapStmt> {
        self.stmts.iter().find(|s| s.output.name == name)
    }

    /// Index of the statement producing list `name`.
    pub fn producer_index(&self, name: &str) -> Option<usize> {
        self.stmts.iter().position(|s| s.output.name == name)
    }

    /// All statements consuming list `name`.
    pub fn consumers(&self, name: &str) -> Vec<usize> {
        self.stmts
            .iter()
            .enumerate()
            .filter(|(_, s)| s.op.input_lists().contains(&name))
            .map(|(i, _)| i)
            .collect()
    }

    /// Mints a list name not yet used in the program.
    pub fn fresh_name(&self, prefix: &str) -> String {
        let mut i = 1;
        loop {
            let candidate = format!("{prefix}_{i}");
            if self.producer(&candidate).is_none() {
                return candidate;
            }
            i += 1;
        }
    }
}

// ----------------------------------------------------------------- printing

fn fmt_cols(f: &mut fmt::Formatter<'_>, cols: &[String]) -> fmt::Result {
    write!(f, "(")?;
    for (i, c) in cols.iter().enumerate() {
        if i > 0 {
            write!(f, ",")?;
        }
        write!(f, "{c}")?;
    }
    write!(f, ")")
}

impl fmt::Display for VecListDecl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)?;
        fmt_cols(f, &self.cols)
    }
}

impl fmt::Display for ColRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.list)?;
        fmt_cols(f, &self.cols)
    }
}

fn fmt_meta(f: &mut fmt::Formatter<'_>, meta: &Meta) -> fmt::Result {
    write!(f, "[")?;
    for (i, (k, v)) in meta.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        write!(f, "('{k}', '{v}')")?;
    }
    write!(f, "]")
}

impl fmt::Display for TcapStmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} <= ", self.output)?;
        match &self.op {
            TcapOp::Input {
                db,
                set,
                computation,
                meta,
            } => {
                write!(f, "INPUT('{db}', '{set}', '{computation}', ")?;
                fmt_meta(f, meta)?;
            }
            TcapOp::Apply {
                input,
                copy,
                computation,
                stage,
                meta,
            } => {
                write!(f, "APPLY({input}, {copy}, '{computation}', '{stage}', ")?;
                fmt_meta(f, meta)?;
            }
            TcapOp::Filter {
                bool_col,
                copy,
                computation,
                meta,
            } => {
                write!(f, "FILTER({bool_col}, {copy}, '{computation}', ")?;
                fmt_meta(f, meta)?;
            }
            TcapOp::Hash {
                input,
                copy,
                computation,
                meta,
            } => {
                write!(f, "HASH({input}, {copy}, '{computation}', ")?;
                fmt_meta(f, meta)?;
            }
            TcapOp::Join {
                lhs_hash,
                lhs_copy,
                rhs_hash,
                rhs_copy,
                computation,
                meta,
            } => {
                write!(
                    f,
                    "JOIN({lhs_hash}, {lhs_copy}, {rhs_hash}, {rhs_copy}, '{computation}', "
                )?;
                fmt_meta(f, meta)?;
            }
            TcapOp::FlatMap {
                input,
                copy,
                computation,
                stage,
                meta,
            } => {
                write!(f, "FLATMAP({input}, {copy}, '{computation}', '{stage}', ")?;
                fmt_meta(f, meta)?;
            }
            TcapOp::Aggregate {
                key,
                value,
                computation,
                meta,
            } => {
                write!(f, "AGGREGATE({key}, {value}, '{computation}', ")?;
                fmt_meta(f, meta)?;
            }
            TcapOp::Output {
                input,
                db,
                set,
                computation,
                meta,
            } => {
                write!(f, "OUTPUT({input}, '{db}', '{set}', '{computation}', ")?;
                fmt_meta(f, meta)?;
            }
        }
        write!(f, ");")
    }
}

impl fmt::Display for TcapProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.stmts {
            writeln!(f, "{s}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_program;

    /// One statement of every op kind.
    const EVERY_OP: &str = "\
In_0(a) <= INPUT('db', 'a', 'ReadA', []);
W_1(a,k) <= APPLY(In_0(a), In_0(a), 'C', 'key', []);
F_1(a,k) <= FILTER(W_1(k), W_1(a,k), 'C', []);
H_1(a,h) <= HASH(F_1(k), F_1(a), 'C', []);
J_1(a,b) <= JOIN(H_1(h), H_1(a), H_1(h), H_1(a), 'C', []);
M_1(a,b,m) <= FLATMAP(J_1(b), J_1(a,b), 'C', 'explode', []);
A_1(s) <= AGGREGATE(M_1(m), M_1(a), 'C', []);
Out_0() <= OUTPUT(A_1(s), 'db', 'out', 'Write', []);
";

    #[test]
    fn accessors_describe_every_op() {
        let mut prog = parse_program(EVERY_OP).unwrap();
        // (keyword, copy list, created column) of each statement.
        type Expected<'a> = (&'a str, Option<&'a [&'a str]>, Option<&'a str>);
        let expected: [Expected; 8] = [
            ("INPUT", None, None),
            ("APPLY", Some(&["a"]), Some("k")),
            ("FILTER", Some(&["a", "k"]), None),
            ("HASH", Some(&["a"]), Some("h")),
            ("JOIN", None, None),
            ("FLATMAP", Some(&["a", "b"]), Some("m")),
            ("AGGREGATE", None, None),
            ("OUTPUT", None, None),
        ];
        for (s, (name, copy, created)) in prog.stmts.iter_mut().zip(expected) {
            let shared: Vec<(&str, *const ColRef)> =
                s.op.refs()
                    .into_iter()
                    .map(|(role, r)| (role, r as *const ColRef))
                    .collect();
            let mutable: Vec<(&str, *const ColRef)> =
                s.op.refs_mut()
                    .into_iter()
                    .map(|(role, r)| (role, &*r as *const ColRef))
                    .collect();
            assert_eq!(shared, mutable, "{s}");
            assert_eq!(s.op.name(), name);
            assert!(s.to_string().contains(&format!("<= {name}(")), "{s}");
            let copy_cols = |c: &ColRef| c.cols.clone();
            let want_copy = copy.map(|c| c.iter().map(|c| c.to_string()).collect());
            assert_eq!(s.op.copy().map(copy_cols), want_copy, "{s}");
            assert_eq!(s.op.copy_mut().map(|c| copy_cols(c)), want_copy, "{s}");
            assert_eq!(s.created(), created, "{s}");
        }
        let roles: Vec<&str> = prog.stmts[4].op.refs().iter().map(|(r, _)| *r).collect();
        assert_eq!(roles, ["lhs hash", "lhs copy", "rhs hash", "rhs copy"]);
    }

    #[test]
    fn created_is_none_unless_exactly_one_column_is_appended() {
        let prog = parse_program(
            "\
In_0(a) <= INPUT('db', 'a', 'ReadA', []);
W_1(a) <= APPLY(In_0(a), In_0(a), 'C', 'none', []);
W_2(a,x,y) <= APPLY(In_0(a), In_0(a), 'C', 'two', []);
F_1(a,x) <= FILTER(W_2(x), W_2(a), 'C', []);
",
        )
        .unwrap();
        let created: Vec<Option<&str>> = prog.stmts.iter().map(TcapStmt::created).collect();
        assert_eq!(created, [None, None, None, None]);
        assert_eq!(prog.stmts[2].appended().collect::<Vec<_>>(), ["x", "y"]);
        assert_eq!(prog.stmts[3].appended().count(), 0);
    }
}
