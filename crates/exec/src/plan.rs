//! Physical planning (Appendix C "Breaking a TCAP DAG into Individual
//! Pipelines", Appendix D's JobStages).
//!
//! The planner walks the optimized TCAP program and carves it into
//! [`PipelineSpec`]s. A pipeline starts at a stored set (or a materialized
//! intermediate), runs APPLY/FILTER/HASH/FLATMAP stages — and continues
//! *through* joins on the probe side — until it reaches a pipe sink:
//!
//! * the build input of a JOIN (a `BuildHashTable` job stage),
//! * an AGGREGATE (the producing stage of a distributed aggregation),
//! * an OUTPUT, or
//! * an edge with more than one consumer (forced materialization, as §C
//!   prescribes).
//!
//! Build/probe side choice follows Appendix D.3: n−1 inputs build and one
//! probes through all of their tables. A `JOIN`'s `lhs` builds and its `rhs`
//! probes; the compiler puts each later declared input on `lhs` and the
//! running composite on `rhs`, so the first declared input is the one that
//! streams. [`describe_decompositions`] enumerates the alternative
//! pipelinings of Figure 3 for inspection.

use pc_lambda::{ColumnKernel, FlatMapKernel, StageKernel, StageLibrary};
use pc_object::{PcError, PcResult};
use pc_tcap::ir::{TcapOp, TcapProgram};
use std::sync::Arc;

/// Where a pipeline reads its input objects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Source {
    /// A stored set.
    Set {
        db: String,
        set: String,
        col: String,
    },
    /// A materialized intermediate (stored under the `__tmp` database).
    Intermediate { list: String, col: String },
}

/// One vectorized operation inside a pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipeOp {
    /// Run a compiled stage over `inputs`, appending `out`; then restrict
    /// the vector list to `keep`.
    Apply {
        comp: String,
        stage: String,
        inputs: Vec<String>,
        out: String,
        keep: Vec<String>,
    },
    /// Keep rows where `bool_col` is true; restrict to `keep`.
    Filter { bool_col: String, keep: Vec<String> },
    /// Set-valued stage: replaces the row set.
    FlatMap {
        comp: String,
        stage: String,
        input: String,
        out: String,
        keep: Vec<String>,
    },
    /// Hash a key column into `out`.
    Hash {
        input: String,
        out: String,
        keep: Vec<String>,
    },
    /// Probe the hash table built for join `table`; appends the build-side
    /// object column `build_col` and fans out matches.
    Probe {
        table: String,
        hash_col: String,
        build_col: String,
        keep: Vec<String>,
    },
}

/// Where the aggregation result goes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AggDest {
    /// Fused into a final stored set (AGGREGATE directly feeding OUTPUT).
    Set { db: String, set: String },
    /// A materialized intermediate consumed by later pipelines.
    Intermediate { list: String },
}

/// The pipe sink ending a pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Sink {
    /// Write the `col` objects to a stored set.
    Output {
        db: String,
        set: String,
        col: String,
    },
    /// Build the hash table for join `table` from `hash_col` + `obj_col`.
    JoinBuild {
        table: String,
        hash_col: String,
        obj_col: String,
    },
    /// Pre-aggregate into partitioned maps (the producing stage).
    AggProduce {
        comp: String,
        col: String,
        dest: AggDest,
    },
    /// Materialize a multi-consumer edge.
    Materialize { list: String, col: String },
}

/// One pipeline: source → ops → sink.
#[derive(Debug, Clone)]
pub struct PipelineSpec {
    pub id: usize,
    pub source: Source,
    pub ops: Vec<PipeOp>,
    pub sink: Sink,
}

impl PipelineSpec {
    /// Join tables this pipeline probes.
    pub fn probes(&self) -> Vec<&str> {
        self.ops
            .iter()
            .filter_map(|op| match op {
                PipeOp::Probe { table, .. } => Some(table.as_str()),
                _ => None,
            })
            .collect()
    }

    /// What this pipeline produces (for dependency ordering).
    pub fn produces(&self) -> Option<String> {
        match &self.sink {
            Sink::JoinBuild { table, .. } => Some(format!("table:{table}")),
            Sink::AggProduce {
                dest: AggDest::Intermediate { list },
                ..
            } => Some(format!("list:{list}")),
            Sink::Materialize { list, .. } => Some(format!("list:{list}")),
            _ => None,
        }
    }

    /// The `__tmp` intermediate lists this pipeline's sink appends to —
    /// the artifacts a stage replay must clear before re-running the stage
    /// (stage-replay entry point for the cluster's recovery protocol;
    /// user-visible output sets are never listed because routing failures
    /// strictly precede their appends).
    pub fn replay_targets(&self) -> Vec<&str> {
        match &self.sink {
            Sink::Materialize { list, .. }
            | Sink::AggProduce {
                dest: AggDest::Intermediate { list },
                ..
            } => vec![list.as_str()],
            _ => Vec::new(),
        }
    }

    /// What this pipeline requires before running.
    pub fn requires(&self) -> Vec<String> {
        let mut r: Vec<String> = self
            .probes()
            .into_iter()
            .map(|t| format!("table:{t}"))
            .collect();
        if let Source::Intermediate { list, .. } = &self.source {
            r.push(format!("list:{list}"));
        }
        r
    }
}

// ------------------------------------------------------- slot resolution

/// One pipeline operation with every column name resolved to a slot index
/// and every `(computation, stage)` pair resolved to its kernel. Built once
/// per pipeline stage by [`PipelineSpec::resolve`]; the per-batch loop then
/// runs on pure index arithmetic — no string compares, no stage-library
/// lookups.
#[derive(Clone)]
pub enum ResolvedOp {
    /// APPLY (including HASH, which is an apply of the hash kernel). `drop`
    /// lists the slots the statement's output declaration loses — cleared
    /// *before* the rebase so dead columns are never compacted. `drop_out`
    /// marks an output column that is itself immediately dead.
    Apply {
        kernel: Arc<dyn ColumnKernel>,
        inputs: Vec<usize>,
        out: usize,
        drop: Vec<usize>,
        drop_out: bool,
    },
    /// FILTER: refine the selection by `bool_slot`, then clear `drop`.
    Filter { bool_slot: usize, drop: Vec<usize> },
    /// FLATMAP: set-valued apply; survivors replicate by the kernel's
    /// per-live-row counts.
    FlatMap {
        kernel: Arc<dyn FlatMapKernel>,
        input: usize,
        out: usize,
        drop: Vec<usize>,
        drop_out: bool,
    },
    /// JOIN probe: hash lookups fan out matches; survivors gather by the
    /// probe's match indices; the matched build objects land in `build_slot`.
    Probe {
        table: String,
        hash_slot: usize,
        build_slot: usize,
        drop: Vec<usize>,
        drop_after: Vec<usize>,
    },
}

/// The sink's column slots.
#[derive(Debug, Clone)]
pub enum ResolvedSink {
    /// OUTPUT / Materialize: write the objects in `slot`.
    Write { slot: usize },
    /// Join build: insert `(hash_slot, obj_slot)` rows.
    JoinBuild { hash_slot: usize, obj_slot: usize },
    /// Pre-aggregation: absorb the objects in `slot`.
    AggProduce { slot: usize },
}

/// A pipeline with its per-batch path fully resolved to slot indices.
pub struct ResolvedPipeline {
    /// Slot index → column name (the pipeline's slot map).
    pub slot_names: Vec<String>,
    /// Where source pages' object handles land.
    pub source_slot: usize,
    pub ops: Vec<ResolvedOp>,
    pub sink: ResolvedSink,
}

struct Resolver {
    names: Vec<String>,
    live: Vec<bool>,
}

impl Resolver {
    fn slot(&mut self, name: &str) -> usize {
        match self.names.iter().position(|n| n == name) {
            Some(s) => s,
            None => {
                self.names.push(name.to_string());
                self.live.push(false);
                self.names.len() - 1
            }
        }
    }

    /// The keep set of a statement: its declared output columns plus every
    /// live `hash*` column (the conservative retention the executor applies
    /// for join hash columns the optimizer pruned).
    fn keep_mask(&mut self, keep: &[String]) -> Vec<bool> {
        let mut mask = vec![false; self.names.len()];
        for k in keep {
            let s = self.slot(k);
            if mask.len() < self.names.len() {
                mask.resize(self.names.len(), false);
            }
            mask[s] = true;
        }
        for (s, n) in self.names.iter().enumerate() {
            if self.live[s] && n.starts_with("hash") {
                mask[s] = true;
            }
        }
        mask
    }

    /// Finishes one op: computes the pre-drop list (live columns the op
    /// kills, including an overwritten `out`), updates liveness, and
    /// reports whether `out` itself survives.
    fn advance(&mut self, keep: &[String], outs: &[usize]) -> (Vec<usize>, Vec<usize>) {
        let mask = self.keep_mask(keep);
        let mut drop = Vec::new();
        for (s, keep_slot) in mask.iter().enumerate() {
            // An overwritten out slot is also cleared up front so the
            // rebase never compacts its stale column.
            if self.live[s] && (!keep_slot || outs.contains(&s)) {
                drop.push(s);
                self.live[s] = false;
            }
        }
        let mut drop_after = Vec::new();
        for &o in outs {
            if mask[o] {
                self.live[o] = true;
            } else {
                drop_after.push(o);
            }
        }
        (drop, drop_after)
    }
}

impl PipelineSpec {
    /// Resolves this pipeline against a stage library: column names become
    /// slot indices, stage names become kernel `Arc`s, and each op gets a
    /// statically computed drop list. Called once per
    /// [`crate::run_stage_morsels`] invocation, off the per-batch path.
    pub fn resolve(&self, stages: &StageLibrary) -> PcResult<ResolvedPipeline> {
        let mut r = Resolver {
            names: Vec::new(),
            live: Vec::new(),
        };
        let source_col = match &self.source {
            Source::Set { col, .. } | Source::Intermediate { col, .. } => col.clone(),
        };
        let source_slot = r.slot(&source_col);
        r.live[source_slot] = true;

        let mut ops = Vec::with_capacity(self.ops.len());
        for op in &self.ops {
            match op {
                PipeOp::Apply {
                    comp,
                    stage,
                    inputs,
                    out,
                    keep,
                } => {
                    let kernel = match stages.get(comp, stage) {
                        Some(StageKernel::Map(k)) => k.clone(),
                        _ => {
                            return Err(PcError::Catalog(format!(
                                "no map kernel registered for {comp}.{stage}"
                            )))
                        }
                    };
                    let inputs: Vec<usize> = inputs.iter().map(|n| r.slot(n)).collect();
                    let out = r.slot(out);
                    let (drop, drop_after) = r.advance(keep, &[out]);
                    ops.push(ResolvedOp::Apply {
                        kernel,
                        inputs,
                        out,
                        drop,
                        drop_out: !drop_after.is_empty(),
                    });
                }
                PipeOp::Filter { bool_col, keep } => {
                    let bool_slot = r.slot(bool_col);
                    let (drop, _) = r.advance(keep, &[]);
                    ops.push(ResolvedOp::Filter { bool_slot, drop });
                }
                PipeOp::FlatMap {
                    comp,
                    stage,
                    input,
                    out,
                    keep,
                } => {
                    let kernel = match stages.get(comp, stage) {
                        Some(StageKernel::FlatMap(k)) => k.clone(),
                        _ => {
                            return Err(PcError::Catalog(format!(
                                "no flatmap kernel registered for {comp}.{stage}"
                            )))
                        }
                    };
                    let input = r.slot(input);
                    let out = r.slot(out);
                    let (drop, drop_after) = r.advance(keep, &[out]);
                    ops.push(ResolvedOp::FlatMap {
                        kernel,
                        input,
                        out,
                        drop,
                        drop_out: !drop_after.is_empty(),
                    });
                }
                PipeOp::Hash { input, out, keep } => {
                    let inputs = vec![r.slot(input)];
                    let out = r.slot(out);
                    let (drop, drop_after) = r.advance(keep, &[out]);
                    ops.push(ResolvedOp::Apply {
                        kernel: Arc::new(pc_lambda::kernel::HashKernel),
                        inputs,
                        out,
                        drop,
                        drop_out: !drop_after.is_empty(),
                    });
                }
                PipeOp::Probe {
                    table,
                    hash_col,
                    build_col,
                    keep,
                } => {
                    let hash_slot = r.slot(hash_col);
                    let build_slot = r.slot(build_col);
                    let (drop, drop_after) = r.advance(keep, &[build_slot]);
                    ops.push(ResolvedOp::Probe {
                        table: table.clone(),
                        hash_slot,
                        build_slot,
                        drop,
                        drop_after,
                    });
                }
            }
        }

        let sink = match &self.sink {
            Sink::Output { col, .. } | Sink::Materialize { col, .. } => {
                ResolvedSink::Write { slot: r.slot(col) }
            }
            Sink::AggProduce { col, .. } => ResolvedSink::AggProduce { slot: r.slot(col) },
            Sink::JoinBuild {
                hash_col, obj_col, ..
            } => ResolvedSink::JoinBuild {
                hash_slot: r.slot(hash_col),
                obj_slot: r.slot(obj_col),
            },
        };

        Ok(ResolvedPipeline {
            slot_names: r.names,
            source_slot,
            ops,
            sink,
        })
    }
}

/// A complete physical plan: pipelines in a dependency-respecting order.
#[derive(Debug, Clone, Default)]
pub struct PhysicalPlan {
    pub pipelines: Vec<PipelineSpec>,
}

impl PhysicalPlan {
    /// The `__tmp` intermediate lists this plan writes (materialized
    /// multi-consumer edges and non-fused aggregation outputs). List names
    /// are deterministic per graph shape, so executors must clear each of
    /// these before running lest a previous query's pages leak in.
    pub fn intermediate_lists(&self) -> Vec<&str> {
        self.pipelines
            .iter()
            .filter_map(|p| match &p.sink {
                Sink::Materialize { list, .. }
                | Sink::AggProduce {
                    dest: AggDest::Intermediate { list },
                    ..
                } => Some(list.as_str()),
                _ => None,
            })
            .collect()
    }
}

impl std::fmt::Display for PhysicalPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for p in &self.pipelines {
            writeln!(f, "pipeline {}:", p.id)?;
            writeln!(f, "  source: {:?}", p.source)?;
            for op in &p.ops {
                match op {
                    PipeOp::Apply {
                        comp,
                        stage,
                        inputs,
                        out,
                        ..
                    } => writeln!(f, "  apply {comp}.{stage}({inputs:?}) -> {out}")?,
                    PipeOp::Filter { bool_col, .. } => writeln!(f, "  filter on {bool_col}")?,
                    PipeOp::FlatMap {
                        comp,
                        stage,
                        input,
                        out,
                        ..
                    } => writeln!(f, "  flatmap {comp}.{stage}({input}) -> {out}")?,
                    PipeOp::Hash { input, out, .. } => writeln!(f, "  hash {input} -> {out}")?,
                    PipeOp::Probe {
                        table,
                        hash_col,
                        build_col,
                        ..
                    } => writeln!(f, "  probe {table} on {hash_col} -> {build_col}")?,
                }
            }
            writeln!(f, "  sink: {:?}", p.sink)?;
        }
        Ok(())
    }
}

/// Builds a physical plan from an (optimized) TCAP program.
pub fn plan(prog: &TcapProgram) -> PcResult<PhysicalPlan> {
    let mut pipelines: Vec<PipelineSpec> = Vec::new();
    // Seeds: (source, producing list name). Expanded as materialization
    // points are discovered.
    let mut seeds: Vec<(Source, String)> = Vec::new();
    for s in &prog.stmts {
        if let TcapOp::Input { db, set, .. } = &s.op {
            let col = s.output.cols.first().cloned().unwrap_or_default();
            seeds.push((
                Source::Set {
                    db: db.clone(),
                    set: set.clone(),
                    col,
                },
                s.output.name.clone(),
            ));
        }
    }

    let mut done_seeds: Vec<String> = Vec::new();
    while let Some((source, list)) = seeds.pop() {
        if done_seeds.contains(&list) {
            continue;
        }
        done_seeds.push(list.clone());
        // One pipeline per consumer of the seed list.
        for ci in prog.consumers(&list) {
            let mut ops: Vec<PipeOp> = Vec::new();
            let mut cur_stmt = ci;
            let mut cur_list = list.clone();
            let sink = loop {
                let s = &prog.stmts[cur_stmt];
                let keep = s.output.cols.clone();
                match &s.op {
                    TcapOp::Apply {
                        input,
                        computation,
                        stage,
                        ..
                    } => {
                        ops.push(PipeOp::Apply {
                            comp: computation.clone(),
                            stage: stage.clone(),
                            inputs: input.cols.clone(),
                            out: created(s).unwrap_or_default(),
                            keep,
                        });
                    }
                    TcapOp::Filter { bool_col, .. } => {
                        ops.push(PipeOp::Filter {
                            bool_col: bool_col.cols[0].clone(),
                            keep,
                        });
                    }
                    TcapOp::FlatMap {
                        input,
                        computation,
                        stage,
                        ..
                    } => {
                        ops.push(PipeOp::FlatMap {
                            comp: computation.clone(),
                            stage: stage.clone(),
                            input: input.cols[0].clone(),
                            out: created(s).unwrap_or_default(),
                            keep,
                        });
                    }
                    TcapOp::Hash { input, .. } => {
                        ops.push(PipeOp::Hash {
                            input: input.cols[0].clone(),
                            out: created(s).unwrap_or_default(),
                            keep,
                        });
                    }
                    TcapOp::Join {
                        lhs_hash,
                        lhs_copy,
                        rhs_hash,
                        ..
                    } => {
                        // A join builds from one input, so its table holds
                        // one object per row (the compiler copies exactly
                        // one column from the building side).
                        let [build_col] = lhs_copy.cols.as_slice() else {
                            return Err(PcError::Catalog(format!(
                                "JOIN {} copies {} build-side columns; a join \
                                 table holds exactly one",
                                s.output.name,
                                lhs_copy.cols.len()
                            )));
                        };
                        if cur_list == lhs_hash.list {
                            // Build side: pipeline ends here (Appendix D.3
                            // builds from every input but the streamed one).
                            break Sink::JoinBuild {
                                table: s.output.name.clone(),
                                hash_col: lhs_hash.cols[0].clone(),
                                obj_col: build_col.clone(),
                            };
                        }
                        debug_assert_eq!(cur_list, rhs_hash.list, "probe must arrive via rhs");
                        // Probe side: run through the join.
                        ops.push(PipeOp::Probe {
                            table: s.output.name.clone(),
                            hash_col: rhs_hash.cols[0].clone(),
                            build_col: build_col.clone(),
                            keep,
                        });
                    }
                    TcapOp::Aggregate {
                        computation, key, ..
                    } => {
                        // Fuse with a sole downstream OUTPUT when possible.
                        let out_list = s.output.name.clone();
                        let consumers = prog.consumers(&out_list);
                        let only_output = consumers.len() == 1
                            && matches!(prog.stmts[consumers[0]].op, TcapOp::Output { .. });
                        let dest = if only_output {
                            if let TcapOp::Output { db, set, .. } = &prog.stmts[consumers[0]].op {
                                AggDest::Set {
                                    db: db.clone(),
                                    set: set.clone(),
                                }
                            } else {
                                unreachable!()
                            }
                        } else {
                            seeds.push((
                                Source::Intermediate {
                                    list: out_list.clone(),
                                    col: s.output.cols[0].clone(),
                                },
                                out_list.clone(),
                            ));
                            AggDest::Intermediate {
                                list: out_list.clone(),
                            }
                        };
                        break Sink::AggProduce {
                            comp: computation.clone(),
                            col: key.cols[0].clone(),
                            dest,
                        };
                    }
                    TcapOp::Output { input, db, set, .. } => {
                        break Sink::Output {
                            db: db.clone(),
                            set: set.clone(),
                            col: input.cols[0].clone(),
                        };
                    }
                    TcapOp::Input { .. } => {
                        return Err(PcError::Catalog("INPUT cannot consume a list".into()))
                    }
                }
                // Advance to the single consumer of this statement's output;
                // multiple consumers force materialization (§C).
                let out_list = s.output.name.clone();
                let consumers = prog.consumers(&out_list);
                match consumers.len() {
                    0 => {
                        // Terminal non-OUTPUT list: materialize it so the
                        // caller can inspect it (e.g. unit-test fragments).
                        break Sink::Materialize {
                            list: out_list.clone(),
                            col: s.output.cols.first().cloned().unwrap_or_default(),
                        };
                    }
                    1 => {
                        cur_list = out_list;
                        cur_stmt = consumers[0];
                    }
                    _ => {
                        seeds.push((
                            Source::Intermediate {
                                list: out_list.clone(),
                                col: s.output.cols.first().cloned().unwrap_or_default(),
                            },
                            out_list.clone(),
                        ));
                        break Sink::Materialize {
                            list: out_list.clone(),
                            col: s.output.cols.first().cloned().unwrap_or_default(),
                        };
                    }
                }
            };
            pipelines.push(PipelineSpec {
                id: pipelines.len(),
                source: source.clone(),
                ops,
                sink,
            });
        }
    }

    order_pipelines(&mut pipelines)?;
    Ok(PhysicalPlan { pipelines })
}

/// The column a statement appends.
fn created(s: &pc_tcap::ir::TcapStmt) -> Option<String> {
    let copy: &[String] = match &s.op {
        TcapOp::Apply { copy, .. } | TcapOp::FlatMap { copy, .. } | TcapOp::Hash { copy, .. } => {
            &copy.cols
        }
        _ => return None,
    };
    s.output.cols.iter().find(|c| !copy.contains(c)).cloned()
}

/// Topologically orders pipelines by produced/required resources.
fn order_pipelines(pipelines: &mut Vec<PipelineSpec>) -> PcResult<()> {
    let n = pipelines.len();
    let mut ordered: Vec<PipelineSpec> = Vec::with_capacity(n);
    let mut ready: Vec<String> = Vec::new();
    let mut remaining: Vec<PipelineSpec> = std::mem::take(pipelines);
    while !remaining.is_empty() {
        let idx = remaining
            .iter()
            .position(|p| p.requires().iter().all(|r| ready.contains(r)))
            .ok_or_else(|| {
                PcError::Catalog("physical plan has a pipeline dependency cycle".into())
            })?;
        let p = remaining.remove(idx);
        if let Some(prod) = p.produces() {
            ready.push(prod);
        }
        ordered.push(p);
    }
    for (i, p) in ordered.iter_mut().enumerate() {
        p.id = i;
    }
    *pipelines = ordered;
    Ok(())
}

/// Enumerates alternative pipeline decompositions of a TCAP program by
/// flipping which join side builds (Figure 3's (b)/(c) variants). Returns
/// human-readable summaries; the executor always runs the default,
/// decomposition 0: each `JOIN`'s `lhs` (a later input) builds and the first
/// input streams through every probe, per Appendix D.3.
pub fn describe_decompositions(prog: &TcapProgram) -> Vec<String> {
    let joins: Vec<&pc_tcap::ir::TcapStmt> = prog
        .stmts
        .iter()
        .filter(|s| matches!(s.op, TcapOp::Join { .. }))
        .collect();
    let mut out = Vec::new();
    let n = joins.len();
    for mask in 0..(1usize << n) {
        let mut desc = format!("decomposition {}:\n", mask);
        for (k, j) in joins.iter().enumerate() {
            if let TcapOp::Join {
                lhs_hash, rhs_hash, ..
            } = &j.op
            {
                let (build, probe) = if mask & (1 << k) == 0 {
                    (&lhs_hash.list, &rhs_hash.list)
                } else {
                    (&rhs_hash.list, &lhs_hash.list)
                };
                desc.push_str(&format!(
                    "  join {}: build from {}, probe streamed from {}\n",
                    j.output.name, build, probe
                ));
            }
        }
        out.push(desc);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_tcap::parse_program;

    /// A hand-written two-input join whose build side copies `lhs_copy`.
    fn join_program(lhs_copy: &str) -> TcapProgram {
        parse_program(&format!(
            "\
In_0(in0) <= INPUT('db', 'a', 'ReadA', []);
In_1(in1) <= INPUT('db', 'b', 'ReadB', []);
W_1(in0,mt1) <= APPLY(In_0(in0), In_0(in0), 'J', 'key_l', []);
H_1(in0,mt1,hash1) <= HASH(W_1(mt1), W_1(in0,mt1), 'J', []);
W_2(in1,mt2) <= APPLY(In_1(in1), In_1(in1), 'J', 'key_r', []);
H_2(in1,hash2) <= HASH(W_2(mt2), W_2(in1), 'J', []);
J_1(in0,in1) <= JOIN(H_1(hash1), {lhs_copy}, H_2(hash2), H_2(in1), 'J', []);
Out_0() <= OUTPUT(J_1(in0), 'db', 'out', 'Write', []);
"
        ))
        .unwrap()
    }

    #[test]
    fn a_join_builds_and_probes_one_column() {
        let physical = plan(&join_program("H_1(in0)")).unwrap();
        let build = physical
            .pipelines
            .iter()
            .find_map(|p| match &p.sink {
                Sink::JoinBuild { obj_col, .. } => Some(obj_col.as_str()),
                _ => None,
            })
            .unwrap();
        assert_eq!(build, "in0");
        let probe = physical
            .pipelines
            .iter()
            .flat_map(|p| &p.ops)
            .find_map(|op| match op {
                PipeOp::Probe { build_col, .. } => Some(build_col.as_str()),
                _ => None,
            })
            .unwrap();
        assert_eq!(probe, "in0");
    }

    #[test]
    fn a_join_copying_two_build_columns_is_an_error() {
        let err = plan(&join_program("H_1(in0,mt1)")).unwrap_err();
        assert!(
            matches!(err, PcError::Catalog(ref m) if m.contains("2 build-side")),
            "{err}"
        );
    }

    #[test]
    fn a_join_copying_no_build_column_is_an_error() {
        let err = plan(&join_program("H_1()")).unwrap_err();
        assert!(
            matches!(err, PcError::Catalog(ref m) if m.contains("0 build-side")),
            "{err}"
        );
    }
}
