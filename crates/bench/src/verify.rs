//! `repro verify` — the TCAP verifier demonstration and its mutation
//! gauntlet.
//!
//! Compiles a corpus of representative workload jobs (selection, retyping
//! projection + flat-map, two-way join, the §5.2 three-way join chain, and
//! aggregation), shows each lowered plan verifying clean before and after
//! optimization, renders one deliberately broken plan's diagnostics, and
//! then runs the gauntlet: every mutation class from
//! [`pc_tcap::mutate`](mod@pc_tcap::mutate) applied to every plan under many seeds, gated on
//! ≥95% of applied mutants being rejected with the class's expected `TV`
//! code and zero false positives on the unmutated plans.

use pc_core::prelude::*;
use pc_tcap::{mutate, verify, MutationKind, TcapProgram, ALL_MUTATIONS};

pc_object! {
    pub struct VEmp / VEmpView {
        (salary, set_salary): i64,
        (dept_id, set_dept_id): i64,
        (name, set_name): Handle<PcString>,
    }
}

pc_object! {
    pub struct VDept / VDeptView {
        (id, set_id): i64,
        (dname, set_dname): Handle<PcString>,
    }
}

pc_object! {
    pub struct VStat / VStatView {
        (dept, set_dept): i64,
        (total, set_total): i64,
    }
}

struct SalarySum;

impl AggregateSpec for SalarySum {
    type In = VEmp;
    type Key = i64;
    type Val = i64;
    type Out = VStat;

    fn key_of(&self, rec: &Handle<VEmp>) -> PcResult<i64> {
        Ok(rec.v().dept_id())
    }

    fn init(&self, _b: &BlockRef, rec: &Handle<VEmp>) -> PcResult<i64> {
        Ok(rec.v().salary())
    }

    fn combine(&self, b: &BlockRef, slot: u32, rec: &Handle<VEmp>) -> PcResult<()> {
        let t: i64 = b.read(slot);
        b.write(slot, t + rec.v().salary());
        Ok(())
    }

    fn merge(&self, dst: &BlockRef, dst_slot: u32, src: &BlockRef, src_slot: u32) -> PcResult<()> {
        let a: i64 = dst.read(dst_slot);
        let b: i64 = src.read(src_slot);
        dst.write(dst_slot, a + b);
        Ok(())
    }

    fn finalize(&self, key: &i64, b: &BlockRef, slot: u32) -> PcResult<Handle<VStat>> {
        let t: i64 = b.read(slot);
        let out = make_object::<VStat>()?;
        out.v().set_dept(*key)?;
        out.v().set_total(t)?;
        Ok(out)
    }
}

fn selection_job() -> Job {
    let well_paid = Dataset::<VEmp>::scan("db", "emps").filter(|e| {
        e.method("getSalary", |e| e.v().salary())
            .gt_const(60_000i64)
    });
    Job::new().add(well_paid.write_to("db", "out"))
}

fn flatmap_job() -> Job {
    let fanned = Dataset::<VEmp>::scan("db", "emps")
        .select("tag", |e| {
            let t = make_object::<VStat>()?;
            t.v().set_dept(e.v().dept_id())?;
            t.v().set_total(e.v().salary() / 1000)?;
            Ok(t)
        })
        .flat_map("explode", |t| {
            let mut out = Vec::new();
            for b in 0..t.v().total().min(3) {
                let x = make_object::<VStat>()?;
                x.v().set_dept(t.v().dept())?;
                x.v().set_total(b)?;
                out.push(x);
            }
            Ok(out)
        });
    Job::new().add(fanned.write_to("db", "out"))
}

fn join_job() -> Job {
    let pairs = Dataset::<VEmp>::scan("db", "emps").join(
        &Dataset::<VDept>::scan("db", "depts"),
        |e, d| {
            d.member("id", |d| d.v().id())
                .eq(e.member("deptId", |e| e.v().dept_id()))
        },
        "pair",
        |_e, d| Ok(d.clone()),
    );
    Job::new().add(pairs.write_to("db", "pairs"))
}

fn join3_job() -> Job {
    let dep = Dataset::<VDept>::scan("db", "depts");
    let emp = Dataset::<VEmp>::scan("db", "emps");
    let sup = Dataset::<VEmp>::scan("db", "sups");
    let joined = emp.join3(
        &dep,
        &sup,
        |e, d, s| {
            d.member("id", |d| d.v().id())
                .eq(e.method("getDeptId", |e| e.v().dept_id()))
                .and(
                    d.member("id", |d| d.v().id())
                        .eq(s.method("getDeptId", |s| s.v().dept_id())),
                )
        },
        "mkResult",
        |_e, d, _s| Ok(d.clone()),
    );
    Job::new().add(joined.write_to("db", "out"))
}

fn aggregate_job() -> Job {
    let stats = Dataset::<VEmp>::scan("db", "emps").aggregate(SalarySum);
    Job::new().add(stats.write_to("db", "stats"))
}

/// The workload corpus: every statement shape the compiler emits (INPUT,
/// APPLY of each kernel family, FILTER, HASH, JOIN, FLATMAP, AGGREGATE,
/// OUTPUT) appears in at least one plan.
pub fn corpus() -> Vec<(&'static str, TcapProgram)> {
    let jobs: Vec<(&'static str, Job)> = vec![
        ("selection", selection_job()),
        ("flatmap", flatmap_job()),
        ("join", join_job()),
        ("join3-chain", join3_job()),
        ("aggregate", aggregate_job()),
    ];
    jobs.into_iter()
        .map(|(name, job)| {
            let q = job
                .compile()
                .unwrap_or_else(|e| panic!("workload {name} failed to compile: {e}"));
            (name, q.tcap)
        })
        .collect()
}

/// One gauntlet cell: a mutation class applied across plans and seeds.
struct ClassScore {
    kind: MutationKind,
    applied: usize,
    caught: usize,
    caught_with_expected_code: usize,
}

/// Runs the verifier demo and the mutation gauntlet. Returns true when the
/// gauntlet passes (≥95% of applied mutants rejected with the expected
/// code, zero false positives).
pub fn verify_demo(extra_seeds: &[u64]) -> bool {
    println!("repro verify: TCAP static verifier\n");

    // 1. Every workload plan verifies clean, before and after optimization.
    let plans = corpus();
    println!("-- workload plans ({}) --", plans.len());
    let mut false_positives = 0usize;
    for (name, tcap) in &plans {
        let pre = verify::verify(tcap);
        let mut opt = tcap.clone();
        pc_tcap::optimize(&mut opt);
        let post = verify::verify(&opt);
        let ok = pre.is_clean() && post.is_clean();
        if !ok {
            false_positives += 1;
        }
        println!(
            "  {name:<12} {} stmts lowered, {} after optimize: {}",
            tcap.stmts.len(),
            opt.stmts.len(),
            if ok {
                "verifies clean (pre + post optimize)".to_string()
            } else {
                format!("REJECTED: {:?} / {:?}", pre.codes(), post.codes())
            }
        );
    }

    // 2. What a rejection looks like: break the join plan and render.
    let (_, join_plan) = &plans[2];
    if let Some((broken, m)) = mutate(join_plan, MutationKind::RetypeOutput, 7) {
        println!("\n-- example rejection ({}) --", m.description);
        print!("{}", verify::verify(&broken).render());
    }

    // 3. The gauntlet: every class x every plan x many seeds.
    let seeds: Vec<u64> = (0..16).chain(extra_seeds.iter().copied()).collect();
    let mut scores: Vec<ClassScore> = ALL_MUTATIONS
        .iter()
        .map(|&kind| ClassScore {
            kind,
            applied: 0,
            caught: 0,
            caught_with_expected_code: 0,
        })
        .collect();
    for (_, tcap) in &plans {
        for score in scores.iter_mut() {
            for &seed in &seeds {
                let Some((broken, _)) = mutate(tcap, score.kind, seed) else {
                    continue; // no applicable site in this plan: skip, not a miss
                };
                score.applied += 1;
                let report = verify::verify(&broken);
                if !report.is_clean() {
                    score.caught += 1;
                    if report.has_code(score.kind.expected_code()) {
                        score.caught_with_expected_code += 1;
                    }
                }
            }
        }
    }

    println!(
        "\n-- mutation gauntlet ({} seeds per class per plan) --",
        seeds.len()
    );
    println!(
        "  {:<28} {:>8} {:>8} {:>10} {:>6}",
        "class", "applied", "caught", "with-code", "rate"
    );
    let (mut applied, mut with_code) = (0usize, 0usize);
    for s in &scores {
        let rate = if s.applied == 0 {
            100.0
        } else {
            100.0 * s.caught_with_expected_code as f64 / s.applied as f64
        };
        println!(
            "  {:<28} {:>8} {:>8} {:>10} {:>5.1}%  (expect {})",
            s.kind.label(),
            s.applied,
            s.caught,
            s.caught_with_expected_code,
            rate,
            s.kind.expected_code(),
        );
        applied += s.applied;
        with_code += s.caught_with_expected_code;
    }
    let overall = if applied == 0 {
        0.0
    } else {
        100.0 * with_code as f64 / applied as f64
    };
    println!(
        "\n  overall: {with_code}/{applied} mutants rejected with the expected code ({overall:.1}%)"
    );
    println!("  false positives on clean plans: {false_positives}");

    let pass = overall >= 95.0 && false_positives == 0 && applied > 0;
    println!(
        "\n  gate (>=95% expected-code rejection, zero false positives): {}",
        if pass { "PASS" } else { "FAIL" }
    );
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_covers_every_statement_shape() {
        let plans = corpus();
        let all: String = plans.iter().map(|(_, t)| t.to_string()).collect();
        for shape in [
            "INPUT",
            "APPLY",
            "FILTER",
            "HASH",
            "JOIN",
            "FLATMAP",
            "AGGREGATE",
            "OUTPUT",
        ] {
            assert!(all.contains(shape), "corpus never emits {shape}");
        }
    }

    #[test]
    fn gauntlet_gate_passes() {
        assert!(verify_demo(&[0xC0FFEE]), "mutation gauntlet below the gate");
    }
}
