//! Property tests for the executor's row kernels against naive references,
//! on seeded relations with duplicate keys, NULL keys, 1–3 key columns and
//! every key type (`Id`, `Code`, `Doc`, `Str`, large `Int`), so both the
//! packed and the composite multi-column key forms are exercised.
//!
//! * `hash_join` equals a nested-loop join for inner, semi and anti joins,
//!   row for row: probe-major, build rows ascending.
//! * A `Project` directly over a `Join` (evaluated fused) equals the same
//!   projection over the materialized join, row for row, on both the
//!   fresh-hash-table and the cached-index paths.
//! * One and three executor threads produce the same bag.
//! * `Relation::dedup` keeps first occurrences, in order.
//! * `ColIndex::get` equals a linear filter over the indexed column.

use std::collections::{HashMap, HashSet};

use x2s_rel::exec::{eval_plan, hash_join, ExecCtx};
use x2s_rel::{
    Database, ExecOptions, JoinKind, Plan, Pred, Relation, Stats, Value, PARALLEL_JOIN_THRESHOLD,
};

/// xorshift64: deterministic, seedable, dependency-free.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

/// A value from a small domain, so keys repeat: mostly ids and codes, with
/// the document marker, strings, large integers and NULLs mixed in.
fn value(rng: &mut Rng) -> Value {
    let v = rng.below(6) as u32;
    match rng.below(20) {
        0..=7 => Value::Id(v),
        8..=11 => Value::Code(v),
        12 => Value::Doc,
        13..=14 => Value::str(&format!("s{v}")),
        15..=16 => Value::Int((1 << 40) + i64::from(v)),
        17 => Value::Int(i64::from(v)),
        _ => Value::Null,
    }
}

fn relation(rng: &mut Rng, prefix: &str, arity: usize, rows: usize) -> Relation {
    let columns = (0..arity).map(|c| format!("{prefix}{c}")).collect();
    let mut rel = Relation::new(columns);
    for _ in 0..rows {
        rel.push((0..arity).map(|_| value(rng)).collect());
    }
    rel
}

/// Nested-loop reference join with SQL NULL semantics.
fn nested_loop(
    left: &Relation,
    right: &Relation,
    on: &[(usize, usize)],
    kind: JoinKind,
) -> Relation {
    let matches = |l: &[Value], r: &[Value]| {
        on.iter()
            .all(|&(lc, rc)| l[lc] != Value::Null && l[lc] == r[rc])
    };
    let mut columns = left.columns().to_vec();
    if kind == JoinKind::Inner {
        columns.extend(right.columns().iter().cloned());
    }
    let mut out = Relation::new(columns);
    for l in left.rows() {
        match kind {
            JoinKind::Inner => {
                for r in right.rows().filter(|r| matches(l, r)) {
                    out.push_concat(l, r);
                }
            }
            JoinKind::Semi => {
                if right.rows().any(|r| matches(l, r)) {
                    out.push_row(l);
                }
            }
            JoinKind::Anti => {
                if !right.rows().any(|r| matches(l, r)) {
                    out.push_row(l);
                }
            }
        }
    }
    out
}

/// Random join columns: `keys` pairs over the two arities.
fn key_pairs(rng: &mut Rng, keys: usize, la: usize, ra: usize) -> Vec<(usize, usize)> {
    (0..keys)
        .map(|_| (rng.below(la as u64) as usize, rng.below(ra as u64) as usize))
        .collect()
}

fn eval(db: &Database, plan: &Plan, threads: usize) -> (Relation, Stats) {
    let env = HashMap::new();
    let mut stats = Stats::default();
    let mut ctx = ExecCtx {
        db,
        env: &env,
        opts: ExecOptions::default().with_threads(threads),
        stats: &mut stats,
    };
    let rel = eval_plan(plan, &mut ctx)
        .unwrap_or_else(|e| panic!("plan executes: {e}"))
        .into_owned();
    (rel, stats)
}

const KINDS: [JoinKind; 3] = [JoinKind::Inner, JoinKind::Semi, JoinKind::Anti];

#[test]
fn hash_join_equals_nested_loop_row_for_row() {
    for case in 0..60u64 {
        let mut rng = Rng::new(case);
        let (la, ra) = (1 + rng.below(3) as usize, 1 + rng.below(3) as usize);
        let (ln, rn) = (1 + rng.below(40) as usize, rng.below(40) as usize);
        let left = relation(&mut rng, "l", la, ln);
        let right = relation(&mut rng, "r", ra, rn);
        let keys = 1 + rng.below(3) as usize;
        let on = key_pairs(&mut rng, keys, la, ra);
        for kind in KINDS {
            let want = nested_loop(&left, &right, &on, kind);
            let got = hash_join(&left, &right, &on, kind, 1, &mut Stats::default());
            assert_eq!(got, want, "case {case}: {kind:?} join on {on:?}");
        }
    }
}

/// Projections over the joined row: a random selection of source columns,
/// with repeats, drawn from both sides for inner joins.
fn projection(rng: &mut Rng, arity: usize) -> Vec<(usize, String)> {
    (0..1 + rng.below(4) as usize)
        .map(|i| (rng.below(arity as u64) as usize, format!("p{i}")))
        .collect()
}

#[test]
fn fused_project_join_equals_project_over_join() {
    for case in 0..60u64 {
        let mut rng = Rng::new(1000 + case);
        let (la, ra) = (2 + rng.below(2) as usize, 2 + rng.below(2) as usize);
        let (ln, rn) = (1 + rng.below(40) as usize, rng.below(40) as usize);
        let left = relation(&mut rng, "l", la, ln);
        let right = relation(&mut rng, "r", ra, rn);
        let mut db = Database::new();
        db.insert("L", left.clone());
        db.insert("R", right.clone());
        // Even cases index the store, so single-column joins against the
        // `R` scan probe the cached index; odd cases build hash tables.
        let indexed = case % 2 == 0;
        if indexed {
            db.build_indexes();
        }
        let keys = 1 + rng.below(if indexed { 1 } else { 3 }) as usize;
        let rcol_max = if indexed { 2 } else { right.arity() };
        let on = key_pairs(&mut rng, keys, left.arity(), rcol_max);
        for kind in KINDS {
            let join = Plan::Join {
                left: Box::new(Plan::Scan("L".into())),
                right: Box::new(Plan::Scan("R".into())),
                on: on.clone(),
                kind,
            };
            let (joined, join_stats) = eval(&db, &join, 1);
            let arity = joined.arity();
            let cols = projection(&mut rng, arity);
            let fused = Plan::Project {
                input: Box::new(join),
                cols: cols.clone(),
            };
            let unfused = Plan::Project {
                input: Box::new(Plan::Values(joined.clone())),
                cols,
            };
            let (got, stats) = eval(&db, &fused, 1);
            let (want, _) = eval(&db, &unfused, 1);
            assert_eq!(got, want, "case {case}: fused {kind:?} on {on:?}");
            let reused = usize::from(indexed);
            assert_eq!(join_stats.join_index_reuses, reused, "case {case}");
            assert_eq!(stats.join_index_reuses, reused, "case {case}: same path");
            assert_eq!((stats.joins, stats.projects), (1, 1));
            assert_eq!(
                stats.tuples_emitted,
                got.len() as u64,
                "a fused Project∘Join counts only the rows it materializes"
            );
        }
    }
}

/// Inputs past [`PARALLEL_JOIN_THRESHOLD`]: one and three threads give the
/// same bag for every kind, fused or not, cached index or hash table.
#[test]
fn one_and_three_threads_give_the_same_bag() {
    let bag = |rel: &Relation| {
        let mut rows: Vec<Vec<Value>> = rel.rows().map(<[Value]>::to_vec).collect();
        rows.sort();
        rows
    };
    let mut rng = Rng::new(7);
    let rows = PARALLEL_JOIN_THRESHOLD / 2 + 100;
    let left = relation(&mut rng, "l", 3, rows);
    let right = relation(&mut rng, "r", 3, rows);
    for on in [
        vec![(1, 0)],
        vec![(0, 1), (2, 2)],
        vec![(0, 0), (1, 1), (2, 2)],
    ] {
        for kind in KINDS {
            let one = hash_join(&left, &right, &on, kind, 1, &mut Stats::default());
            let three = hash_join(&left, &right, &on, kind, 3, &mut Stats::default());
            assert_eq!(bag(&one), bag(&three), "{kind:?} on {on:?}");
        }
    }
    let mut db = Database::new();
    db.insert("L", left);
    db.insert("R", right);
    db.build_indexes();
    for kind in KINDS {
        for right_plan in [
            Plan::Scan("R".into()),
            Plan::Scan("R".into()).select(Pred::True),
        ] {
            let plan = Plan::Project {
                input: Box::new(Plan::Join {
                    left: Box::new(Plan::Scan("L".into())),
                    right: Box::new(right_plan),
                    on: vec![(2, 1)],
                    kind,
                }),
                cols: vec![(0, "A".into()), (1, "B".into())],
            };
            let (one, s1) = eval(&db, &plan, 1);
            let (three, s3) = eval(&db, &plan, 3);
            assert_eq!(bag(&one), bag(&three), "fused {kind:?}");
            assert_eq!(s1.join_index_reuses, s3.join_index_reuses);
            assert_eq!(s1.tuples_emitted, s3.tuples_emitted);
        }
    }
}

#[test]
fn dedup_keeps_first_occurrences_in_order() {
    for case in 0..40u64 {
        let mut rng = Rng::new(2000 + case);
        let arity = 1 + rng.below(3) as usize;
        let rows = rng.below(80) as usize;
        let mut rel = relation(&mut rng, "c", arity, rows);
        let mut seen = HashSet::new();
        let want: Vec<Vec<Value>> = rel
            .rows()
            .map(<[Value]>::to_vec)
            .filter(|row| seen.insert(row.clone()))
            .collect();
        rel.dedup();
        let got: Vec<Vec<Value>> = rel.rows().map(<[Value]>::to_vec).collect();
        assert_eq!(got, want, "case {case}");
    }
}

#[test]
fn col_index_get_equals_linear_filter() {
    for case in 0..20u64 {
        let mut rng = Rng::new(3000 + case);
        let rows = rng.below(60) as usize;
        let rel = relation(&mut rng, "c", 3, rows);
        let mut db = Database::new();
        db.insert("R", rel.clone());
        db.build_indexes();
        for col in 0..2 {
            let idx = db.index_of("R", col).expect("indexed store");
            let mut probes: Vec<Value> = rel.rows().map(|r| r[col].clone()).collect();
            probes.extend([Value::Null, Value::Id(99), Value::str("absent")]);
            for v in &probes {
                let want: Vec<u32> = (0..rel.len() as u32)
                    .filter(|&i| *v != Value::Null && rel.row(i as usize)[col] == *v)
                    .collect();
                let got: Vec<u32> = idx.get(v).collect();
                assert_eq!(got, want, "case {case}: column {col} = {v:?}");
            }
            let distinct: HashSet<&Value> = rel
                .rows()
                .map(|r| &r[col])
                .filter(|v| **v != Value::Null)
                .collect();
            assert_eq!(idx.len(), distinct.len());
        }
    }
}
