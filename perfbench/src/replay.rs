//! Traced replays of the engine's prepare, translate and execute paths,
//! built only from the layers' public functions, with a span around each
//! call.

use std::collections::{BTreeSet, HashMap};

use x2s_core::x2e::RecMode;
use x2s_core::{exp_to_sql_with_report, xpath_to_exp, Engine, SqlOptions, Translation};
use x2s_dtd::Dtd;
use x2s_rel::exec::{eval_plan, ExecCtx};
use x2s_rel::{
    analyze_program_with, edge_scan_schema, optimize, render_program, Database, ExecError,
    ExecOptions, IntervalJoinSpec, OptLevel, Plan, Program, Relation, SqlDialect, Stats, Stmt,
    TempId,
};
use x2s_xpath::{parse_xpath, Path, Sat};

use crate::trace::{SpanId, Tracer};

/// The span of one executed statement, by the node that does its work.
fn stmt_layer(plan: &Plan) -> &'static str {
    let (mut lfp, mut interval) = (false, false);
    plan.visit(&mut |p| match p {
        Plan::Lfp(_) | Plan::MultiLfp(_) => lfp = true,
        Plan::IntervalJoin(_) => interval = true,
        _ => {}
    });
    if lfp {
        "rel.stmt_lfp"
    } else if interval {
        "rel.stmt_interval"
    } else {
        "rel.stmt_other"
    }
}

/// Replay `Translation::try_run` through `x2s_rel::eval_plan`, statement by
/// statement in the lazy dependency order `Program::execute` uses, with one
/// span per statement under a `rel.exec` span.
pub fn execute(
    tr: &Translation,
    db: &Database,
    opts: ExecOptions,
    stats: &mut Stats,
    (t, parent, op): (&Tracer, SpanId, u64),
) -> Result<BTreeSet<u32>, ExecError> {
    let exec = t.open("rel.exec", Some(parent), op);
    let program = match &tr.interval {
        Some(v) if opts.interval && db.has_intervals() => {
            stats.interval_rewrites += v.rewrites;
            &v.program
        }
        _ => &tr.program,
    };
    let result = program
        .result
        .ok_or(ExecError::UnknownTemp(TempId(u32::MAX)))?;
    let by_target: HashMap<TempId, &Stmt> = program.stmts.iter().map(|s| (s.target, s)).collect();
    let mut env: HashMap<TempId, Relation> = HashMap::new();
    let mut run = Materialize {
        by_target: &by_target,
        db,
        opts,
        t,
        exec,
        op,
    };
    run.materialize(result, &mut env, stats)?;
    stats.stmts_skipped += program.stmts.len() - stats.stmts_evaluated.min(program.stmts.len());
    let rel = env.remove(&result).ok_or(ExecError::UnknownTemp(result))?;
    let answers = rel.rows().filter_map(|row| row[0].as_id()).collect();
    drop((rel, env));
    t.close(exec);
    Ok(answers)
}

struct Materialize<'a> {
    by_target: &'a HashMap<TempId, &'a Stmt>,
    db: &'a Database,
    opts: ExecOptions,
    t: &'a Tracer,
    exec: SpanId,
    op: u64,
}

impl Materialize<'_> {
    fn materialize(
        &mut self,
        id: TempId,
        env: &mut HashMap<TempId, Relation>,
        stats: &mut Stats,
    ) -> Result<(), ExecError> {
        if env.contains_key(&id) {
            return Ok(());
        }
        self.opts.check_cancel(stats)?;
        let stmt = *self.by_target.get(&id).ok_or(ExecError::UnknownTemp(id))?;
        for dep in stmt.plan.referenced_temps() {
            self.materialize(dep, env, stats)?;
        }
        let span = self
            .t
            .open(stmt_layer(&stmt.plan), Some(self.exec), self.op);
        let rel = {
            let mut ctx = ExecCtx {
                db: self.db,
                env,
                opts: self.opts,
                stats,
            };
            eval_plan(&stmt.plan, &mut ctx)?.into_owned()
        };
        self.t.close(span);
        stats.stmts_evaluated += 1;
        env.insert(id, rel);
        Ok(())
    }
}

/// Replay `Engine::query` on a warm plan: parse, normalize, prepare
/// (a plan-cache hit), then [`execute`].
pub fn query(
    engine: &Engine<'_>,
    text: &str,
    stats: &mut Stats,
    (t, parent, op): (&Tracer, SpanId, u64),
) -> Result<BTreeSet<u32>, String> {
    let path = t
        .time("xpath.parse", parent, op, || parse_xpath(text))
        .map_err(|e| e.to_string())?;
    let canon = t.time("xpath.canon", parent, op, || engine.normalize_path(&path));
    prepared_execute(engine, &canon, stats, (t, parent, op))
}

/// Prepare an already-normalized path through the plan cache and replay
/// its execution.
pub fn prepared_execute(
    engine: &Engine<'_>,
    canon: &Path,
    stats: &mut Stats,
    (t, parent, op): (&Tracer, SpanId, u64),
) -> Result<BTreeSet<u32>, String> {
    let prepared = t
        .time("core.prepare", parent, op, || engine.prepare_path(canon))
        .map_err(|e| e.to_string())?;
    let Some(tr) = prepared.translation() else {
        return Ok(BTreeSet::new());
    };
    let db = engine.database().ok_or("no document loaded")?;
    execute(tr, db, engine.exec_options(), stats, (t, parent, op)).map_err(|e| e.to_string())
}

/// What a replayed translation produced, for comparison with the engine's
/// cached plan.
pub struct Replayed {
    /// The optimized program.
    pub program: Program,
    /// Its SQL'99 rendering.
    pub sql: String,
    /// `IntervalJoin` nodes in the interval variant (0 without one).
    pub interval_rewrites: usize,
}

/// Replay `Engine::prepare` + `PreparedQuery::sql(Sql99)` for a query the
/// plan cache has not seen: parse, normalize, the satisfiability gate, then
/// `Translator::translate` through its public pieces — `xpath_to_exp`,
/// `exp_to_sql_with_report` at `OptLevel::None`, `x2s_rel::optimize`,
/// `analyze_program_with`, `render_program` — and the interval-variant
/// compile. `None` when the gate proves the query empty.
pub fn translate(
    engine: &Engine<'_>,
    dtd: &Dtd,
    text: &str,
    (t, parent, op): (&Tracer, SpanId, u64),
) -> Result<Option<Replayed>, String> {
    let path = t
        .time("xpath.parse", parent, op, || parse_xpath(text))
        .map_err(|e| e.to_string())?;
    let canon = t.time("xpath.canon", parent, op, || engine.normalize_path(&path));
    if let Sat::Empty { .. } = t.time("xpath.sat", parent, op, || engine.check_sat(&canon)) {
        return Ok(None);
    }
    let (x2e, extended, var_map) = t
        .time("core.x2e", parent, op, || {
            xpath_to_exp(&canon, dtd, &RecMode::CycleEx).map(|tr| {
                let (extended, map) = tr.query.pruned_with_map();
                (tr, extended, map)
            })
        })
        .map_err(|e| e.to_string())?;
    let defaults = SqlOptions::default();
    let unoptimized = SqlOptions {
        optimize: OptLevel::None,
        ..defaults
    };
    let (raw, _) = t
        .time("core.e2sql", parent, op, || {
            exp_to_sql_with_report(&extended, &unoptimized, &HashMap::new())
        })
        .map_err(|e| e.to_string())?;
    // Each intermediate is dropped inside the span of its last user, so
    // its deallocation is charged to that layer rather than left between
    // spans.
    let (program, _) = t.time("rel.opt", parent, op, || {
        let optimized = optimize(&raw, defaults.optimize);
        drop(raw);
        optimized
    });
    t.time("rel.analyze", parent, op, || {
        analyze_program_with(&program, &edge_scan_schema)
    })
    .map_err(|e| e.to_string())?;
    let sql = t.time("rel.sql_render", parent, op, || {
        render_program(&program, SqlDialect::Sql99)
    });
    let interval_rewrites = t
        .time("core.interval_variant", parent, op, || {
            let overrides: HashMap<_, _> = x2e
                .rec_hints
                .iter()
                .filter_map(|hint| {
                    let var = *var_map.get(&hint.var)?;
                    let spec = IntervalJoinSpec {
                        left: Box::new(Plan::Scan(format!("R_{}", hint.from))),
                        left_col: 1,
                        right: format!("R_{}", hint.to),
                    };
                    Some((var, Plan::IntervalJoin(spec)))
                })
                .collect();
            let variant = if overrides.is_empty() {
                Ok(0)
            } else {
                exp_to_sql_with_report(&extended, &defaults, &overrides).map(|(variant, _)| {
                    let mut rewrites = 0;
                    for stmt in &variant.stmts {
                        stmt.plan.visit(&mut |p| {
                            if matches!(p, Plan::IntervalJoin(_)) {
                                rewrites += 1;
                            }
                        });
                    }
                    rewrites
                })
            };
            drop((x2e, extended, var_map));
            variant
        })
        .map_err(|e| e.to_string())?;
    Ok(Some(Replayed {
        program,
        sql,
        interval_rewrites,
    }))
}
