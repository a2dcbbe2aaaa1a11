//! `translate-cold`: one caller prepares a seeded stream of 1000 distinct
//! queries over three DTDs with `Engine::prepare` and renders each with
//! `PreparedQuery::sql(SqlDialect::Sql99)`. No document is loaded.
//!
//! The stream far exceeds the plan cache and is replayed in passes on
//! fresh engines, so no query repeats on an engine and every prepare runs
//! the sat gate, CycleEX, e2sql, the optimizer, the analyzer and the
//! interval-variant compile; the executor is never touched. Replaying the
//! stream gives each query several timings, which the host-speed
//! adjustment in [`crate::stat`] needs. One query in five is statically
//! empty by construction, so the median lands on translated queries, not
//! on the cheap pruned ones.

use std::time::{Duration, Instant};

use x2s_core::Engine;
use x2s_dtd::{samples, Dtd};
use x2s_rel::{SqlDialect, Stats};
use x2s_xml::rng::SplitMix64;
use x2s_xml::Tree;
use x2s_xpath::{eval_from_document, parse_xpath};

use crate::gen::{document, sub_seed, ColdQuery, ColdStream};
use crate::stat::{Host, Samples, MIN_OPS};
use crate::trace::Tracer;
use crate::{replay, stat, Report, RunCfg, SETUP_REPS};

/// Distinct queries in the stream, drawn during setup: far more than the
/// plan cache holds, yet few enough that a window makes a dozen passes, so
/// each query has enough timings for the host-speed adjustment (3000 left
/// most queries with three timings and the adjustment blind to runs spent
/// in a slow phase). The window always completes the first pass, so the
/// SQL metrics cover the whole stream.
const STREAM_LEN: usize = 1000;
const _: () = assert!(STREAM_LEN >= MIN_OPS);

/// Translated queries executed against the oracle after the window.
const EXEC_SAMPLE: usize = 30;

fn dtds() -> [Dtd; 3] {
    [
        samples::dept_simplified(),
        samples::cross(),
        samples::gedml(),
    ]
}

fn mean(values: impl Iterator<Item = usize>) -> f64 {
    let (sum, n) = values.fold((0, 0), |(sum, n), v| (sum + v, n + 1));
    stat::ratio(sum as f64, n as f64)
}

/// What one prepare produced, recorded outside its timed span.
struct Prepared {
    index: usize,
    pruned: bool,
    ops: usize,
    sql_bytes: usize,
    ops_before: usize,
}

pub fn run(cfg: &RunCfg) -> Result<Report, String> {
    let dtds = dtds();
    let refs: Vec<&Dtd> = dtds.iter().collect();
    let mut report = Report::default();

    let (mut setup_s, mut generate_ms) = (Vec::new(), Vec::new());
    let mut ready = None;
    for _ in 0..SETUP_REPS {
        drop(ready.take());
        let start = Instant::now();
        let drawn: Vec<ColdQuery> = ColdStream::new(&refs, sub_seed(cfg.seed, 0))
            .take(STREAM_LEN)
            .collect();
        let generated = Instant::now();
        let engines: Vec<Engine<'_>> = dtds.iter().map(Engine::new).collect();
        setup_s.push(start.elapsed().as_secs_f64());
        generate_ms.push((generated - start).as_secs_f64() * 1e3);
        ready = Some((drawn, engines));
    }
    let (drawn, mut engines) = ready.expect("at least one setup");
    // no document is loaded
    report.setups(&setup_s, &generate_ms, &[0.0]);

    // The window: the stream in passes, each pass on fresh engines, so
    // every prepare finds an empty or unrelated plan cache. Building the
    // engines is outside the window's measured time.
    let mut samples = Samples::default();
    let mut outcomes = Vec::new();
    let mut stats = Stats::default();
    let mut attempted = 0u64;
    let limit = Duration::from_secs_f64(cfg.seconds);
    let mut rebuilding = Duration::ZERO;
    let start = Instant::now();
    'window: for pass in 0.. {
        if pass > 0 {
            let rebuild = Instant::now();
            for e in &engines {
                stats.merge(&e.stats());
            }
            engines = dtds.iter().map(Engine::new).collect();
            rebuilding += rebuild.elapsed();
        }
        for (index, q) in drawn.iter().enumerate() {
            if start.elapsed() - rebuilding >= limit && attempted >= STREAM_LEN as u64 {
                break 'window;
            }
            let op = Instant::now();
            let result = engines[q.dtd].prepare(&q.text).map(|p| {
                let sql = p.sql(SqlDialect::Sql99);
                (p, sql)
            });
            let end = Instant::now();
            attempted += 1;
            if let Ok((p, sql)) = result {
                samples.push(
                    (end - start - rebuilding).as_secs_f64(),
                    (end - op).as_secs_f64() * 1e3,
                    index,
                );
                if pass == 0 {
                    outcomes.push(Prepared {
                        index,
                        pruned: p.is_statically_empty(),
                        ops: p.translation().map_or(0, |t| t.program.op_counts().total()),
                        sql_bytes: sql.len(),
                        ops_before: p.translation().map_or(0, |t| t.opt.before.total()),
                    });
                }
            }
        }
    }
    for e in &engines {
        stats.merge(&e.stats());
    }
    if stats.plan_cache_hits + stats.plan_cache_misses + stats.sat_pruned != attempted as usize {
        return Err(format!(
            "accounting: hits {} + misses {} + sat_pruned {} != prepares {attempted}",
            stats.plan_cache_hits, stats.plan_cache_misses, stats.sat_pruned
        ));
    }
    if stats.analyze_warnings != 0 {
        return Err(format!("{} analyzer warnings", stats.analyze_warnings));
    }

    let translated: Vec<&Prepared> = outcomes.iter().filter(|o| !o.pruned).collect();
    report.set(
        "rel.opt_ops_before",
        mean(translated.iter().map(|o| o.ops_before)),
    );
    report.set("rel.opt_ops_after", mean(translated.iter().map(|o| o.ops)));
    report.set("sql_ops_per_query", mean(translated.iter().map(|o| o.ops)));
    report.set(
        "sql_bytes_per_query",
        mean(translated.iter().map(|o| o.sql_bytes)),
    );

    report.attempted = attempted;
    report.failed = attempted - samples.len() as u64;
    report.latencies(&samples, Host::Adjust)?;
    report.outcomes();
    report.counts(&stats, attempted, 0);
    report.set("peak_rss_mb", crate::peak_rss_mb());
    report.notes.push(format!(
        "stream: {} distinct queries, {} statically empty; {attempted} prepares",
        drawn.len(),
        outcomes.iter().filter(|o| o.pruned).count()
    ));

    check_answers(cfg, &refs, &drawn, &outcomes)?;

    if cfg.trace {
        let tracer = Tracer::default();
        let mut op = 0u64;
        let start = Instant::now();
        for q in ColdStream::new(&refs, sub_seed(cfg.seed, 1)) {
            if start.elapsed() >= limit {
                break;
            }
            op += 1;
            let root = tracer.open("op", None, op);
            let replayed =
                replay::translate(&engines[q.dtd], refs[q.dtd], &q.text, (&tracer, root, op));
            tracer.close(root);
            check_replay(&engines[q.dtd], &q, replayed?)?;
        }
        report.spans = tracer.into_spans();
        report.layers("op");
        report.require_coverage()?;
    }
    Ok(report)
}

/// The replay must produce the engine's plan: same verdict, same operator
/// counts, same SQL, same interval rewrites.
fn check_replay(
    engine: &Engine<'_>,
    q: &ColdQuery,
    replayed: Option<replay::Replayed>,
) -> Result<(), String> {
    let prepared = engine.prepare(&q.text).map_err(|e| e.to_string())?;
    match (prepared.translation(), replayed) {
        (None, None) => Ok(()),
        (Some(tr), Some(r)) => {
            let rewrites = tr.interval.as_ref().map_or(0, |v| v.rewrites);
            if tr.program.op_counts() != r.program.op_counts()
                || prepared.sql(SqlDialect::Sql99) != r.sql
                || rewrites != r.interval_rewrites
            {
                return Err(format!(
                    "replayed translation of {} differs from the engine's plan",
                    q.text
                ));
            }
            Ok(())
        }
        _ => Err(format!(
            "replay and engine disagree on whether {} is empty",
            q.text
        )),
    }
}

/// Statically-empty verdicts and a seeded sample of translated queries,
/// checked against the oracle on small generated documents.
fn check_answers(
    cfg: &RunCfg,
    dtds: &[&Dtd],
    stream: &[ColdQuery],
    outcomes: &[Prepared],
) -> Result<(), String> {
    let docs: Vec<Vec<Tree>> = dtds
        .iter()
        .enumerate()
        .map(|(d, dtd)| {
            (0..2)
                .map(|k| document(dtd, (8, 3, 400), sub_seed(cfg.seed, 10 + 2 * d as u64 + k)))
                .collect()
        })
        .collect();
    let mut checkers: Vec<Vec<Engine<'_>>> = Vec::new();
    for (dtd, trees) in dtds.iter().zip(&docs) {
        checkers.push(
            trees
                .iter()
                .map(|tree| {
                    let mut engine = Engine::new(dtd);
                    engine.load(tree);
                    engine
                })
                .collect(),
        );
    }
    let oracle = |q: &ColdQuery, k: usize| -> Result<std::collections::BTreeSet<u32>, String> {
        let path = parse_xpath(&q.text).map_err(|e| e.to_string())?;
        Ok(eval_from_document(&path, &docs[q.dtd][k], dtds[q.dtd])
            .into_iter()
            .map(|n| n.0)
            .collect())
    };
    for o in outcomes.iter().filter(|o| o.pruned) {
        let q = &stream[o.index];
        for k in 0..2 {
            if !oracle(q, k)?.is_empty() {
                return Err(format!("{} was pruned but has answers", q.text));
            }
        }
    }
    let translated: Vec<&Prepared> = outcomes.iter().filter(|o| !o.pruned).collect();
    let mut rng = SplitMix64::seed_from_u64(sub_seed(cfg.seed, 20));
    for i in 0..EXEC_SAMPLE.min(translated.len()) {
        let q = &stream[translated[rng.gen_range(0..translated.len())].index];
        for (k, engine) in checkers[q.dtd].iter().enumerate() {
            let mut want = oracle(q, k)?;
            if cfg.corrupt && i == 0 {
                want.insert(u32::MAX);
            }
            let got = engine
                .query(&q.text)
                .map_err(|e| format!("{}: {e}", q.text))?;
            if got != want {
                return Err(format!(
                    "{}: {} answers, oracle has {}",
                    q.text,
                    got.len(),
                    want.len()
                ));
            }
        }
    }
    Ok(())
}
