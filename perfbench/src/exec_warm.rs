//! `exec-warm`: one in-process caller runs `Engine::query` over pre-warmed
//! plans on Table-5-shaped documents.
//!
//! Root-anchored spellings (`dept//project`) take the interval path and
//! set the median; their document-rooted spellings (`//project`) take the
//! LFP path and set p99 and throughput. Each root-anchored query runs three
//! times for every run of its document-rooted spelling. The 12 plans fit
//! the plan cache, so translation is bypassed and the executor does the
//! work.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use x2s_core::Engine;
use x2s_dtd::{samples, Dtd};
use x2s_rel::{SqlDialect, Stats};
use x2s_xml::rng::SplitMix64;
use x2s_xml::Tree;
use x2s_xpath::{eval_from_document, parse_xpath};

use crate::gen::{document, shuffle, sub_seed};
use crate::stat::{Host, Samples, MIN_OPS};
use crate::trace::Tracer;
use crate::{replay, Report, RunCfg, SETUP_REPS};

/// Documents per DTD, each with its own engine. A single Table-5 document
/// varies a lot with its seed — the root's few children decide how much
/// of it a query reaches — so each run averages over several.
const DOCS_PER_DTD: usize = 3;

/// (DTD, generator shape `(X_L, X_R, elements)`) per DTD.
fn documents() -> [(Dtd, (usize, usize, usize)); 3] {
    [
        (samples::dept_simplified(), (12, 4, 10_000)),
        (samples::cross(), (12, 4, 10_000)),
        (samples::gedml(), (13, 6, 24_000)),
    ]
}

/// (DTD, root-anchored query, document-rooted spelling, whether the
/// two are equivalent). `a/b//c/d` has no document-rooted equivalent in
/// the fragment — `//b//c/d` also reaches `d`s below `b`s nested under a
/// `c` — so that pair is checked against the oracle one spelling at a time.
const PAIRS: [(usize, &str, &str, bool); 6] = [
    (0, "dept//project", "//project", true),
    (
        0,
        "dept//course[project or student]",
        "//course[project or student]",
        true,
    ),
    (1, "a//d", "//d", true),
    (1, "a/b//c/d", "//b//c/d", false),
    (2, "Even//Data", "//Data", true),
    (2, "Even//Obje[Sour]", "//Obje[Sour]", true),
];

/// Runs of each root-anchored spelling per run of its document-rooted one.
const ROOT_WEIGHT: usize = 3;

struct Query {
    doc: usize,
    text: &'static str,
    expected: BTreeSet<u32>,
}

fn oracle(dtd: &Dtd, tree: &Tree, text: &str) -> BTreeSet<u32> {
    let path = parse_xpath(text).expect("workload queries parse");
    eval_from_document(&path, tree, dtd)
        .into_iter()
        .map(|n| n.0)
        .collect()
}

/// One cycle of the mix: query indexes, each root-anchored query
/// `ROOT_WEIGHT` times, each document-rooted one once.
fn cycle(queries: &[Query]) -> Vec<usize> {
    (0..queries.len())
        .flat_map(|i| std::iter::repeat_n(i, if i % 2 == 0 { ROOT_WEIGHT } else { 1 }))
        .collect()
}

/// Run the seeded mix until `seconds` have passed and at least
/// [`MIN_OPS`] operations were attempted. `op` is timed alone;
/// `check` then sees the query's index, the latency in ms and the result,
/// and says whether the operation succeeded. Returns the successful
/// operations and how many were attempted.
fn window<R>(
    queries: &[Query],
    seed: u64,
    seconds: f64,
    mut op: impl FnMut(&Query) -> R,
    mut check: impl FnMut(usize, f64, R) -> Result<bool, String>,
) -> Result<(Samples, u64), String> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut order = cycle(queries);
    let mut samples = Samples::default();
    let mut attempted = 0;
    let limit = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    loop {
        shuffle(&mut order, &mut rng);
        for &qi in &order {
            if start.elapsed() >= limit && attempted >= MIN_OPS as u64 {
                return Ok((samples, attempted));
            }
            let begin = Instant::now();
            let result = op(&queries[qi]);
            let end = Instant::now();
            let latency = (end - begin).as_secs_f64() * 1e3;
            attempted += 1;
            if check(qi, latency, result)? {
                samples.push((end - start).as_secs_f64(), latency, qi);
            }
        }
    }
}

pub fn run(cfg: &RunCfg) -> Result<Report, String> {
    let docs = documents();
    let mut report = Report::default();

    // Set up several times and keep the last; oracle answers are computed
    // afterwards, outside the setup time.
    let (mut setup_s, mut generate_ms, mut load_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut loaded: Option<(Vec<Tree>, Vec<Engine<'_>>)> = None;
    for _ in 0..SETUP_REPS {
        // the previous setup is freed first, so setups never overlap
        drop(loaded.take());
        let start = Instant::now();
        let trees: Vec<Tree> = (0..docs.len() * DOCS_PER_DTD)
            .map(|i| {
                let (dtd, shape) = &docs[i / DOCS_PER_DTD];
                document(dtd, *shape, sub_seed(cfg.seed, i as u64))
            })
            .collect();
        let generated = Instant::now();
        let engines: Vec<Engine<'_>> = trees
            .iter()
            .enumerate()
            .map(|(i, tree)| {
                let mut engine = Engine::new(&docs[i / DOCS_PER_DTD].0);
                engine.load(tree);
                engine
            })
            .collect();
        let done = Instant::now();
        setup_s.push((done - start).as_secs_f64());
        generate_ms.push((generated - start).as_secs_f64() * 1e3);
        load_ms.push((done - generated).as_secs_f64() * 1e3);
        loaded = Some((trees, engines));
    }
    let (trees, engines) = loaded.expect("at least one setup");
    report.setups(&setup_s, &generate_ms, &load_ms);
    let tuples: usize = engines
        .iter()
        .filter_map(|e| e.database().map(|db| db.total_tuples()))
        .sum();
    report.set("setup.tuples", tuples as f64);
    report.notes.push(format!(
        "documents: {} elements",
        trees
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let dtd = &docs[i / DOCS_PER_DTD].0;
                format!("{}={}", dtd.name(dtd.root()), t.len())
            })
            .collect::<Vec<_>>()
            .join(" ")
    ));

    let mut queries = Vec::new();
    for (d, root_anchored, doc_rooted, equivalent) in PAIRS {
        let dtd = &docs[d].0;
        let first = d * DOCS_PER_DTD;
        for (doc, tree) in trees.iter().enumerate().skip(first).take(DOCS_PER_DTD) {
            let a = oracle(dtd, tree, root_anchored);
            let b = oracle(dtd, tree, doc_rooted);
            if equivalent && a != b {
                return Err(format!(
                    "oracle: {root_anchored} and {doc_rooted} differ ({} vs {} ids)",
                    a.len(),
                    b.len()
                ));
            }
            queries.push(Query {
                doc,
                text: root_anchored,
                expected: a,
            });
            queries.push(Query {
                doc,
                text: doc_rooted,
                expected: b,
            });
        }
    }
    if cfg.corrupt {
        let first = queries[0].expected.first().copied();
        if let Some(id) = first {
            queries[0].expected.remove(&id);
        }
    }

    // Warm every plan and check it once; record the static SQL metrics.
    let (mut ops_sum, mut bytes_sum) = (0usize, 0usize);
    for q in &queries {
        let engine = &engines[q.doc];
        let prepared = engine
            .prepare(q.text)
            .map_err(|e| format!("{}: {e}", q.text))?;
        let tr = prepared
            .translation()
            .ok_or_else(|| format!("{} was pruned", q.text))?;
        ops_sum += tr.program.op_counts().total();
        bytes_sum += prepared.sql(SqlDialect::Sql99).len();
        check(q, engine.query(q.text).map_err(|e| e.to_string())?)?;
    }
    report.set("sql_ops_per_query", ops_sum as f64 / queries.len() as f64);
    report.set(
        "sql_bytes_per_query",
        bytes_sum as f64 / queries.len() as f64,
    );
    for e in &engines {
        e.reset_stats();
    }

    // The measured window: Engine::query, timed alone.
    let (mut answers, mut per_query) = (0u64, vec![(0.0, 0u32); queries.len()]);
    let (samples, attempted) = window(
        &queries,
        sub_seed(cfg.seed, 100),
        cfg.seconds,
        |q| engines[q.doc].query(q.text),
        |qi, latency, result| match result {
            Ok(got) => {
                answers += got.len() as u64;
                per_query[qi].0 += latency;
                per_query[qi].1 += 1;
                check(&queries[qi], got).map(|()| true)
            }
            Err(_) => Ok(false),
        },
    )?;
    let mut by_text: BTreeMap<&str, (f64, u32)> = BTreeMap::new();
    for (q, (sum, n)) in queries.iter().zip(&per_query) {
        let entry = by_text.entry(q.text).or_default();
        entry.0 += sum;
        entry.1 += n;
    }
    report.notes.push(format!(
        "mean ms per query: {}",
        by_text
            .iter()
            .map(|(text, (sum, n))| format!("{text}={:.2}", sum / f64::from((*n).max(1))))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let mut stats = Stats::default();
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
    report.attempted = attempted;
    report.failed = attempted - samples.len() as u64;
    report.latencies(&samples, Host::Adjust)?;
    report.outcomes();
    report.counts(&stats, attempted, answers);
    report.set("peak_rss_mb", crate::peak_rss_mb());

    if cfg.trace {
        check_replay(&queries, &engines)?;
        let tracer = Tracer::default();
        let mut replay_stats = Stats::default();
        let mut op = 0u64;
        window(
            &queries,
            sub_seed(cfg.seed, 101),
            cfg.seconds,
            |q| {
                op += 1;
                let root = tracer.open("op", None, op);
                let got = replay::query(
                    &engines[q.doc],
                    q.text,
                    &mut replay_stats,
                    (&tracer, root, op),
                );
                tracer.close(root);
                got
            },
            |qi, _, got| check(&queries[qi], got?).map(|()| true),
        )?;
        report.spans = tracer.into_spans();
        report.layers("op");
        report.require_coverage()?;
    }
    Ok(report)
}

fn check(q: &Query, got: BTreeSet<u32>) -> Result<(), String> {
    if got != q.expected {
        return Err(format!(
            "{}: {} answers, oracle has {}",
            q.text,
            got.len(),
            q.expected.len()
        ));
    }
    Ok(())
}

/// The replay must do the engine's work: per query, its executor counters
/// equal those of one `Engine::query`.
fn check_replay(queries: &[Query], engines: &[Engine<'_>]) -> Result<(), String> {
    for q in queries {
        let engine = &engines[q.doc];
        engine.reset_stats();
        engine.query(q.text).map_err(|e| e.to_string())?;
        let want = engine.stats();
        let tracer = Tracer::default();
        let root = tracer.open("op", None, 0);
        let mut got = Stats::default();
        replay::query(engine, q.text, &mut got, (&tracer, root, 0))?;
        let key = |s: &Stats| {
            (
                s.tuples_emitted,
                s.lfp_iterations,
                s.stmts_evaluated,
                s.interval_rows_scanned,
                s.interval_rewrites,
                s.join_index_reuses,
            )
        };
        if key(&got) != key(&want) {
            return Err(format!(
                "replay of {} diverges from the engine: {:?} vs {:?}",
                q.text,
                key(&got),
                key(&want)
            ));
        }
    }
    for e in engines {
        e.reset_stats();
    }
    Ok(())
}
